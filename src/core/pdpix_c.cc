#include "src/core/pdpix_c.h"

#include <cerrno>

#include "src/core/libos.h"

namespace demi {

namespace {

thread_local LibOS* g_current_libos = nullptr;

int StatusToErrno(Status s) {
  switch (s) {
    case Status::kOk: return 0;
    case Status::kInvalidArgument: return -EINVAL;
    case Status::kBadQueueDescriptor: return -EBADF;
    case Status::kBadQToken: return -EINVAL;
    case Status::kWouldBlock: return -EWOULDBLOCK;
    case Status::kConnectionRefused: return -ECONNREFUSED;
    case Status::kConnectionReset: return -ECONNRESET;
    case Status::kConnectionAborted: return -ECONNABORTED;
    case Status::kNotConnected: return -ENOTCONN;
    case Status::kAlreadyConnected: return -EISCONN;
    case Status::kAddressInUse: return -EADDRINUSE;
    case Status::kTimedOut: return -ETIMEDOUT;
    case Status::kMessageTooLong: return -EMSGSIZE;
    case Status::kNoMemory: return -ENOMEM;
    case Status::kNoBufferSpace: return -ENOBUFS;
    case Status::kQueueFull: return -ENOBUFS;
    case Status::kEndOfFile: return 0;  /* EOF is a successful zero-length completion */
    case Status::kNotSupported: return -EOPNOTSUPP;
    case Status::kPermissionDenied: return -EACCES;
    case Status::kNotFound: return -ENOENT;
    case Status::kIoError: return -EIO;
    case Status::kProtocolError: return -EPROTO;
    case Status::kCancelled: return -ECANCELED;
    case Status::kInternal: return -EFAULT;
  }
  return -EIO;
}

Sgarray FromC(const demi_sgarray_t* sga) {
  Sgarray out;
  out.num_segs = sga->numsegs;
  for (uint32_t i = 0; i < sga->numsegs && i < kSgaMaxSegments; i++) {
    out.segs[i] = {sga->segs[i].buf, sga->segs[i].len};
  }
  return out;
}

demi_sgarray_t ToC(const Sgarray& sga) {
  demi_sgarray_t out = {};
  out.numsegs = sga.num_segs;
  for (uint32_t i = 0; i < sga.num_segs; i++) {
    out.segs[i].buf = sga.segs[i].buf;
    out.segs[i].len = sga.segs[i].len;
  }
  return out;
}

demi_qresult_t ToC(const QResult& r) {
  demi_qresult_t out = {};
  switch (r.opcode) {
    case OpCode::kPush: out.opcode = DEMI_OPC_PUSH; break;
    case OpCode::kPop: out.opcode = DEMI_OPC_POP; break;
    case OpCode::kAccept: out.opcode = DEMI_OPC_ACCEPT; break;
    case OpCode::kConnect: out.opcode = DEMI_OPC_CONNECT; break;
    case OpCode::kSplice: out.opcode = DEMI_OPC_SPLICE; break;
    default: out.opcode = DEMI_OPC_INVALID; break;
  }
  out.qd = r.qd;
  out.error = StatusToErrno(r.status);
  out.sga = ToC(r.sga);
  out.remote = {r.remote.ip.value, r.remote.port};
  out.new_qd = r.new_qd;
  out.bytes = r.bytes;
  out.offset = r.offset;
  return out;
}

}  // namespace

void BindPdpixThread(LibOS* os) { g_current_libos = os; }
LibOS* CurrentPdpixLibOS() { return g_current_libos; }

}  // namespace demi

using demi::g_current_libos;

extern "C" {

demi_qd_t demi_socket(int type) {
  if (g_current_libos == nullptr) {
    return -ENODEV;
  }
  auto r = g_current_libos->Socket(type == 0 ? demi::SocketType::kStream
                                             : demi::SocketType::kDatagram);
  return r.ok() ? *r : demi::StatusToErrno(r.error());
}

int demi_bind(demi_qd_t qd, const demi_sockaddr_t* addr) {
  if (g_current_libos == nullptr || addr == nullptr) {
    return -EINVAL;
  }
  return demi::StatusToErrno(
      g_current_libos->Bind(qd, {demi::Ipv4Addr{addr->ip}, addr->port}));
}

int demi_listen(demi_qd_t qd, int backlog) {
  if (g_current_libos == nullptr) {
    return -ENODEV;
  }
  return demi::StatusToErrno(g_current_libos->Listen(qd, backlog));
}

demi_qtoken_t demi_accept(demi_qd_t qd) {
  if (g_current_libos == nullptr) {
    return 0;
  }
  auto r = g_current_libos->Accept(qd);
  return r.ok() ? *r : 0;
}

demi_qtoken_t demi_connect(demi_qd_t qd, const demi_sockaddr_t* addr) {
  if (g_current_libos == nullptr || addr == nullptr) {
    return 0;
  }
  auto r = g_current_libos->Connect(qd, {demi::Ipv4Addr{addr->ip}, addr->port});
  return r.ok() ? *r : 0;
}

int demi_close(demi_qd_t qd) {
  if (g_current_libos == nullptr) {
    return -ENODEV;
  }
  return demi::StatusToErrno(g_current_libos->Close(qd));
}

demi_qd_t demi_open(const char* path) {
  if (g_current_libos == nullptr || path == nullptr) {
    return -EINVAL;
  }
  auto r = g_current_libos->Open(path);
  return r.ok() ? *r : demi::StatusToErrno(r.error());
}

int demi_seek(demi_qd_t qd, uint64_t offset) {
  if (g_current_libos == nullptr) {
    return -ENODEV;
  }
  return demi::StatusToErrno(g_current_libos->Seek(qd, offset));
}

int demi_truncate(demi_qd_t qd, uint64_t offset) {
  if (g_current_libos == nullptr) {
    return -ENODEV;
  }
  return demi::StatusToErrno(g_current_libos->Truncate(qd, offset));
}

demi_qd_t demi_queue(void) {
  if (g_current_libos == nullptr) {
    return -ENODEV;
  }
  auto r = g_current_libos->MemoryQueue();
  return r.ok() ? *r : demi::StatusToErrno(r.error());
}

demi_qtoken_t demi_push(demi_qd_t qd, const demi_sgarray_t* sga) {
  if (g_current_libos == nullptr || sga == nullptr) {
    return 0;
  }
  auto r = g_current_libos->Push(qd, demi::FromC(sga));
  return r.ok() ? *r : 0;
}

demi_qtoken_t demi_pushto(demi_qd_t qd, const demi_sgarray_t* sga,
                          const demi_sockaddr_t* addr) {
  if (g_current_libos == nullptr || sga == nullptr || addr == nullptr) {
    return 0;
  }
  auto r = g_current_libos->PushTo(qd, demi::FromC(sga),
                                   {demi::Ipv4Addr{addr->ip}, addr->port});
  return r.ok() ? *r : 0;
}

demi_qtoken_t demi_pop(demi_qd_t qd) {
  if (g_current_libos == nullptr) {
    return 0;
  }
  auto r = g_current_libos->Pop(qd);
  return r.ok() ? *r : 0;
}

demi_qtoken_t demi_splice(demi_qd_t src_qd, demi_qd_t dst_qd) {
  if (g_current_libos == nullptr) {
    return 0;
  }
  auto r = g_current_libos->Splice(src_qd, dst_qd);
  return r.ok() ? *r : 0;
}

int demi_wait(demi_qresult_t* out, demi_qtoken_t qt, uint64_t timeout_ns) {
  if (g_current_libos == nullptr || out == nullptr) {
    return -EINVAL;
  }
  auto r = g_current_libos->Wait(qt, timeout_ns);
  if (!r.ok()) {
    return demi::StatusToErrno(r.error());
  }
  *out = demi::ToC(*r);
  return 0;
}

int demi_wait_any(demi_qresult_t* out, size_t* index_out, const demi_qtoken_t* qts,
                  size_t num_qts, uint64_t timeout_ns) {
  if (g_current_libos == nullptr || out == nullptr || qts == nullptr) {
    return -EINVAL;
  }
  size_t index = 0;
  auto r = g_current_libos->WaitAny({qts, num_qts}, &index, timeout_ns);
  if (!r.ok()) {
    return demi::StatusToErrno(r.error());
  }
  if (index_out != nullptr) {
    *index_out = index;
  }
  *out = demi::ToC(*r);
  return 0;
}

int demi_wait_all(demi_qresult_t* out, const demi_qtoken_t* qts, size_t num_qts,
                  uint64_t timeout_ns) {
  if (g_current_libos == nullptr || out == nullptr || qts == nullptr) {
    return -EINVAL;
  }
  std::vector<demi::QResult> results;
  const demi::Status s = g_current_libos->WaitAll({qts, num_qts}, &results, timeout_ns);
  if (s != demi::Status::kOk) {
    return demi::StatusToErrno(s);
  }
  for (size_t i = 0; i < results.size(); i++) {
    out[i] = demi::ToC(results[i]);
  }
  return 0;
}

demi_sgarray_t demi_sga_alloc(uint32_t size) {
  demi_sgarray_t sga = {};
  if (g_current_libos == nullptr) {
    return sga;
  }
  void* buf = g_current_libos->DmaMalloc(size);
  if (buf != nullptr) {
    sga.numsegs = 1;
    sga.segs[0].buf = buf;
    sga.segs[0].len = size;
  }
  return sga;
}

void demi_sga_free(demi_sgarray_t* sga) {
  if (g_current_libos == nullptr || sga == nullptr) {
    return;
  }
  for (uint32_t i = 0; i < sga->numsegs; i++) {
    g_current_libos->DmaFree(sga->segs[i].buf);
    sga->segs[i].buf = nullptr;
    sga->segs[i].len = 0;
  }
  sga->numsegs = 0;
}

void* demi_malloc(size_t size) {
  return g_current_libos == nullptr ? nullptr : g_current_libos->DmaMalloc(size);
}

void demi_free(void* ptr) {
  if (g_current_libos != nullptr) {
    g_current_libos->DmaFree(ptr);
  }
}

}  // extern "C"
