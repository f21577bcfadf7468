/*
 * PDPIX C API (paper Figure 2).
 *
 * The paper's library-call surface is C — existing µs-scale applications (Redis, TxnStore, the
 * TURN relay) are C/C++ programs ported by swapping POSIX calls for these. This header is
 * C-compatible; the implementation binds to a demi::LibOS instance per thread.
 *
 * Conventions follow the paper: calls that return descriptors in POSIX return queue
 * descriptors; push/pop return qtokens redeemed via demi_wait*; all I/O memory comes from
 * demi_sga_alloc / the DMA-capable heap; errors are negative errno-style codes.
 */

#ifndef SRC_CORE_PDPIX_C_H_
#define SRC_CORE_PDPIX_C_H_

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

#define DEMI_SGA_MAXSEGS 4

typedef int demi_qd_t;
typedef uint64_t demi_qtoken_t;

typedef struct demi_sgaseg {
  void* buf;
  uint32_t len;
} demi_sgaseg_t;

typedef struct demi_sgarray {
  uint32_t numsegs;
  demi_sgaseg_t segs[DEMI_SGA_MAXSEGS];
} demi_sgarray_t;

typedef struct demi_sockaddr {
  uint32_t ip;   /* IPv4, host byte order */
  uint16_t port;
} demi_sockaddr_t;

typedef enum demi_opcode {
  DEMI_OPC_INVALID = 0,
  DEMI_OPC_PUSH,
  DEMI_OPC_POP,
  DEMI_OPC_ACCEPT,
  DEMI_OPC_CONNECT,
  DEMI_OPC_SPLICE,
} demi_opcode_t;

typedef struct demi_qresult {
  demi_opcode_t opcode;
  demi_qd_t qd;
  int error;               /* 0 on success, negative errno otherwise */
  demi_sgarray_t sga;      /* pop: app-owned buffers */
  demi_sockaddr_t remote;  /* accept/pop(udp): peer */
  demi_qd_t new_qd;        /* accept: connection queue */
  uint64_t bytes;          /* splice: total payload bytes moved; file push: log bytes free */
  uint64_t offset;         /* file push: the record's log offset (for demi_truncate) */
} demi_qresult_t;

/* Queue creation and management. type: 0 = stream (SOCK_STREAM), 1 = datagram (SOCK_DGRAM). */
demi_qd_t demi_socket(int type);
int demi_bind(demi_qd_t qd, const demi_sockaddr_t* addr);
int demi_listen(demi_qd_t qd, int backlog);
demi_qtoken_t demi_accept(demi_qd_t qd);
demi_qtoken_t demi_connect(demi_qd_t qd, const demi_sockaddr_t* addr);
int demi_close(demi_qd_t qd);
demi_qd_t demi_open(const char* path);
int demi_seek(demi_qd_t qd, uint64_t offset);
int demi_truncate(demi_qd_t qd, uint64_t offset);
demi_qd_t demi_queue(void); /* lightweight in-memory queue */

/* I/O processing. Returns 0 on qtoken allocation failure. */
demi_qtoken_t demi_push(demi_qd_t qd, const demi_sgarray_t* sga);
demi_qtoken_t demi_pushto(demi_qd_t qd, const demi_sgarray_t* sga,
                          const demi_sockaddr_t* addr);
demi_qtoken_t demi_pop(demi_qd_t qd);
/* Zero-copy in-libOS stream move (sendfile): runs until src's end of stream, then the qtoken
 * completes with bytes = total payload moved. Supported pairs are libOS-specific (the
 * integrated network x storage libOSes splice TCP connections and log files either way). */
demi_qtoken_t demi_splice(demi_qd_t src_qd, demi_qd_t dst_qd);

/* Notification. timeout_ns 0 = wait forever. */
int demi_wait(demi_qresult_t* out, demi_qtoken_t qt, uint64_t timeout_ns);
int demi_wait_any(demi_qresult_t* out, size_t* index_out, const demi_qtoken_t* qts,
                  size_t num_qts, uint64_t timeout_ns);
int demi_wait_all(demi_qresult_t* out /* num_qts entries */, const demi_qtoken_t* qts,
                  size_t num_qts, uint64_t timeout_ns);

/* Memory: the DMA-capable heap. */
demi_sgarray_t demi_sga_alloc(uint32_t size);
void demi_sga_free(demi_sgarray_t* sga);
void* demi_malloc(size_t size);
void demi_free(void* ptr);

#ifdef __cplusplus
} /* extern "C" */

/* C++-side binding: attach a libOS to the calling thread's PDPIX C API. */
namespace demi {
class LibOS;
/* Sets (or clears, with nullptr) the libOS the C calls above operate on. */
void BindPdpixThread(LibOS* os);
LibOS* CurrentPdpixLibOS();
}  // namespace demi
#endif

#endif /* SRC_CORE_PDPIX_C_H_ */
