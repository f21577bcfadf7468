// Seeded dropped-qtoken violations: a PDPIX op that returns a qtoken must not have it discarded
// with a (void) cast; the application redeems every qtoken it is handed.

#include "src/core/libos.h"

namespace demi {

void Reply(LibOS& os, LibOS* peer, QueueDesc qd, const Sgarray& sga, SocketAddress to) {
  (void)os.Push(qd, sga);                              // demilint-expect: dropped-qtoken
  (void) peer->PushTo(qd, sga, to);                    // demilint-expect: dropped-qtoken
  (void)os.Pop(qd);                                    // demilint-expect: dropped-qtoken
  (void)peer->Accept(qd);                              // demilint-expect: dropped-qtoken
  (void)os.Connect(qd, to);                            // demilint-expect: dropped-qtoken
  auto push = os.Push(qd, sga);                        // kept: fine
  if (push.ok() && !os.TryTake(*push).ok()) {          // redeemed: fine
    (void)os.Close(qd);                                // returns a Status, not a qtoken: fine
  }
  (void)os.PushBack(qd);                               // not a PDPIX op: fine
}

}  // namespace demi
