// Congestion control: Cubic (RFC 8312), the algorithm Catnip ships with. Each connection's cold
// half holds one by value; there is no other algorithm to choose.

#ifndef SRC_NET_TCP_CONGESTION_H_
#define SRC_NET_TCP_CONGESTION_H_

#include <cstddef>

#include "src/common/clock.h"

namespace demi {

// RFC 8312 Cubic with standard slow start below ssthresh.
class CubicCongestion {
 public:
  explicit CubicCongestion(size_t mss);

  // Bytes newly acknowledged by a cumulative ack.
  void OnAck(size_t bytes_acked, TimeNs now);
  // Loss inferred via triple duplicate acks (fast retransmit): multiplicative decrease.
  void OnFastRetransmit(TimeNs now);
  // Loss inferred via RTO: collapse to slow start.
  void OnTimeout(TimeNs now);

  size_t cwnd() const { return cwnd_; }

 private:
  void EnterRecovery(TimeNs now, double beta_cwnd_factor);
  double CubicWindow(double t_seconds) const;  // W_cubic(t), in segments

  const size_t mss_;
  size_t cwnd_;           // bytes
  size_t ssthresh_;       // bytes
  double w_max_seg_ = 0;  // window before last reduction, segments
  double k_seconds_ = 0;  // time for the cubic to return to w_max
  TimeNs epoch_start_ = 0;
};

}  // namespace demi

#endif  // SRC_NET_TCP_CONGESTION_H_
