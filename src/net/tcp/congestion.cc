#include "src/net/tcp/congestion.h"

#include <algorithm>
#include <cmath>

namespace demi {

namespace {
constexpr double kCubicC = 0.4;
constexpr double kCubicBeta = 0.7;
constexpr size_t kInitialWindowSegments = 10;  // RFC 6928
constexpr size_t kMinWindowSegments = 2;
}  // namespace

// --- Cubic ---

CubicCongestion::CubicCongestion(size_t mss)
    : mss_(mss), cwnd_(kInitialWindowSegments * mss), ssthresh_(SIZE_MAX / 2) {}

double CubicCongestion::CubicWindow(double t_seconds) const {
  const double dt = t_seconds - k_seconds_;
  return kCubicC * dt * dt * dt + w_max_seg_;
}

void CubicCongestion::OnAck(size_t bytes_acked, TimeNs now) {
  if (cwnd_ < ssthresh_) {
    // Slow start.
    cwnd_ += bytes_acked;
    return;
  }
  if (epoch_start_ == 0) {
    epoch_start_ = now;
    const double w_seg = static_cast<double>(cwnd_) / static_cast<double>(mss_);
    if (w_max_seg_ < w_seg) {
      w_max_seg_ = w_seg;
      k_seconds_ = 0;
    } else {
      k_seconds_ = std::cbrt((w_max_seg_ - w_seg) / kCubicC);
    }
  }
  const double t = static_cast<double>(now - epoch_start_) / static_cast<double>(kSecond);
  const double target_seg = CubicWindow(t);
  const double cwnd_seg = static_cast<double>(cwnd_) / static_cast<double>(mss_);
  if (target_seg > cwnd_seg) {
    // Approach the cubic target: standard per-ack increment (target - cwnd) / cwnd segments.
    const double inc_seg = (target_seg - cwnd_seg) / cwnd_seg;
    cwnd_ += static_cast<size_t>(inc_seg * static_cast<double>(mss_)) + 1;
  } else {
    // TCP-friendly region floor: at least a Reno-like 1/cwnd growth.
    cwnd_ += std::max<size_t>(1, mss_ * bytes_acked / std::max<size_t>(cwnd_, 1));
  }
}

void CubicCongestion::EnterRecovery(TimeNs now, double beta) {
  w_max_seg_ = static_cast<double>(cwnd_) / static_cast<double>(mss_);
  cwnd_ = std::max<size_t>(static_cast<size_t>(static_cast<double>(cwnd_) * beta),
                           kMinWindowSegments * mss_);
  ssthresh_ = cwnd_;
  epoch_start_ = 0;
}

void CubicCongestion::OnFastRetransmit(TimeNs now) { EnterRecovery(now, kCubicBeta); }

void CubicCongestion::OnTimeout(TimeNs now) {
  w_max_seg_ = static_cast<double>(cwnd_) / static_cast<double>(mss_);
  ssthresh_ = std::max<size_t>(cwnd_ / 2, kMinWindowSegments * mss_);
  cwnd_ = kMinWindowSegments * mss_;  // collapse to slow start
  epoch_start_ = 0;
}

}  // namespace demi
