// The virtual-clock loop the log tests drive LogDevice I/Os with: poll the logs' device
// completions and the scheduler, then jump the clock to the next device completion or timer
// deadline (a retry backoff), until the caller's condition holds.

#ifndef TESTS_LOG_DRIVER_H_
#define TESTS_LOG_DRIVER_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>

#include "src/common/clock.h"
#include "src/runtime/scheduler.h"
#include "src/storage/log_device.h"
#include "src/storage/sim_block_device.h"

namespace demi {

// Returns whether `done()` held within the step budget.
template <typename Done>
bool DriveLogs(VirtualClock& clock, Scheduler& sched, const SimBlockDevice& dev,
               std::initializer_list<LogDevice*> logs, Done done) {
  for (int step = 0; step < 100000; step++) {
    for (LogDevice* log : logs) {
      log->PollDevice(clock.Now());
    }
    sched.Poll();
    if (done()) {
      return true;
    }
    TimeNs next = dev.NextCompletionTime();
    const TimeNs timer = sched.timer_wheel().NextDeadline();
    if (timer != 0 && (next == 0 || timer < next)) {
      next = timer;
    }
    if (next > clock.Now()) {
      clock.SetTime(next);
    }
  }
  return done();
}

inline bool IsDone(const LogDevice::Io& io) { return io.state == LogDevice::Io::kDone; }

inline std::span<const uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

// `payload` as the one-slice list LogDevice::StartAppend takes; the log copies the list, so a
// temporary will do. `payload` itself must outlive the append.
inline std::array<std::span<const uint8_t>, 1> OneSlice(const std::string& payload) {
  return {Bytes(payload)};
}

}  // namespace demi

#endif  // TESTS_LOG_DRIVER_H_
