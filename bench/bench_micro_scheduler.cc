// §5.4 microbenchmarks: the scheduler's timer wheel.
//
// The paper's scheduler makes blockable per-op coroutines cheap (a ~12-cycle switch). Here no
// op gets a coroutine, so what a poll pays the scheduler is its timer wheel: firing a due
// timer, and the scan of an armed wheel with nothing due (the state an established TCP
// connection keeps it in). BM_CatnipIdlePoll (bench_micro_tcp) times a whole idle poll.

#include <benchmark/benchmark.h>

#include "src/common/clock.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/timer_wheel.h"

namespace demi {
namespace {

// Re-arms itself 10 ns after the poll that fired it.
void RearmIn10ns(void* ctx, uint64_t /*arg*/) {
  auto* sched = static_cast<Scheduler*>(ctx);
  sched->ArmTimer(sched->poll_time() + 10, &RearmIn10ns, sched, 0);
}

// Timer arming + firing through the scheduler's timer wheel. The 10 ns timer always lands in the
// cursor's own level-0 slot, so this measures arm + fire, not the scan for a later occupied slot
// (BM_WheelAdvanceArmedNotDue).
void BM_TimerFire(benchmark::State& state) {
  VirtualClock clock;
  Scheduler sched(clock);
  sched.ArmTimer(10, &RearmIn10ns, &sched, 0);
  for (auto _ : state) {
    clock.Advance(10);
    sched.Poll();
  }
  if (sched.timer_wheel().stats().fires != static_cast<uint64_t>(state.iterations())) {
    state.SkipWithError("a poll did not fire its timer");
  }
}
BENCHMARK(BM_TimerFire);

void NoopTimer(void* /*ctx*/, uint64_t /*arg*/) {}

// The per-poll cost of an armed wheel with nothing due, the state an established TCP connection
// keeps it in: an RTO (+1 ms) and a delayed ack (+500 us) pending, the virtual clock moving 1 us
// per Advance. Both are re-armed every 256 us, as the connection's traffic would, so neither
// fires; the re-arm is amortized into the per-Advance time.
void BM_WheelAdvanceArmedNotDue(benchmark::State& state) {
  TimerWheel wheel;
  TimeNs now = 0;
  TimerId rto = kInvalidTimerId;
  TimerId ack = kInvalidTimerId;
  uint64_t step = 0;
  size_t fired = 0;
  for (auto _ : state) {
    if (step++ % 256 == 0) {
      wheel.Cancel(rto);
      wheel.Cancel(ack);
      rto = wheel.Arm(now + 1 * kMillisecond, &NoopTimer, nullptr, 0);
      ack = wheel.Arm(now + 500 * kMicrosecond, &NoopTimer, nullptr, 0);
    }
    now += 1 * kMicrosecond;
    fired += wheel.Advance(now);
    benchmark::DoNotOptimize(fired);
  }
  if (fired != 0) {
    state.SkipWithError("a not-due timer fired");
  }
}
BENCHMARK(BM_WheelAdvanceArmedNotDue);

}  // namespace
}  // namespace demi
