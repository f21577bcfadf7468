// §5.4 microbenchmarks: the coroutine scheduler.
//
// Paper claims: a coroutine context switch (yield to an empty coroutine and find the next
// runnable one) costs ~12 cycles; the waker-block design lets the scheduler skip thousands of
// blocked coroutines in nanoseconds (Lemire tzcnt iteration), which plain polling cannot.
// These google-benchmark timings substantiate both: Yield/switch in the low nanoseconds, and
// Poll() over mostly-blocked fiber populations staying flat as the population grows.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/runtime/event.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/timer_wheel.h"

namespace demi {
namespace {

// Cost of one fiber resume+yield round: the paper's "context switch between an empty yielding
// coroutine and find another runnable coroutine".
void BM_YieldContextSwitch(benchmark::State& state) {
  VirtualClock clock;
  Scheduler sched(clock);
  bool stop = false;
  sched.Spawn([](bool* halt) -> Task<void> {
    while (!*halt) {
      co_await Scheduler::Yield{};
    }
  }(&stop));
  for (auto _ : state) {
    sched.Poll();  // one resume of the single runnable fiber + one scan
  }
  stop = true;
  sched.Poll();
}
BENCHMARK(BM_YieldContextSwitch);

// Two runnable fibers ping-ponging: measures switch + handoff.
void BM_TwoFiberPingPong(benchmark::State& state) {
  VirtualClock clock;
  Scheduler sched(clock);
  bool stop = false;
  for (int i = 0; i < 2; i++) {
    sched.Spawn([](bool* halt) -> Task<void> {
      while (!*halt) {
        co_await Scheduler::Yield{};
      }
    }(&stop));
  }
  for (auto _ : state) {
    sched.Poll();
  }
  stop = true;
  sched.Poll();
}
BENCHMARK(BM_TwoFiberPingPong);

// The headline scaling result: Poll() with N fibers where all but one are BLOCKED. The waker
// bitmap scan must keep this near-constant — this is why Demikernel coroutines are blockable
// rather than polled (§3.3).
void BM_PollWithBlockedFibers(benchmark::State& state) {
  VirtualClock clock;
  Scheduler sched(clock);
  const int n = static_cast<int>(state.range(0));
  std::vector<std::unique_ptr<Event>> events;
  bool stop = false;
  for (int i = 0; i < n; i++) {
    events.push_back(std::make_unique<Event>());
    sched.Spawn([](Event* e) -> Task<void> {
      co_await e->Wait();  // blocks forever
    }(events.back().get()));
  }
  sched.Poll();  // everyone blocks
  sched.Spawn([](bool* halt) -> Task<void> {
    while (!*halt) {
      co_await Scheduler::Yield{};
    }
  }(&stop));
  for (auto _ : state) {
    sched.Poll();  // must skip n blocked fibers and run 1
  }
  state.SetLabel(std::to_string(n) + " blocked fibers skipped per poll");
  stop = true;
  sched.Poll();
}
BENCHMARK(BM_PollWithBlockedFibers)->Arg(1)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

// Ablation: the same population but every fiber RUNNABLE (the "traditional polling" model the
// paper rejects) — cost grows linearly with N, unlike the blocked case.
void BM_PollWithRunnableFibers(benchmark::State& state) {
  VirtualClock clock;
  Scheduler sched(clock);
  const int n = static_cast<int>(state.range(0));
  bool stop = false;
  for (int i = 0; i < n; i++) {
    sched.Spawn([](bool* halt) -> Task<void> {
      while (!*halt) {
        co_await Scheduler::Yield{};
      }
    }(&stop));
  }
  for (auto _ : state) {
    sched.Poll();
  }
  state.SetItemsProcessed(state.iterations() * n);
  stop = true;
  sched.Poll();
}
BENCHMARK(BM_PollWithRunnableFibers)->Arg(1)->Arg(64)->Arg(1024);

// Wake-then-run latency: event notify -> fiber resumed (the fast path's unblocking step).
void BM_EventWakeToRun(benchmark::State& state) {
  VirtualClock clock;
  Scheduler sched(clock);
  Event event;
  uint64_t counter = 0;
  bool stop = false;
  sched.Spawn([](Event* e, uint64_t* count_out, bool* halt) -> Task<void> {
    while (!*halt) {
      co_await e->Wait();
      (*count_out)++;
    }
  }(&event, &counter, &stop));
  sched.Poll();
  for (auto _ : state) {
    event.Notify();
    sched.Poll();
  }
  benchmark::DoNotOptimize(counter);
  stop = true;
  event.Notify();
  sched.Poll();
}
BENCHMARK(BM_EventWakeToRun);

// Fiber spawn + run-to-completion + teardown (pop/accept ops allocate one of these per token).
void BM_SpawnRunTeardown(benchmark::State& state) {
  VirtualClock clock;
  Scheduler sched(clock);
  for (auto _ : state) {
    sched.Spawn([]() -> Task<void> { co_return; }());
    sched.Poll();
  }
}
BENCHMARK(BM_SpawnRunTeardown);

// Timer arming + firing through the scheduler's timer wheel. The 10 ns sleep always lands in the
// cursor's own level-0 slot, so this measures arm + fire, not the scan for a later occupied slot
// (BM_WheelAdvanceArmedNotDue).
void BM_TimerFire(benchmark::State& state) {
  VirtualClock clock;
  Scheduler sched(clock);
  Event dummy;
  bool stop = false;
  sched.Spawn([](Scheduler* s, bool* halt) -> Task<void> {
    while (!*halt) {
      co_await s->Sleep(10);
    }
  }(&sched, &stop));
  sched.Poll();
  for (auto _ : state) {
    clock.Advance(10);
    sched.Poll();
  }
  stop = true;
  clock.Advance(10);
  sched.Poll();
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
