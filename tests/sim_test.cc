#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/simulator.h"

namespace tpu::sim {
namespace {

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.Schedule(3.0, [&] { order.push_back(3); });
  simulator.Schedule(1.0, [&] { order.push_back(1); });
  simulator.Schedule(2.0, [&] { order.push_back(2); });
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(simulator.now(), 3.0);
}

TEST(Simulator, EqualTimeEventsRunInScheduleOrder) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    simulator.Schedule(1.0, [&order, i] { order.push_back(i); });
  }
  simulator.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, CallbacksCanScheduleMoreEvents) {
  Simulator simulator;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) simulator.Schedule(1.0, recurse);
  };
  simulator.Schedule(1.0, recurse);
  simulator.Run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(simulator.now(), 5.0);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator simulator;
  int fired = 0;
  simulator.Schedule(1.0, [&] { ++fired; });
  simulator.Schedule(10.0, [&] { ++fired; });
  simulator.RunUntil(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(simulator.now(), 5.0);
  simulator.Run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, StopAtLastEventLeavesClockAtQuiescence) {
  Simulator simulator;
  int fired = 0;
  simulator.Schedule(1.0, [&] { ++fired; });
  simulator.Schedule(2.5, [&] { ++fired; });
  const SimTime end =
      simulator.RunUntil(10.0, Simulator::DeadlinePolicy::kStopAtLastEvent);
  EXPECT_EQ(fired, 2);
  // The queue drained at 2.5; the clock must not jump to the deadline.
  EXPECT_DOUBLE_EQ(end, 2.5);
  EXPECT_DOUBLE_EQ(simulator.now(), 2.5);
}

TEST(Simulator, StopAtLastEventStillHonorsTheDeadline) {
  // Events past the deadline stay queued under either policy; the policies
  // only differ when the queue drains early.
  Simulator simulator;
  int fired = 0;
  simulator.Schedule(1.0, [&] { ++fired; });
  simulator.Schedule(10.0, [&] { ++fired; });
  simulator.RunUntil(5.0, Simulator::DeadlinePolicy::kStopAtLastEvent);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(simulator.now(), 1.0);
  EXPECT_FALSE(simulator.empty());

  Simulator advancing;
  int fired2 = 0;
  advancing.Schedule(1.0, [&] { ++fired2; });
  advancing.Schedule(10.0, [&] { ++fired2; });
  advancing.RunUntil(5.0, Simulator::DeadlinePolicy::kAdvanceToDeadline);
  EXPECT_EQ(fired2, 1);
  EXPECT_DOUBLE_EQ(advancing.now(), 5.0);  // default: clock jumps forward
}

TEST(Simulator, StopAtLastEventOnEmptyQueueKeepsNow) {
  Simulator simulator;
  simulator.Schedule(3.0, [] {});
  simulator.Run();
  simulator.RunUntil(100.0, Simulator::DeadlinePolicy::kStopAtLastEvent);
  EXPECT_DOUBLE_EQ(simulator.now(), 3.0);
}

TEST(Simulator, CountsProcessedEvents) {
  Simulator simulator;
  for (int i = 0; i < 7; ++i) simulator.Schedule(0.5, [] {});
  simulator.Run();
  EXPECT_EQ(simulator.events_processed(), 7u);
}

TEST(Simulator, CallbackScheduledEqualTimeEventsRunInScheduleOrder) {
  // Regression for the event-core rewrite: events scheduled *from within a
  // callback* at a timestamp equal to already-queued events must interleave
  // in sequence order, exactly as the old single-heap queue ordered them.
  Simulator simulator;
  std::vector<int> order;
  simulator.Schedule(1.0, [&] {
    order.push_back(0);
    // now == 1.0: these land at t=2.0, *after* the pre-queued t=2.0 events
    // below in sequence order.
    simulator.Schedule(1.0, [&] { order.push_back(3); });
    simulator.Schedule(1.0, [&] { order.push_back(4); });
  });
  simulator.Schedule(2.0, [&] { order.push_back(1); });
  simulator.Schedule(2.0, [&] { order.push_back(2); });
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, OutOfOrderPushesWithinOneBucketStayExact) {
  // Two events nanoseconds apart land in the same calendar bucket; pushing
  // the later one first must not disturb (when, seq) extraction order.
  Simulator simulator;
  std::vector<int> order;
  simulator.ScheduleAt(1.0e-9 + 2.0e-10, [&] { order.push_back(1); });
  simulator.ScheduleAt(1.0e-9, [&] { order.push_back(0); });
  simulator.ScheduleAt(1.0e-9 + 1.0e-10, [&] { order.push_back(2); });
  // Equal-time tiebreak by sequence alongside the out-of-order pushes.
  simulator.ScheduleAt(1.0e-9, [&] { order.push_back(3); });
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 3, 2, 1}));
}

TEST(Simulator, FarFutureEventsCrossTheOverflowWindow) {
  // Events beyond the bucketed window park in the overflow heap; draining
  // them exercises window refills without disturbing order.
  Simulator simulator;
  std::vector<double> times;
  for (const double when : {3600.0, 0.5e-6, 7200.0, 1.0}) {
    simulator.ScheduleAt(when, [&times, &simulator] {
      times.push_back(simulator.now());
    });
  }
  simulator.Run();
  EXPECT_EQ(times, (std::vector<double>{0.5e-6, 1.0, 3600.0, 7200.0}));
  EXPECT_GT(simulator.queue_refills(), 0u);
}

TEST(Simulator, CallbacksOwnMoveOnlyCaptures) {
  Simulator simulator;
  int result = 0;
  auto value = std::make_unique<int>(42);
  simulator.Schedule(1.0, [&result, value = std::move(value)] {
    result = *value;
  });
  simulator.Run();
  EXPECT_EQ(result, 42);
}

TEST(Simulator, LargeCapturesUsePooledStorageAndRecycle) {
  Simulator simulator;
  struct BigCapture {
    double padding[16];  // 128 bytes: over the inline budget
    int* counter;
  };
  int fired = 0;
  for (int round = 0; round < 3; ++round) {
    BigCapture big{};
    big.counter = &fired;
    simulator.Schedule(1.0, [big] { ++*big.counter; });
    simulator.Run();
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(simulator.callbacks_pooled(), 3u);
  // The pool allocates at most one block (the thread-local pool may already
  // be warm from earlier tests) and recycles it on later rounds.
  EXPECT_LE(simulator.pool_fresh_allocs(), 1u);
  EXPECT_GE(simulator.pool_hits(), 2u);
  EXPECT_EQ(simulator.pool_oversize_allocs(), 0u);
  EXPECT_EQ(simulator.pool_fresh_allocs() + simulator.pool_hits(), 3u);
}

TEST(Simulator, ExportsEventCoreCounters) {
  Simulator simulator;
  for (int i = 0; i < 5; ++i) simulator.Schedule(1.0 + i, [] {});
  EXPECT_EQ(simulator.events_scheduled(), 5u);
  EXPECT_EQ(simulator.peak_queue_depth(), 5u);
  EXPECT_EQ(simulator.callbacks_inline(), 5u);
  EXPECT_EQ(simulator.callbacks_pooled(), 0u);
  simulator.Run();
  EXPECT_EQ(simulator.events_processed(), 5u);
  EXPECT_EQ(simulator.peak_queue_depth(), 5u);  // sticky high-water mark
}

TEST(FifoResource, SerializesOverlappingAcquisitions) {
  Simulator simulator;
  FifoResource resource(&simulator);
  std::vector<double> completions;
  simulator.Schedule(0.0, [&] {
    resource.Acquire(2.0, [&] { completions.push_back(simulator.now()); });
    resource.Acquire(3.0, [&] { completions.push_back(simulator.now()); });
  });
  simulator.Run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_DOUBLE_EQ(completions[0], 2.0);
  EXPECT_DOUBLE_EQ(completions[1], 5.0);  // queued behind the first
  EXPECT_DOUBLE_EQ(resource.busy_time(), 5.0);
}

TEST(FifoResource, ReserveFromHonorsEarliestStart) {
  Simulator simulator;
  FifoResource resource(&simulator);
  // Idle resource, reservation wants to start at t=4.
  EXPECT_DOUBLE_EQ(resource.ReserveFrom(4.0, 1.0), 4.0);
  // Next reservation asks for t=2 but the queue ends at t=5.
  EXPECT_DOUBLE_EQ(resource.ReserveFrom(2.0, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(resource.free_at(), 6.0);
  EXPECT_DOUBLE_EQ(resource.busy_time(), 2.0);
}

TEST(Barrier, FiresAfterExpectedNotifies) {
  int fired = 0;
  Barrier barrier(3, [&] { ++fired; });
  barrier.Notify();
  barrier.Notify();
  EXPECT_EQ(fired, 0);
  barrier.Notify();
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace tpu::sim
