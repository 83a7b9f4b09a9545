// Conservative synchronized-window parallel discrete-event simulation.
//
// A PartitionedSimulator runs one simulation across several event lanes: the
// caller's existing Simulator (the "global lane", which keeps executing
// everything that spans partitions) plus one owned Simulator per partition
// (one partition per pod — cross-pod optical links carry at least
// `lookahead` seconds of latency, so events a partition schedules toward
// another partition can never land earlier than `lookahead` in that
// partition's future). Execution proceeds in windows of width <= lookahead:
//
//   1. The earliest pending event across all lanes defines the window start
//      T0; the window covers [T0, T0 + W) with W <= lookahead.
//   2. Partition lanes drain their events with when < T0 + W in parallel on
//      a thread pool — each lane on exactly one worker per round, with its
//      own callback pool active, so lane state never crosses threads inside
//      a window.
//   3. At the barrier, partition-side completions of cross-partition joins
//      (sim::Barrier) are merged in fixed lane order and resolved joins are
//      scheduled on their home lane at the exact time the serial run would
//      have fired them; then the global lane drains the same window. A
//      globally-executing callback that fans new work out to partitions
//      pauses the global drain so steps 2–3 repeat until the window is
//      quiescent.
//   4. Cross-partition messages issued during the window (which conservatism
//      guarantees target times >= T0 + W) are exchanged at the boundary in
//      deterministic (when, seq, src-partition) order.
//
// Every ordering decision is protocol-determined — lane drain results are
// independent of which worker ran them, and all cross-lane effects are
// applied by the coordinator in a fixed merge order — so simulated
// timestamps, event counts and anything derived from them are bit-identical
// at any thread count. Protocol bookkeeping events (cross deliveries, join
// releases) are engine-class: excluded from the work-event counters, so a
// windowed run also reports the same events_processed/scheduled as the
// serial run it reproduces.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "sim/event_callback.h"
#include "sim/exec_context.h"
#include "sim/simulator.h"

namespace tpu::sim {

// Post-run protocol accounting, exported as pdes.* metrics
// (trace::ExportSimulatorMetrics) and sampled by telemetry probes
// (telemetry::RegisterPdesProbes).
struct PdesStats {
  bool engaged = false;
  int partitions = 0;
  int threads = 0;
  SimTime lookahead = 0.0;
  SimTime window = 0.0;
  std::uint64_t windows = 0;        // synchronized windows executed
  std::uint64_t barrier_waits = 0;  // worker-join barriers (one per sub-round)
  std::uint64_t cross_messages = 0;
  std::uint64_t join_notifications = 0;
  // Work events over all lanes (global + partitions) — matches the serial
  // run's Simulator counters bit-exactly.
  std::uint64_t events_processed = 0;
  std::uint64_t events_scheduled = 0;
  // Protocol (engine-class) events, excluded from the counters above.
  std::uint64_t engine_events = 0;
  std::vector<std::uint64_t> partition_events_processed;
};

// Ambient PDES request, installed with ScopedPdesConfig the same way trace /
// metrics / telemetry sessions are. The one engine-capable driver, the
// summation stage runner behind both the fixed 2-D schedule and planned
// execution (coll::RunSummationStages), consults it and engages the
// windowed engine when it asks for >1 thread and the workload qualifies;
// everything else ignores it, which *is* the serial fallback.
struct PdesConfig {
  bool enable = false;
  // Worker threads for partition drains. 1 leaves the serial path untouched
  // (the documented one-branch degeneration); the windowed protocol itself
  // is thread-count-invariant for any value >= 2.
  int threads = 1;
  // Window width in simulated seconds; 0 uses the lookahead floor derived
  // from the cross-pod link latency. Must not exceed the lookahead.
  SimTime window = 0.0;
  // Optional out-param: filled with protocol accounting after an engaged
  // run (left untouched when the run stayed serial, except `engaged`).
  PdesStats* stats = nullptr;
};

inline PdesConfig& PdesConfigSlot() {
  thread_local PdesConfig config;
  return config;
}
inline const PdesConfig& CurrentPdesConfig() { return PdesConfigSlot(); }

class ScopedPdesConfig {
 public:
  explicit ScopedPdesConfig(const PdesConfig& config)
      : previous_(PdesConfigSlot()) {
    PdesConfigSlot() = config;
  }
  ~ScopedPdesConfig() { PdesConfigSlot() = previous_; }

  ScopedPdesConfig(const ScopedPdesConfig&) = delete;
  ScopedPdesConfig& operator=(const ScopedPdesConfig&) = delete;

 private:
  PdesConfig previous_;
};

class PartitionedSimulator {
 public:
  // `global` is the caller's simulator (not owned): the lane for everything
  // that spans partitions, and the clock Run() ultimately reports.
  // `lookahead` is the minimum cross-partition latency in simulated seconds;
  // it must be strictly positive — zero lookahead admits no conservative
  // window. `window` <= lookahead; 0 picks the lookahead floor.
  PartitionedSimulator(Simulator* global, int partitions, SimTime lookahead,
                       int threads, SimTime window = 0.0);
  ~PartitionedSimulator();

  PartitionedSimulator(const PartitionedSimulator&) = delete;
  PartitionedSimulator& operator=(const PartitionedSimulator&) = delete;

  int partitions() const { return static_cast<int>(lanes_.size()); }
  int threads() const { return threads_; }
  SimTime lookahead() const { return lookahead_; }
  SimTime window() const { return window_; }
  Simulator& global() { return *global_; }
  const Simulator& global() const { return *global_; }
  Simulator& partition(int p) { return LaneAt(p).sim; }
  const Simulator& partition(int p) const { return LaneAt(p).sim; }

  // Coordinator-side seeding (tests, benchmarks): schedules a counted work
  // event on partition `p`. Must not be called from inside a lane drain.
  void Post(int p, SimTime when, std::function<void()> fn);

  // Runs starters[p] (when non-empty) in partition p's execution context at
  // the global lane's current time — the engine's fan-out primitive. Must be
  // called from the global lane (typically from inside a global event, e.g.
  // a phase-start continuation); the global drain pauses afterwards so the
  // new partition work is brought up to date before the global clock moves.
  // The serial run executes the identical starters inline at the same
  // instant, so fan-out adds no counted events.
  void FanOut(std::vector<std::function<void()>> starters);

  // From a partition drain: schedules `fn` on partition `target` at absolute
  // time `when`. Same-partition calls schedule directly; cross-partition
  // calls are buffered and merged at the window boundary in deterministic
  // (when, seq, src-partition) order. Conservatism is enforced: a cross
  // message must target a time at or beyond the current window's end.
  void ScheduleCross(int target, SimTime when, std::function<void()> fn);

  // From a partition drain: buffers a completion of `barrier` (created on
  // the global lane, e.g. a collective phase's outer join) at the lane's
  // current time. The coordinator applies buffered notifications in fixed
  // lane order at the next synchronization point and, when the last one
  // lands, schedules the barrier's completion on the global lane at the
  // maximum notified time — exactly when the serial run would have run it.
  void DeferJoinNotify(std::shared_ptr<Barrier> barrier);

  // Executes windows until every lane drains. Returns the global clock.
  SimTime Run();

  // Live protocol counters (also sampled by telemetry probes mid-run).
  std::uint64_t windows_executed() const { return windows_; }
  std::uint64_t barrier_waits() const { return barrier_waits_; }
  std::uint64_t cross_messages() const { return cross_messages_; }
  std::uint64_t join_notifications() const { return join_notifications_; }
  // Pending work events across all lanes. The telemetry stop-predicate for
  // sampled engine runs ("stop when the simulation is quiescent").
  std::size_t TotalQueueDepth() const;
  std::uint64_t TotalEventsProcessed() const;
  std::uint64_t TotalEventsScheduled() const;
  std::uint64_t TotalEngineEvents() const;
  std::uint64_t PartitionEventsProcessed(int p) const {
    return LaneAt(p).sim.events_processed();
  }

  PdesStats Stats() const;

 private:
  struct Lane {
    Lane() : sim(&pool) {}

    // Declared before `sim` so the simulator binds to (and outlives its use
    // of) this lane's pool: blocks a lane's callbacks draw recycle through
    // the same pool regardless of which worker drained the lane.
    CallbackPool pool;
    Simulator sim;

    struct JoinRecord {
      std::shared_ptr<Barrier> barrier;
      SimTime when;
    };
    struct CrossRecord {
      int target;
      SimTime when;
      std::uint64_t seq;  // per-source issue order
      std::function<void()> fn;
    };
    std::vector<JoinRecord> joins;
    std::vector<CrossRecord> cross;
    std::uint64_t cross_seq = 0;
    std::uint64_t processed_last_round = 0;
  };

  // RAII: makes `lane` the thread's execution context (engine, partition
  // index, simulator override, callback pool) for a drain or kick-off.
  class ScopedLaneContext {
   public:
    ScopedLaneContext(PartitionedSimulator* engine, int lane)
        : previous_engine_(EngineSlot()),
          previous_index_(PartitionIndexSlot()),
          previous_sim_(SimulatorOverrideSlot()),
          pool_scope_(&engine->LaneAt(lane).pool) {
      EngineSlot() = engine;
      PartitionIndexSlot() = lane;
      SimulatorOverrideSlot() = &engine->LaneAt(lane).sim;
    }
    ~ScopedLaneContext() {
      EngineSlot() = previous_engine_;
      PartitionIndexSlot() = previous_index_;
      SimulatorOverrideSlot() = previous_sim_;
    }

    ScopedLaneContext(const ScopedLaneContext&) = delete;
    ScopedLaneContext& operator=(const ScopedLaneContext&) = delete;

   private:
    PartitionedSimulator* previous_engine_;
    int previous_index_;
    Simulator* previous_sim_;
    ScopedCallbackPool pool_scope_;
  };

  Lane& LaneAt(int p) {
    TPU_CHECK_GE(p, 0);
    TPU_CHECK_LT(p, static_cast<int>(lanes_.size()));
    return *lanes_[p];
  }
  const Lane& LaneAt(int p) const {
    TPU_CHECK_GE(p, 0);
    TPU_CHECK_LT(p, static_cast<int>(lanes_.size()));
    return *lanes_[p];
  }

  // One parallel partition drain up to `bound`. Returns true if any lane
  // processed an event.
  bool DrainPartitions(SimTime bound);
  // Applies buffered join notifications in fixed lane order; schedules
  // completions on the global lane. Returns true if any were applied.
  bool MergeJoinNotifications();
  // Window-boundary exchange of buffered cross-partition messages.
  void DeliverCrossMessages();

  Simulator* global_;  // not owned
  std::vector<std::unique_ptr<Lane>> lanes_;
  SimTime lookahead_;
  SimTime window_;
  int threads_;
  std::unique_ptr<ThreadPool> pool_;

  SimTime current_window_end_ = std::numeric_limits<SimTime>::infinity();
  bool fanout_pending_ = false;

  struct OpenJoin {
    std::shared_ptr<Barrier> barrier;
    SimTime max_when = -std::numeric_limits<SimTime>::infinity();
  };
  // Keyed by barrier identity; kept alive via the shared_ptr until resolved.
  // Never iterated (lookups only), so unordered is determinism-safe.
  std::unordered_map<Barrier*, OpenJoin> open_joins_;

  std::uint64_t windows_ = 0;
  std::uint64_t barrier_waits_ = 0;
  std::uint64_t cross_messages_ = 0;
  std::uint64_t join_notifications_ = 0;
};

// Installs `engine` as the thread's current engine while leaving execution
// on the global lane — the scope under which an engine-capable driver sets
// up phases (so collective starts can see and use the engine) and calls
// PartitionedSimulator::Run().
class ScopedEngine {
 public:
  explicit ScopedEngine(PartitionedSimulator* engine)
      : previous_(EngineSlot()) {
    EngineSlot() = engine;
  }
  ~ScopedEngine() { EngineSlot() = previous_; }

  ScopedEngine(const ScopedEngine&) = delete;
  ScopedEngine& operator=(const ScopedEngine&) = delete;

 private:
  PartitionedSimulator* previous_;
};

}  // namespace tpu::sim
