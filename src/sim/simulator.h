// Discrete-event simulation core.
//
// Every timed behaviour in the multipod model — link transfers, compute
// phases, host pipeline stages — is expressed as events on one global
// simulated clock. Events at equal timestamps run in insertion order, which
// together with the deterministic RNG makes every simulation bit-reproducible.
//
// The hot path is allocation-free: callbacks live inline in the event (or in
// recycled pool blocks — see event_callback.h) and pending events sit in an
// indexed calendar queue (calendar_queue.h) that extracts in exact
// (when, seq) order. A Simulator and everything it schedules is confined to
// one thread at a time; independent Simulators on different threads do not
// share state, which is what lets sweeps and planner searches run points in
// parallel with bit-identical results — and what lets the summation stage
// runner (coll::RunSummationStages) fork one stage's link-disjoint ring
// groups onto Simulators of their own and join them at the stage's end.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "sim/calendar_queue.h"
#include "sim/event_callback.h"
#include "sim/event_observer.h"

namespace tpu::sim {

class Simulator {
 public:
  using Callback = EventCallback;

  // Binds to the constructing thread's callback pool; pool health accessors
  // report deltas against that pool.
  Simulator() : Simulator(&CallbackPool::ThisThread()) {}
  explicit Simulator(CallbackPool* pool)
      : pool_(pool), pool_baseline_(pool->stats()) {}

  SimTime now() const { return run_.now; }

  // Returns a drained simulator to its constructed state: clock, seq counter
  // and every counter zeroed, callback-pool stats re-baselined, the calendar
  // window back at time 0. The calendar's buckets and event slab keep their
  // memory, so a simulator reused this way — one per fork-pool worker, one
  // forked ring group after another — allocates nothing per reuse and runs
  // exactly as a fresh one would.
  void Reset() {
    TPU_CHECK(queue_.empty()) << "Reset with events pending";
    queue_.Reset();
    run_ = {};
    pool_baseline_ = pool_->stats();
  }

  // Schedules `cb` to run at now() + delay. delay must be >= 0. Returns the
  // event's seq — its identity for causal observers (EventObserver).
  std::uint64_t Schedule(SimTime delay, Callback cb) {
    TPU_CHECK_GE(delay, 0.0);
    return ScheduleAt(run_.now + delay, std::move(cb));
  }

  // Schedules `cb` at an absolute simulated time >= now(). Returns the
  // event's seq.
  std::uint64_t ScheduleAt(SimTime when, Callback cb) {
    TPU_CHECK_GE(when, run_.now);
    if (cb.storage() == EventCallback::Storage::kInline) {
      ++run_.callbacks_inline;
    } else {
      ++run_.callbacks_pooled;
    }
    const std::uint64_t seq = run_.next_seq++;
    queue_.Push(Event{when, seq, std::move(cb)});
    ++run_.events_scheduled;
    // Pending telemetry events share the queue but not the accounting: the
    // work-event high-water mark must read the same with sampling on or off.
    const std::size_t depth = queue_.size() - telemetry_seqs_.size();
    if (depth > run_.peak_queue_depth) run_.peak_queue_depth = depth;
    if (EventObserver* observer = CurrentEventObserver()) {
      observer->OnSchedule(seq, run_.current_seq, run_.now, when);
    }
    return seq;
  }

  // Schedules a telemetry-class event (telemetry/sampler.h): it shares the
  // clock and the (when, seq) total order with work events — so sampling
  // reads a consistent instant of the simulation — but is excluded from the
  // user-visible accounting (events_scheduled/processed, peak_queue_depth,
  // callback-storage counters) and is invisible to any installed
  // EventObserver, keeping critical-path DAGs and exported counters
  // bit-identical with sampling on or off. Telemetry callbacks must only
  // observe and (re)schedule further telemetry events, never work events.
  std::uint64_t ScheduleTelemetryAt(SimTime when, Callback cb) {
    TPU_CHECK_GE(when, run_.now);
    const std::uint64_t seq = run_.next_seq++;
    queue_.Push(Event{when, seq, std::move(cb)});
    ++run_.telemetry_events_scheduled;
    telemetry_seqs_.push_back(seq);  // seqs are monotonic: stays sorted
    return seq;
  }

  // Runs until the event queue drains. Returns the final clock value.
  SimTime Run() {
    while (!queue_.empty()) Step();
    return run_.now;
  }

  // Advances the clock to `when` and runs `fn` as if it were the body of an
  // event at that time, without going through the queue or the accounting.
  // A forked summation stage uses this to start each ring group on its own
  // simulator at the stage start, and to continue the stage chain at the
  // join; the serial run executes the identical code inline inside the event
  // that completed the previous stage, so neither path counts an extra
  // event.
  template <typename Fn>
  void ExecuteAt(SimTime when, Fn&& fn) {
    TPU_CHECK_GE(when, run_.now);
    run_.now = when;
    std::forward<Fn>(fn)();
  }

  // What RunUntil does with the clock when the queue drains before the
  // deadline. kAdvanceToDeadline (the historical behaviour, and still the
  // default) jumps now() forward to the deadline — convenient for "simulate
  // exactly T seconds" loops, but it inflates any timestamp taken at
  // quiescence (e.g. trace spans closed after the run) to the deadline.
  // kStopAtLastEvent leaves now() at the final processed event, so
  // quiescence timestamps reflect when work actually finished.
  enum class DeadlinePolicy { kAdvanceToDeadline, kStopAtLastEvent };

  // Runs until the queue drains or the clock passes `deadline`; `policy`
  // selects the clock value when the queue drained early (see above).
  SimTime RunUntil(SimTime deadline,
                   DeadlinePolicy policy = DeadlinePolicy::kAdvanceToDeadline) {
    while (!queue_.empty() && queue_.Top().when <= deadline) Step();
    if (policy == DeadlinePolicy::kAdvanceToDeadline && run_.now < deadline) {
      run_.now = deadline;
    }
    return run_.now;
  }

  bool empty() const { return queue_.empty(); }
  std::uint64_t events_processed() const { return run_.events_processed; }
  // Total events ever scheduled (processed + still queued).
  std::uint64_t events_scheduled() const { return run_.events_scheduled; }
  // High-water mark of the pending-event queue.
  std::size_t peak_queue_depth() const { return run_.peak_queue_depth; }
  // Pending work events right now (telemetry-class events excluded) — the
  // quantity the telemetry sampler itself records as "sim.queue_depth".
  std::size_t queue_depth() const {
    return queue_.size() - telemetry_seqs_.size();
  }
  // Telemetry-class events, accounted separately from the user-visible
  // events_scheduled()/events_processed() counters.
  std::uint64_t telemetry_events_scheduled() const {
    return run_.telemetry_events_scheduled;
  }
  std::uint64_t telemetry_events_processed() const {
    return run_.telemetry_events_processed;
  }
  // Event-core health: how callbacks were stored, and how the out-of-line
  // pool behaved over this simulator's lifetime (deltas against the owning
  // thread's pool at construction — exact while one simulator at a time runs
  // on the thread, which is how every driver here uses them).
  std::uint64_t callbacks_inline() const { return run_.callbacks_inline; }
  std::uint64_t callbacks_pooled() const { return run_.callbacks_pooled; }
  std::uint64_t pool_hits() const {
    return pool_->stats().hits - pool_baseline_.hits;
  }
  std::uint64_t pool_fresh_allocs() const {
    return pool_->stats().fresh - pool_baseline_.fresh;
  }
  std::uint64_t pool_oversize_allocs() const {
    return pool_->stats().oversize - pool_baseline_.oversize;
  }
  // Times the calendar queue re-centered its bucket window.
  std::uint64_t queue_refills() const { return queue_.refills(); }

 private:
  struct Event {
    SimTime when;
    std::uint64_t seq;  // tie-break: equal-time events run in schedule order
    Callback cb;
  };

  void Step() {
    // PopTop moves the event out before the callback runs, so callbacks are
    // free to schedule new events (no reference into the queue is held).
    Event ev = queue_.PopTop();
    TPU_CHECK_GE(ev.when, run_.now);
    run_.now = ev.when;
    // Telemetry events advance the clock to their own timestamp (which never
    // reorders work events — they only fire between work events at the same
    // instant boundaries the queue's total order already defines) but touch
    // none of the work-event accounting and stay invisible to observers.
    // The emptiness check keeps the telemetry-off hot path at one branch.
    if (!telemetry_seqs_.empty() && PopTelemetrySeq(ev.seq)) {
      ++run_.telemetry_events_processed;
      ev.cb();
      return;
    }
    ++run_.events_processed;
    if (EventObserver* observer = CurrentEventObserver()) {
      // Events scheduled by ev.cb() are causally ev's children; the current
      // seq only matters (and is only maintained) while an observer is
      // installed, so the disabled-path cost stays one load and branch.
      run_.current_seq = static_cast<std::int64_t>(ev.seq);
      observer->OnFire(ev.seq, ev.when);
      ev.cb();
      run_.current_seq = EventObserver::kNoEvent;
    } else {
      ev.cb();
    }
  }

  // True (and erases the entry) iff `seq` is a pending telemetry event.
  // telemetry_seqs_ is sorted (seqs are assigned monotonically) and tiny —
  // one self-rescheduling tick per sampler — so the lookup is a binary
  // search over a handful of entries.
  bool PopTelemetrySeq(std::uint64_t seq) {
    auto it = std::lower_bound(telemetry_seqs_.begin(), telemetry_seqs_.end(),
                               seq);
    if (it == telemetry_seqs_.end() || *it != seq) return false;
    telemetry_seqs_.erase(it);
    return true;
  }

  // The clock, the seq counter and every counter: all a run changes besides
  // the queue (and the telemetry seqs, pending only while the queue is not
  // empty). Reset value-initialises it, so a member added here is reset
  // with the rest.
  struct RunState {
    SimTime now = 0.0;
    std::uint64_t next_seq = 0;
    std::int64_t current_seq = EventObserver::kNoEvent;
    std::uint64_t events_processed = 0;
    std::uint64_t events_scheduled = 0;
    std::size_t peak_queue_depth = 0;
    std::uint64_t callbacks_inline = 0;
    std::uint64_t callbacks_pooled = 0;
    std::uint64_t telemetry_events_scheduled = 0;
    std::uint64_t telemetry_events_processed = 0;
  };

  CalendarQueue<Event> queue_;
  RunState run_;
  std::vector<std::uint64_t> telemetry_seqs_;
  CallbackPool* pool_;
  CallbackPool::Stats pool_baseline_;
};

// A serially-reusable resource (e.g. a unidirectional link or a host CPU):
// acquisitions are granted FIFO, each holding the resource for a caller-
// specified service time. `Acquire` returns immediately; `on_done` fires at
// the simulated time the service completes.
class FifoResource {
 public:
  explicit FifoResource(Simulator* simulator) : simulator_(simulator) {
    TPU_CHECK(simulator != nullptr);
  }

  // Occupies the resource for `service_time`, then invokes on_done.
  void Acquire(SimTime service_time, Simulator::Callback on_done) {
    const SimTime end = ReserveFrom(simulator_->now(), service_time) +
                        service_time;
    simulator_->ScheduleAt(end, std::move(on_done));
  }

  // Reserves the resource for `duration` starting no earlier than
  // `earliest_start` and no earlier than the current end of the FIFO queue.
  // Returns the actual start time. Does not schedule anything.
  SimTime ReserveFrom(SimTime earliest_start, SimTime duration) {
    TPU_CHECK_GE(duration, 0.0);
    const SimTime start =
        std::max({free_at_, earliest_start, simulator_->now()});
    free_at_ = start + duration;
    busy_time_ += duration;
    return start;
  }

  // First simulated time at which the resource is idle.
  SimTime free_at() const { return free_at_; }
  // Total simulated time spent busy — used for link-utilization accounting.
  SimTime busy_time() const { return busy_time_; }

 private:
  Simulator* simulator_;
  SimTime free_at_ = 0.0;
  SimTime busy_time_ = 0.0;
};

// Join-counter: invokes `on_all_done` once Notify() has been called
// `expected` times. Used to express barriers between collective phases.
// When an EventObserver is installed the barrier registers itself as a join,
// so slack analysis can see which input arrived last.
class Barrier {
 public:
  Barrier(int expected, Simulator::Callback on_all_done)
      : remaining_(expected), on_all_done_(std::move(on_all_done)) {
    TPU_CHECK_GT(expected, 0);
    if (EventObserver* observer = CurrentEventObserver()) {
      join_ = observer->OnJoinOpen(expected);
    }
  }

  void Notify() {
    TPU_CHECK_GT(remaining_, 0);
    if (join_ >= 0) {
      if (EventObserver* observer = CurrentEventObserver()) {
        observer->OnJoinNotify(join_);
      }
    }
    if (--remaining_ == 0) on_all_done_();
  }

 private:
  int remaining_;
  int join_ = -1;
  Simulator::Callback on_all_done_;
};

}  // namespace tpu::sim
