// Pieces shared by the ring (ring.cc) and halving-doubling
// (halving_doubling.cc) passes. Internal to the collectives library.
#pragma once

#include <string>
#include <utility>

#include "common/check.h"
#include "network/network.h"
#include "sim/event_observer.h"
#include "sim/simulator.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace tpu::coll::internal {

// Join-counter for the per-step (per-round) rendezvous, owned by its own
// notifications: the last Notify fires the continuation and deletes the
// barrier. Callbacks capture it as a raw pointer (8 inline bytes, no
// refcount traffic), which is safe because every simulated message
// completes — even failed-link sends finish after their stall — so the
// notification count always reaches `expected`. Under a causal observer the
// barrier registers as a join, so slack analysis sees which rank's transfer
// released each step.
class StepBarrier {
 public:
  StepBarrier(int expected, sim::Simulator::Callback on_all_done)
      : remaining_(expected), on_all_done_(std::move(on_all_done)) {
    TPU_CHECK_GT(expected, 0);
    if (sim::EventObserver* observer = sim::CurrentEventObserver()) {
      join_ = observer->OnJoinOpen(expected);
    }
  }

  void Notify() {
    if (join_ >= 0) {
      if (sim::EventObserver* observer = sim::CurrentEventObserver()) {
        observer->OnJoinNotify(join_);
      }
    }
    if (--remaining_ == 0) {
      on_all_done_();
      delete this;
    }
  }

 private:
  int remaining_;
  int join_ = -1;
  sim::Simulator::Callback on_all_done_;
};

// Groups within one collective phase overlap in time, so under a trace
// recorder each gets an async span (b/e pair keyed by a fresh id) on the
// shared "rings" track rather than a nested B/E span, named `label` (or
// `default_label`) plus `suffix`; its duration also goes to the `histogram`
// metric. Returns `on_done` wrapped to close the span, or unchanged when no
// recorder is installed. Purely observational: the schedule is unchanged.
inline sim::Simulator::Callback WithGroupSpan(
    net::Network& network, const std::string& label,
    const char* default_label, const char* suffix, const char* histogram,
    sim::Simulator::Callback on_done) {
  trace::TraceRecorder* recorder = trace::CurrentTrace();
  if (recorder == nullptr) return on_done;
  const trace::TraceRecorder::TrackId track =
      recorder->Track("system", "rings");
  std::string name = label.empty() ? default_label : label;
  name += suffix;
  const std::uint64_t async_id = recorder->NextAsyncId();
  sim::Simulator* simulator = &network.simulator();
  const SimTime begin = simulator->now();
  recorder->AsyncBegin(track, std::move(name), async_id, begin);
  return [recorder, track, async_id, simulator, begin, histogram,
          done = std::move(on_done)]() mutable {
    const SimTime end = simulator->now();
    recorder->AsyncEnd(track, async_id, end);
    if (trace::MetricsRegistry* metrics = trace::CurrentMetrics()) {
      metrics->Histogram(histogram).Record(ToMicros(end - begin));
    }
    done();
  };
}

}  // namespace tpu::coll::internal
