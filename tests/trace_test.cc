// Tests for the tracing & metrics layer: span bookkeeping, deterministic
// JSON export, zero-overhead-when-off guarantees, histogram percentile edge
// cases, simulator counters, the step profiler, and the ambient run context.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "collectives/all_reduce.h"
#include "collectives/halving_doubling.h"
#include "collectives/ring.h"
#include "core/sweep.h"
#include "fault/fault_injector.h"
#include "network/network.h"
#include "sim/ambient.h"
#include "sim/event_observer.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "topology/topology.h"
#include "trace/metrics.h"
#include "trace/step_profiler.h"
#include "trace/trace.h"

namespace tpu {
namespace {

// --- TraceRecorder -------------------------------------------------------

TEST(TraceRecorder, TracksDedupeAndAssignStableIds) {
  trace::TraceRecorder recorder;
  const auto a = recorder.Track("pod0", "links");
  const auto b = recorder.Track("pod1", "links");
  const auto c = recorder.Track("pod0", "links");
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
}

TEST(TraceRecorder, SpansNest) {
  trace::TraceRecorder recorder;
  const auto track = recorder.Track("system", "step");
  EXPECT_EQ(recorder.open_spans(track), 0);
  recorder.Begin(track, "outer", 0.0);
  recorder.Begin(track, "inner", 1.0);
  EXPECT_EQ(recorder.open_spans(track), 2);
  recorder.End(track, 2.0);
  EXPECT_EQ(recorder.open_spans(track), 1);
  recorder.End(track, 3.0);
  EXPECT_EQ(recorder.open_spans(track), 0);
  EXPECT_EQ(recorder.event_count(), 4u);
}

TEST(TraceRecorder, JsonContainsMetadataSpansAndCounters) {
  trace::TraceRecorder recorder;
  const auto track = recorder.Track("pod0", "link 0");
  const auto counter = recorder.Counter(track, "bytes_in_flight");
  recorder.Complete(track, "xfer 1.0KiB", Micros(1), Micros(3));
  recorder.Instant(track, "link failed", Micros(2));
  recorder.CounterDelta(counter, Micros(1), 1024);
  recorder.CounterDelta(counter, Micros(3), -1024);
  const std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.000"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("bytes_in_flight"), std::string::npos);
  // The counter series accumulates deltas to absolute values.
  EXPECT_NE(json.find("\"value\":1024.000"), std::string::npos);
  EXPECT_NE(json.find("\"value\":0.000"), std::string::npos);
}

TEST(TraceRecorder, TimeOffsetShiftsTimestamps) {
  trace::TraceRecorder recorder;
  const auto track = recorder.Track("system", "step");
  recorder.Complete(track, "first", 0.0, Micros(10));
  EXPECT_DOUBLE_EQ(recorder.last_timestamp(), Micros(10));
  {
    trace::ScopedTimeOffset offset(&recorder, recorder.last_timestamp());
    recorder.Complete(track, "second", 0.0, Micros(5));
  }
  EXPECT_DOUBLE_EQ(recorder.last_timestamp(), Micros(15));
  EXPECT_DOUBLE_EQ(recorder.time_offset(), 0.0);  // restored
}

TEST(TraceRecorder, ScopedTraceInstallsAndRestores) {
  EXPECT_EQ(trace::CurrentTrace(), nullptr);
  {
    trace::TraceRecorder recorder;
    trace::ScopedTrace scoped(&recorder);
    EXPECT_EQ(trace::CurrentTrace(), &recorder);
  }
  EXPECT_EQ(trace::CurrentTrace(), nullptr);
}

// --- Traced simulation ---------------------------------------------------

coll::GradientSummationResult RunSmallSummation() {
  sim::Simulator simulator;
  topo::MeshTopology topo(topo::TopologyConfig::Slice(4, 4, /*wrap_y=*/true));
  net::Network network(&topo, {}, &simulator);
  coll::GradientSummationConfig config;
  config.elems = 1 << 14;
  config.collective.bfloat16_wire = true;
  config.shard_update_seconds = [](std::int64_t owned) {
    return Seconds(static_cast<double>(owned) * 1e-9);
  };
  return coll::TwoDGradientSummation(network, config);
}

// Counts what it is shown and records nothing else; installing it switches
// net::Network::Send to its observed branch, as the critical-path tracker
// does.
class CountingObserver : public sim::EventObserver {
 public:
  void OnSchedule(std::uint64_t, std::int64_t, SimTime, SimTime) override {
    ++schedules;
  }
  void OnFire(std::uint64_t, SimTime) override { ++fires; }
  void OnMessage(std::uint64_t, sim::MessageRecord) override { ++messages; }

  std::string Counts() const {
    return std::to_string(schedules) + "/" + std::to_string(fires) + "/" +
           std::to_string(messages);
  }

  int schedules = 0;
  int fires = 0;
  int messages = 0;
};

// Everything a run leaves that either branch of Send could move.
struct SendOutcome {
  std::vector<SimTime> times;
  std::vector<float> data;
  net::TrafficStats traffic;
  std::uint64_t events = 0;
};

// One scenario on two 4x4 pods (Y wraps, one cross-pod X boundary) with the
// +X link (1,1)->(2,1) degraded 4x and the +Y link (5,2)->(5,3) failed.
SendOutcome RunSendScenario(int scenario) {
  topo::TopologyConfig shape;
  shape.pod_size_x = 4;
  shape.pod_size_y = 4;
  shape.num_pods = 2;
  const topo::MeshTopology topo(shape);
  sim::Simulator simulator;
  net::Network network(&topo, {}, &simulator);
  network.DegradeLink(
      topo.LinkBetween(topo.ChipAt({1, 1}), topo.ChipAt({2, 1})), 4.0);
  network.FailLink(topo.LinkBetween(topo.ChipAt({5, 2}), topo.ChipAt({5, 3})));
  SendOutcome out;
  auto stamp = [&] { out.times.push_back(simulator.now()); };
  switch (scenario) {
    case 0:  // point to point
      network.Send(3, 3, 4096, stamp);  // self-send
      network.Send(topo.ChipAt({0, 1}), topo.ChipAt({3, 1}), 4096, stamp);
      network.Send(topo.ChipAt({5, 1}), topo.ChipAt({5, 3}), 4096, stamp);
      network.Send(topo.ChipAt({2, 2}), topo.ChipAt({6, 2}), 4096, stamp);
      network.Send(topo.ChipAt({0, 0}), topo.ChipAt({1, 0}), 0, stamp);
      // Queues behind the second send on the degraded link.
      network.Send(topo.ChipAt({0, 1}), topo.ChipAt({3, 1}), 4096, stamp);
      simulator.Run();
      break;
    case 1: {  // halving-doubling along row 1: degraded and cross-pod hops
      coll::RingSpec group;
      for (int x = 0; x < 8; ++x) group.order.push_back(topo.ChipAt({x, 1}));
      group.range = coll::Range{0, 1 << 12};
      out.times.push_back(coll::HdReduceScatter(network, {group}, {}));
      out.times.push_back(coll::HdAllGather(network, {group}, {}));
      break;
    }
    case 2: {  // data-carrying bf16 ring along column 5, over the failed link
      coll::RingSpec ring;
      ring.order = topo.RingAlong(topo::Dim::kY, topo.ChipAt({5, 0}));
      std::vector<std::vector<float>> buffers(ring.order.size());
      for (std::size_t rank = 0; rank < buffers.size(); ++rank) {
        for (int i = 0; i < 37; ++i) {
          buffers[rank].push_back(0.37f * static_cast<float>(i) +
                                  static_cast<float>(rank));
        }
        ring.data.push_back(buffers[rank].data());
      }
      ring.range = coll::Range{0, 37};
      coll::CollectiveOptions options;
      options.bfloat16_wire = true;
      out.times.push_back(coll::AllReduce(network, {ring}, options));
      for (const std::vector<float>& buffer : buffers) {
        out.data.insert(out.data.end(), buffer.begin(), buffer.end());
      }
      break;
    }
    default: {  // the 2-D summation with a sharded update
      coll::GradientSummationConfig config;
      config.elems = 1 << 12;
      config.shard_update_seconds = [](std::int64_t owned) {
        return Seconds(static_cast<double>(owned) * 1e-9);
      };
      const coll::GradientSummationResult result =
          coll::TwoDGradientSummation(network, config);
      out.times = {result.reduce_seconds, result.update_seconds,
                   result.broadcast_seconds};
      break;
    }
  }
  out.traffic = network.traffic();
  out.events = simulator.events_processed();
  return out;
}

// Send takes a lean branch when no trace recorder, metrics registry or
// event observer is installed, and the recording branch otherwise. Every
// scenario — self-send, degraded and failed links, a cross-pod hop, zero
// bytes, halving-doubling, a data-carrying ring, the 2-D summation — must
// give bit-identical timings, data, per-class traffic and event counts under
// each observation mode.
TEST(TracedSimulation, SendBranchesBitIdenticalUnderEveryObservationMode) {
  constexpr int kTrace = 1, kMetrics = 2, kObserver = 4;
  for (int scenario = 0; scenario < 4; ++scenario) {
    const SendOutcome off = RunSendScenario(scenario);
    EXPECT_GT(off.traffic.messages, 0);
    for (const int mode : {kTrace, kMetrics, kObserver,
                           kTrace | kMetrics | kObserver}) {
      SCOPED_TRACE(testing::Message()
                   << "scenario " << scenario << " mode " << mode);
      trace::TraceRecorder recorder;
      trace::MetricsRegistry metrics;
      CountingObserver observer;
      trace::ScopedTrace scoped_trace((mode & kTrace) ? &recorder : nullptr);
      trace::ScopedMetrics scoped_metrics((mode & kMetrics) ? &metrics
                                                            : nullptr);
      sim::ScopedEventObserver scoped_observer(
          (mode & kObserver) ? &observer : nullptr);
      const SendOutcome on = RunSendScenario(scenario);
      EXPECT_EQ(on.times, off.times);
      EXPECT_EQ(on.data, off.data);
      EXPECT_EQ(on.traffic.mesh_x_bytes, off.traffic.mesh_x_bytes);
      EXPECT_EQ(on.traffic.cross_pod_x_bytes, off.traffic.cross_pod_x_bytes);
      EXPECT_EQ(on.traffic.mesh_y_bytes, off.traffic.mesh_y_bytes);
      EXPECT_EQ(on.traffic.wrap_y_bytes, off.traffic.wrap_y_bytes);
      EXPECT_EQ(on.traffic.messages, off.traffic.messages);
      EXPECT_EQ(on.events, off.events);
      if (mode & kTrace) {
        EXPECT_GT(recorder.event_count(), 0u);
      }
      if (mode & kMetrics) {
        EXPECT_FALSE(metrics.empty());
      }
      if (mode & kObserver) {
        EXPECT_EQ(observer.messages, off.traffic.messages);
      }
    }
  }
}

TEST(TracedSimulation, ResultsBitIdenticalWithTracingOnOrOff) {
  const coll::GradientSummationResult off = RunSmallSummation();

  trace::TraceRecorder recorder;
  trace::MetricsRegistry metrics;
  coll::GradientSummationResult on;
  {
    trace::ScopedTrace scoped_trace(&recorder);
    trace::ScopedMetrics scoped_metrics(&metrics);
    on = RunSmallSummation();
  }
  // Tracing only observes: every timing must match to the last bit.
  EXPECT_EQ(off.reduce_seconds, on.reduce_seconds);
  EXPECT_EQ(off.update_seconds, on.update_seconds);
  EXPECT_EQ(off.broadcast_seconds, on.broadcast_seconds);
  EXPECT_EQ(off.max_owned_elems, on.max_owned_elems);
  EXPECT_GT(recorder.event_count(), 0u);
  EXPECT_FALSE(metrics.empty());
}

TEST(TracedSimulation, JsonDeterministicAcrossIdenticalRuns) {
  std::string json[2];
  for (int run = 0; run < 2; ++run) {
    trace::TraceRecorder recorder;
    trace::ScopedTrace scoped(&recorder);
    RunSmallSummation();
    json[run] = recorder.ToJson();
  }
  EXPECT_EQ(json[0], json[1]);
  EXPECT_GT(json[0].size(), 0u);
}

TEST(TracedSimulation, SummationEmitsAllSixPhaseSpans) {
  trace::TraceRecorder recorder;
  trace::ScopedTrace scoped(&recorder);
  RunSmallSummation();
  const std::string json = recorder.ToJson();
  for (const char* name :
       {"2d-summation", "reduce-scatter-Y", "reduce-scatter-X",
        "sharded-update", "broadcast-X", "broadcast-Y"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
  // Ring async spans and per-link tracks ride along.
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("Y x=0 reduce-scatter"), std::string::npos);
  EXPECT_NE(json.find("link 0 ("), std::string::npos);  // per-link threads
  EXPECT_NE(json.find("meshX"), std::string::npos);
  EXPECT_NE(json.find("bytes_in_flight"), std::string::npos);
  // The summation closed its umbrella span.
  EXPECT_EQ(recorder.open_spans(recorder.Track("system", "summation")), 0);
}

TEST(TracedSimulation, PhaseSecondsAlwaysFilledAndConsistent) {
  const coll::GradientSummationResult result = RunSmallSummation();
  const coll::SummationPhaseSeconds& p = result.phase_seconds;
  EXPECT_GT(p.y_reduce_scatter, 0.0);
  EXPECT_GT(p.x_reduce_scatter, 0.0);
  EXPECT_GT(p.update, 0.0);
  EXPECT_GT(p.x_all_gather, 0.0);
  EXPECT_GT(p.y_all_gather, 0.0);
  EXPECT_DOUBLE_EQ(p.y_reduce_scatter + p.x_reduce_scatter,
                   result.reduce_seconds);
  EXPECT_DOUBLE_EQ(p.update, result.update_seconds);
  EXPECT_DOUBLE_EQ(p.x_all_gather + p.y_all_gather, result.broadcast_seconds);
}

TEST(TracedSimulation, FaultInjectionEmitsInstantEvents) {
  trace::TraceRecorder recorder;
  trace::ScopedTrace scoped(&recorder);

  sim::Simulator simulator;
  topo::MeshTopology topo(topo::TopologyConfig::Slice(4, 4, /*wrap_y=*/true));
  net::Network network(&topo, {}, &simulator);
  fault::FaultInjector injector(&network, {});
  fault::FaultEvent flap;
  flap.kind = fault::FaultKind::kLinkFlap;
  flap.link = 2;
  flap.duration = Micros(100);
  flap.degrade_factor = 8.0;
  simulator.Schedule(Micros(10), [&] { injector.Apply(flap); });
  simulator.Run();

  const std::string json = recorder.ToJson();
  EXPECT_NE(json.find("link-flap link=2"), std::string::npos);
  EXPECT_NE(json.find("degraded x8.0"), std::string::npos);
  EXPECT_NE(json.find("link restored"), std::string::npos);
  EXPECT_NE(json.find("\"faults\""), std::string::npos);
}

// --- Metrics -------------------------------------------------------------

TEST(MetricHistogram, EmptyReportsZero) {
  trace::MetricHistogram histogram;
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(1.0), 0.0);
  EXPECT_DOUBLE_EQ(histogram.mean(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 0.0);
}

TEST(MetricHistogram, SingleSampleIsExactAtEveryPercentile) {
  trace::MetricHistogram histogram;
  histogram.Record(123.456);
  for (const double p : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(histogram.Percentile(p), 123.456) << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(histogram.mean(), 123.456);
}

TEST(MetricHistogram, ZeroAndNegativeSamplesLandBelowAllBuckets) {
  trace::MetricHistogram histogram;
  histogram.Record(0.0);
  histogram.Record(-5.0);
  histogram.Record(100.0);
  EXPECT_EQ(histogram.count(), 3);
  EXPECT_DOUBLE_EQ(histogram.min(), -5.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 100.0);
  // Median falls among the non-positive samples.
  EXPECT_LE(histogram.Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(1.0), 100.0);
}

TEST(MetricHistogram, PercentilesApproximateUniformSamples) {
  trace::MetricHistogram histogram;
  for (int i = 1; i <= 1000; ++i) histogram.Record(i);
  // Log-scale buckets are ~9% wide; interpolated percentiles must land
  // within one bucket of the exact order statistic.
  EXPECT_NEAR(histogram.Percentile(0.50), 500, 50);
  EXPECT_NEAR(histogram.Percentile(0.95), 950, 90);
  EXPECT_DOUBLE_EQ(histogram.Percentile(1.0), 1000);
  EXPECT_DOUBLE_EQ(histogram.min(), 1);
}

TEST(MetricHistogram, BucketBoundaryValuesClampToExactMinAndMax) {
  // Samples sitting exactly on geometric bucket edges (powers of two are
  // powers of the 2^(1/8) ratio) must never let interpolation escape the
  // exact [min, max] envelope.
  trace::MetricHistogram histogram;
  for (const double v : {1.0, 2.0, 4.0, 1024.0}) histogram.Record(v);
  EXPECT_DOUBLE_EQ(histogram.min(), 1.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 1024.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(1.0), 1024.0);
  for (double p = 0.0; p <= 1.0; p += 0.05) {
    EXPECT_GE(histogram.Percentile(p), 1.0) << "p=" << p;
    EXPECT_LE(histogram.Percentile(p), 1024.0) << "p=" << p;
  }
  // Identical samples collapse the envelope: every percentile is exact even
  // though the containing bucket is ~9% wide.
  trace::MetricHistogram repeated;
  for (int i = 0; i < 17; ++i) repeated.Record(2.0);
  for (const double p : {0.0, 0.3, 0.5, 0.97, 1.0}) {
    EXPECT_DOUBLE_EQ(repeated.Percentile(p), 2.0) << "p=" << p;
  }
}

TEST(MetricHistogram, SingleNegativeSampleIsExactAtEveryPercentile) {
  // Regression: negative samples live in the below-all-buckets block, whose
  // interpolation used to report 0 (the block's upper edge) even when every
  // sample was the same negative value.
  trace::MetricHistogram histogram;
  histogram.Record(-7.5);
  for (const double p : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(histogram.Percentile(p), -7.5) << "p=" << p;
  }
}

TEST(MetricHistogram, AllEqualNegativeSamplesCollapseEveryPercentile) {
  trace::MetricHistogram histogram;
  for (int i = 0; i < 9; ++i) histogram.Record(-3.0);
  for (const double p : {0.0, 0.5, 1.0}) {
    EXPECT_DOUBLE_EQ(histogram.Percentile(p), -3.0) << "p=" << p;
  }
}

TEST(MetricHistogram, NegativeBlockInterpolatesWithinMinMaxEnvelope) {
  trace::MetricHistogram histogram;
  histogram.Record(-10.0);
  histogram.Record(-2.0);
  histogram.Record(5.0);
  // Percentiles inside the non-positive block interpolate between min and
  // 0, never escaping [min, max].
  for (double p = 0.0; p <= 1.0; p += 0.1) {
    EXPECT_GE(histogram.Percentile(p), -10.0) << "p=" << p;
    EXPECT_LE(histogram.Percentile(p), 5.0) << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(histogram.Percentile(0.0), -10.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(1.0), 5.0);
}

TEST(MetricHistogram, ResetRestoresTheEmptyState) {
  trace::MetricHistogram histogram;
  histogram.Record(-1.0);
  histogram.Record(42.0);
  histogram.Reset();
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_DOUBLE_EQ(histogram.mean(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(0.5), 0.0);
  // A fresh recording after Reset behaves exactly like a new histogram.
  histogram.Record(3.0);
  EXPECT_EQ(histogram.count(), 1);
  EXPECT_DOUBLE_EQ(histogram.Percentile(0.5), 3.0);
}

TEST(MetricsRegistry, ResetClearsAllInstrumentsForReuse) {
  // Sweep drivers reuse one registry across repetitions; the second
  // repetition must see a clean slate, not sums over both.
  trace::MetricsRegistry registry;
  std::ostringstream first, second;
  for (int repetition = 0; repetition < 2; ++repetition) {
    registry.Reset();
    registry.Counter("sweep.points").Add(3);
    registry.Gauge("sweep.batch").Set(1024);
    registry.Histogram("sweep.step_ms").Record(7.25);
    std::ostringstream& out = (repetition == 0 ? first : second);
    registry.WriteJson(out);
  }
  EXPECT_FALSE(registry.empty());
  EXPECT_EQ(first.str(), second.str());

  registry.Reset();
  EXPECT_TRUE(registry.empty());
  std::ostringstream emptied;
  registry.WriteJson(emptied);
  trace::MetricsRegistry fresh;
  std::ostringstream never_used;
  fresh.WriteJson(never_used);
  EXPECT_EQ(emptied.str(), never_used.str());
}

// An observed sweep runs serially (worker threads would start from a
// default, unobserved sim::Ambient), so for each sink alone the CSV must be
// byte-identical to the unobserved run and what the sink recorded must not
// depend on the requested thread count.
TEST(MetricsRegistry, MeteredSweepMatchesPlainSerialSweepByteForByte) {
  const auto run = [](int threads) {
    core::SweepConfig config;
    config.benchmark = models::Benchmark::kResNet50;
    config.chip_counts = {16, 32, 64};
    config.batch_for = [](int chips) { return 256LL * chips; };
    config.threads = threads;
    std::ostringstream csv;
    core::WriteSweepCsv(csv, core::RunScalingSweep(config));
    return csv.str();
  };
  const std::string plain = run(1);
  // A genuinely parallel unobserved run agrees too.
  EXPECT_EQ(run(4), plain);

  enum Sink { kTrace, kMetrics, kTelemetry, kObserver };
  for (const Sink sink : {kTrace, kMetrics, kTelemetry, kObserver}) {
    SCOPED_TRACE(testing::Message() << "sink " << sink);
    // Runs the sweep with only `sink` installed; returns what it recorded.
    const auto observed = [&](int threads) {
      trace::TraceRecorder recorder;
      trace::MetricsRegistry metrics;
      telemetry::TelemetrySession session;
      CountingObserver observer;
      trace::ScopedTrace scoped_trace(sink == kTrace ? &recorder : nullptr);
      trace::ScopedMetrics scoped_metrics(sink == kMetrics ? &metrics
                                                           : nullptr);
      telemetry::ScopedTelemetry scoped_telemetry(
          sink == kTelemetry ? &session : nullptr);
      sim::ScopedEventObserver scoped_observer(
          sink == kObserver ? &observer : nullptr);
      EXPECT_EQ(run(threads), plain);
      switch (sink) {
        case kTrace:
          EXPECT_GT(recorder.event_count(), 0u);
          return recorder.ToJson();
        case kMetrics:
          EXPECT_FALSE(metrics.empty());
          return metrics.ToJson();
        case kTelemetry:
          return session.ToJson();
        case kObserver:
          EXPECT_GT(observer.messages, 0);
          return observer.Counts();
      }
      return std::string();
    };
    EXPECT_EQ(observed(4), observed(1));
  }
}

// --- Ambient run context -------------------------------------------------

// One row per sim::Ambient field: installs one of two distinct values in a
// scope the returned handle owns, and reports which value the calling
// thread's field holds.
struct AmbientField {
  static constexpr int kDefault = -1;
  const char* name;
  bool sink;  // one of the four fields Observed() and ScopedUnobserved see
  std::function<std::shared_ptr<void>(int)> install;
  std::function<int()> holds;  // 0, 1, kDefault, or -2 for anything else
};

template <typename T>
bool SameValue(const T& a, const T& b) {
  return a == b;
}
bool SameValue(const sim::PdesConfig& a, const sim::PdesConfig& b) {
  return a.enable == b.enable && a.threads == b.threads && a.stats == b.stats;
}

template <auto Field>
AmbientField MakeAmbientField(const char* name, bool sink,
                              typename sim::ScopedSlot<Field>::Value first,
                              typename sim::ScopedSlot<Field>::Value second) {
  using Value = typename sim::ScopedSlot<Field>::Value;
  AmbientField field{name, sink, {}, {}};
  field.install = [first, second](int which) -> std::shared_ptr<void> {
    return std::make_shared<sim::ScopedSlot<Field>>(which == 0 ? first
                                                               : second);
  };
  field.holds = [first, second] {
    const Value& now = sim::CurrentAmbient().*Field;
    if (SameValue(now, first)) return 0;
    if (SameValue(now, second)) return 1;
    if (SameValue(now, Value{})) return AmbientField::kDefault;
    return -2;
  };
  return field;
}

// The context contract, field by field: nested installs restore in LIFO
// order, exactly the four sinks make a run Observed(), ScopedUnobserved nulls
// exactly those four and restores them while leaving the PDES request and
// the lane alone, and a fresh thread starts from the default context.
TEST(Ambient, EveryFieldNestsSilencesAndStaysOnItsThread) {
  trace::TraceRecorder recorders[2];
  trace::MetricsRegistry registries[2];
  telemetry::TelemetrySession sessions[2];
  CountingObserver observers[2];
  sim::PdesStats stats;
  sim::Simulator simulators[2];
  net::Lane lanes[2] = {net::Lane(&simulators[0]), net::Lane(&simulators[1])};
  const std::vector<AmbientField> fields = {
      MakeAmbientField<&sim::Ambient::trace>("trace", true, &recorders[0],
                                             &recorders[1]),
      MakeAmbientField<&sim::Ambient::metrics>("metrics", true,
                                               &registries[0], &registries[1]),
      MakeAmbientField<&sim::Ambient::telemetry>("telemetry", true,
                                                 &sessions[0], &sessions[1]),
      MakeAmbientField<&sim::Ambient::observer>("observer", true,
                                                &observers[0], &observers[1]),
      MakeAmbientField<&sim::Ambient::pdes>("pdes", false, {true, 2, nullptr},
                                            {true, 4, &stats}),
      MakeAmbientField<&sim::Ambient::lane>("lane", false, &lanes[0],
                                            &lanes[1]),
  };
  const auto observed = [] { return sim::CurrentAmbient().Observed(); };

  for (const AmbientField& field : fields) {
    SCOPED_TRACE(field.name);
    EXPECT_EQ(field.holds(), AmbientField::kDefault);
    {
      const auto outer = field.install(0);
      EXPECT_EQ(field.holds(), 0);
      EXPECT_EQ(observed(), field.sink);
      {
        const auto inner = field.install(1);
        EXPECT_EQ(field.holds(), 1);
      }
      EXPECT_EQ(field.holds(), 0);
    }
    EXPECT_EQ(field.holds(), AmbientField::kDefault);
    EXPECT_FALSE(observed());
  }

  std::vector<std::shared_ptr<void>> scopes;
  for (const AmbientField& field : fields) scopes.push_back(field.install(0));
  EXPECT_TRUE(observed());
  {
    sim::ScopedUnobserved unobserved;
    EXPECT_FALSE(observed());
    for (const AmbientField& field : fields) {
      SCOPED_TRACE(field.name);
      EXPECT_EQ(field.holds(), field.sink ? AmbientField::kDefault : 0);
    }
  }
  std::vector<int> on_worker;
  bool worker_observed = true;
  std::thread worker([&] {
    for (const AmbientField& field : fields) {
      on_worker.push_back(field.holds());
    }
    worker_observed = observed();
  });
  worker.join();
  EXPECT_FALSE(worker_observed);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    SCOPED_TRACE(fields[i].name);
    EXPECT_EQ(fields[i].holds(), 0);
    EXPECT_EQ(on_worker[i], AmbientField::kDefault);
  }
  while (!scopes.empty()) scopes.pop_back();
  EXPECT_FALSE(observed());
}

TEST(MetricsRegistry, RegistriesAreThreadLocal) {
  trace::MetricsRegistry registry;
  trace::ScopedMetrics install(&registry);
  ASSERT_EQ(trace::CurrentMetrics(), &registry);
  // The installed registry must be invisible from a worker thread: the
  // run context is thread_local precisely so concurrent sweeps cannot race
  // on one registry.
  trace::MetricsRegistry* seen_in_worker = &registry;
  std::thread worker([&] { seen_in_worker = trace::CurrentMetrics(); });
  worker.join();
  EXPECT_EQ(seen_in_worker, nullptr);
  EXPECT_EQ(trace::CurrentMetrics(), &registry);
}

TEST(MetricsRegistry, DumpsAreDeterministicAndNamed) {
  trace::MetricsRegistry metrics;
  metrics.Counter("net.messages").Add(7);
  metrics.Gauge("net.max_link_utilization").Max(0.5);
  metrics.Gauge("net.max_link_utilization").Max(0.25);  // keeps the max
  metrics.Histogram("net.link_queue_delay_us").Record(3.0);

  std::ostringstream text;
  metrics.WriteText(text);
  EXPECT_NE(text.str().find("net.messages = 7"), std::string::npos);
  EXPECT_NE(text.str().find("net.max_link_utilization = 0.5"),
            std::string::npos);
  EXPECT_NE(text.str().find("net.link_queue_delay_us: count=1"),
            std::string::npos);

  const std::string json = metrics.ToJson();
  EXPECT_NE(json.find("\"counters\":{\"net.messages\":7}"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// --- Simulator counters & RunUntil policy --------------------------------

TEST(Simulator, CountsScheduledEventsAndPeakQueueDepth) {
  sim::Simulator simulator;
  for (int i = 0; i < 5; ++i) simulator.Schedule(1.0 + i, [] {});
  EXPECT_EQ(simulator.events_scheduled(), 5u);
  EXPECT_EQ(simulator.peak_queue_depth(), 5u);
  simulator.Run();
  EXPECT_EQ(simulator.events_processed(), 5u);
  EXPECT_EQ(simulator.peak_queue_depth(), 5u);  // high-water mark persists

  trace::MetricsRegistry metrics;
  trace::ExportSimulatorMetrics(simulator, "sim", metrics);
  EXPECT_EQ(metrics.Counter("sim.events_scheduled").value, 5);
  EXPECT_EQ(metrics.Counter("sim.events_processed").value, 5);
  EXPECT_DOUBLE_EQ(metrics.Gauge("sim.peak_queue_depth").value, 5.0);
}

TEST(Simulator, RunUntilAdvanceToDeadlineIsTheDefault) {
  sim::Simulator simulator;
  simulator.Schedule(1.0, [] {});
  simulator.RunUntil(10.0);
  EXPECT_DOUBLE_EQ(simulator.now(), 10.0);  // historical behaviour preserved
}

TEST(Simulator, RunUntilStopAtLastEventLeavesClockAtQuiescence) {
  sim::Simulator simulator;
  simulator.Schedule(1.0, [] {});
  simulator.RunUntil(10.0, sim::Simulator::DeadlinePolicy::kStopAtLastEvent);
  EXPECT_DOUBLE_EQ(simulator.now(), 1.0);
  // A later deadline with pending events still stops at the deadline edge.
  simulator.Schedule(4.0, [] {});
  simulator.Schedule(100.0, [] {});
  simulator.RunUntil(20.0, sim::Simulator::DeadlinePolicy::kStopAtLastEvent);
  EXPECT_DOUBLE_EQ(simulator.now(), 5.0);
  EXPECT_FALSE(simulator.empty());
}

// --- StepProfiler --------------------------------------------------------

TEST(StepProfiler, AccumulatesPhasesPerStep) {
  trace::StepProfiler profiler;
  profiler.BeginStep("step0");
  profiler.Record(trace::StepPhase::kForward, Millis(1));
  profiler.Record(trace::StepPhase::kBackward, Millis(2));
  profiler.Record(trace::StepPhase::kBackward, Millis(1));  // accumulates
  profiler.EndStep();
  profiler.BeginStep("step1");
  profiler.Record(trace::StepPhase::kReduceScatterY, Millis(4));
  profiler.EndStep();

  EXPECT_EQ(profiler.steps(), 2);
  EXPECT_DOUBLE_EQ(profiler.Total(trace::StepPhase::kBackward), Millis(3));
  EXPECT_DOUBLE_EQ(profiler.StepSeconds(0, trace::StepPhase::kForward),
                   Millis(1));
  EXPECT_DOUBLE_EQ(profiler.StepSeconds(1, trace::StepPhase::kReduceScatterY),
                   Millis(4));
  EXPECT_DOUBLE_EQ(profiler.TotalStep(), Millis(8));

  std::ostringstream table;
  profiler.WriteTable(table);
  EXPECT_NE(table.str().find("forward"), std::string::npos);
  EXPECT_NE(table.str().find("reduce-scatter-Y"), std::string::npos);
  // Phases never recorded are omitted from the table.
  EXPECT_EQ(table.str().find("embedding-comm"), std::string::npos);
}

TEST(StepProfiler, PhaseNamesCoverTheTaxonomy) {
  for (int i = 0; i < trace::kNumStepPhases; ++i) {
    EXPECT_STRNE(trace::StepPhaseName(static_cast<trace::StepPhase>(i)), "");
  }
}

TEST(StepProfiler, EmptyRunReportIsWellFormed) {
  // A profiler that never saw a step must report clean zeros and write a
  // table without dividing by the zero step count.
  trace::StepProfiler profiler;
  EXPECT_EQ(profiler.steps(), 0);
  EXPECT_DOUBLE_EQ(profiler.TotalStep(), 0.0);
  for (int i = 0; i < trace::kNumStepPhases; ++i) {
    EXPECT_DOUBLE_EQ(profiler.Total(static_cast<trace::StepPhase>(i)), 0.0);
  }
  std::ostringstream table;
  profiler.WriteTable(table);
  EXPECT_EQ(table.str().find("nan"), std::string::npos);
  EXPECT_EQ(table.str().find("inf"), std::string::npos);
}

TEST(StepProfiler, BeginWithoutRecordYieldsAnAllZeroStep) {
  trace::StepProfiler profiler;
  profiler.BeginStep("idle");
  profiler.EndStep();
  EXPECT_EQ(profiler.steps(), 1);
  EXPECT_DOUBLE_EQ(profiler.TotalStep(), 0.0);
  std::ostringstream table;
  profiler.WriteTable(table);
  EXPECT_EQ(table.str().find("nan"), std::string::npos);
}

// --- Committed quickstart trace ------------------------------------------

std::size_t CountOccurrences(const std::string& haystack,
                             const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(QuickstartTrace, CommittedTraceIsSchemaValidWithWellFormedFlows) {
  // docs/quickstart_trace.json is the committed output of
  // `quickstart --trace=...`; regenerate it whenever the trace schema or the
  // mini-run changes. This test keeps the committed artifact honest.
  const std::string path =
      std::string(TPU_REPO_ROOT) + "/docs/quickstart_trace.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();

  // Chrome-trace schema basics.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_GT(CountOccurrences(json, "\"ph\":\"X\""), 0u);
  // Balanced braces/brackets is a cheap proxy for well-formed JSON (the
  // recorder never emits strings containing braces).
  EXPECT_EQ(CountOccurrences(json, "{"), CountOccurrences(json, "}"));
  EXPECT_EQ(CountOccurrences(json, "["), CountOccurrences(json, "]"));

  // Flow-event well-formedness: the critical-path chain is one flow — a
  // single start, a single end carrying the enclosing-slice binding point,
  // intermediate steps, and every flow event tagged with the critpath
  // category and an id.
  const std::size_t starts = CountOccurrences(json, "\"ph\":\"s\"");
  const std::size_t steps = CountOccurrences(json, "\"ph\":\"t\"");
  const std::size_t ends = CountOccurrences(json, "\"ph\":\"f\"");
  EXPECT_EQ(starts, 1u);
  EXPECT_EQ(ends, 1u);
  EXPECT_GT(steps, 0u);
  EXPECT_EQ(CountOccurrences(json, "\"bp\":\"e\""), ends);
  EXPECT_EQ(CountOccurrences(json, "\"cat\":\"critpath\""),
            starts + steps + ends);
  // The critical-path track with its attributed segments rides along.
  EXPECT_NE(json.find("critical-path"), std::string::npos);
}

}  // namespace
}  // namespace tpu
