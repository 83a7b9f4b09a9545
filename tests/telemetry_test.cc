// Tests for the telemetry subsystem: downsampled time series, the
// simulated-clock sampler (cadence, stop predicate, counter exclusion and
// work-timestamp bit-identity), the anomaly watchdogs on synthetic tick
// streams, the flight recorder's ring/dump semantics, and the end-to-end
// recovery integration — the flight dump's trigger timestamp must be the
// fault's detection instant, and the watchdog's suspect links must agree
// with the critical-path engine's top contributor on the same degraded
// link.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "collectives/all_reduce.h"
#include "core/multipod.h"
#include "fault/fault_injector.h"
#include "models/model_specs.h"
#include "network/network.h"
#include "sim/simulator.h"
#include "telemetry/probes.h"
#include "telemetry/sampler.h"
#include "telemetry/telemetry.h"
#include "topology/topology.h"
#include "trace/critical_path.h"
#include "trace/metrics.h"

namespace tpu {
namespace {

using telemetry::TelemetryConfig;
using telemetry::TelemetrySession;
using telemetry::TimeSeries;
using telemetry::TimeSeriesSampler;

// --- TimeSeries ----------------------------------------------------------

TEST(TimeSeries, StoresRawSamplesUntilCapacity) {
  TimeSeries series("s", 4);
  series.Add(0.0, 1.0);
  series.Add(1.0, 3.0);
  EXPECT_EQ(series.stride(), 1);
  const std::vector<TimeSeries::Point> points = series.Points();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].t, 0.0);
  EXPECT_EQ(points[0].mean, 1.0);
  EXPECT_EQ(points[1].mean, 3.0);
  EXPECT_EQ(points[1].count, 1);
}

TEST(TimeSeries, MergesPairwiseAndDoublesStrideAtCapacity) {
  TimeSeries series("s", 4);
  for (int i = 0; i < 5; ++i) {
    series.Add(static_cast<SimTime>(i), static_cast<double>(i));
  }
  // Five samples through capacity 4: points merged to stride 2.
  EXPECT_EQ(series.stride(), 2);
  EXPECT_EQ(series.samples(), 5);
  const std::vector<TimeSeries::Point> points = series.Points();
  // Two merged points (0,1) and (2,3) plus the pending partial bucket {4}.
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].t, 0.0);
  EXPECT_EQ(points[0].count, 2);
  EXPECT_DOUBLE_EQ(points[0].mean, 0.5);
  EXPECT_EQ(points[0].min, 0.0);
  EXPECT_EQ(points[0].max, 1.0);
  EXPECT_DOUBLE_EQ(points[1].mean, 2.5);
  EXPECT_EQ(points[2].count, 1);
  EXPECT_EQ(points[2].mean, 4.0);
}

TEST(TimeSeries, CoversLongRunsWithBoundedPoints) {
  const int capacity = 8;
  TimeSeries series("s", capacity);
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    series.Add(static_cast<SimTime>(i), 1.0);
  }
  EXPECT_EQ(series.samples(), n);
  const std::vector<TimeSeries::Point> points = series.Points();
  EXPECT_LE(static_cast<int>(points.size()), capacity + 1);
  // Every raw sample is still accounted for in exactly one bucket.
  std::int64_t counted = 0;
  SimTime last_t = -1.0;
  for (const TimeSeries::Point& point : points) {
    counted += point.count;
    EXPECT_GT(point.t, last_t);
    last_t = point.t;
    EXPECT_DOUBLE_EQ(point.mean, 1.0);
  }
  EXPECT_EQ(counted, n);
}

TEST(TimeSeries, PointsIsConstAndRepeatable) {
  TimeSeries series("s", 4);
  for (int i = 0; i < 7; ++i) series.Add(i, i * 2.0);
  const std::vector<TimeSeries::Point> first = series.Points();
  const std::vector<TimeSeries::Point> second = series.Points();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].t, second[i].t);
    EXPECT_EQ(first[i].mean, second[i].mean);
    EXPECT_EQ(first[i].count, second[i].count);
  }
}

// --- Sampler + simulator accounting --------------------------------------

// A small work schedule: chained events over ~2 simulated seconds.
void ScheduleWork(sim::Simulator& simulator, std::vector<SimTime>* stamps) {
  for (int i = 0; i < 8; ++i) {
    simulator.Schedule(0.3 * (i + 1), [&simulator, stamps] {
      stamps->push_back(simulator.now());
      simulator.Schedule(0.05, [&simulator, stamps] {
        stamps->push_back(simulator.now());
      });
    });
  }
}

TEST(Sampler, TicksOnCadenceAndKeepsWorkCountersClean) {
  sim::Simulator bare;
  std::vector<SimTime> bare_stamps;
  ScheduleWork(bare, &bare_stamps);
  bare.Run();
  const std::uint64_t bare_processed = bare.events_processed();
  const std::uint64_t bare_scheduled = bare.events_scheduled();
  const std::size_t bare_peak = bare.peak_queue_depth();

  TelemetryConfig config;
  config.sample_interval = 0.25;
  TelemetrySession session(config);
  session.BeginRun("unit");
  sim::Simulator sampled;
  std::vector<SimTime> sampled_stamps;
  ScheduleWork(sampled, &sampled_stamps);
  TimeSeriesSampler sampler(&sampled, &session);
  int probe_calls = 0;
  sampler.RegisterProbe("probe.constant", [&probe_calls] {
    ++probe_calls;
    return 42.0;
  });
  bool stopped = false;
  sampler.set_stop_predicate([&stopped] { return stopped; });
  sampler.Start();
  sampled.RunUntil(2.5);
  stopped = true;
  sampled.Run();
  session.CommitRun();

  // Cadence: a tick at 0, 0.25, ..., 2.5 fired before the stop flag.
  EXPECT_EQ(sampler.ticks(), 11u);
  EXPECT_EQ(probe_calls, 11);

  // Work timestamps are bit-identical with sampling on.
  ASSERT_EQ(sampled_stamps.size(), bare_stamps.size());
  for (std::size_t i = 0; i < bare_stamps.size(); ++i) {
    EXPECT_EQ(sampled_stamps[i], bare_stamps[i]) << "i=" << i;
  }

  // User-visible counters exclude telemetry events entirely.
  EXPECT_EQ(sampled.events_processed(), bare_processed);
  EXPECT_EQ(sampled.events_scheduled(), bare_scheduled);
  EXPECT_EQ(sampled.peak_queue_depth(), bare_peak);
  // ... which land in their own counters instead.
  EXPECT_EQ(sampled.telemetry_events_processed(), 12u);
  EXPECT_EQ(sampled.telemetry_events_scheduled(), 12u);
  EXPECT_EQ(sampled.queue_depth(), 0u);

  // The session recorded the run.
  ASSERT_EQ(session.runs().size(), 1u);
  const telemetry::RunData& run = session.runs()[0];
  EXPECT_EQ(run.label, "unit");
  EXPECT_EQ(run.ticks, 11);
  ASSERT_EQ(run.series.size(), 1u);
  EXPECT_EQ(run.series[0].name(), "probe.constant");
  EXPECT_EQ(run.series[0].samples(), 11);
}

TEST(Sampler, StopPredicateHaltsBeforeSampling) {
  TelemetrySession session;
  session.BeginRun("stop");
  sim::Simulator simulator;
  simulator.Schedule(10.0, [] {});
  TimeSeriesSampler sampler(&simulator, &session);
  sampler.RegisterProbe("p", [] { return 1.0; });
  sampler.set_stop_predicate([&simulator] { return simulator.now() >= 1.0; });
  sampler.Start();
  simulator.Run();
  session.CommitRun();
  // Ticks at t in [0, 1.0); the tick at 1.0 sees the predicate and no-ops.
  EXPECT_EQ(sampler.ticks(), 4u);
  EXPECT_EQ(simulator.now(), 10.0);
}

TEST(Sampler, RegisteredProbesDefineColumnOrder) {
  TelemetrySession session;
  session.BeginRun("cols");
  sim::Simulator simulator;
  const topo::MeshTopology topo(topo::TopologyConfig::Slice(4, 4, true));
  net::Network network(&topo, {}, &simulator);
  TimeSeriesSampler sampler(&simulator, &session);
  telemetry::RegisterNetworkProbes(sampler, network);
  telemetry::RegisterSimulatorProbes(sampler, simulator);
  ASSERT_GE(sampler.columns().size(), 5u);
  EXPECT_EQ(sampler.columns()[0], "net.max_link_util");
  const std::vector<std::string>& columns = sampler.columns();
  EXPECT_NE(std::find(columns.begin(), columns.end(), "sim.queue_depth"),
            columns.end());
}

// --- Watchdogs on synthetic tick streams ---------------------------------

TelemetryConfig WatchdogTestConfig() {
  TelemetryConfig config;
  config.sample_interval = 1.0;
  config.watchdog.baseline_window = 4;
  config.watchdog.min_baseline_samples = 3;
  config.watchdog.slo_window = 4;
  return config;
}

const std::vector<std::string> kWatchdogColumns = {
    "run.step_seconds", "run.work_rate", "net.max_link_util"};

void Feed(TelemetrySession& session, SimTime t, double step, double rate,
          double util) {
  session.RecordTick(t, kWatchdogColumns, {step, rate, util});
}

TEST(Watchdogs, StepRegressionOpensExtendsAndCloses) {
  TelemetrySession session(WatchdogTestConfig());
  session.BeginRun("wd");
  SimTime t = 0;
  for (int i = 0; i < 5; ++i) Feed(session, t++, 1.0, 1.0, 0.5);
  // Step jumps to 2x the rolling baseline for three ticks, then recovers.
  for (int i = 0; i < 3; ++i) Feed(session, t++, 2.0, 1.0, 0.5);
  Feed(session, t++, 1.0, 1.0, 0.5);
  session.CommitRun();

  const telemetry::RunData& run = session.runs()[0];
  ASSERT_EQ(run.firings.size(), 1u);
  const telemetry::WatchdogFiring& firing = run.firings[0];
  EXPECT_EQ(firing.watchdog, "step_regression");
  EXPECT_EQ(firing.series, "run.step_seconds");
  EXPECT_EQ(firing.first_breach, 5.0);
  EXPECT_EQ(firing.last_breach, 7.0);
  EXPECT_EQ(firing.breaches, 3);
  EXPECT_DOUBLE_EQ(firing.baseline, 1.0);
  EXPECT_DOUBLE_EQ(firing.worst, 2.0);
  EXPECT_FALSE(firing.open);
  // The firing triggered a flight dump at the opening breach.
  ASSERT_EQ(run.dumps.size(), 1u);
  EXPECT_EQ(run.dumps[0].trigger, "step_regression");
  EXPECT_EQ(run.dumps[0].triggered_at, 5.0);
}

TEST(Watchdogs, StallAtStepZeroBreachesImmediately) {
  TelemetrySession session(WatchdogTestConfig());
  session.BeginRun("stall");
  SimTime t = 0;
  for (int i = 0; i < 4; ++i) Feed(session, t++, 1.0, 1.0, 0.5);
  Feed(session, t++, 0.0, 0.0, 0.5);  // the controller prices a stall at 0
  session.CommitRun();
  const telemetry::RunData& run = session.runs()[0];
  ASSERT_FALSE(run.firings.empty());
  EXPECT_EQ(run.firings[0].watchdog, "step_regression");
  EXPECT_EQ(run.firings[0].first_breach, 4.0);
  EXPECT_TRUE(run.firings[0].open);  // never closed before CommitRun
}

TEST(Watchdogs, RequiresMinimumBaselineBeforeFiring) {
  TelemetrySession session(WatchdogTestConfig());
  session.BeginRun("cold");
  // A huge first step with no baseline yet: no firing.
  Feed(session, 0, 100.0, 1.0, 0.5);
  Feed(session, 1, 100.0, 1.0, 0.5);
  session.CommitRun();
  EXPECT_TRUE(session.runs()[0].firings.empty());
}

TEST(Watchdogs, SloBurnFiresOnSustainedRateLoss) {
  TelemetrySession session(WatchdogTestConfig());
  session.BeginRun("slo");
  SimTime t = 0;
  // Healthy reference rate 10; then the rate halves. Window mean drifts
  // down; burn rate = (1 - observed/ref) / (1 - 0.9) crosses 2.0 when the
  // window mean drops below 0.8x the reference.
  for (int i = 0; i < 4; ++i) Feed(session, t++, 1.0, 10.0, 0.5);
  for (int i = 0; i < 6; ++i) Feed(session, t++, 1.0, 5.0, 0.5);
  session.CommitRun();
  const telemetry::RunData& run = session.runs()[0];
  bool found = false;
  for (const telemetry::WatchdogFiring& firing : run.firings) {
    if (firing.watchdog != "slo_burn") continue;
    found = true;
    EXPECT_EQ(firing.series, "run.work_rate");
    EXPECT_GE(firing.first_breach, 5.0);
    EXPECT_DOUBLE_EQ(firing.baseline, 10.0);
  }
  EXPECT_TRUE(found);
}

TEST(Watchdogs, LinkCollapseFiresOnlyWithALoadedBaseline) {
  TelemetrySession session(WatchdogTestConfig());
  session.BeginRun("collapse");
  SimTime t = 0;
  for (int i = 0; i < 5; ++i) Feed(session, t++, 1.0, 1.0, 0.6);
  Feed(session, t++, 1.0, 1.0, 0.1);  // collapse: 0.1 < 0.5 * 0.6
  session.CommitRun();
  bool found = false;
  for (const telemetry::WatchdogFiring& firing : session.runs()[0].firings) {
    if (firing.watchdog == "link_collapse") {
      found = true;
      EXPECT_EQ(firing.first_breach, 5.0);
    }
  }
  EXPECT_TRUE(found);

  // An idle network (baseline below link_min_baseline_util) never fires.
  TelemetrySession idle(WatchdogTestConfig());
  idle.BeginRun("idle");
  t = 0;
  for (int i = 0; i < 5; ++i) Feed(idle, t++, 1.0, 1.0, 0.01);
  Feed(idle, t++, 1.0, 1.0, 0.0);
  idle.CommitRun();
  for (const telemetry::WatchdogFiring& firing : idle.runs()[0].firings) {
    EXPECT_NE(firing.watchdog, "link_collapse");
  }
}

TEST(Watchdogs, SuspectLinksBackfillOpenFirings) {
  TelemetrySession session(WatchdogTestConfig());
  session.BeginRun("links");
  SimTime t = 0;
  for (int i = 0; i < 5; ++i) Feed(session, t++, 1.0, 1.0, 0.5);
  Feed(session, t++, 2.0, 1.0, 0.5);  // opens step_regression
  session.NoteSuspectLinks({7, 3, 7});
  session.CommitRun();
  const telemetry::RunData& run = session.runs()[0];
  ASSERT_FALSE(run.firings.empty());
  EXPECT_EQ(run.firings[0].suspect_links, (std::vector<int>{3, 7}));
  EXPECT_EQ(run.suspect_links, (std::vector<int>{3, 7}));
}

// --- Flight recorder -----------------------------------------------------

TEST(FlightRecorder, DumpHoldsOnlyTheTrailingWindow) {
  TelemetryConfig config;
  config.sample_interval = 1.0;
  config.flight_window = 4.0;  // ring capacity: 4 rows
  config.watchdog.enabled = false;
  config.dump_on_events = {"boom"};
  TelemetrySession session(config);
  session.BeginRun("flight");
  const std::vector<std::string> columns = {"x"};
  for (int i = 0; i < 10; ++i) {
    session.RecordTick(static_cast<SimTime>(i), columns,
                       {static_cast<double>(i * i)});
  }
  session.RecordEvent(9.5, "boom", "synthetic");
  session.CommitRun();

  const telemetry::RunData& run = session.runs()[0];
  ASSERT_EQ(run.dumps.size(), 1u);
  const telemetry::FlightDump& dump = run.dumps[0];
  EXPECT_EQ(dump.trigger, "boom");
  EXPECT_EQ(dump.triggered_at, 9.5);
  // Last 4 ticks, oldest first, values aligned.
  ASSERT_EQ(dump.times.size(), 4u);
  EXPECT_EQ(dump.times.front(), 6.0);
  EXPECT_EQ(dump.times.back(), 9.0);
  ASSERT_EQ(dump.rows.size(), 4u);
  EXPECT_EQ(dump.rows[0][0], 36.0);
  EXPECT_EQ(dump.rows[3][0], 81.0);
  ASSERT_EQ(dump.columns, columns);
  // The triggering event itself is in the ring snapshot.
  ASSERT_EQ(dump.events.size(), 1u);
  EXPECT_EQ(dump.events[0].name, "boom");
}

TEST(FlightRecorder, CooldownAndCapBoundTheDumps) {
  TelemetryConfig config;
  config.sample_interval = 1.0;
  config.flight_window = 2.0;
  config.watchdog.enabled = false;
  config.dump_on_events = {"boom"};
  config.dump_cooldown = 10.0;
  config.max_dumps = 2;
  TelemetrySession session(config);
  session.BeginRun("caps");
  const std::vector<std::string> columns = {"x"};
  SimTime t = 0;
  const auto tick = [&] { session.RecordTick(t++, columns, {1.0}); };
  tick();
  session.RecordEvent(0.5, "boom");   // dump 1
  tick();
  session.RecordEvent(1.5, "boom");   // within cooldown: suppressed
  for (; t < 15;) tick();
  session.RecordEvent(14.5, "boom");  // dump 2
  for (; t < 30;) tick();
  session.RecordEvent(29.5, "boom");  // past cooldown but over max_dumps
  session.CommitRun();

  const telemetry::RunData& run = session.runs()[0];
  EXPECT_EQ(run.dumps.size(), 2u);
  EXPECT_EQ(run.dumps[0].triggered_at, 0.5);
  EXPECT_EQ(run.dumps[1].triggered_at, 14.5);
  EXPECT_EQ(run.dropped_dumps, 1);
}

TEST(FlightRecorder, RunEventsTrimOldestBeyondCap) {
  TelemetryConfig config;
  config.watchdog.enabled = false;
  config.max_run_events = 4;
  config.dump_on_events.clear();
  TelemetrySession session(config);
  session.BeginRun("trim");
  for (int i = 0; i < 10; ++i) {
    session.RecordEvent(static_cast<SimTime>(i), "e" + std::to_string(i));
  }
  session.CommitRun();
  const telemetry::RunData& run = session.runs()[0];
  ASSERT_EQ(run.events.size(), 4u);
  EXPECT_EQ(run.events.front().name, "e6");
  EXPECT_EQ(run.events.back().name, "e9");
  EXPECT_EQ(run.dropped_events, 6);
}

TEST(Session, UncommittedRunIsDiscardedByNextBegin) {
  TelemetrySession session;
  session.BeginRun("abandoned");
  session.RecordEvent(1.0, "noise");
  session.BeginRun("kept");
  session.RecordEvent(2.0, "signal");
  session.CommitRun();
  ASSERT_EQ(session.runs().size(), 1u);
  EXPECT_EQ(session.runs()[0].label, "kept");
  ASSERT_EQ(session.runs()[0].events.size(), 1u);
  EXPECT_EQ(session.runs()[0].events[0].name, "signal");
}

TEST(Session, JsonAndCsvAreByteIdenticalAcrossIdenticalRuns) {
  const auto make = [] {
    TelemetryConfig config;
    config.sample_interval = 1.0;
    config.dump_on_events = {"boom"};
    TelemetrySession session(config);
    session.BeginRun("repro", 0.0);
    const std::vector<std::string> columns = {"a", "b"};
    for (int i = 0; i < 20; ++i) {
      session.RecordTick(static_cast<SimTime>(i), columns,
                         {i * 0.1, 100.0 - i});
    }
    session.RecordEvent(19.5, "boom", "detail \"quoted\"");
    session.CommitRun();
    return session.ToJson();
  };
  const std::string first = make();
  const std::string second = make();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"detail \\\"quoted\\\"\""), std::string::npos);
}

TEST(Session, ExportMetricsPublishesSessionTotals) {
  TelemetryConfig config;
  config.sample_interval = 1.0;
  TelemetrySession session(config);
  session.BeginRun("m");
  const std::vector<std::string> columns = {"run.step_seconds"};
  SimTime t = 0;
  for (int i = 0; i < 5; ++i) session.RecordTick(t++, columns, {1.0});
  session.RecordTick(t++, columns, {5.0});  // step regression fires
  session.CommitRun();

  trace::MetricsRegistry metrics;
  session.ExportMetrics(metrics);
  EXPECT_EQ(metrics.Counter("telemetry.ticks").value, 6);
  EXPECT_EQ(metrics.Counter("telemetry.runs").value, 1);
  EXPECT_GE(metrics.Counter("telemetry.watchdog.step_regression").value, 1);
}

// --- End-to-end recovery integration -------------------------------------

struct RecoveryScenario {
  core::FaultTolerantResult result;
  topo::LinkId dead_link = -1;
};

// The degraded 16x8 scenario from bench_recovery: DLRM, one permanently
// degraded mesh-Y link at t=50s, recovery orchestration on.
RecoveryScenario RunDeadLinkScenario() {
  core::MultipodSystem system(topo::TopologyConfig::Slice(16, 8, true));
  const topo::MeshTopology& topo = system.topology();
  RecoveryScenario scenario;
  scenario.dead_link =
      topo.LinkBetween(topo.ChipAt({3, 2}), topo.ChipAt({3, 3}));

  fault::FaultEvent dead_link;
  dead_link.kind = fault::FaultKind::kLinkFlap;
  dead_link.link = scenario.dead_link;
  dead_link.at = Seconds(50);
  dead_link.duration = 0;  // permanent
  dead_link.degrade_factor = 1024.0;

  core::FaultToleranceOptions options;
  options.recovery.enabled = true;
  options.checkpoint_interval = Seconds(600);
  options.scripted_faults = {dead_link};
  scenario.result = system.SimulateTrainingUnderFailures(
      models::Benchmark::kDlrm, 65536, 1, frameworks::Framework::kTensorFlow,
      options);
  return scenario;
}

TEST(RecoveryIntegration, DumpTriggersAtTheDetectionInstant) {
  TelemetrySession session;
  RecoveryScenario scenario;
  {
    telemetry::ScopedTelemetry install(&session);
    scenario = RunDeadLinkScenario();
  }
  const recover::RecoveryTimeline& timeline = scenario.result.timeline;
  ASSERT_TRUE(timeline.completed);
  ASSERT_FALSE(timeline.decisions.empty());

  ASSERT_EQ(session.runs().size(), 1u);
  const telemetry::RunData& run = session.runs()[0];
  EXPECT_GT(run.ticks, 0);

  // The "recovery.detected" structured event auto-triggered a flight dump
  // at exactly the controller's detection instant.
  const telemetry::FlightDump* detected = nullptr;
  for (const telemetry::FlightDump& dump : run.dumps) {
    if (dump.trigger == "recovery.detected") detected = &dump;
  }
  ASSERT_NE(detected, nullptr);
  EXPECT_EQ(detected->triggered_at, timeline.decisions[0].decided_at);
  // The dump's window ends at (or just before) the trigger, covering the
  // run-up to the fault.
  ASSERT_FALSE(detected->times.empty());
  EXPECT_LE(detected->times.back(), detected->triggered_at);

  // The stall tripped the step-regression watchdog, and the controller's
  // diagnosis attributed the interval to the injected link.
  const telemetry::WatchdogFiring* regression = nullptr;
  for (const telemetry::WatchdogFiring& firing : run.firings) {
    if (firing.watchdog == "step_regression") regression = &firing;
  }
  ASSERT_NE(regression, nullptr);
  EXPECT_LE(regression->first_breach, detected->triggered_at);
  EXPECT_NE(std::find(regression->suspect_links.begin(),
                      regression->suspect_links.end(),
                      static_cast<int>(scenario.dead_link)),
            regression->suspect_links.end());

  // Recovery lifecycle events are on the simulated clock, in order.
  std::vector<std::string> names;
  for (const telemetry::StructuredEvent& event : run.events) {
    names.push_back(event.name);
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "recovery.stall"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "recovery.detected"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "recovery.resumed"),
            names.end());
}

TEST(RecoveryIntegration, SuspectLinksAgreeWithCriticalPathTopContributor) {
  // Telemetry's anomaly attribution and the critical-path engine must
  // converge on the same culprit for the same degraded link.
  TelemetrySession session;
  RecoveryScenario scenario;
  {
    telemetry::ScopedTelemetry install(&session);
    scenario = RunDeadLinkScenario();
  }
  ASSERT_EQ(session.runs().size(), 1u);
  const std::vector<int>& suspects = session.runs()[0].suspect_links;
  ASSERT_FALSE(suspects.empty());

  // Critical path over a tracked collective on the same topology with the
  // same link degraded.
  const topo::MeshTopology topo(topo::TopologyConfig::Slice(16, 8, true));
  sim::Simulator simulator;
  net::Network network(&topo, {}, &simulator);
  network.DegradeLink(scenario.dead_link, 1024.0);
  trace::CriticalPathTracker tracker;
  sim::ScopedEventObserver observe(&tracker);
  coll::GradientSummationConfig config;
  config.elems = 1 << 18;
  coll::TwoDGradientSummation(network, config);
  const trace::CriticalPathReport report = tracker.Analyze();

  EXPECT_EQ(report.top_link(), scenario.dead_link);
  EXPECT_NE(std::find(suspects.begin(), suspects.end(),
                      static_cast<int>(report.top_link())),
            suspects.end());
}

TEST(RecoveryIntegration, WorkTimestampsAreBitIdenticalWithTelemetryOnOrOff) {
  const RecoveryScenario off = RunDeadLinkScenario();
  TelemetrySession session;
  RecoveryScenario on;
  {
    telemetry::ScopedTelemetry install(&session);
    on = RunDeadLinkScenario();
  }
  // The entire simulated timeline — every timestamp, decision and interval —
  // serializes byte-identically whether or not the sampler ran.
  EXPECT_EQ(off.result.timeline.ToJson(), on.result.timeline.ToJson());
  EXPECT_EQ(off.result.expected_seconds, on.result.expected_seconds);
  EXPECT_EQ(off.result.goodput, on.result.goodput);
}

TEST(RecoveryIntegration, SessionJsonIsByteIdenticalAcrossRepeatedRuns) {
  const auto capture = [] {
    TelemetrySession session;
    telemetry::ScopedTelemetry install(&session);
    RunDeadLinkScenario();
    return session.ToJson();
  };
  const std::string first = capture();
  const std::string second = capture();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("recovery.detected"), std::string::npos);
}

}  // namespace
}  // namespace tpu
