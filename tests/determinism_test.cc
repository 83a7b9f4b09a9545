// Bit-reproducibility gates for the event-core overhaul: the calendar queue,
// pooled callbacks, cached routes, and parallel sweep/search tiers must not
// perturb simulated time by a single ULP. Every comparison here is exact
// (EXPECT_EQ on doubles), not approximate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/workload.h"
#include "collectives/all_reduce.h"
#include "core/multipod.h"
#include "core/sweep.h"
#include "models/model_specs.h"
#include "network/network.h"
#include "plan/executor.h"
#include "plan/generator.h"
#include "plan/planner.h"
#include "sim/pdes.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "topology/topology.h"
#include "trace/critical_path.h"
#include "trace/run_report.h"

namespace tpu {
namespace {

TEST(Determinism, TrainingUnderFailuresIsBitIdenticalAcrossRuns) {
  core::FaultToleranceOptions options;
  options.faults.chip_mtbf = Seconds(2e5);
  auto run = [&] {
    core::MultipodSystem system(256);
    return system.SimulateTrainingUnderFailures(
        models::Benchmark::kDlrm, 65536, 1,
        frameworks::Framework::kTensorFlow, options);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.failure_free.train_seconds, b.failure_free.train_seconds);
  EXPECT_EQ(a.failure_free.eval_seconds, b.failure_free.eval_seconds);
  EXPECT_EQ(a.system_mtbf, b.system_mtbf);
  EXPECT_EQ(a.detection_latency, b.detection_latency);
  EXPECT_EQ(a.checkpoint_interval, b.checkpoint_interval);
  EXPECT_EQ(a.expected_seconds, b.expected_seconds);
  EXPECT_EQ(a.goodput, b.goodput);
}

TEST(Determinism, RecoveryTimelineIsBitIdenticalAcrossRunsAndThreads) {
  // The event-driven recovery controller on an MTBF-generated fault schedule:
  // the full timeline (every fault, decision, downtime and throughput
  // interval) must replay byte-identically across repeats, and the planner
  // searches it issues must be thread-count invariant.
  core::FaultToleranceOptions options;
  options.recovery.enabled = true;
  options.checkpoint_interval = Seconds(600);
  options.faults.seed = 7;
  options.faults.link_flap_mtbf = Seconds(2e4);
  options.faults.slow_host_mtbf = Seconds(4e4);
  options.faults.slow_host_degrade_factor = 4096.0;
  options.faults.slow_host_mean_duration = Seconds(30);
  auto run = [&] {
    core::MultipodSystem system(topo::TopologyConfig::Slice(16, 8, true));
    return system.SimulateTrainingUnderFailures(
        models::Benchmark::kDlrm, 65536, 1,
        frameworks::Framework::kTensorFlow, options);
  };
  const auto a = run();
  const auto b = run();
  ASSERT_TRUE(a.recovered);
  EXPECT_TRUE(a.timeline.completed);
  EXPECT_GT(a.timeline.faults_applied, 0);
  EXPECT_EQ(a.expected_seconds, b.expected_seconds);
  EXPECT_EQ(a.goodput, b.goodput);
  EXPECT_EQ(a.timeline.ToJson(), b.timeline.ToJson());

  options.recovery.search_threads = 4;
  const auto threaded = run();
  EXPECT_EQ(a.timeline.ToJson(), threaded.timeline.ToJson());
}

TEST(Determinism, PlannerSearchIsBitIdenticalAcrossRuns) {
  const topo::MeshTopology topo(topo::TopologyConfig::Slice(8, 8, true));
  const net::NetworkConfig config;
  plan::PlanRequest request;
  request.elems = 1 << 16;
  request.max_chunks = 4;
  request.des_top_k = 4;
  const auto a = plan::FindBestPlan(topo, config, request);
  const auto b = plan::FindBestPlan(topo, config, request);
  EXPECT_EQ(a.plan, b.plan);
  EXPECT_EQ(a.plan.name(), b.plan.name());
  EXPECT_EQ(a.predicted_seconds, b.predicted_seconds);
  EXPECT_EQ(a.estimated_seconds, b.estimated_seconds);
}

TEST(Determinism, PlannerSearchIsThreadCountInvariant) {
  // The exact re-pricing tier fans shortlisted candidates across worker
  // threads but reduces in shortlist order; the winner and its predicted
  // time must match the serial search exactly.
  const topo::MeshTopology topo(topo::TopologyConfig::Slice(8, 8, true));
  const net::NetworkConfig config;
  plan::PlanRequest request;
  request.elems = 1 << 16;
  request.max_chunks = 4;
  request.des_top_k = 4;
  request.search_threads = 1;
  const auto serial = plan::FindBestPlan(topo, config, request);
  request.search_threads = 4;
  const auto threaded = plan::FindBestPlan(topo, config, request);
  EXPECT_EQ(serial.plan, threaded.plan);
  EXPECT_EQ(serial.predicted_seconds, threaded.predicted_seconds);
  EXPECT_EQ(serial.estimated_seconds, threaded.estimated_seconds);
  EXPECT_EQ(serial.candidates, threaded.candidates);
  EXPECT_EQ(serial.evaluated, threaded.evaluated);
}

TEST(Determinism, CausalTrackerOnOrOffLeavesCollectiveTimingBitIdentical) {
  // Causal event tracking is pure observation: the instrumented schedule/fire
  // path is one thread-local load and branch when disabled, and even when a
  // tracker is installed no event, timestamp or ordering may change. Every
  // comparison is exact.
  auto run = [](bool tracked) {
    const topo::MeshTopology topo(topo::TopologyConfig::Slice(16, 8, true));
    sim::Simulator simulator;
    net::Network network(&topo, {}, &simulator);
    network.DegradeLink(topo.LinkBetween(topo.ChipAt({3, 2}),
                                         topo.ChipAt({3, 3})),
                        4.0);
    trace::CriticalPathTracker tracker;
    sim::ScopedEventObserver observe(
        tracked ? static_cast<sim::EventObserver*>(&tracker)
                : sim::CurrentEventObserver());
    coll::GradientSummationConfig config;
    config.elems = 1 << 18;
    return coll::TwoDGradientSummation(network, config);
  };
  const auto off = run(false);
  const auto on = run(true);
  EXPECT_EQ(off.reduce_seconds, on.reduce_seconds);
  EXPECT_EQ(off.update_seconds, on.update_seconds);
  EXPECT_EQ(off.broadcast_seconds, on.broadcast_seconds);
  EXPECT_EQ(off.phase_seconds.y_reduce_scatter,
            on.phase_seconds.y_reduce_scatter);
  EXPECT_EQ(off.phase_seconds.x_reduce_scatter,
            on.phase_seconds.x_reduce_scatter);
  EXPECT_EQ(off.phase_seconds.x_all_gather, on.phase_seconds.x_all_gather);
  EXPECT_EQ(off.phase_seconds.y_all_gather, on.phase_seconds.y_all_gather);
}

TEST(Determinism, SimulateStepWithRunReportIsBitIdentical) {
  // Requesting a RunReport installs the causal tracker around the step's
  // collective; the step timing itself must not move by a single ULP.
  const models::ModelSpec& spec =
      models::GetModelSpec(models::Benchmark::kResNet50);
  auto run = [&](trace::RunReport* report) {
    core::MultipodSystem system(64);
    return system.SimulateStep(spec, 64 * 64, 1, nullptr, nullptr, report);
  };
  const core::StepBreakdown plain = run(nullptr);
  trace::RunReport report;
  const core::StepBreakdown reported = run(&report);
  EXPECT_EQ(plain.compute, reported.compute);
  EXPECT_EQ(plain.allreduce, reported.allreduce);
  EXPECT_EQ(plain.overlapped, reported.overlapped);
  EXPECT_EQ(plain.weight_update, reported.weight_update);
  EXPECT_EQ(plain.embedding_comm, reported.embedding_comm);
  EXPECT_EQ(plain.step(), reported.step());
  // Identical runs produce byte-identical report JSON.
  trace::RunReport again;
  run(&again);
  EXPECT_EQ(report.ToJson(), again.ToJson());
}

TEST(Determinism, ParallelSweepCsvIsByteIdenticalToSerial) {
  core::SweepConfig config;
  config.benchmark = models::Benchmark::kResNet50;
  config.chip_counts = {16, 32, 64, 128};
  config.batch_for = [](int chips) { return 256LL * chips; };
  config.threads = 1;
  const auto serial = core::RunScalingSweep(config);
  config.threads = 4;
  const auto threaded = core::RunScalingSweep(config);
  ASSERT_EQ(serial.size(), threaded.size());
  std::ostringstream a;
  std::ostringstream b;
  core::WriteSweepCsv(a, serial);
  core::WriteSweepCsv(b, threaded);
  EXPECT_EQ(a.str(), b.str());
}

// The MTBF-seeded recovery scenario the timeline-determinism test above
// uses, optionally under a telemetry session.
core::FaultTolerantResult RunSeededRecovery(
    telemetry::TelemetrySession* session, int search_threads) {
  core::FaultToleranceOptions options;
  options.recovery.enabled = true;
  options.recovery.search_threads = search_threads;
  options.checkpoint_interval = Seconds(600);
  options.faults.seed = 7;
  options.faults.link_flap_mtbf = Seconds(2e4);
  options.faults.slow_host_mtbf = Seconds(4e4);
  options.faults.slow_host_degrade_factor = 4096.0;
  options.faults.slow_host_mean_duration = Seconds(30);
  telemetry::ScopedTelemetry install(session);
  core::MultipodSystem system(topo::TopologyConfig::Slice(16, 8, true));
  return system.SimulateTrainingUnderFailures(
      models::Benchmark::kDlrm, 65536, 1, frameworks::Framework::kTensorFlow,
      options);
}

TEST(Determinism, TelemetrySamplingLeavesEveryWorkTimestampBitIdentical) {
  // Telemetry-class events share the DES queue but must not perturb a
  // single simulated timestamp: the sampled run's timeline serializes
  // byte-identically to the unsampled one.
  const auto off = RunSeededRecovery(nullptr, 1);
  telemetry::TelemetrySession session;
  const auto on = RunSeededRecovery(&session, 1);
  ASSERT_TRUE(on.recovered);
  EXPECT_GT(session.runs().size(), 0u);
  EXPECT_EQ(off.timeline.ToJson(), on.timeline.ToJson());
  EXPECT_EQ(off.expected_seconds, on.expected_seconds);
  EXPECT_EQ(off.goodput, on.goodput);
}

TEST(Determinism, TelemetryJsonIsByteIdenticalAcrossRepeatsAndThreads) {
  // The whole telemetry artifact — series, watchdog firings, flight dumps —
  // must be byte-identical across repeated runs and across planner thread
  // counts (the sampler rides the simulator clock, not wall clock).
  const auto capture = [](int search_threads) {
    telemetry::TelemetrySession session;
    RunSeededRecovery(&session, search_threads);
    return session.ToJson();
  };
  const std::string first = capture(1);
  const std::string repeat = capture(1);
  const std::string threaded = capture(4);
  EXPECT_EQ(first, repeat);
  EXPECT_EQ(first, threaded);
}

TEST(Determinism, SweepUnderTelemetryFallsBackToSerialByteIdentically) {
  // With a session installed the sweep runner must drop to one thread (the
  // session is thread-local) and still produce the exact serial CSV.
  core::SweepConfig config;
  config.benchmark = models::Benchmark::kResNet50;
  config.chip_counts = {16, 32, 64};
  config.batch_for = [](int chips) { return 256LL * chips; };
  config.threads = 1;
  const auto serial = core::RunScalingSweep(config);

  telemetry::TelemetrySession session;
  telemetry::ScopedTelemetry install(&session);
  config.threads = 4;
  const auto observed = core::RunScalingSweep(config);
  ASSERT_EQ(serial.size(), observed.size());
  std::ostringstream a;
  std::ostringstream b;
  core::WriteSweepCsv(a, serial);
  core::WriteSweepCsv(b, observed);
  EXPECT_EQ(a.str(), b.str());
}

// One seeded cluster run: Poisson stream + MTBF faults + a scripted
// cross-pod cable death, telemetry optionally installed, planner searches
// at `search_threads`.
std::string SeededClusterReportJson(int search_threads,
                                    telemetry::TelemetrySession* session,
                                    int pdes_threads = 0) {
  cluster::ClusterConfig config;
  config.horizon = Hours(0.5);
  config.recovery.search_threads = search_threads;
  if (pdes_threads > 0) {
    config.system.pdes.enable = true;
    config.system.pdes.threads = pdes_threads;
  }
  config.faults.seed = 13;
  config.faults.link_flap_mtbf = Seconds(4e4);
  config.faults.slow_host_mtbf = Seconds(8e4);
  const topo::MeshTopology topo(config.topology);
  config.scripted_faults = cluster::CrossPodCableFault(topo, 7, Seconds(120));

  cluster::WorkloadConfig workload;
  workload.seed = 5;
  workload.horizon = config.horizon;
  workload.max_jobs = 8;

  telemetry::ScopedTelemetry install(session);
  cluster::ClusterSimulation sim(config,
                                 cluster::GeneratePoissonWorkload(workload));
  return sim.Run().ToJson();
}

TEST(Determinism, ClusterReportIsByteIdenticalAcrossRepeats) {
  // The full cluster timeline — every admission, preemption, fault
  // delivery, recovery decision and the aggregate metrics — serializes
  // byte-identically on repeat runs, with or without telemetry sampling.
  const std::string first = SeededClusterReportJson(1, nullptr);
  const std::string repeat = SeededClusterReportJson(1, nullptr);
  EXPECT_EQ(first, repeat);

  telemetry::TelemetrySession session;
  const std::string sampled = SeededClusterReportJson(1, &session);
  EXPECT_GT(session.runs().size(), 0u);
  EXPECT_EQ(first, sampled);
}

TEST(Determinism, ClusterReportIsThreadCountInvariant) {
  // Per-job planner searches (the recovery pricers) may fan out across
  // threads; the cluster timeline must not move by a ULP.
  const std::string serial = SeededClusterReportJson(1, nullptr);
  const std::string threaded = SeededClusterReportJson(4, nullptr);
  EXPECT_EQ(serial, threaded);
}

// ---- Per-stage fork/join (coll::RunSummationStages, DESIGN.md §16).
// The contract under test: simulated timestamps, work-event counts and
// traffic totals are bit-identical at any thread count and to the run with
// the request off (threads = 1 never forks).

// One summation shape of the sweep: the fixed 2-D schedule on `shape`, or
// (hd_plan) the planner's hd-2d plan through plan::ExecutePlan.
struct PdesCase {
  const char* name;
  topo::TopologyConfig shape;
  std::int64_t elems = 1 << 16;
  int model_parallel_stride = 1;
  bool bidirectional = true;
  bool hd_plan = false;
};

topo::TopologyConfig Multipod(int pod_size, int pods) {
  topo::TopologyConfig shape;
  shape.pod_size_x = pod_size;
  shape.pod_size_y = pod_size;
  shape.num_pods = pods;
  return shape;
}

struct PdesSummationRun {
  SimTime reduce_seconds = 0;
  SimTime update_seconds = 0;
  SimTime broadcast_seconds = 0;
  std::vector<SimTime> stage_seconds;
  net::TrafficStats traffic;
  std::uint64_t events_processed = 0;
  std::uint64_t events_scheduled = 0;
  sim::PdesStats pdes;
};

// threads = 0 runs with the PDES request off.
PdesSummationRun RunPdesSummation(const PdesCase& c, int threads) {
  const topo::MeshTopology topo(c.shape);
  sim::Simulator simulator;
  net::Network network(&topo, {}, &simulator);
  network.DegradeLink(
      topo.LinkBetween(topo.ChipAt({5, 2}), topo.ChipAt({5, 3})), 3.0);

  sim::PdesConfig pdes;
  pdes.enable = threads > 0;
  pdes.threads = threads > 0 ? threads : 1;
  PdesSummationRun run;
  pdes.stats = &run.pdes;
  sim::ScopedPdesConfig install(pdes);

  auto update = [](std::int64_t owned) { return owned * 1e-9; };
  if (c.hd_plan) {
    plan::PlanRequest request;
    request.elems = c.elems;
    std::vector<plan::CollectivePlan> plans =
        plan::GeneratePlans(topo, request);
    auto hd = std::find_if(plans.begin(), plans.end(), [](const auto& plan) {
      return plan.chunks == 1 && plan.name().rfind("hd-2d", 0) == 0;
    });
    EXPECT_NE(hd, plans.end());
    plan::PlanExecutionConfig exec_config;
    exec_config.shard_update_seconds = update;
    const plan::PlanExecutionResult result =
        plan::ExecutePlan(network, *hd, c.elems, exec_config);
    run.reduce_seconds = result.reduce_seconds;
    run.update_seconds = result.update_seconds;
    run.broadcast_seconds = result.broadcast_seconds;
    for (const auto& stage : result.stages) {
      run.stage_seconds.push_back(stage.seconds);
    }
  } else {
    coll::GradientSummationConfig config;
    config.elems = c.elems;
    config.model_parallel_stride = c.model_parallel_stride;
    config.collective.bidirectional = c.bidirectional;
    config.shard_update_seconds = update;
    const coll::GradientSummationResult result =
        coll::TwoDGradientSummation(network, config);
    run.reduce_seconds = result.reduce_seconds;
    run.update_seconds = result.update_seconds;
    run.broadcast_seconds = result.broadcast_seconds;
    run.stage_seconds = {result.phase_seconds.y_reduce_scatter,
                         result.phase_seconds.x_reduce_scatter,
                         result.phase_seconds.x_all_gather,
                         result.phase_seconds.y_all_gather};
  }
  run.traffic = network.traffic();
  run.events_processed =
      run.pdes.engaged ? run.pdes.events_processed : simulator.events_processed();
  run.events_scheduled =
      run.pdes.engaged ? run.pdes.events_scheduled : simulator.events_scheduled();
  return run;
}

void ExpectSummationRunsEqual(const PdesSummationRun& a,
                              const PdesSummationRun& b) {
  EXPECT_EQ(a.reduce_seconds, b.reduce_seconds);
  EXPECT_EQ(a.update_seconds, b.update_seconds);
  EXPECT_EQ(a.broadcast_seconds, b.broadcast_seconds);
  EXPECT_EQ(a.stage_seconds, b.stage_seconds);
  EXPECT_EQ(a.traffic.mesh_x_bytes, b.traffic.mesh_x_bytes);
  EXPECT_EQ(a.traffic.cross_pod_x_bytes, b.traffic.cross_pod_x_bytes);
  EXPECT_EQ(a.traffic.mesh_y_bytes, b.traffic.mesh_y_bytes);
  EXPECT_EQ(a.traffic.wrap_y_bytes, b.traffic.wrap_y_bytes);
  EXPECT_EQ(a.traffic.messages, b.traffic.messages);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.events_scheduled, b.events_scheduled);
}

TEST(Determinism, PdesSummationMatchesSerialAtAnyThreadCount) {
  const PdesCase cases[] = {
      {"4 pods of 16x16", Multipod(16, 4), 1 << 18},
      {"single pod 16x16", topo::TopologyConfig::Slice(16, 16, true)},
      {"4 pods of 8x8, stride 2", Multipod(8, 4), 1 << 16, 2},
      {"4 pods of 8x8, unidirectional", Multipod(8, 4), 1 << 16, 1, false},
      {"4 pods of 8x8, 37 elements", Multipod(8, 4), 37},
      {"hd-2d plan on 4 pods of 8x8", Multipod(8, 4), 1 << 16, 1, true, true},
  };
  for (const PdesCase& c : cases) {
    SCOPED_TRACE(c.name);
    const PdesSummationRun serial = RunPdesSummation(c, 0);
    ASSERT_FALSE(serial.pdes.engaged);
    // threads = 1 is the documented one-branch degeneration: nothing forks.
    const PdesSummationRun one = RunPdesSummation(c, 1);
    EXPECT_FALSE(one.pdes.engaged);
    ExpectSummationRunsEqual(serial, one);
    const PdesSummationRun two = RunPdesSummation(c, 2);
    ASSERT_TRUE(two.pdes.engaged);
    EXPECT_GT(two.pdes.windows, 0u);
    EXPECT_EQ(two.pdes.partition_events_processed.size(), two.pdes.windows);
    for (const int threads : {2, 4, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const PdesSummationRun run = RunPdesSummation(c, threads);
      ASSERT_TRUE(run.pdes.engaged);
      ExpectSummationRunsEqual(serial, run);
      // The fork's own accounting is thread-count-invariant too.
      EXPECT_EQ(run.pdes.windows, two.pdes.windows);
      EXPECT_EQ(run.pdes.partition_events_processed,
                two.pdes.partition_events_processed);
      EXPECT_EQ(run.pdes.events_processed, two.pdes.events_processed);
      EXPECT_EQ(run.pdes.events_scheduled, two.pdes.events_scheduled);
    }
  }
}

TEST(Determinism, PdesTrainingUnderFailuresAtScaleIsThreadCountInvariant) {
  // The acceptance-scale run: fault-tolerant training on the full 4096-chip
  // multipod (4 pods of 32x32, analytic MTBF model). The entire result —
  // step economics, detection latency, expected makespan, goodput — must be
  // bit-identical across {1, 2, 4, 8} PDES threads and to the PDES-off
  // baseline.
  auto run = [](bool enable, int threads) {
    core::SystemOptions options;
    options.pdes.enable = enable;
    options.pdes.threads = threads;
    core::FaultToleranceOptions fault_options;
    fault_options.faults.chip_mtbf = Seconds(2e5);
    core::MultipodSystem system(4096, options);
    return system.SimulateTrainingUnderFailures(
        models::Benchmark::kResNet50, 32768, 1,
        frameworks::Framework::kTensorFlow, fault_options);
  };
  const auto baseline = run(false, 1);
  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto result = run(true, threads);
    EXPECT_EQ(baseline.failure_free.train_seconds,
              result.failure_free.train_seconds);
    EXPECT_EQ(baseline.failure_free.eval_seconds,
              result.failure_free.eval_seconds);
    EXPECT_EQ(baseline.failure_free.step.step(),
              result.failure_free.step.step());
    EXPECT_EQ(baseline.system_mtbf, result.system_mtbf);
    EXPECT_EQ(baseline.detection_latency, result.detection_latency);
    EXPECT_EQ(baseline.checkpoint_interval, result.checkpoint_interval);
    EXPECT_EQ(baseline.expected_seconds, result.expected_seconds);
    EXPECT_EQ(baseline.goodput, result.goodput);
  }
}

TEST(Determinism, PdesPlannerSearchOnDegradedSliceIsThreadCountInvariant) {
  // The planner's candidate evaluations are throwaway runs that always stay
  // serial, on a single-pod slice and on a multipod alike: the ambient PDES
  // request must neither engage the fork (the stats out-param stays
  // untouched) nor move the search result by a ULP at any thread count.
  topo::TopologyConfig multipod;
  multipod.pod_size_x = 8;
  multipod.pod_size_y = 8;
  multipod.num_pods = 4;
  for (const topo::TopologyConfig& shape :
       {topo::TopologyConfig::Slice(16, 8, true), multipod}) {
    const topo::MeshTopology topo(shape);
    SCOPED_TRACE("pods=" + std::to_string(topo.num_pods()));
    net::NetworkConfig config;
    plan::PlanRequest request;
    request.elems = 1 << 16;
    request.max_chunks = 4;
    request.des_top_k = 4;
    plan::LinkHealthSet health;
    health.degraded = {
        {topo.LinkBetween(topo.ChipAt({3, 2}), topo.ChipAt({3, 3})), 8.0}};
    auto search = [&](int threads) {
      sim::PdesStats stats;
      sim::PdesConfig pdes;
      pdes.enable = threads > 0;
      pdes.threads = threads > 0 ? threads : 1;
      pdes.stats = &stats;
      sim::ScopedPdesConfig install(pdes);
      const plan::PlannerResult result =
          plan::FindBestPlan(topo, config, request, health);
      EXPECT_FALSE(stats.engaged);
      EXPECT_EQ(stats.windows, 0u);
      return result;
    };
    const auto baseline = search(0);
    for (const int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const auto result = search(threads);
      EXPECT_EQ(baseline.plan, result.plan);
      EXPECT_EQ(baseline.plan.name(), result.plan.name());
      EXPECT_EQ(baseline.predicted_seconds, result.predicted_seconds);
      EXPECT_EQ(baseline.estimated_seconds, result.estimated_seconds);
    }
  }
}

TEST(Determinism, PdesExecutesEveryCandidateShapeLikeSerial) {
  // Ring and halving-doubling stages fork into their link-disjoint groups,
  // flat snake rings form one group and stay on the caller's simulator, and
  // so does the update barrier; every candidate shape must execute exactly
  // as the serial run does.
  topo::TopologyConfig shape;
  shape.pod_size_x = 8;
  shape.pod_size_y = 8;
  shape.num_pods = 4;
  const topo::MeshTopology topo(shape);
  plan::PlanRequest request;
  request.elems = 1 << 14;
  plan::PlanExecutionConfig exec_config;
  exec_config.shard_update_seconds = [](std::int64_t owned) {
    return owned * 1e-9;
  };
  exec_config.deadline.multiple = 3.0;
  struct Run {
    plan::PlanExecutionResult result;
    sim::PdesStats pdes;
    std::uint64_t events = 0;
  };
  auto run = [&](const plan::CollectivePlan& plan, int threads) {
    sim::Simulator simulator;
    net::Network network(&topo, {}, &simulator);
    Run out;
    sim::PdesConfig pdes;
    pdes.enable = true;
    pdes.threads = threads;
    pdes.stats = &out.pdes;
    sim::ScopedPdesConfig install(pdes);
    out.result = plan::ExecutePlan(network, plan, request.elems, exec_config);
    out.events = out.pdes.engaged ? out.pdes.events_processed
                                  : simulator.events_processed();
    return out;
  };
  for (const plan::CollectivePlan& plan : plan::GeneratePlans(topo, request)) {
    SCOPED_TRACE(plan.name());
    const Run serial = run(plan, 1);
    const Run engaged = run(plan, 4);
    EXPECT_EQ(engaged.pdes.engaged, plan.chunks == 1);
    EXPECT_EQ(engaged.result.reduce_seconds, serial.result.reduce_seconds);
    EXPECT_EQ(engaged.result.update_seconds, serial.result.update_seconds);
    EXPECT_EQ(engaged.result.broadcast_seconds,
              serial.result.broadcast_seconds);
    ASSERT_EQ(engaged.result.phases.size(), serial.result.phases.size());
    for (std::size_t i = 0; i < serial.result.phases.size(); ++i) {
      EXPECT_EQ(engaged.result.phases[i].expected,
                serial.result.phases[i].expected);
      EXPECT_EQ(engaged.result.phases[i].actual,
                serial.result.phases[i].actual);
    }
    EXPECT_EQ(engaged.events, serial.events);
  }
}

TEST(Determinism, PdesPlannerModeStepIsThreadCountInvariant) {
  // Planner mode executes its chosen plan through the same stage runner as
  // the fixed schedule, so a real planned step on a multipod engages the
  // PDES fork and still matches the serial step field for field.
  const models::ModelSpec& spec =
      models::GetModelSpec(models::Benchmark::kResNet50);
  auto step = [&](int threads, sim::PdesStats* stats) {
    core::SystemOptions options;
    options.collective_planner = true;
    options.pdes.enable = threads > 0;
    options.pdes.threads = threads > 0 ? threads : 1;
    options.pdes.stats = stats;
    topo::TopologyConfig shape;
    shape.pod_size_x = 16;
    shape.pod_size_y = 16;
    shape.num_pods = 2;
    core::MultipodSystem system(shape, options);
    return system.SimulateStep(spec, 16384, 1);
  };
  sim::PdesStats serial_stats;
  const core::StepBreakdown serial = step(0, &serial_stats);
  EXPECT_FALSE(serial_stats.engaged);
  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    sim::PdesStats stats;
    const core::StepBreakdown got = step(threads, &stats);
    EXPECT_EQ(stats.engaged, threads > 1);
    if (stats.engaged) {
      EXPECT_GT(stats.windows, 0u);
    }
    EXPECT_EQ(got.compute, serial.compute);
    EXPECT_EQ(got.allreduce, serial.allreduce);
    EXPECT_EQ(got.overlapped, serial.overlapped);
    EXPECT_EQ(got.weight_update, serial.weight_update);
    EXPECT_EQ(got.embedding_comm, serial.embedding_comm);
    EXPECT_EQ(got.step(), serial.step());
  }
}

TEST(Determinism, PdesClusterReportIsByteIdenticalAtAnyThreadCount) {
  // The multi-tenant cluster run under the ambient PDES request: every
  // tenant step may fork its summation stages, and the full report JSON
  // must stay byte-identical.
  const std::string baseline = SeededClusterReportJson(1, nullptr);
  for (const int threads : {2, 4, 8}) {
    SCOPED_TRACE("pdes_threads=" + std::to_string(threads));
    const std::string report = SeededClusterReportJson(1, nullptr, threads);
    EXPECT_EQ(baseline, report);
  }
}

}  // namespace
}  // namespace tpu
