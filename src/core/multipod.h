// The paper's system, assembled: a TPU-v3 multipod (or pod slice) running an
// MLPerf benchmark with the scalability techniques of Section 3.
//
// MultipodSystem combines
//   * the discrete-event interconnect simulation (topology + network +
//     collectives) for the per-step gradient summation — the 2-D Y/X ring
//     schedule, bf16 payloads, strided model-parallel rings,
//   * the analytic TPU core roofline for per-step compute,
//   * weight-update sharding (optimizer hook inside the summation),
//   * SPMD model-parallel speedups measured on the representative blocks,
//   * the framework runtime models for init and eval-metric paths,
// into per-step breakdowns (Figures 6, 8), scaling sweeps (Figures 5, 7, 9,
// 11) and end-to-end MLPerf times (Table 1, Figure 10).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>

#include "fault/checkpoint.h"
#include "fault/fault_injector.h"
#include "fault/health_monitor.h"
#include "frameworks/runtime_model.h"
#include "hlo/cost_model.h"
#include "models/model_specs.h"
#include "network/network.h"
#include "optim/optimizer.h"
#include "plan/cache.h"
#include "recover/recovery.h"
#include "sim/pdes.h"
#include "topology/topology.h"
#include "trace/run_report.h"
#include "trace/step_profiler.h"

namespace tpu::core {

// The slice/multipod shape the paper uses for a given chip count: multiples
// of 1024 become chains of 32x32 pods along X; smaller counts become pod
// slices (e.g. 512 -> 32x16).
topo::TopologyConfig TopologyForChips(int num_chips);

struct SystemOptions {
  net::NetworkConfig network;
  hlo::TpuCoreModel core;
  bool weight_update_sharding = true;
  bool bfloat16_gradients = true;
  bool bidirectional_rings = true;
  // Fraction of the gradient all-reduce hidden under backprop compute
  // (layer k's gradients reduce while layer k-1 still computes). 0 = the
  // fully exposed schedule the per-step figures assume; the overlap bench
  // sweeps this as a forward-looking ablation.
  double allreduce_overlap_fraction = 0.0;
  // Section 4.5's XLA communication optimizations for model parallelism
  // (fused gradient all-reduce across model cores and replicas, minimized
  // resharding, halo barrier optimization). Off reproduces the ~30% comm
  // overhead the paper started from; on brings it to ~10%.
  bool optimized_model_parallel_comm = true;
  // Search for the gradient-summation schedule instead of hard-wiring the
  // 2-D Y->X rings: each step executes the best CollectivePlan found by
  // plan::FindBestPlan (memoized in the system's PlanCache, so the search
  // runs once per distinct payload/stride). On a healthy machine the search
  // rediscovers the paper's schedule and the step timing is bit-identical to
  // collective_planner = false; the flag buys adaptivity, not speed, until
  // links degrade. bfloat16_gradients / bidirectional_rings become the
  // search's allow_* bounds rather than fixed choices.
  bool collective_planner = false;
  // Peak MXU fraction reachable at large batch, and the rolloff constant in
  // matrix rows (one 128-row MXU tile).
  double max_utilization = 0.55;
  double rows_half_saturation = 128;
  // Within-run parallelism for the per-step gradient summation
  // (sim/pdes.h). Defaults to disabled/1-thread, the serial path. With
  // enable and threads > 1, qualifying steps (time-only, unobserved) fork
  // each summation stage's link-disjoint ring groups — columns for Y
  // stages, rows for X stages — onto a thread pool and join at the stage's
  // end: same timestamps and event counts at any thread count. Observed
  // steps (trace/metrics/critical-path sessions) and the planner's candidate
  // evaluations fall back to the serial path automatically.
  sim::PdesConfig pdes;
};

// Accelerator generations: TPU-v3 is the paper's machine; TPU-v4 carries the
// paper's footnote result (DLRM 1.21 min on v4 vs 2.4 on v3). Returns the
// SystemOptions for the generation (per-core roofline + interconnect).
enum class TpuGeneration { kV3, kV4 };
SystemOptions OptionsForGeneration(TpuGeneration generation);

struct StepBreakdown {
  SimTime compute = 0;        // forward + backward on the worst core
  SimTime allreduce = 0;      // gradient summation (reduce + broadcast)
  SimTime overlapped = 0;     // portion of the all-reduce hidden by compute
  SimTime weight_update = 0;  // optimizer (sharded or replicated)
  SimTime embedding_comm = 0; // DLRM all-to-all for partitioned tables

  SimTime step() const {
    // Saturate: overlap can hide communication, never create negative
    // exposed-communication time (an overlap fraction > 1 used to).
    const SimTime hidden = std::min(overlapped, allreduce);
    return compute + allreduce - hidden + weight_update + embedding_comm;
  }
  double allreduce_fraction() const {
    return step() > 0 ? allreduce / step() : 0;
  }
};

struct EndToEndResult {
  std::int64_t steps = 0;
  StepBreakdown step;
  SimTime train_seconds = 0;
  SimTime eval_seconds = 0;
  double epochs = 0;
  double minutes() const { return ToMinutes(train_seconds + eval_seconds); }
};

// Inputs for the fault-tolerant end-to-end model.
struct FaultToleranceOptions {
  fault::FaultModelConfig faults;       // per-unit MTBFs (chip/link/host)
  fault::HealthMonitorConfig monitor;   // phase-deadline detection
  fault::CheckpointConfig checkpoint;   // write/restore cost model
  // Useful seconds between checkpoints; <= 0 picks the numeric optimum of
  // the expected-makespan curve.
  SimTime checkpoint_interval = 0;
  // Event-driven recovery orchestration (recover/controller.h). Disabled
  // (the default) keeps the analytic Young/Daly expected-makespan model
  // bit-for-bit; enabled replaces it with a simulated fault -> decision ->
  // downtime -> degraded-throughput timeline.
  recover::RecoveryPolicy recovery;
  // When non-empty (and recovery is enabled), this hand-written schedule is
  // armed instead of the MTBF-generated one — canonical scenarios for tests
  // and benches. Ignored by the analytic path.
  std::vector<fault::FaultEvent> scripted_faults;
};

struct FaultTolerantResult {
  EndToEndResult failure_free;
  SimTime system_mtbf = 0;  // <= 0: failure-free (no fatal class enabled)
  fault::CheckpointCosts checkpoint;
  SimTime detection_latency = 0;   // health-monitor deadline on one step
  SimTime restart_seconds = 0;     // restore + framework re-init
  SimTime checkpoint_interval = 0; // the interval actually used
  SimTime expected_seconds = 0;    // expected makespan under failures
  double expected_failures = 0;
  double goodput = 1.0;            // failure-free / expected
  // Filled when FaultToleranceOptions::recovery.enabled: the event-driven
  // recovery timeline the expected_seconds/goodput above were read from.
  bool recovered = false;
  recover::RecoveryTimeline timeline;
};

class MultipodSystem {
 public:
  explicit MultipodSystem(int num_chips, SystemOptions options = {});

  // Builds the system on an explicit mesh shape instead of the paper's
  // canonical slice for the chip count — degraded-width scenarios (e.g. the
  // 16x8 recovery suite, or a carved sub-mesh after an elastic shrink) need
  // shapes TopologyForChips would never pick.
  explicit MultipodSystem(const topo::TopologyConfig& config,
                          SystemOptions options = {});

  int num_chips() const { return topology_.num_chips(); }
  int num_cores() const { return topology_.num_cores(); }
  const topo::MeshTopology& topology() const { return topology_; }
  const SystemOptions& options() const { return options_; }
  // Memoized schedule searches (populated when collective_planner is on).
  const plan::PlanCache& plan_cache() const { return plan_cache_; }

  // Simulates one training step. `model_parallel_cores` > 1 engages the
  // sharded-weights path (gradient payload 1/mp, X rings hop over peers).
  // `optimizer` drives the weight-update cost; pass nullptr for SGD.
  // `profiler`, when non-null, receives one profiled step decomposed into
  // named phases (forward, backward, the five summation phases, embedding
  // comm). When a trace recorder is installed, the step also lands on the
  // timeline: the internal collective simulation runs on a fresh clock, so
  // its spans are shifted past the analytic compute phases via the
  // recorder's time offset.
  //
  // `report`, when non-null, opts the step into causal event tracking: the
  // collective execution runs with a CriticalPathTracker installed (the
  // planner's throwaway candidate evaluations stay excluded) and the report
  // is filled with the step breakdown, the extracted critical path with
  // link/phase attribution, the slack and what-if tables, planner provenance
  // and a metrics snapshot. With a trace recorder also installed, the
  // critical path lands on the timeline as flow-linked slices.
  StepBreakdown SimulateStep(const models::ModelSpec& spec,
                             std::int64_t global_batch,
                             int model_parallel_cores,
                             const optim::Optimizer* optimizer = nullptr,
                             trace::StepProfiler* profiler = nullptr,
                             trace::RunReport* report = nullptr);

  // Full MLPerf run at this scale: steps-to-converge x step time + the
  // evaluation schedule. Framework affects only the eval-metric path (init
  // time is reported separately, as in Table 2).
  EndToEndResult SimulateTraining(models::Benchmark benchmark,
                                  std::int64_t global_batch,
                                  int model_parallel_cores,
                                  frameworks::Framework framework);

  // Convenience: run the benchmark at its MLPerf v0.7 submission scale.
  EndToEndResult SimulateSubmission(models::Benchmark benchmark,
                                    frameworks::Framework framework);

  // Fault-tolerant end-to-end model: composes the failure-free result with
  // the fault model, health-monitor detection latency, and checkpoint/restart
  // costs into the expected makespan under failures (see fault/checkpoint.h).
  FaultTolerantResult SimulateTrainingUnderFailures(
      models::Benchmark benchmark, std::int64_t global_batch,
      int model_parallel_cores, frameworks::Framework framework,
      const FaultToleranceOptions& fault_options);

 private:
  topo::MeshTopology topology_;
  SystemOptions options_;
  plan::PlanCache plan_cache_;
};

// Speedup of the representative SPMD block of `benchmark` on `cores`
// partitions relative to 1 core, including the partitioner's inserted
// communication on neighboring cores (Figure 9). cores must not exceed the
// model's max_model_parallel_cores to be meaningful, but any power of two
// is accepted.
double ModelParallelSpeedup(models::Benchmark benchmark, int cores,
                            const SystemOptions& options = {});

// The model-parallel communication share of the partitioned block's step
// (Section 4.5: MaskRCNN's was ~30% before the XLA comm optimizations and
// ~10% after).
double ModelParallelCommFraction(models::Benchmark benchmark, int cores,
                                 const SystemOptions& options = {});

// Analytic all-to-all over the slice (DLRM partitioned embedding exchange):
// limited by bisection bandwidth and per-message fan-out overheads.
SimTime AllToAllSeconds(const topo::MeshTopology& topology,
                        const net::NetworkConfig& network, Bytes total_bytes);

}  // namespace tpu::core
