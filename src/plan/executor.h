// Discrete-event execution of a CollectivePlan.
//
// ExecutePlan lowers the plan (plan/schedule.h) and hands the stages to
// coll::RunSummationStages, the runner that also executes the paper's fixed
// 2-D schedule (coll::TwoDGradientSummation). The runner owns the stage
// chain, the sharded-weight-update barrier, per-stage deadline monitoring,
// observer phase labels and PDES engagement; this layer adds the per-stage
// result view and the `plan` trace track. Because lowering enumerates the
// ring [Y->X] plan's groups in the fixed schedule's order, executing it is
// bit-identical to TwoDGradientSummation. Chunk-pipelined plans run through
// coll::PipelinedTwoDGradientSummation instead.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "collectives/all_reduce.h"
#include "common/units.h"
#include "network/network.h"
#include "plan/plan_ir.h"

namespace tpu::plan {

struct PlanExecutionConfig {
  // Optional weight-update-sharding hook (see GradientSummationConfig).
  std::function<SimTime(std::int64_t owned_elems)> shard_update_seconds;
  // Optional per-stage timeout detection; expectations use the healthy
  // network estimate, exactly like the fixed schedule's monitoring.
  coll::PhaseDeadlineConfig deadline;
};

struct PlanExecutionResult {
  SimTime reduce_seconds = 0;     // stages up to the update point
  SimTime update_seconds = 0;     // sharded weight update (0 without hook)
  SimTime broadcast_seconds = 0;  // stages after the update point

  // Per-stage wall clock in execution order (names are the stage labels,
  // e.g. "Y-reduce-scatter"). Chunk-pipelined plans report one fused
  // "pipelined-2d" entry — their phases overlap and have no boundaries.
  struct StageSeconds {
    const char* name = "";
    SimTime seconds = 0;
  };
  std::vector<StageSeconds> stages;

  // The fixed schedule's five-phase view, accumulated through each stage's
  // slot so MultipodSystem's profiler/trace plumbing works unchanged. Stages
  // of other shapes fold into the nearest slot (flat RS -> y_reduce_scatter).
  coll::SummationPhaseSeconds summation_phases;

  std::int64_t max_owned_elems = 0;

  // Monitoring (when config.deadline is enabled): communication stages in
  // order, plus the first-detection summary, as in GradientSummationResult.
  std::vector<coll::PhaseTiming> phases;
  bool timed_out = false;
  SimTime detected_at = -1.0;
  const char* timed_out_phase = nullptr;

  SimTime total() const {
    return reduce_seconds + update_seconds + broadcast_seconds;
  }
};

// Runs `plan` on the network's topology starting at the simulator's current
// time. `chip_buffers` is empty (timing-only) or one payload pointer per
// chip. The plan must validate on the network's topology.
PlanExecutionResult ExecutePlan(net::Network& network,
                                const CollectivePlan& plan,
                                std::int64_t elems,
                                const PlanExecutionConfig& config = {},
                                std::vector<float*> chip_buffers = {});

}  // namespace tpu::plan
