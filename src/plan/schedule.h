// Lowering: CollectivePlan -> executable stages of concrete ring/group specs.
//
// The lowering walks the plan phase by phase, tracking which payload
// sub-ranges every chip owns, and materializes one coll::RingSpec per
// (group, owned range). A reduce-scatter and its mirroring all-gather share
// one spec list (an all-gather re-runs the same groups over the same ranges
// in reverse), and all-reduce-in-one phases expand into an RS stage plus an
// AG stage on shared specs. The result is a coll::SummationSchedule: the
// closed-form cost estimate prices it, and coll::RunSummationStages — the
// same runner behind the fixed 2-D schedule — executes it.
#pragma once

#include <cstdint>
#include <vector>

#include "collectives/all_reduce.h"
#include "plan/plan_ir.h"
#include "topology/topology.h"

namespace tpu::plan {

// A stage's label ("Y-reduce-scatter", "X-all-gather", ...) matches the
// names TwoDGradientSummation reports for monitored phases.
using LoweredStage = coll::SummationStage;

// stages / update_after / owned_elems (coll::SummationSchedule): the update
// runs after the last reduce-scatter stage, on each chip's then-owned
// elements.
struct LoweredPlan : coll::SummationSchedule {
  CollectivePlan plan;
};

// Lowers `plan` (which must validate on `topo`) over a payload of `elems`
// float elements per chip. `chip_buffers` is empty for timing-only lowering
// or holds one payload pointer per chip id; spec labels are attached only
// when a trace recorder is installed, as the fixed 2-D schedule does.
// Ignores plan.chunks — chunked plans execute through the pipelined 2-D
// path, but lower sequentially for cost estimation.
LoweredPlan LowerPlan(const topo::MeshTopology& topo,
                      const CollectivePlan& plan, std::int64_t elems,
                      std::vector<float*> chip_buffers = {});

}  // namespace tpu::plan
