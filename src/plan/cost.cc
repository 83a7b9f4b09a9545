#include "plan/cost.h"

#include <algorithm>
#include <vector>

#include "collectives/lockstep.h"
#include "common/check.h"
#include "plan/executor.h"
#include "sim/ambient.h"
#include "sim/simulator.h"

namespace tpu::plan {
namespace {

class HopCost {
 public:
  HopCost(const topo::MeshTopology& topo, const net::NetworkConfig& config,
          const LinkHealthSet& health)
      : topo_(topo), config_(config),
        degrade_(topo.links().size(), 1.0),
        failed_(topo.links().size(), false) {
    for (const topo::LinkId link : health.failed) failed_[link] = true;
    for (const auto& [link, factor] : health.degraded) {
      degrade_[link] = factor;
    }
  }

  // Store-and-forward time of one `bytes`-sized message from `from` to
  // `to`: per-message overhead once, then per link latency + serialization
  // (scaled by degradation) + the stall charged on failed links.
  SimTime Seconds(topo::ChipId from, topo::ChipId to, Bytes bytes) const {
    SimTime t = config_.message_overhead;
    topo_.ForEachRouteLink(from, to, [&](topo::LinkId id) {
      const net::LinkParams& params =
          config_.ParamsFor(topo_.link(id).type);
      t += params.latency + bytes / params.bandwidth * degrade_[id];
      if (failed_[id]) t += net::Network::kFailedLinkStall;
    });
    return t;
  }

 private:
  const topo::MeshTopology& topo_;
  const net::NetworkConfig& config_;
  std::vector<double> degrade_;
  std::vector<bool> failed_;
};

}  // namespace

SimTime EstimatePlanSeconds(const topo::MeshTopology& topo,
                            const net::NetworkConfig& config,
                            const LinkHealthSet& health,
                            const LoweredPlan& lowered) {
  const HopCost hop(topo, config, health);
  const coll::CollectiveOptions options =
      lowered.plan.collective_options();
  SimTime total = 0, longest_stage = 0;
  for (const LoweredStage& stage : lowered.stages) {
    SimTime stage_seconds = 0;
    for (const coll::RingSpec& spec : *stage.specs) {
      const SimTime t = coll::EstimateGroupSeconds(
          stage.algorithm, stage.op, spec, options,
          [&hop](topo::ChipId from, topo::ChipId to, Bytes bytes) {
            return hop.Seconds(from, to, bytes);
          });
      stage_seconds = std::max(stage_seconds, t);
    }
    total += stage_seconds;
    longest_stage = std::max(longest_stage, stage_seconds);
  }
  // Chunk pipelining overlaps the shorter stages under the longest one; the
  // sequential sum is its upper bound, longest stage its lower bound.
  if (lowered.plan.chunks > 1) {
    total = longest_stage + (total - longest_stage) / lowered.plan.chunks;
  }
  return total;
}

SimTime EvaluatePlanOnSimulator(const topo::MeshTopology& topo,
                                const net::NetworkConfig& config,
                                const LinkHealthSet& health,
                                const CollectivePlan& plan,
                                std::int64_t elems) {
  // Candidate evaluations are throwaway: silence every sink so the search
  // leaves no spans, counters, samples or event records behind — only the
  // chosen plan's real execution is observable. They also stay serial:
  // under an ambient PDES request every candidate would otherwise fork its
  // stages onto a thread pool of its own.
  sim::ScopedUnobserved unobserved;
  sim::ScopedPdesConfig serial({});
  sim::Simulator simulator;
  net::Network network(&topo, config, &simulator);
  health.ApplyTo(network);
  return ExecutePlan(network, plan, elems).total();
}

}  // namespace tpu::plan
