#include "plan/planner.h"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "plan/cost.h"
#include "plan/generator.h"
#include "plan/schedule.h"
#include "sim/ambient.h"
#include "trace/critical_path.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace tpu::plan {

PlannerResult FindBestPlan(const topo::MeshTopology& topo,
                           const net::NetworkConfig& config,
                           const PlanRequest& request,
                           const LinkHealthSet& health, PlanCache* cache) {
  const std::string key =
      cache != nullptr ? PlanCacheKey(topo, request, health) : std::string();
  if (cache != nullptr) {
    if (const PlanCache::Entry* entry = cache->Lookup(key)) {
      PlannerResult result;
      result.plan = entry->plan;
      result.predicted_seconds = entry->predicted_seconds;
      result.from_cache = true;
      return result;
    }
  }

  std::vector<CollectivePlan> candidates = GeneratePlans(topo, request);
  TPU_CHECK(!candidates.empty());

  // Closed-form tier: rank every candidate, ties broken by name so the
  // ordering (and thus the DES shortlist) is deterministic.
  struct Scored {
    SimTime estimate;
    std::string name;
    const CollectivePlan* plan;
  };
  std::vector<Scored> scored;
  scored.reserve(candidates.size());
  for (const CollectivePlan& plan : candidates) {
    const LoweredPlan lowered = LowerPlan(topo, plan, request.elems);
    scored.push_back({EstimatePlanSeconds(topo, config, health, lowered),
                      plan.name(), &plan});
  }
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    return a.estimate != b.estimate ? a.estimate < b.estimate
                                    : a.name < b.name;
  });

  // Discrete-event tier: re-price the shortlist exactly; the executed time of
  // the winner is bit-identical to what running it for real will report.
  const int top_k =
      std::min<int>(std::max(request.des_top_k, 1),
                    static_cast<int>(scored.size()));
  PlannerResult result;
  result.candidates = static_cast<int>(candidates.size());
  result.evaluated = top_k;
  // Each shortlisted candidate prices on its own throwaway Simulator with no
  // shared state (the trace/metrics globals are thread-local), so the
  // evaluations can fan out across a pool; the reduction below walks
  // `seconds` in shortlist order either way, making the winner independent
  // of the thread count.
  std::vector<SimTime> seconds(top_k);
  const int threads = std::min(
      top_k, request.search_threads == 0
                 ? std::max(1, static_cast<int>(
                                   std::thread::hardware_concurrency()))
                 : std::max(request.search_threads, 1));
  if (threads > 1) {
    ThreadPool pool(threads);
    pool.ParallelFor(top_k, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        seconds[i] = EvaluatePlanOnSimulator(topo, config, health,
                                             *scored[i].plan, request.elems);
      }
    });
  } else {
    for (int i = 0; i < top_k; ++i) {
      seconds[i] = EvaluatePlanOnSimulator(topo, config, health,
                                           *scored[i].plan, request.elems);
    }
  }
  bool have_best = false;
  for (int i = 0; i < top_k; ++i) {
    const bool better =
        !have_best || seconds[i] < result.predicted_seconds ||
        (seconds[i] == result.predicted_seconds &&
         scored[i].name < result.plan.name());
    if (better) {
      have_best = true;
      result.plan = *scored[i].plan;
      result.predicted_seconds = seconds[i];
      result.estimated_seconds = scored[i].estimate;
    }
  }

  if (trace::TraceRecorder* recorder = trace::CurrentTrace()) {
    // Pin the instant at the recorder's frontier; subtract the active offset
    // so Stamp() doesn't apply it twice.
    recorder->Instant(recorder->Track("system", "plan"),
                      "plan-search " + result.plan.name(),
                      recorder->last_timestamp() - recorder->time_offset());
  }
  if (trace::MetricsRegistry* metrics = trace::CurrentMetrics()) {
    metrics->Counter("plan.search.runs").Add(1);
    metrics->Counter("plan.search.candidates").Add(result.candidates);
    metrics->Counter("plan.search.evaluated").Add(result.evaluated);
  }
  if (cache != nullptr) {
    cache->Insert(key, {result.plan, result.predicted_seconds});
  }
  return result;
}

trace::RunReport ProbePlan(const topo::MeshTopology& topo,
                           const net::NetworkConfig& config,
                           const LinkHealthSet& health,
                           const CollectivePlan& plan, std::int64_t elems,
                           SimTime estimated_seconds) {
  // Same throwaway discipline as EvaluatePlanOnSimulator — silence every
  // sink so the probe leaves nothing behind — but with the causal tracker
  // installed so the re-execution yields a full report.
  sim::ScopedUnobserved unobserved;
  trace::CriticalPathTracker tracker;
  sim::ScopedEventObserver observe(&tracker);
  sim::Simulator simulator;
  net::Network network(&topo, config, &simulator);
  health.ApplyTo(network);
  const PlanExecutionResult result = ExecutePlan(network, plan, elems);

  if (estimated_seconds < 0) {
    estimated_seconds =
        EstimatePlanSeconds(topo, config, health, LowerPlan(topo, plan, elems));
  }

  trace::RunReport report;
  report.label = "probe " + plan.name();
  report.planned = true;
  report.plan_name = plan.name();
  report.plan_predicted_seconds = result.total();
  report.plan_estimated_seconds = estimated_seconds;
  report.step_seconds = result.total();
  report.compute_seconds = result.update_seconds;
  report.comm_seconds = result.reduce_seconds + result.broadcast_seconds;
  for (const PlanExecutionResult::StageSeconds& stage : result.stages) {
    report.phases.push_back({stage.name, stage.seconds});
  }
  report.has_critical_path = true;
  report.critical_path = tracker.Analyze();
  return report;
}

MitigatedSummation ExecuteWithReplanning(net::Network& network,
                                         const PlanRequest& request,
                                         const CollectivePlan& plan,
                                         fault::HealthMonitor& monitor,
                                         PlanCache* cache,
                                         PlanExecutionConfig config) {
  config.deadline = monitor.config().ToPhaseDeadline();

  MitigatedSummation outcome;
  outcome.first = ExecutePlan(network, plan, request.elems, config);

  // Score every monitored phase against the injector-independent deadline;
  // ground truth for the observation is the network's actual link state.
  const LinkHealthSet health = LinkHealthSet::FromNetwork(network);
  const bool fault_active = !health.healthy();
  for (const coll::PhaseTiming& timing : outcome.first.phases) {
    monitor.Observe({timing.start, timing.expected, timing.actual,
                     fault_active});
  }
  if (!outcome.first.timed_out) return outcome;

  // A phase overran its deadline: re-plan under the observed link health
  // (which, being part of the cache key, forces a fresh search) and run the
  // replacement on the same degraded network.
  outcome.replanned = true;
  outcome.detected_at = outcome.first.detected_at;
  outcome.replan = FindBestPlan(network.topology(), network.config(), request,
                                health, cache);
  if (trace::TraceRecorder* recorder = trace::CurrentTrace()) {
    recorder->Instant(recorder->Track("system", "plan"),
                      "replan " + outcome.replan.plan.name(),
                      network.simulator().now());
  }
  if (trace::MetricsRegistry* metrics = trace::CurrentMetrics()) {
    metrics->Counter("plan.replans").Add(1);
  }
  outcome.second =
      ExecutePlan(network, outcome.replan.plan, request.elems, config);
  return outcome;
}

}  // namespace tpu::plan
