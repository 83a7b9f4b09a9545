#include "plan/executor.h"

#include <string>
#include <utility>

#include "common/check.h"
#include "plan/schedule.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace tpu::plan {
namespace {

// Chunk-pipelined plans have no internal phase boundaries; they run through
// the pipelined 2-D schedule and report one fused stage.
PlanExecutionResult ExecuteChunked(net::Network& network,
                                   const CollectivePlan& plan,
                                   std::int64_t elems,
                                   const PlanExecutionConfig& config,
                                   std::vector<float*> chip_buffers) {
  coll::GradientSummationConfig summation;
  summation.elems = elems;
  summation.collective = plan.collective_options();
  summation.model_parallel_stride = plan.phases[1].stride;
  summation.shard_update_seconds = config.shard_update_seconds;
  summation.deadline = config.deadline;

  coll::PipelinedSummationReport report;
  const bool monitored = config.deadline.enabled();
  const SimTime start = network.simulator().now();
  const SimTime elapsed = coll::PipelinedTwoDGradientSummation(
      network, summation, plan.chunks, std::move(chip_buffers),
      monitored ? &report : nullptr);

  PlanExecutionResult result;
  result.reduce_seconds = elapsed;
  result.stages.push_back({"pipelined-2d", elapsed});
  result.summation_phases.y_reduce_scatter = elapsed;
  if (monitored) {
    coll::PhaseTiming timing;
    timing.name = "pipelined-2d";
    timing.start = start;
    timing.expected = report.expected;
    timing.actual = report.actual;
    timing.deadline = report.deadline;
    timing.timed_out = report.timed_out;
    result.phases.push_back(timing);
    result.timed_out = report.timed_out;
    result.detected_at = report.detected_at;
    if (report.timed_out) result.timed_out_phase = "pipelined-2d";
  }
  return result;
}

}  // namespace

PlanExecutionResult ExecutePlan(net::Network& network,
                                const CollectivePlan& plan,
                                std::int64_t elems,
                                const PlanExecutionConfig& config,
                                std::vector<float*> chip_buffers) {
  const topo::MeshTopology& topo = network.topology();
  TPU_CHECK_GT(elems, 0);
  std::string error;
  TPU_CHECK(ValidatePlan(topo, plan, &error)) << error;
  if (plan.chunks > 1) {
    return ExecuteChunked(network, plan, elems, config,
                          std::move(chip_buffers));
  }

  const LoweredPlan lowered =
      LowerPlan(topo, plan, elems, std::move(chip_buffers));
  const coll::SummationRun run = coll::RunSummationStages(
      network, lowered, plan.collective_options(), config.shard_update_seconds,
      config.deadline);
  const coll::GradientSummationResult& summary = run.result;

  PlanExecutionResult result;
  result.reduce_seconds = summary.reduce_seconds;
  result.update_seconds = summary.update_seconds;
  result.broadcast_seconds = summary.broadcast_seconds;
  result.summation_phases = summary.phase_seconds;
  result.max_owned_elems = summary.max_owned_elems;
  result.phases = summary.phases;
  result.timed_out = summary.timed_out;
  result.detected_at = summary.detected_at;
  result.timed_out_phase = summary.timed_out_phase;
  const int ns = static_cast<int>(lowered.stages.size());
  for (int i = 0; i < ns; ++i) {
    result.stages.push_back({lowered.stages[i].name,
                             run.stage_end[i] - run.stage_start[i]});
  }

  const SimTime start = run.stage_start.front();
  const SimTime finish = run.stage_end.back();
  if (trace::TraceRecorder* recorder = trace::CurrentTrace()) {
    const trace::TraceRecorder::TrackId track =
        recorder->Track("system", "plan");
    recorder->Begin(track, "plan " + plan.name(), start);
    for (int i = 0; i < ns; ++i) {
      recorder->Complete(track, lowered.stages[i].name, run.stage_start[i],
                         run.stage_end[i]);
      if (i == lowered.update_after && run.update_end > run.stage_end[i]) {
        recorder->Complete(track, "sharded-update", run.stage_end[i],
                           run.update_end);
      }
    }
    recorder->End(track, finish);
  }
  if (trace::MetricsRegistry* metrics = trace::CurrentMetrics()) {
    metrics->Counter("plan.exec.runs").Add(1);
    metrics->Histogram("plan.exec.total_us").Record(ToMicros(finish - start));
  }
  return result;
}

}  // namespace tpu::plan
