// The paper's optimized global gradient summation (Section 3.3).
//
// 2-D hierarchical schedule on the multipod mesh:
//   1. bidirectional ring reduce-scatter along the Y dimension (torus rings),
//   2. reduce-scatter along X over the Y-shards (payload already 1/|Y|,
//      which is the "32 times less data along X" property),
//   3. optional per-chip shard update hook — this is where weight-update
//      sharding (Section 3.2) computes the optimizer step on the shard,
//   4. all-gather along X, then along Y ("broadcast first along X and then
//      Y in two steps").
//
// With model parallelism (Transformer), the X rings are *strided*: they hop
// over the chips that are model-parallel neighbors and connect each shard to
// its peer on every other model-parallel group (Figure 4, dotted blue rings).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "collectives/lockstep.h"
#include "collectives/ring.h"
#include "network/network.h"
#include "topology/topology.h"

namespace tpu::coll {

// Per-collective-phase failure detection, the way a real synchronous runtime
// notices a stall: each phase gets a deadline of `multiple` times its expected
// duration (computed from the healthy-network EstimateArrival model before
// the phase starts); a phase that overruns its deadline is reported as timed
// out at the moment the deadline expired — the collective itself still runs
// to completion so the caller also learns the true stall length.
struct PhaseDeadlineConfig {
  // Deadline = max(multiple * expected_phase_seconds, min_deadline).
  // 0 disables monitoring (the default: figures/benches pay no overhead).
  double multiple = 0.0;
  // Floor so microsecond-scale phases don't trip on estimation error.
  SimTime min_deadline = Micros(50);

  bool enabled() const { return multiple > 0.0; }
  SimTime DeadlineFor(SimTime expected_seconds) const {
    const SimTime scaled = multiple * expected_seconds;
    return scaled > min_deadline ? scaled : min_deadline;
  }
};

struct GradientSummationConfig {
  std::int64_t elems = 0;  // per-chip gradient payload, in float elements
  CollectiveOptions collective;
  // 1 for pure data parallelism. For model parallelism, the number of
  // X-neighbor chips one model is sharded across; the X reduction rings then
  // connect every stride-th chip.
  int model_parallel_stride = 1;
  // Optional weight-update-sharding hook: given the number of elements a chip
  // owns after the reduce phase, returns the simulated seconds its sharded
  // optimizer update takes. Null hook skips the update phase.
  std::function<SimTime(std::int64_t owned_elems)> shard_update_seconds;
  // Optional per-phase timeout detection (see PhaseDeadlineConfig).
  PhaseDeadlineConfig deadline;
};

// Timing of one monitored collective phase (Y-RS / X-RS / X-AG / Y-AG).
struct PhaseTiming {
  const char* name = "";
  SimTime start = 0;     // sim-time the phase began
  SimTime expected = 0;  // healthy-network estimate
  SimTime actual = 0;    // observed duration
  SimTime deadline = 0;  // max(multiple * expected, min_deadline)
  bool timed_out = false;
};

// Per-phase wall-clock of one 2-D summation, in schedule order. Always
// filled (unlike `phases` below, which needs deadline monitoring); feeds the
// step profiler and trace spans.
struct SummationPhaseSeconds {
  SimTime y_reduce_scatter = 0;
  SimTime x_reduce_scatter = 0;
  SimTime update = 0;  // sharded weight update (0 when no hook)
  SimTime x_all_gather = 0;
  SimTime y_all_gather = 0;
};

struct GradientSummationResult {
  SimTime reduce_seconds = 0;     // Y reduce-scatter + X reduce-scatter
  SimTime update_seconds = 0;     // sharded weight update (if hooked)
  SimTime broadcast_seconds = 0;  // X all-gather + Y all-gather
  SummationPhaseSeconds phase_seconds;
  // Elements each chip owned at the update point (uniform up to rounding;
  // this is the max across chips).
  std::int64_t max_owned_elems = 0;

  // Filled when config.deadline is enabled: the four communication phases in
  // schedule order, plus the first-detection summary below.
  std::vector<PhaseTiming> phases;
  bool timed_out = false;
  // Sim-time the first phase deadline expired (phase start + deadline);
  // negative when nothing timed out. On a stalled collective this is far
  // earlier than the stall's eventual completion — the gap is what a
  // checkpoint/restart system saves by detecting instead of waiting.
  SimTime detected_at = -1.0;
  const char* timed_out_phase = nullptr;

  SimTime total() const {
    return reduce_seconds + update_seconds + broadcast_seconds;
  }
};

// Staged execution: the one runner behind the fixed 2-D schedule below and
// every lowered collective plan (plan/executor.h). A schedule is a chain of
// stages, each a reduce-scatter or all-gather over a list of concurrent
// groups; the sharded weight update runs between stages[update_after] and
// the stage after it.
struct SummationStage {
  using Op = CollectiveOp;

  Op op = Op::kReduceScatter;
  Algorithm algorithm = Algorithm::kRing;
  // Static phase label ("Y-reduce-scatter", "X-all-gather", ...): the causal
  // observer's phase and the deadline-monitoring name.
  const char* name = "";
  // The five-phase slot this stage's wall clock accumulates into.
  SimTime SummationPhaseSeconds::*slot =
      &SummationPhaseSeconds::y_reduce_scatter;
  // Shared between a reduce-scatter and its mirroring all-gather.
  std::shared_ptr<std::vector<RingSpec>> specs;
};

struct SummationSchedule {
  std::vector<SummationStage> stages;
  // Index of the last reduce-scatter; never the final stage.
  int update_after = 0;
  // Per-chip owned element counts at the update point.
  std::vector<std::int64_t> owned_elems;
};

struct SummationRun {
  GradientSummationResult result;
  // Stage boundaries in sim-time. The stage after the update starts at
  // update_end, every other stage where its predecessor ended.
  std::vector<SimTime> stage_start;
  std::vector<SimTime> stage_end;
  SimTime update_end = 0;
};

// Runs `schedule` starting at the simulator's current time: stages chain
// through completion callbacks and the simulator runs once at the end, so
// externally armed events (fault injections and their healings) fire
// mid-collective. Each stage's expectation (when `deadline` is enabled) is
// estimated at its start, against the then-current link occupancy. When the
// ambient sim::PdesConfig asks for threads and the run qualifies (see the
// definition), a stage forks its link-disjoint groups onto a thread pool and
// joins them at its end; results are bit-identical to the serial run.
SummationRun RunSummationStages(
    net::Network& network, const SummationSchedule& schedule,
    const CollectiveOptions& options,
    const std::function<SimTime(std::int64_t owned_elems)>&
        shard_update_seconds,
    const PhaseDeadlineConfig& deadline);

// Runs the full 2-D summation on the network's topology. `chip_buffers` is
// either empty (timing-only) or holds one payload pointer per chip id; after
// the call every participating chip's buffer contains the global sum
// (across its Y column and its strided X peers).
GradientSummationResult TwoDGradientSummation(
    net::Network& network, const GradientSummationConfig& config,
    std::vector<float*> chip_buffers = {});

// Chunk-pipelined variant of the 2-D summation: the payload is split into
// `chunks` slices whose four phases (Y-RS, X-RS, X-AG, Y-AG) overlap —
// slice i+1 reduces on the Y links while slice i reduces on the X links.
// This is how production XLA hides the smaller phase; the sequential
// schedule above is the conservative default. Functionally identical
// (slices are disjoint); returns elapsed simulated time. The weight-update
// hook, when present, runs per slice on the owned shard.
//
// Phases of different slices overlap, so deadline monitoring (when
// config.deadline is enabled and `report` is non-null) watches the fused
// collective as a whole: expected time is the sum of the healthy-network
// phase estimates for the full payload (an upper bound on the pipelined
// schedule, hence conservative — no false positives from pipelining itself).
struct PipelinedSummationReport {
  SimTime expected = 0;
  SimTime actual = 0;
  SimTime deadline = 0;
  bool timed_out = false;
  SimTime detected_at = -1.0;  // start + deadline when timed out, else -1
};
SimTime PipelinedTwoDGradientSummation(
    net::Network& network, const GradientSummationConfig& config, int chunks,
    std::vector<float*> chip_buffers = {},
    PipelinedSummationReport* report = nullptr);

// Baseline for the ablation bench: a single ring over the whole mesh
// (boustrophedon over rows), the schedule 2-D summation replaces. Exposes
// the O(num_chips) latency term that makes 1-D rings uncompetitive at 4096
// chips.
SimTime OneDGradientSummation(net::Network& network,
                              const GradientSummationConfig& config,
                              std::vector<float*> chip_buffers = {});

// Row-major boustrophedon ring visiting every chip; consecutive ring
// positions are physical neighbors.
std::vector<topo::ChipId> SnakeRingOverMesh(const topo::MeshTopology& topo);

}  // namespace tpu::coll
