#include "collectives/all_reduce.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <utility>

#include "collectives/halving_doubling.h"
#include "common/check.h"
#include "common/math_util.h"
#include "common/thread_pool.h"
#include "sim/pdes.h"
#include "sim/simulator.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace tpu::coll {
namespace {

std::vector<float*> DataFor(const std::vector<float*>& chip_buffers,
                            const std::vector<topo::ChipId>& order) {
  std::vector<float*> data;
  if (chip_buffers.empty()) return data;
  data.reserve(order.size());
  for (topo::ChipId chip : order) data.push_back(chip_buffers[chip]);
  return data;
}

void CheckSummationConfig(const topo::MeshTopology& topo,
                          const GradientSummationConfig& config,
                          const std::vector<float*>& chip_buffers) {
  TPU_CHECK_GT(config.elems, 0);
  TPU_CHECK_GT(config.model_parallel_stride, 0);
  TPU_CHECK_EQ(topo.size_x() % config.model_parallel_stride, 0)
      << "model-parallel groups must tile the X dimension";
  if (!chip_buffers.empty()) {
    TPU_CHECK_EQ(static_cast<int>(chip_buffers.size()), topo.num_chips());
  }
}

// The 2-D schedule's ring lists over `range`, plus every chip's owned
// element count after both reduce-scatters (the shard its weight update
// runs on).
struct TwoDRings {
  std::shared_ptr<std::vector<RingSpec>> y =
      std::make_shared<std::vector<RingSpec>>();
  std::shared_ptr<std::vector<RingSpec>> x =
      std::make_shared<std::vector<RingSpec>>();
  std::vector<std::int64_t> owned_elems;
};

// Y: one torus ring per column, x ascending. X: per row (y ascending) and
// stride offset, one ring per non-empty sub-range the row owns after the Y
// reduce-scatter; rings hop over model-parallel peers when stride > 1. The
// construction order fixes event creation order, and plan lowering
// (plan/schedule.cc) enumerates its groups the same way. `tag` is spliced
// into the trace labels ("Y <tag>x=3").
TwoDRings BuildTwoDRings(const topo::MeshTopology& topo, const Range& range,
                         const GradientSummationConfig& config,
                         const std::vector<float*>& chip_buffers,
                         const std::string& tag) {
  const bool labeled = trace::CurrentTrace() != nullptr;
  const int stride = config.model_parallel_stride;
  TwoDRings rings;
  rings.owned_elems.assign(topo.num_chips(), 0);
  for (int x = 0; x < topo.size_x(); ++x) {
    RingSpec spec;
    spec.order = topo.RingAlong(topo::Dim::kY, topo.ChipAt({x, 0}));
    spec.data = DataFor(chip_buffers, spec.order);
    spec.range = range;
    if (labeled) spec.label = "Y " + tag + "x=" + std::to_string(x);
    rings.y->push_back(std::move(spec));
  }
  // Every column shares the Y ring layout, a function of y alone.
  const std::vector<topo::ChipId>& y_ring0 = rings.y->front().order;
  const int ny = static_cast<int>(y_ring0.size());
  std::vector<int> y_rank(topo.size_y());
  for (int rank = 0; rank < ny; ++rank) {
    y_rank[topo.CoordOf(y_ring0[rank]).y] = rank;
  }
  for (int y = 0; y < topo.size_y(); ++y) {
    const std::vector<Range> y_owned =
        OwnedAfterReduceScatter(range, ny, y_rank[y], config.collective);
    for (int offset = 0; offset < stride; ++offset) {
      const std::vector<topo::ChipId> order = topo.StridedRingAlong(
          topo::Dim::kX, topo.ChipAt({offset, y}), stride);
      const int nx = static_cast<int>(order.size());
      for (const Range& owned : y_owned) {
        if (owned.size() == 0) continue;
        for (int rank = 0; rank < nx; ++rank) {
          for (const Range& shard :
               OwnedAfterReduceScatter(owned, nx, rank, config.collective)) {
            rings.owned_elems[order[rank]] += shard.size();
          }
        }
        RingSpec spec;
        spec.data = DataFor(chip_buffers, order);
        spec.order = order;
        spec.range = owned;
        if (labeled) {
          spec.label = "X " + tag + "y=" + std::to_string(y);
          if (stride > 1) spec.label += " g" + std::to_string(offset);
        }
        rings.x->push_back(std::move(spec));
      }
    }
  }
  return rings;
}

// Starts one stage's collective over `specs`; `on_done` fires when every
// group completes.
void StartStage(net::Network& network, const SummationStage& stage,
                std::vector<RingSpec> specs, const CollectiveOptions& options,
                std::function<void()> on_done) {
  const bool rs = stage.op == SummationStage::Op::kReduceScatter;
  if (stage.halving_doubling) {
    rs ? StartHdReduceScatter(network, std::move(specs), options,
                              std::move(on_done))
       : StartHdAllGather(network, std::move(specs), options,
                          std::move(on_done));
  } else {
    rs ? StartReduceScatter(network, std::move(specs), options,
                            std::move(on_done))
       : StartAllGather(network, std::move(specs), options,
                        std::move(on_done));
  }
}

// Calls fn(from, to) for every chip pair one group of a stage sends between:
// ring neighbours in one or both directions (ring.cc's RingPass), or
// halving-doubling partners at every power-of-two rank distance
// (halving_doubling.cc's HdPass).
template <typename Fn>
void ForEachSendPair(const SummationStage& stage, const RingSpec& spec,
                     const CollectiveOptions& options, Fn&& fn) {
  const int n = spec.size();
  if (n <= 1 || spec.range.size() == 0) return;
  for (int rank = 0; rank < n; ++rank) {
    if (stage.halving_doubling) {
      for (int distance = 1; distance < n; distance <<= 1) {
        fn(spec.order[rank], spec.order[rank ^ distance]);
      }
      continue;
    }
    const topo::ChipId next = spec.order[(rank + 1) % n];
    fn(spec.order[rank], next);
    if (options.bidirectional && n > 2) fn(next, spec.order[rank]);
  }
}

// Splits a stage's groups into link-disjoint components: union-find over the
// links their messages route across. Walking the routes warms every route
// cache entry the stage will read. Components come out in the order of
// their first group, each holding its groups in stage order. Y rings on
// different columns, or X rings on different rows, share no link; strided X
// rings on one row do, and land in one component.
std::vector<std::vector<RingSpec>> LinkDisjointComponents(
    const net::Network& network, const SummationStage& stage,
    const CollectiveOptions& options) {
  const std::vector<RingSpec>& specs = *stage.specs;
  const int n = static_cast<int>(specs.size());
  std::vector<int> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&parent](int s) {
    while (parent[s] != s) s = parent[s] = parent[parent[s]];
    return s;
  };
  std::vector<int> link_owner(network.topology().links().size(), -1);
  for (int s = 0; s < n; ++s) {
    ForEachSendPair(stage, specs[s], options,
                    [&](topo::ChipId from, topo::ChipId to) {
      if (from == to) return;
      network.ForEachRouteLink(from, to, [&](topo::LinkId link) {
        int& owner = link_owner[link];
        if (owner < 0) {
          owner = s;
        } else {
          parent[find(owner)] = find(s);
        }
      });
    });
  }
  std::vector<int> component_of(n, -1);
  std::vector<std::vector<RingSpec>> components;
  for (int s = 0; s < n; ++s) {
    int& c = component_of[find(s)];
    if (c < 0) {
      c = static_cast<int>(components.size());
      components.emplace_back();
    }
    components[c].push_back(specs[s]);
  }
  return components;
}

// What one forked component leaves for the join.
struct LaneResult {
  SimTime end = 0;
  std::uint64_t events_processed = 0;
  std::uint64_t events_scheduled = 0;
  net::TrafficStats traffic;
};

// Runs each component of a stage on its own Simulator, one pool task per
// component, every lane starting at `start`. The join adds each lane's
// traffic and events in component order and returns the latest lane end.
SimTime ForkStage(ThreadPool& pool, net::Network& network,
                  const SummationStage& stage,
                  std::vector<std::vector<RingSpec>> components,
                  const CollectiveOptions& options, SimTime start,
                  sim::PdesStats& stats) {
  std::vector<LaneResult> lanes(components.size());
  for (std::size_t c = 0; c < components.size(); ++c) {
    pool.Schedule([&, c] {
      sim::Simulator simulator;
      net::Lane lane(&simulator);
      LaneResult& out = lanes[c];
      {
        net::ScopedLane scope(&lane);
        simulator.ExecuteAt(start, [&] {
          StartStage(network, stage, std::move(components[c]), options,
                     [&out, &simulator] { out.end = simulator.now(); });
        });
        simulator.Run();
      }
      out.events_processed = simulator.events_processed();
      out.events_scheduled = simulator.events_scheduled();
      out.traffic = lane.traffic;
    });
  }
  pool.Wait();
  SimTime end = start;
  std::uint64_t forked = 0;
  for (const LaneResult& lane : lanes) {
    end = std::max(end, lane.end);
    forked += lane.events_processed;
    stats.events_scheduled += lane.events_scheduled;
    network.MergeTraffic(lane.traffic);
  }
  stats.events_processed += forked;
  ++stats.windows;
  stats.partition_events_processed.push_back(forked);
  return end;
}

}  // namespace

// All rings run concurrently; a ring pass is (n-1) barrier-synchronized
// steps, each as long as its slowest hop, so the phase estimate is max over
// rings of (n-1) * slowest-hop time. Uses EstimateArrival, which
// deliberately ignores injected degradation — the deadline compares sick
// reality against healthy expectation. Folded (mesh-dimension) rings put two
// ring edges on each physical link; the resulting ~2x contention is not
// modeled here, which is why deadline multiples below ~2 are prone to false
// positives on X rings.
SimTime ExpectedRingPhaseSeconds(net::Network& network,
                                 const std::vector<RingSpec>& rings,
                                 const CollectiveOptions& options) {
  const SimTime now = network.simulator().now();
  SimTime worst = 0;
  for (const RingSpec& spec : rings) {
    const int n = spec.size();
    if (n <= 1 || spec.range.size() == 0) continue;
    // Per-direction payload split mirrors the bidirectional schedule.
    std::int64_t dir_elems[2] = {spec.range.size(), 0};
    if (options.bidirectional && n > 2) {
      dir_elems[0] = spec.range.size() / 2;
      dir_elems[1] = spec.range.size() - dir_elems[0];
    }
    for (const std::int64_t elems : dir_elems) {
      if (elems == 0) continue;
      const Bytes bytes = CeilDiv(elems, n) * options.wire_bytes_per_elem();
      SimTime slowest_hop = 0;
      for (int rank = 0; rank < n; ++rank) {
        const topo::ChipId from = spec.order[rank];
        const topo::ChipId to = spec.order[(rank + 1) % n];
        slowest_hop = std::max(slowest_hop,
                               network.EstimateArrival(from, to, bytes) - now);
      }
      worst = std::max(worst, (n - 1) * slowest_hop);
    }
  }
  return worst;
}

std::vector<topo::ChipId> SnakeRingOverMesh(const topo::MeshTopology& topo) {
  std::vector<topo::ChipId> ring;
  ring.reserve(topo.num_chips());
  for (int y = 0; y < topo.size_y(); ++y) {
    if (y % 2 == 0) {
      for (int x = 0; x < topo.size_x(); ++x) ring.push_back(topo.ChipAt({x, y}));
    } else {
      for (int x = topo.size_x() - 1; x >= 0; --x) {
        ring.push_back(topo.ChipAt({x, y}));
      }
    }
  }
  return ring;
}

SummationRun RunSummationStages(
    net::Network& network, const SummationSchedule& schedule,
    const CollectiveOptions& options,
    const std::function<SimTime(std::int64_t owned_elems)>&
        shard_update_seconds,
    const PhaseDeadlineConfig& deadline) {
  const topo::MeshTopology& topo = network.topology();
  const std::vector<SummationStage>& stages = schedule.stages;
  const int ns = static_cast<int>(stages.size());
  const int update_after = schedule.update_after;
  TPU_CHECK_GE(update_after, 0);
  TPU_CHECK_LT(update_after, ns - 1);
  TPU_CHECK_EQ(static_cast<int>(schedule.owned_elems.size()),
               topo.num_chips());
  sim::Simulator& simulator = network.simulator();
  const bool monitored = deadline.enabled();

  SummationRun run;
  run.stage_start.assign(ns, -1.0);
  run.stage_end.assign(ns, -1.0);
  run.update_end = -1.0;
  std::vector<SimTime> expected(ns, 0.0);

  // Phase labels for the causal observer (critical-path attribution): set
  // just before each stage schedules its events. Pure observation.
  sim::EventObserver* observer = sim::CurrentEventObserver();

  // Fork/join (DESIGN.md §16): when the ambient sim::PdesConfig asks for
  // more than one thread and the run is time-only (no payload buffers, so
  // no shared payload state) and unobserved (trace, metrics and causal
  // observers record per-event state on the issuing thread), each stage
  // whose groups split into several link-disjoint components, and which
  // starts with nothing else pending on `simulator`, runs each component on
  // a Simulator of its own on a thread pool. The chain continues at the
  // latest component end. Timestamps, event counts and traffic totals are
  // bit-identical to the serial run at any thread count; threads <= 1 pays
  // exactly one branch here.
  const sim::PdesConfig& pdes = sim::CurrentPdesConfig();
  const bool time_only =
      std::none_of(stages.begin(), stages.end(), [](const SummationStage& s) {
        return !s.specs->empty() && s.specs->front().has_data();
      });
  const bool engaged = pdes.enable && pdes.threads > 1 && time_only &&
                       trace::CurrentTrace() == nullptr &&
                       observer == nullptr &&
                       trace::CurrentMetrics() == nullptr;
  std::unique_ptr<ThreadPool> pool;
  sim::PdesStats stats;

  // Per transition: record the stage end, run the sharded update if it sits
  // here, estimate the next stage, label it, start it.
  std::function<void(int)> launch = [&](int i) {
    if (i == ns) return;
    const SummationStage& stage = stages[i];
    run.stage_start[i] = simulator.now();
    if (monitored) {
      expected[i] =
          stage.halving_doubling
              ? ExpectedHdPhaseSeconds(network, *stage.specs, options)
              : ExpectedRingPhaseSeconds(network, *stage.specs, options);
    }
    if (observer != nullptr) observer->OnPhase(stage.name);
    std::function<void()> next = [&, i] {
      run.stage_end[i] = simulator.now();
      if (i != update_after || !shard_update_seconds) {
        launch(i + 1);
        return;
      }
      // Sharded weight update (weight-update sharding, Section 3.2) on
      // every chip's owned elements; the barrier continues the chain.
      if (observer != nullptr) observer->OnPhase("sharded-update");
      auto barrier = std::make_shared<sim::Barrier>(topo.num_chips(), [&, i] {
        run.update_end = simulator.now();
        launch(i + 1);
      });
      for (int chip = 0; chip < topo.num_chips(); ++chip) {
        simulator.Schedule(shard_update_seconds(schedule.owned_elems[chip]),
                           [barrier] { barrier->Notify(); });
      }
    };
    if (stage.specs->empty()) {
      // Degenerate stage (payload already fully sharded away): complete in
      // zero time without touching the network.
      simulator.Schedule(0.0, std::move(next));
      return;
    }
    // Fork only with nothing else pending: a scheduled fault or telemetry
    // tick could change the links or sample the network mid-stage, and must
    // run on this simulator at its serial instant.
    if (engaged && simulator.empty()) {
      std::vector<std::vector<RingSpec>> components =
          LinkDisjointComponents(network, stage, options);
      if (components.size() > 1) {
        if (pool == nullptr) pool = std::make_unique<ThreadPool>(pdes.threads);
        simulator.ExecuteAt(ForkStage(*pool, network, stage,
                                      std::move(components), options,
                                      simulator.now(), stats),
                            next);
        return;
      }
    }
    StartStage(network, stage, *stage.specs, options, std::move(next));
  };
  launch(0);
  simulator.Run();
  if (pdes.stats != nullptr) {
    if (engaged) {
      stats.engaged = true;
      stats.events_processed += simulator.events_processed();
      stats.events_scheduled += simulator.events_scheduled();
      *pdes.stats = std::move(stats);
    } else {
      pdes.stats->engaged = false;
    }
  }
  TPU_CHECK_GE(run.stage_end.back(), 0.0);
  if (run.update_end < 0) run.update_end = run.stage_end[update_after];

  GradientSummationResult& result = run.result;
  const SimTime start = run.stage_start.front();
  const SimTime reduced = run.stage_end[update_after];
  result.reduce_seconds = reduced - start;
  result.update_seconds = run.update_end - reduced;
  result.broadcast_seconds = run.stage_end.back() - run.update_end;
  result.phase_seconds.update = result.update_seconds;
  result.max_owned_elems = *std::max_element(schedule.owned_elems.begin(),
                                             schedule.owned_elems.end());
  for (int i = 0; i < ns; ++i) {
    const SimTime seconds = run.stage_end[i] - run.stage_start[i];
    result.phase_seconds.*stages[i].slot += seconds;
    if (!monitored) continue;
    PhaseTiming timing;
    timing.name = stages[i].name;
    timing.start = run.stage_start[i];
    timing.expected = expected[i];
    timing.actual = seconds;
    timing.deadline = deadline.DeadlineFor(expected[i]);
    timing.timed_out = timing.actual > timing.deadline;
    if (timing.timed_out && !result.timed_out) {
      result.timed_out = true;
      result.detected_at = timing.start + timing.deadline;
      result.timed_out_phase = timing.name;
    }
    result.phases.push_back(timing);
  }
  return run;
}

GradientSummationResult TwoDGradientSummation(
    net::Network& network, const GradientSummationConfig& config,
    std::vector<float*> chip_buffers) {
  const topo::MeshTopology& topo = network.topology();
  CheckSummationConfig(topo, config, chip_buffers);
  TwoDRings rings =
      BuildTwoDRings(topo, Range{0, config.elems}, config, chip_buffers, "");

  using Op = SummationStage::Op;
  using Slots = SummationPhaseSeconds;
  SummationSchedule schedule;
  schedule.stages = {
      {Op::kReduceScatter, false, "Y-reduce-scatter", &Slots::y_reduce_scatter,
       rings.y},
      {Op::kReduceScatter, false, "X-reduce-scatter", &Slots::x_reduce_scatter,
       rings.x},
      {Op::kAllGather, false, "X-all-gather", &Slots::x_all_gather, rings.x},
      {Op::kAllGather, false, "Y-all-gather", &Slots::y_all_gather, rings.y},
  };
  schedule.update_after = 1;
  schedule.owned_elems = std::move(rings.owned_elems);
  const SummationRun run =
      RunSummationStages(network, schedule, config.collective,
                         config.shard_update_seconds, config.deadline);
  const GradientSummationResult& result = run.result;

  // Phase boundaries are known only after the run, so spans are emitted
  // retroactively with explicit timestamps: one umbrella B/E pair wrapping a
  // complete span per phase on the shared summation track.
  const SimTime start = run.stage_start.front();
  const SimTime end = run.stage_end.back();
  if (trace::TraceRecorder* recorder = trace::CurrentTrace()) {
    static constexpr const char* kSpans[] = {
        "reduce-scatter-Y", "reduce-scatter-X", "broadcast-X", "broadcast-Y"};
    const trace::TraceRecorder::TrackId track =
        recorder->Track("system", "summation");
    recorder->Begin(track, "2d-summation", start);
    for (int i = 0; i < 4; ++i) {
      recorder->Complete(track, kSpans[i], run.stage_start[i],
                         run.stage_end[i]);
      if (i == schedule.update_after) {
        recorder->Complete(track, "sharded-update", run.stage_end[i],
                           run.update_end);
      }
    }
    recorder->End(track, end);
  }
  if (trace::MetricsRegistry* metrics = trace::CurrentMetrics()) {
    metrics->Counter("summation.runs").Add(1);
    metrics->Histogram("summation.total_us").Record(ToMicros(end - start));
    metrics->Histogram("summation.y_reduce_scatter_us")
        .Record(ToMicros(result.phase_seconds.y_reduce_scatter));
    metrics->Histogram("summation.x_reduce_scatter_us")
        .Record(ToMicros(result.phase_seconds.x_reduce_scatter));
    metrics->Histogram("summation.update_us")
        .Record(ToMicros(result.phase_seconds.update));
    metrics->Histogram("summation.x_all_gather_us")
        .Record(ToMicros(result.phase_seconds.x_all_gather));
    metrics->Histogram("summation.y_all_gather_us")
        .Record(ToMicros(result.phase_seconds.y_all_gather));
  }
  return result;
}

// Runs serially whatever the ambient PdesConfig: slices interleave Y and X
// phases in time, so no instant has every pending ring in link-disjoint
// groups that could fork.
SimTime PipelinedTwoDGradientSummation(
    net::Network& network, const GradientSummationConfig& config, int chunks,
    std::vector<float*> chip_buffers, PipelinedSummationReport* report) {
  const topo::MeshTopology& topo = network.topology();
  CheckSummationConfig(topo, config, chip_buffers);
  TPU_CHECK_GT(chunks, 0);
  sim::Simulator& simulator = network.simulator();
  trace::TraceRecorder* recorder = trace::CurrentTrace();
  const SimTime start = simulator.now();
  if (sim::EventObserver* observer = sim::CurrentEventObserver()) {
    // Chunk phases overlap, so a single label covers the fused collective.
    observer->OnPhase("pipelined-2d");
  }

  // Slice phases overlap, so deadline monitoring watches the fused collective
  // as a whole: the expectation is the *sequential* full-payload schedule
  // (Y-RS + X-RS + X-AG + Y-AG), an upper bound on the pipelined time, so
  // pipelining itself can never trip the deadline. The sharded-update hook is
  // compute, not communication, and is excluded from the expectation.
  const bool monitored = report != nullptr && config.deadline.enabled();
  if (monitored) {
    const TwoDRings estimate =
        BuildTwoDRings(topo, Range{0, config.elems}, config, {}, "");
    const SimTime y_phase =
        ExpectedRingPhaseSeconds(network, *estimate.y, config.collective);
    const SimTime x_phase =
        ExpectedRingPhaseSeconds(network, *estimate.x, config.collective);
    report->expected = 2 * y_phase + 2 * x_phase;
    report->deadline = config.deadline.DeadlineFor(report->expected);
  }

  // Completion is timestamped by the barrier callback (not by queue drain),
  // so armed fault events pending past the collective don't inflate it.
  SimTime completed_at = -1;
  auto all_done = std::make_shared<sim::Barrier>(
      chunks, [&completed_at, &simulator] { completed_at = simulator.now(); });
  const std::int64_t slice = CeilDiv(config.elems, chunks);
  for (int c = 0; c < chunks; ++c) {
    const Range range{std::min<std::int64_t>(config.elems, c * slice),
                      std::min<std::int64_t>(config.elems, (c + 1) * slice)};
    if (range.size() == 0) {
      all_done->Notify();
      continue;
    }
    const TwoDRings rings = BuildTwoDRings(topo, range, config, chip_buffers,
                                           "s" + std::to_string(c) + " ");

    // Phase chain for this slice: Y-RS -> X-RS -> [update] -> X-AG -> Y-AG.
    net::Network* net_ptr = &network;
    const auto options = config.collective;
    auto after_xag = [net_ptr, y_rings = rings.y, options, all_done] {
      StartAllGather(*net_ptr, *y_rings, options,
                     [all_done] { all_done->Notify(); });
    };
    auto after_update = [net_ptr, x_rings = rings.x, options, after_xag] {
      StartAllGather(*net_ptr, *x_rings, options, after_xag);
    };
    auto after_xrs = [net_ptr, update_hook = config.shard_update_seconds,
                      owned_elems = rings.owned_elems, after_update]() {
      if (!update_hook) {
        after_update();
        return;
      }
      // Sharded weight update on each chip's owned slice portion.
      sim::Simulator& sim_ref = net_ptr->simulator();
      auto barrier = std::make_shared<sim::Barrier>(
          static_cast<int>(owned_elems.size()), after_update);
      for (const std::int64_t owned : owned_elems) {
        sim_ref.Schedule(update_hook(owned), [barrier] { barrier->Notify(); });
      }
    };
    StartReduceScatter(network, *rings.y, options,
                       [net_ptr, x_rings = rings.x, options, after_xrs] {
                         StartReduceScatter(*net_ptr, *x_rings, options,
                                            after_xrs);
                       });
  }
  simulator.Run();
  TPU_CHECK_GE(completed_at, 0.0);
  const SimTime elapsed = completed_at - start;
  // Slice phases interleave, so the fused collective gets a single umbrella
  // span; per-slice phase activity is visible through the ring spans.
  if (recorder != nullptr) {
    recorder->Complete(recorder->Track("system", "summation"),
                       "pipelined-2d-summation x" + std::to_string(chunks),
                       start, completed_at);
  }
  if (trace::MetricsRegistry* metrics = trace::CurrentMetrics()) {
    metrics->Counter("summation.pipelined_runs").Add(1);
    metrics->Histogram("summation.pipelined_total_us")
        .Record(ToMicros(elapsed));
  }
  if (monitored) {
    report->actual = elapsed;
    report->timed_out = elapsed > report->deadline;
    report->detected_at = report->timed_out ? start + report->deadline : -1.0;
  }
  return elapsed;
}

SimTime OneDGradientSummation(net::Network& network,
                              const GradientSummationConfig& config,
                              std::vector<float*> chip_buffers) {
  const topo::MeshTopology& topo = network.topology();
  RingSpec spec;
  spec.order = SnakeRingOverMesh(topo);
  spec.data = DataFor(chip_buffers, spec.order);
  spec.range = Range{0, config.elems};
  std::vector<RingSpec> rings;
  rings.push_back(std::move(spec));
  return AllReduce(network, rings, config.collective);
}

}  // namespace tpu::coll
