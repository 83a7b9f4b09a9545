// critpath_1024: plan::ProbePlan of the paper's plan on one 32x32 pod with
// one +Y link degraded 8x, in eight variants, each a link position and a
// payload. Every eight operations probe each variant once, in an order the
// seed draws, so every seed measures the same mix. The variants cost the
// same to within a few percent, so runs need not end on a multiple of
// eight.
//
// This is the event core used differently from summation_4096: observer
// hooks on, forced serial, and trace::CriticalPathTracker recording and then
// analysing. Traced operations replay ProbePlan from outside: a tracked
// execution, CriticalPathTracker::Analyze, and an untracked execution of the
// same plan and health, each timed on its own.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "network/network.h"
#include "plan/cost.h"
#include "plan/generator.h"
#include "plan/planner.h"
#include "plan/schedule.h"
#include "sim/event_observer.h"
#include "sim/simulator.h"
#include "topology/topology.h"
#include "trace/critical_path.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace tpu;

constexpr int kVariants = 8;
constexpr double kDegrade = 8.0;
// (x, y) of the degraded +Y link's source chip, and the payload in elements.
struct Variant {
  int x, y;
  std::int64_t elems;
};
constexpr Variant kVariantTable[kVariants] = {
    {3, 2, 4'194'304},   {17, 9, 8'388'608},  {29, 20, 16'777'216},
    {8, 30, 25'600'000}, {12, 14, 6'291'456}, {24, 5, 12'582'912},
    {0, 23, 20'971'520}, {31, 11, 2'097'152}};

std::string Key(int variant, const char* field) {
  return "critpath.v" + std::to_string(variant) + "." + field;
}

// Segments must tile [start, makespan] with no gap or overlap.
bool SegmentsTile(const trace::CriticalPathReport& path) {
  if (path.segments.empty()) return false;
  if (!(path.segments.front().start == path.start)) return false;
  for (std::size_t i = 1; i < path.segments.size(); ++i) {
    if (!(path.segments[i].start == path.segments[i - 1].end)) return false;
  }
  return path.segments.back().end == path.makespan;
}

class CritPath : public Workload {
 public:
  void Setup(const RunContext& ctx) override {
    stream_ = SeedStream(ctx.seed);
    order_.clear();
    topology_ = std::make_unique<topo::MeshTopology>(
        topo::TopologyConfig::Slice(32, 32, /*wrap_y=*/true));
    for (int variant = 0; variant < kVariants; ++variant) {
      const Variant& v = kVariantTable[variant];
      Case& c = cases_[variant];
      c.slow = topology_->LinkBetween(topology_->ChipAt({v.x, v.y}),
                                      topology_->ChipAt({v.x, v.y + 1}));
      c.health = plan::LinkHealthSet{};
      c.health.degraded.push_back({c.slow, kDegrade});
      c.elems = v.elems;
      plan::PlanRequest request;
      request.elems = v.elems;
      c.plan = plan::PaperPlan(request);
    }
  }

  OpResult Op(int index, const RunContext& ctx, Digest* digest) override {
    const int variant = VariantAt(index);
    const Case& c = cases_[variant];
    OpResult out;
    out.op_class = variant;
    trace::RunReport report;
    {
      ScopedSpan span(ctx.spans, "plan.ProbePlan", index);
      const Clock::time_point start = Clock::now();
      report = plan::ProbePlan(*topology_, config_, c.health, c.plan, c.elems);
      out.op_ms = SecondsSince(start) * 1e3;
    }
    const trace::CriticalPathReport& path = report.critical_path;
    digest->Add(static_cast<std::int64_t>(variant));
    digest->Add(report.step_seconds);
    digest->Add(path.makespan);
    digest->Add(static_cast<std::int64_t>(path.total_nodes));
    digest->Add(static_cast<std::int64_t>(path.top_link()));

    auto fail = [&](std::string why) {
      if (out.ok) {
        out.failure = "variant " + std::to_string(variant) + ": " + why;
      }
      out.ok = false;
    };
    if (path.top_link() != c.slow) fail("top_link() is not the degraded link");
    if (!SegmentsTile(path)) fail("segments do not tile [start, makespan]");
    {
      ScopedSpan span(ctx.spans, "plan.EvaluatePlanOnSimulator", index);
      const SimTime untracked = plan::EvaluatePlanOnSimulator(
          *topology_, config_, c.health, c.plan, c.elems);
      if (!(untracked == report.step_seconds)) {
        fail("step_seconds differs from an untracked evaluation");
      }
    }
    const double values[] = {report.step_seconds, path.makespan,
                             static_cast<double>(path.total_nodes)};
    const char* fields[] = {"step_s", "makespan_s", "nodes"};
    for (int i = 0; i < 3; ++i) {
      const std::string key = Key(variant, fields[i]);
      if (ctx.record != nullptr) {
        ctx.record->Put(key, values[i]);
      } else if (!(values[i] == ctx.reference->Get(key))) {
        fail("ProbePlan " + key + " differs from the reference");
      }
    }
    out.sim_events = EventsPerOp(variant);
    if (ctx.spans != nullptr && index >= 0) {
      Replay(index, variant, ctx, report, fail);
    }
    return out;
  }

  bool Finish(const RunContext& ctx, Metrics* per_layer,
              std::string* failure) override {
    (void)failure;
    if (ctx.spans == nullptr) return true;
    const ProbeResult probe = RunLayerProbes(ctx.spans);
    int ops = 0;
    ctx.spans->TotalMs("trace.tracked_execute", &ops);
    const double n = std::max(1, ops);
    const double untracked = ctx.spans->TotalMs("collectives.ExecutePlan");
    // Counts are exact per variant; report their mean over the variants.
    MeanCounts mean;
    for (int variant = 0; variant < kVariants; ++variant) {
      EventsPerOp(variant);
      const Counts& c = cases_[variant].counts;
      mean.events += c.events / kVariants;
      mean.events_scheduled += c.events_scheduled / kVariants;
      mean.peak_queue_depth += c.peak_queue_depth / kVariants;
      mean.pool_fresh_allocs += c.pool_fresh_allocs / kVariants;
      mean.messages += static_cast<double>(c.traffic.messages) / kVariants;
      mean.mesh_x += static_cast<double>(c.traffic.mesh_x_bytes) / kVariants;
      mean.cross_pod_x +=
          static_cast<double>(c.traffic.cross_pod_x_bytes) / kVariants;
      mean.mesh_y += static_cast<double>(c.traffic.mesh_y_bytes) / kVariants;
      mean.wrap_y += static_cast<double>(c.traffic.wrap_y_bytes) / kVariants;
    }
    SetLayerDefaults(per_layer);
    per_layer->Set("sim.events", mean.events, "count");
    per_layer->Set("sim.events_scheduled", mean.events_scheduled, "count");
    per_layer->Set("sim.peak_queue_depth", mean.peak_queue_depth, "count");
    per_layer->Set("sim.pool_fresh_allocs", mean.pool_fresh_allocs, "count");
    per_layer->Set("sim.probe_ns_per_event", probe.ns_per_event, "ns");
    per_layer->Set("network.messages", mean.messages, "count");
    per_layer->Set("network.bytes_mesh_x", mean.mesh_x, "bytes");
    per_layer->Set("network.bytes_cross_pod_x", mean.cross_pod_x, "bytes");
    per_layer->Set("network.bytes_mesh_y", mean.mesh_y, "bytes");
    per_layer->Set("network.bytes_wrap_y", mean.wrap_y, "bytes");
    per_layer->Set("network.probe_ns_per_send", probe.ns_per_send, "ns");
    const double call_ms = untracked / n;
    per_layer->Set("collectives.call_ms", call_ms, "ms");
    per_layer->Set("collectives.self_ms_est",
                   call_ms - mean.events * probe.ns_per_event * 1e-6 -
                       mean.messages * probe.ns_per_send * 1e-6,
                   "ms");
    per_layer->Set("plan.closed_form_ms",
                   ctx.spans->TotalMs("plan.LowerAndEstimate") / n, "ms");
    per_layer->Set("plan.des_tier_ms",
                   ctx.spans->TotalMs("plan.EvaluatePlanOnSimulator") / n,
                   "ms");
    per_layer->Set("plan.estimate_rel_err_p50", Median(rel_errors_), "ratio");
    per_layer->Set("plan.estimate_rel_err_max",
                   rel_errors_.empty() ? 0
                                       : *std::max_element(rel_errors_.begin(),
                                                           rel_errors_.end()),
                   "ratio");
    SetTraceLayer(*ctx.spans, per_layer);
    return true;
  }

  // The trace.* metrics of the traced operations in `spans`.
  void SetTraceLayer(const SpanLog& spans, Metrics* per_layer) const {
    int ops = 0;
    const double tracked = spans.TotalMs("trace.tracked_execute", &ops);
    const double n = std::max(1, ops);
    const double untracked = spans.TotalMs("collectives.ExecutePlan");
    const double analyze = spans.TotalMs("trace.Analyze");
    per_layer->Set("trace.record_overhead_ms", (tracked - untracked) / n,
                   "ms");
    per_layer->Set("trace.analyze_ms", analyze / n, "ms");
    per_layer->Set("trace.nodes", nodes_, "count");
    per_layer->Set("trace.analyze_ns_per_node",
                   nodes_ > 0 ? analyze / n * 1e6 / nodes_ : 0, "ns");
  }

 private:
  struct Counts {
    double events = 0, events_scheduled = 0, peak_queue_depth = 0;
    double pool_fresh_allocs = 0;
    net::TrafficStats traffic;
  };
  struct MeanCounts {
    double events = 0, events_scheduled = 0, peak_queue_depth = 0;
    double pool_fresh_allocs = 0, messages = 0;
    double mesh_x = 0, cross_pod_x = 0, mesh_y = 0, wrap_y = 0;
  };
  struct Case {
    topo::LinkId slow = -1;
    plan::LinkHealthSet health;
    std::int64_t elems = 0;
    plan::CollectivePlan plan;
    Counts counts;
  };

  // Each block of eight operations runs every variant once, in an order
  // drawn from the seed; the warm-up runs variant 0.
  int VariantAt(int index) {
    if (index < 0) return 0;
    while (index >= static_cast<int>(order_.size())) {
      int round[kVariants];
      for (int v = 0; v < kVariants; ++v) round[v] = v;
      for (int i = kVariants - 1; i > 0; --i) {
        std::swap(round[i], round[stream_.Below(i + 1)]);
      }
      order_.insert(order_.end(), round, round + kVariants);
    }
    return order_[index];
  }

  // Events of one execution: deterministic per variant, counted once on an
  // untracked execution outside any timed call.
  double EventsPerOp(int variant) {
    Case& c = cases_[variant];
    if (c.counts.events == 0) {
      sim::Simulator simulator;
      net::Network network(topology_.get(), config_, &simulator);
      c.health.ApplyTo(network);
      plan::ExecutePlan(network, c.plan, c.elems);
      c.counts.events = static_cast<double>(simulator.events_processed());
      c.counts.events_scheduled =
          static_cast<double>(simulator.events_scheduled());
      c.counts.peak_queue_depth =
          static_cast<double>(simulator.peak_queue_depth());
      c.counts.pool_fresh_allocs =
          static_cast<double>(simulator.pool_fresh_allocs());
      c.counts.traffic = network.traffic();
    }
    return c.counts.events;
  }

  template <typename Fail>
  void Replay(int index, int variant, const RunContext& ctx,
              const trace::RunReport& report, Fail& fail) {
    const Case& c = cases_[variant];
    SpanLog* spans = ctx.spans;
    trace::CriticalPathReport path;
    {
      trace::CriticalPathTracker tracker;
      sim::ScopedEventObserver observe(&tracker);
      sim::Simulator simulator;
      net::Network network(topology_.get(), config_, &simulator);
      c.health.ApplyTo(network);
      {
        ScopedSpan span(spans, "trace.tracked_execute", index);
        plan::ExecutePlan(network, c.plan, c.elems);
      }
      nodes_ = static_cast<double>(tracker.node_count());
      ScopedSpan span(spans, "trace.Analyze", index);
      path = tracker.Analyze();
    }
    if (!(path.makespan == report.critical_path.makespan) ||
        path.top_link() != report.critical_path.top_link()) {
      fail("replayed critical path differs from ProbePlan's");
    }
    {
      sim::Simulator simulator;
      net::Network network(topology_.get(), config_, &simulator);
      c.health.ApplyTo(network);
      ScopedSpan span(spans, "collectives.ExecutePlan", index);
      plan::ExecutePlan(network, c.plan, c.elems);
    }
    SimTime estimate = 0;
    {
      ScopedSpan span(spans, "plan.LowerAndEstimate", index);
      estimate = plan::EstimatePlanSeconds(
          *topology_, config_, c.health,
          plan::LowerPlan(*topology_, c.plan, c.elems));
    }
    rel_errors_.push_back(std::abs(estimate - report.step_seconds) /
                          report.step_seconds);
  }

  SeedStream stream_{0};
  std::vector<int> order_;
  net::NetworkConfig config_;
  std::unique_ptr<topo::MeshTopology> topology_;
  Case cases_[kVariants];
  double nodes_ = 0;
  std::vector<double> rel_errors_;
};

}  // namespace

std::unique_ptr<Workload> MakeCritPath() { return std::make_unique<CritPath>(); }

bool RunCritPathProbe(const RunContext& ctx, Metrics* per_layer,
                      std::string* failure) {
  constexpr int kProbeOps = 2;
  SpanLog spans(Clock::now());
  RunContext probe = ctx;
  probe.spans = &spans;
  CritPath workload;
  workload.Setup(probe);
  for (int index = 0; index < kProbeOps; ++index) {
    Digest unused;
    const OpResult result = workload.Op(index, probe, &unused);
    if (!result.ok) {
      *failure = "critical-path probe: " + result.failure;
      return false;
    }
  }
  workload.SetTraceLayer(spans, per_layer);
  return true;
}

bool RecordCritPathReference(Reference* reference) {
  RunContext ctx;
  ctx.record = reference;
  CritPath workload;
  workload.Setup(ctx);
  // The first eight operations probe every variant once.
  for (int index = 0; index < kVariants; ++index) {
    Digest digest;
    const OpResult result = workload.Op(index, ctx, &digest);
    if (!result.ok) {
      std::fprintf(stderr, "critpath: %s\n", result.failure.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
