// plan_search: a seeded stream of plan::FindBestPlan requests sharing one
// PlanCache, search_threads = 1.
//
// A cycle is 48 requests: 36 fresh keys and, at every fourth position, a
// repeat of an earlier key of the cycle (a recurring mid-training replan,
// served from the cache). The fresh keys are the same in every cycle: each
// of the 6 slice shapes (8x8 to 64x32) x max_chunks {1, 4} x {0, 1, 2}
// degraded links once, with the six payloads (1M to 32M elements) and the
// link health rotated over the slots by a fixed table. The seed orders the
// requests and picks which earlier keys repeat. Search cost depends
// strongly on which plans reach the DES tier, which the payload and the
// link health decide; fixing the mix keeps every seed's load alike. The
// cache is cleared at every cycle start, so every cycle does the same work
// and a run's mix does not depend on how many cycles fit in it.
//
// After each search, outside the timed call, the benchmark replays the
// two-tier search from outside (GeneratePlans -> LowerPlan +
// EstimatePlanSeconds -> top-k discrete-event pricing) to count the events
// the DES tier processed and to check the replay picks FindBestPlan's winner.
// Untraced runs replay each slot's first search only; later cycles check
// the winner against one fresh EvaluatePlanOnSimulator.
#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "network/network.h"
#include "plan/cost.h"
#include "plan/generator.h"
#include "plan/planner.h"
#include "plan/schedule.h"
#include "sim/simulator.h"
#include "topology/topology.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace tpu;

struct Shape {
  int x, y, pods;
};
constexpr Shape kShapes[] = {{8, 8, 1},   {16, 8, 1},  {16, 16, 1},
                             {32, 16, 1}, {32, 32, 1}, {64, 32, 2}};
constexpr int kNumShapes = 6;
constexpr int kChunkChoices[] = {1, 4};
constexpr int kMinExp = 20, kNumExps = 6;  // 1M .. 32M elements
// Health variants: 0 healthy; 1-4 one link (Y or X) at factor 2 or 8;
// 5-8 both links at factors {2, 8} x {2, 8}.
constexpr int kNumHealth = 9;
constexpr double kFactors[] = {2.0, 8.0};
constexpr int kFreshPerCycle = kNumShapes * 2 * 3;
constexpr int kOpsPerCycle = kFreshPerCycle * 4 / 3;  // every 4th repeats

topo::TopologyConfig ConfigFor(const Shape& shape) {
  return shape.pods > 1 ? topo::TopologyConfig::Multipod(shape.pods)
                        : topo::TopologyConfig::Slice(shape.x, shape.y, true);
}

// The two links a variant may degrade: an interior +Y link and an interior
// +X link.
std::pair<topo::LinkId, topo::LinkId> CandidateLinks(
    const topo::MeshTopology& topo) {
  const int x = topo.size_x(), y = topo.size_y();
  return {topo.LinkBetween(topo.ChipAt({x / 2, y / 2 - 1}),
                           topo.ChipAt({x / 2, y / 2})),
          topo.LinkBetween(topo.ChipAt({x / 4, y / 4}),
                           topo.ChipAt({x / 4 + 1, y / 4}))};
}

plan::LinkHealthSet HealthFor(const topo::MeshTopology& topo, int variant) {
  const auto [y_link, x_link] = CandidateLinks(topo);
  plan::LinkHealthSet health;
  if (variant >= 1 && variant <= 4) {
    const topo::LinkId link = (variant - 1) / 2 == 0 ? y_link : x_link;
    health.degraded.push_back({link, kFactors[(variant - 1) % 2]});
  } else if (variant >= 5) {
    health.degraded.push_back({y_link, kFactors[(variant - 5) / 2]});
    health.degraded.push_back({x_link, kFactors[(variant - 5) % 2]});
  }
  std::sort(health.degraded.begin(), health.degraded.end());
  return health;
}

struct Request {
  int shape = 0;
  int chunks_index = 0;
  int exp = kMinExp;
  int health = 0;
  int repeat_of = -1;  // index of the earlier request this one repeats

  std::string Key() const {
    return "plan.s" + std::to_string(shape) + ".c" +
           std::to_string(kChunkChoices[chunks_index]) + ".e" +
           std::to_string(exp) + ".h" +
           std::to_string(health) + ".winner_s";
  }
  // The request's slot in its cycle; cycles repeat the same slots.
  int Slot() const {
    const int degraded = health == 0 ? 0 : health <= 4 ? 1 : 2;
    return (shape * 2 + chunks_index) * 3 + degraded;
  }
  plan::PlanRequest ToPlanRequest() const {
    plan::PlanRequest request;
    request.elems = std::int64_t{1} << exp;
    request.max_chunks = kChunkChoices[chunks_index];
    request.search_threads = 1;
    return request;
  }
};

// The fresh requests of one cycle. Slot i = chunks_index * 3 + degraded
// links; payloads and health variants rotate with the shape so that each
// shape sees all six payloads and each (shape, max_chunks) pair 0, 1 and 2
// degraded links.
std::vector<Request> CycleRequests() {
  std::vector<Request> requests;
  for (int s = 0; s < kNumShapes; ++s) {
    for (int c = 0; c < 2; ++c) {
      for (int degraded = 0; degraded < 3; ++degraded) {
        Request q;
        q.shape = s;
        q.chunks_index = c;
        q.exp = kMinExp + (c * 3 + degraded + s) % kNumExps;
        q.health = degraded == 0   ? 0
                   : degraded == 1 ? 1 + (s + c) % 4
                                   : 5 + (s + 2 * c) % 4;
        requests.push_back(q);
      }
    }
  }
  return requests;
}

// The warm-up request: a fixed healthy 32x32 search.
Request WarmUpRequest() {
  Request warm;
  warm.shape = 4;
  warm.exp = 22;
  return warm;
}

std::string Family(const plan::CollectivePlan& plan) {
  const std::string name = plan.name();
  return name.substr(0, name.find(' '));
}

class PlanSearch : public Workload {
 public:
  void Setup(const RunContext& ctx) override {
    stream_ = SeedStream(ctx.seed);
    requests_.clear();
    results_.clear();
    cache_.Clear();
    topologies_.clear();
    for (const Shape& shape : kShapes) {
      topologies_.push_back(
          std::make_unique<topo::MeshTopology>(ConfigFor(shape)));
    }
    for (int s = 0; s < kNumShapes; ++s) {
      for (int h = 0; h < kNumHealth; ++h) {
        health_[s][h] = HealthFor(*topologies_[s], h);
      }
    }
    AppendCycle();
  }

  OpResult WarmUp(const RunContext& ctx) override {
    const Request warm = WarmUpRequest();
    plan::PlanCache scratch;
    OpResult out;
    const Clock::time_point start = Clock::now();
    const plan::PlannerResult result = plan::FindBestPlan(
        *topologies_[warm.shape], config_, warm.ToPlanRequest(),
        health_[warm.shape][0], &scratch);
    out.op_ms = SecondsSince(start) * 1e3;
    if (ctx.record == nullptr &&
        !(result.predicted_seconds == ctx.reference->Get(warm.Key()))) {
      out.ok = false;
      out.failure = "warm-up winner differs from the reference";
    }
    return out;
  }

  int ops_per_round() const override { return kOpsPerCycle; }

  OpResult Op(int index, const RunContext& ctx, Digest* digest) override {
    while (index >= static_cast<int>(requests_.size())) AppendCycle();
    if (index >= 0 && index % kOpsPerCycle == 0) StartCycle();
    const Request& q = requests_[index];
    const topo::MeshTopology& topo = *topologies_[q.shape];
    const plan::LinkHealthSet& health = health_[q.shape][q.health];
    const plan::PlanRequest request = q.ToPlanRequest();

    OpResult out;
    // Cache hits form one class of their own.
    out.op_class = q.repeat_of >= 0 ? kFreshPerCycle : q.Slot();
    plan::PlannerResult result;
    {
      ScopedSpan span(ctx.spans, "plan.FindBestPlan", index);
      const Clock::time_point start = Clock::now();
      result = plan::FindBestPlan(topo, config_, request, health, &cache_);
      out.op_ms = SecondsSince(start) * 1e3;
    }
    digest->Add(result.plan.name());
    digest->Add(result.predicted_seconds);
    digest->Add(static_cast<std::int64_t>(result.from_cache));

    const std::function<void(std::string)> fail = [&](std::string why) {
      if (out.ok) out.failure = std::move(why) + " (" + q.Key() + ")";
      out.ok = false;
    };
    const auto seen = results_.find(q.Key());
    if (q.repeat_of >= 0 && !result.from_cache) {
      fail("repeated key missed the cache");
    }
    if (result.from_cache) {
      if (seen == results_.end() || !(seen->second.plan == result.plan) ||
          !(seen->second.predicted_seconds == result.predicted_seconds)) {
        fail("cache hit returned a different plan");
      }
      return out;
    }
    results_[q.Key()] = result;
    if (ctx.record == nullptr &&
        !(result.predicted_seconds <= ctx.reference->Get(q.Key()))) {
      fail("winner slower than the reference winner");
    }
    const int slot = q.Slot();
    if (ctx.spans == nullptr && slot_events_[slot] >= 0) {
      // An untraced search this run has already replayed: the same request
      // processes the same DES-tier events, so only the winner is checked,
      // against one fresh evaluation.
      if (!(plan::EvaluatePlanOnSimulator(topo, config_, health, result.plan,
                                          request.elems) ==
            result.predicted_seconds)) {
        fail("predicted_seconds differs from a fresh evaluation of the winner");
      }
      out.sim_events = slot_events_[slot];
      return out;
    }
    out.sim_events = Replay(index, topo, health, request, result, ctx, fail);
    slot_events_[slot] = out.sim_events;
    return out;
  }

  bool Finish(const RunContext& ctx, Metrics* per_layer,
              std::string* failure) override {
    if (ctx.spans == nullptr) return true;
    const ProbeResult probe = RunLayerProbes(ctx.spans);
    const double searched = std::max(1, traced_searched_);
    SetLayerDefaults(per_layer);
    per_layer->Set("sim.events", events_ / searched, "count");
    per_layer->Set("sim.events_scheduled", events_scheduled_ / searched,
                   "count");
    per_layer->Set("sim.peak_queue_depth", peak_queue_depth_, "count");
    per_layer->Set("sim.pool_fresh_allocs", pool_fresh_allocs_ / searched,
                   "count");
    per_layer->Set("sim.probe_ns_per_event", probe.ns_per_event, "ns");
    per_layer->Set("network.messages",
                   static_cast<double>(traffic_.messages) / searched, "count");
    per_layer->Set("network.bytes_mesh_x",
                   static_cast<double>(traffic_.mesh_x_bytes) / searched,
                   "bytes");
    per_layer->Set("network.bytes_cross_pod_x",
                   static_cast<double>(traffic_.cross_pod_x_bytes) / searched,
                   "bytes");
    per_layer->Set("network.bytes_mesh_y",
                   static_cast<double>(traffic_.mesh_y_bytes) / searched,
                   "bytes");
    per_layer->Set("network.bytes_wrap_y",
                   static_cast<double>(traffic_.wrap_y_bytes) / searched,
                   "bytes");
    per_layer->Set("network.probe_ns_per_send", probe.ns_per_send, "ns");
    const double call_ms =
        ctx.spans->TotalMs("collectives.ExecutePlan") / searched;
    per_layer->Set("collectives.call_ms", call_ms, "ms");
    per_layer->Set(
        "collectives.self_ms_est",
        call_ms - (events_ / searched) * probe.ns_per_event * 1e-6 -
            (static_cast<double>(traffic_.messages) / searched) *
                probe.ns_per_send * 1e-6,
        "ms");
    const double closed_form = ctx.spans->TotalMs("plan.GeneratePlans") +
                               ctx.spans->TotalMs("plan.LowerAndEstimate");
    const double des = ctx.spans->TotalMs("plan.EvaluatePlanOnSimulator");
    per_layer->Set("plan.closed_form_ms", closed_form / searched, "ms");
    per_layer->Set("plan.des_tier_ms", des / searched, "ms");
    per_layer->Set("plan.candidates", candidates_ / searched, "count");
    per_layer->Set("plan.evaluated", evaluated_ / searched, "count");
    StartCycle();
    per_layer->Set("plan.cache_hit_ratio",
                   cache_lookups_ > 0 ? cache_hits_ / cache_lookups_ : 0,
                   "ratio");
    std::vector<double> all_errors;
    for (const auto& [family, errors] : rel_errors_) {
      all_errors.insert(all_errors.end(), errors.begin(), errors.end());
      char line[256];
      std::snprintf(line, sizeof line,
                    "closed-form vs DES |relative error| for %s: p50 %.3f, "
                    "max %.3f over %zu priced plans",
                    family.c_str(), Median(errors),
                    *std::max_element(errors.begin(), errors.end()),
                    errors.size());
      notes_.push_back(line);
    }
    per_layer->Set("plan.estimate_rel_err_p50", Median(all_errors), "ratio");
    per_layer->Set("plan.estimate_rel_err_max",
                   all_errors.empty() ? 0
                                      : *std::max_element(all_errors.begin(),
                                                          all_errors.end()),
                   "ratio");
    per_layer->Set("plan.top1_agree_ratio", top1_agree_ / searched, "ratio");
    const double match = replay_matched_ / searched;
    per_layer->Set("plan.replay_match_ratio", match, "ratio");
    char line[256];
    std::snprintf(line, sizeof line,
                  "planner replay picked FindBestPlan's winner on %d of %d "
                  "searched requests%s",
                  static_cast<int>(replay_matched_), traced_searched_,
                  match == 1.0 ? "" : ": plan.* timings are INVALID");
    notes_.push_back(line);
    if (match != 1.0) {
      *failure = "planner replay disagreed with FindBestPlan";
      return false;
    }
    return true;
  }

  std::vector<std::string> Notes() const override { return notes_; }

 private:
  // Empties the cache (and the results cache hits are checked against),
  // keeping its hit and miss counts.
  void StartCycle() {
    cache_hits_ += static_cast<double>(cache_.hits());
    cache_lookups_ += static_cast<double>(cache_.hits() + cache_.misses());
    cache_.Clear();
    results_.clear();
  }

  void AppendCycle() {
    const int first = static_cast<int>(requests_.size());
    std::vector<Request> fresh = CycleRequests();
    Shuffle(fresh.data(), static_cast<int>(fresh.size()));
    std::size_t next = 0;
    for (int i = 0; i < kOpsPerCycle; ++i) {
      if (i % 4 != 3) {
        requests_.push_back(fresh[next++]);
        continue;
      }
      std::vector<int> earlier;
      for (int j = first; j < static_cast<int>(requests_.size()); ++j) {
        if (requests_[j].repeat_of < 0) earlier.push_back(j);
      }
      const int source =
          earlier[stream_.Below(static_cast<int>(earlier.size()))];
      Request q = requests_[source];
      q.repeat_of = source;
      requests_.push_back(q);
    }
  }

  template <typename T>
  void Shuffle(T* items, int n) {
    for (int i = n - 1; i > 0; --i) std::swap(items[i], items[stream_.Below(i + 1)]);
  }

  // The search replayed from outside. Returns the DES-tier event count.
  double Replay(int index, const topo::MeshTopology& topo,
                const plan::LinkHealthSet& health,
                const plan::PlanRequest& request,
                const plan::PlannerResult& result, const RunContext& ctx,
                const std::function<void(std::string)>& fail) {
    SpanLog* spans = ctx.spans;
    std::vector<plan::CollectivePlan> candidates;
    {
      ScopedSpan span(spans, "plan.GeneratePlans", index);
      candidates = plan::GeneratePlans(topo, request);
    }
    struct Scored {
      SimTime estimate;
      std::string name;
      const plan::CollectivePlan* plan;
    };
    std::vector<Scored> scored;
    {
      ScopedSpan span(spans, "plan.LowerAndEstimate", index);
      for (const plan::CollectivePlan& plan : candidates) {
        scored.push_back(
            {plan::EstimatePlanSeconds(
                 topo, config_, health,
                 plan::LowerPlan(topo, plan, request.elems)),
             plan.name(), &plan});
      }
    }
    std::sort(scored.begin(), scored.end(),
              [](const Scored& a, const Scored& b) {
                return a.estimate != b.estimate ? a.estimate < b.estimate
                                                : a.name < b.name;
              });
    const int top_k = std::min<int>(std::max(request.des_top_k, 1),
                                    static_cast<int>(scored.size()));
    std::vector<SimTime> seconds(top_k);
    if (spans != nullptr) {
      for (int i = 0; i < top_k; ++i) {
        ScopedSpan span(spans, "plan.EvaluatePlanOnSimulator", index);
        seconds[i] = plan::EvaluatePlanOnSimulator(topo, config_, health,
                                                   *scored[i].plan,
                                                   request.elems);
      }
    }
    // The same executions on the benchmark's own simulators, for counts.
    double events = 0;
    for (int i = 0; i < top_k; ++i) {
      sim::Simulator simulator;
      net::Network network(&topo, config_, &simulator);
      health.ApplyTo(network);
      SimTime own = 0;
      {
        ScopedSpan span(spans, "collectives.ExecutePlan", index);
        own = plan::ExecutePlan(network, *scored[i].plan, request.elems)
                  .total();
      }
      events += static_cast<double>(simulator.events_processed());
      if (spans == nullptr) {
        seconds[i] = own;
      } else {
        if (!(own == seconds[i])) {
          fail("own execution differs from EvaluatePlanOnSimulator");
        }
        events_ += static_cast<double>(simulator.events_processed());
        events_scheduled_ += static_cast<double>(simulator.events_scheduled());
        peak_queue_depth_ =
            std::max(peak_queue_depth_,
                     static_cast<double>(simulator.peak_queue_depth()));
        pool_fresh_allocs_ +=
            static_cast<double>(simulator.pool_fresh_allocs());
        const net::TrafficStats traffic = network.traffic();
        traffic_.messages += traffic.messages;
        traffic_.mesh_x_bytes += traffic.mesh_x_bytes;
        traffic_.cross_pod_x_bytes += traffic.cross_pod_x_bytes;
        traffic_.mesh_y_bytes += traffic.mesh_y_bytes;
        traffic_.wrap_y_bytes += traffic.wrap_y_bytes;
      }
    }
    int best = 0;
    for (int i = 1; i < top_k; ++i) {
      if (seconds[i] < seconds[best] ||
          (seconds[i] == seconds[best] && scored[i].name < scored[best].name)) {
        best = i;
      }
    }
    // The replay's DES time of the winner is a fresh evaluation of it:
    // EvaluatePlanOnSimulator in traced runs, the same calls on the
    // benchmark's own simulator otherwise.
    const bool same_plan = *scored[best].plan == result.plan;
    const bool matched =
        same_plan && seconds[best] == result.predicted_seconds;
    if (!same_plan) fail("replayed search picked a different winner");
    if (same_plan && !matched) {
      fail("predicted_seconds differs from a fresh evaluation of the winner");
    }
    if (spans != nullptr) {
      ++traced_searched_;
      replay_matched_ += matched ? 1 : 0;
      top1_agree_ += best == 0 ? 1 : 0;
      candidates_ += static_cast<double>(candidates.size());
      evaluated_ += top_k;
      for (int i = 0; i < top_k; ++i) {
        rel_errors_[Family(*scored[i].plan)].push_back(
            std::abs(scored[i].estimate - seconds[i]) / seconds[i]);
      }
    }
    return events;
  }

  SeedStream stream_{0};
  net::NetworkConfig config_;
  std::vector<std::unique_ptr<topo::MeshTopology>> topologies_;
  plan::LinkHealthSet health_[kNumShapes][kNumHealth];
  std::vector<Request> requests_;
  std::map<std::string, plan::PlannerResult> results_;
  plan::PlanCache cache_;
  double cache_hits_ = 0, cache_lookups_ = 0;
  // DES-tier events of each slot's search, once replayed (-1 before).
  std::vector<double> slot_events_ = std::vector<double>(kFreshPerCycle, -1);

  // Traced-run accumulators.
  int traced_searched_ = 0;
  double replay_matched_ = 0, top1_agree_ = 0;
  double candidates_ = 0, evaluated_ = 0;
  double events_ = 0, events_scheduled_ = 0, peak_queue_depth_ = 0;
  double pool_fresh_allocs_ = 0;
  net::TrafficStats traffic_;
  std::map<std::string, std::vector<double>> rel_errors_;
  std::vector<std::string> notes_;
};

}  // namespace

std::unique_ptr<Workload> MakePlanSearch() {
  return std::make_unique<PlanSearch>();
}

bool RecordPlanSearchReference(Reference* reference) {
  std::vector<Request> all = {WarmUpRequest()};
  for (const Request& q : CycleRequests()) all.push_back(q);
  std::vector<SimTime> winners(all.size());
  const int threads = std::max(
      1, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = t; i < all.size(); i += threads) {
        const Request& q = all[i];
        const topo::MeshTopology topo(ConfigFor(kShapes[q.shape]));
        winners[i] = plan::FindBestPlan(topo, net::NetworkConfig{},
                                        q.ToPlanRequest(),
                                        HealthFor(topo, q.health))
                         .predicted_seconds;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (std::size_t i = 0; i < all.size(); ++i) {
    reference->Put(all[i].Key(), winners[i]);
  }
  return true;
}

}  // namespace perfbench
