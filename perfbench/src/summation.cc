// summation_4096: MultipodSystem::SimulateStep for ResNet-50 on the paper's
// 128x32 multipod (4 pods, 4096 chips) with default options, except a PDES
// worker-thread request of min(4, nproc). The seed picks one of eight
// gradient payloads around ResNet-50's 25.6M parameters.
//
// Traced operations replay the step's gradient summation by calling
// coll::TwoDGradientSummation on the benchmark's own network with the same
// configuration SimulateStep builds, which times the collective layer from
// outside. Exact simulator and network counts come from one serial replay
// per run.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "collectives/all_reduce.h"
#include "core/multipod.h"
#include "models/model_specs.h"
#include "network/network.h"
#include "optim/optimizer.h"
#include "optim/weight_update_sharding.h"
#include "sim/partitioned_simulator.h"
#include "sim/simulator.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace tpu;

constexpr int kChips = 4096;
constexpr std::int64_t kGlobalBatch = 65536;  // ResNet-50's 4096-chip batch
constexpr int kVariants = 8;

std::int64_t PayloadFor(int variant) {
  return models::GetModelSpec(models::Benchmark::kResNet50).parameters +
         (variant - kVariants / 2) * std::int64_t{524'288};
}

std::string Key(int variant, const char* field) {
  return "summation.v" + std::to_string(variant) + "." + field;
}

// Replays the collective SimulateStep runs for a data-parallel step.
struct Replay {
  coll::GradientSummationResult result;
  std::uint64_t events = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t peak_queue_depth = 0;
  std::uint64_t pool_fresh_allocs = 0;
  net::TrafficStats traffic;
  sim::PdesStats pdes;
};

Replay RunReplay(const topo::MeshTopology& topology,
                 const core::SystemOptions& options, std::int64_t elems,
                 const sim::PdesConfig& pdes, SpanLog* spans, int op) {
  static const std::unique_ptr<optim::Optimizer> sgd =
      optim::MakeMomentumSgd({});
  Replay replay;
  sim::Simulator simulator;
  net::Network network(&topology, options.network, &simulator);
  sim::PdesConfig config = pdes;
  config.stats = &replay.pdes;
  sim::ScopedPdesConfig pdes_scope(config);
  coll::GradientSummationConfig summation;
  summation.elems = elems;
  summation.model_parallel_stride = 1;
  summation.collective.bidirectional = options.bidirectional_rings;
  summation.collective.bfloat16_wire = options.bfloat16_gradients;
  summation.shard_update_seconds = [&](std::int64_t owned) {
    return optim::WeightUpdateSeconds(*sgd, owned,
                                      options.core.peak_vector_flops,
                                      options.core.hbm_bandwidth);
  };
  {
    ScopedSpan span(spans, "collectives.TwoDGradientSummation", op);
    replay.result = coll::TwoDGradientSummation(network, summation);
  }
  replay.events = replay.pdes.engaged ? replay.pdes.events_processed
                                      : simulator.events_processed();
  replay.events_scheduled = replay.pdes.engaged
                                ? replay.pdes.events_scheduled
                                : simulator.events_scheduled();
  replay.peak_queue_depth = simulator.peak_queue_depth();
  replay.pool_fresh_allocs = simulator.pool_fresh_allocs();
  replay.traffic = network.traffic();
  return replay;
}

class Summation : public Workload {
 public:
  void Setup(const RunContext& ctx) override {
    variant_ = static_cast<int>(SeedStream(ctx.seed).Next() % kVariants);
    options_ = core::SystemOptions{};
    options_.pdes.enable = true;
    options_.pdes.threads = ctx.threads;
    options_.pdes.stats = &stats_;
    system_ = std::make_unique<core::MultipodSystem>(kChips, options_);
    spec_ = models::GetModelSpec(models::Benchmark::kResNet50);
    spec_.parameters = PayloadFor(variant_);
  }

  bool Finish(const RunContext& ctx, Metrics* per_layer,
              std::string* failure) override {
    // One serial replay gives the exact per-step counts and checks them.
    const Clock::time_point start = Clock::now();
    const Replay replay = RunReplay(system_->topology(), options_,
                                    spec_.parameters, sim::PdesConfig{},
                                    nullptr, -1);
    const double serial_ms = SecondsSince(start) * 1e3;
    const double values[] = {
        static_cast<double>(replay.events),
        static_cast<double>(replay.traffic.mesh_x_bytes),
        static_cast<double>(replay.traffic.cross_pod_x_bytes),
        static_cast<double>(replay.traffic.mesh_y_bytes),
        static_cast<double>(replay.traffic.wrap_y_bytes),
        static_cast<double>(replay.traffic.messages),
        replay.result.reduce_seconds + replay.result.broadcast_seconds};
    const char* fields[] = {"events",       "bytes_mesh_x", "bytes_cross_pod_x",
                            "bytes_mesh_y", "bytes_wrap_y", "messages",
                            "allreduce_s"};
    bool ok = true;
    for (int i = 0; i < 7; ++i) {
      const std::string key = Key(variant_, fields[i]);
      if (ctx.record != nullptr) {
        ctx.record->Put(key, values[i]);
      } else if (!(values[i] == ctx.reference->Get(key)) && ok) {
        ok = false;
        *failure = "serial replay " + key + " differs from the reference";
      }
    }
    if (ctx.spans == nullptr) return ok;

    // Per-layer metrics of the traced operations.
    int steps = 0, calls = 0;
    const double step_ms = ctx.spans->TotalMs("core.SimulateStep", &steps);
    const double call_ms =
        ctx.spans->TotalMs("collectives.TwoDGradientSummation", &calls);
    const ProbeResult probe = RunLayerProbes(ctx.spans);
    SetLayerDefaults(per_layer);
    per_layer->Set("sim.events", static_cast<double>(replay.events), "count");
    per_layer->Set("sim.events_scheduled",
                   static_cast<double>(replay.events_scheduled), "count");
    per_layer->Set("sim.peak_queue_depth",
                   static_cast<double>(replay.peak_queue_depth), "count");
    per_layer->Set("sim.pool_fresh_allocs",
                   static_cast<double>(replay.pool_fresh_allocs), "count");
    per_layer->Set("sim.probe_ns_per_event", probe.ns_per_event, "ns");
    per_layer->Set("sim.parallel_event_share", parallel_share_, "ratio");
    per_layer->Set("sim.pdes_windows", pdes_windows_, "count");
    per_layer->Set("network.messages",
                   static_cast<double>(replay.traffic.messages), "count");
    per_layer->Set("network.bytes_mesh_x",
                   static_cast<double>(replay.traffic.mesh_x_bytes), "bytes");
    per_layer->Set("network.bytes_cross_pod_x",
                   static_cast<double>(replay.traffic.cross_pod_x_bytes),
                   "bytes");
    per_layer->Set("network.bytes_mesh_y",
                   static_cast<double>(replay.traffic.mesh_y_bytes), "bytes");
    per_layer->Set("network.bytes_wrap_y",
                   static_cast<double>(replay.traffic.wrap_y_bytes), "bytes");
    per_layer->Set("network.probe_ns_per_send", probe.ns_per_send, "ns");
    const double call = calls > 0 ? call_ms / calls : 0;
    const double event_ms =
        static_cast<double>(replay.events) * probe.ns_per_event * 1e-6;
    const double send_ms = static_cast<double>(replay.traffic.messages) *
                           probe.ns_per_send * 1e-6;
    per_layer->Set("collectives.call_ms", call, "ms");
    per_layer->Set("collectives.self_ms_est", call - event_ms - send_ms, "ms");
    per_layer->Set("core.step_ms", steps > 0 ? step_ms / steps : 0, "ms");

    // SimulateStep reaches the trace layer only through its disabled
    // observer hooks, so a critical-path probe measures that layer here.
    std::string probe_failure;
    if (!RunCritPathProbe(ctx, per_layer, &probe_failure) && ok) {
      ok = false;
      *failure = probe_failure;
    }
    notes_.push_back(
        "trace.* are measured by a probe: two critpath_1024 operations "
        "(ProbePlan on a 32x32 pod, one +Y link degraded 8x) after the "
        "measured loop");

    // The probe split of one serial collective, next to the gprof split
    // ROADMAP records for the serial 4096-chip summation.
    char line[512];
    std::snprintf(
        line, sizeof line,
        "probe split of one serial collective (%.1f ms): event core %.0f%%, "
        "Network::Send+RouteFor %.0f%%, remainder (ring-step logic and the "
        "rest) %.0f%%; gprof split in ROADMAP: ~50%% / ~29%% / ~11%%",
        serial_ms, 100 * event_ms / serial_ms, 100 * send_ms / serial_ms,
        100 * (serial_ms - event_ms - send_ms) / serial_ms);
    notes_.push_back(line);
    return ok;
  }

  OpResult Op(int index, const RunContext& ctx, Digest* digest) override {
    OpResult out;
    stats_ = sim::PdesStats{};
    core::StepBreakdown step;
    {
      ScopedSpan span(ctx.spans, "core.SimulateStep", index);
      const Clock::time_point start = Clock::now();
      step = system_->SimulateStep(spec_, kGlobalBatch, 1);
      out.op_ms = SecondsSince(start) * 1e3;
    }
    if (stats_.engaged) {
      out.sim_events = static_cast<double>(stats_.events_processed);
      std::uint64_t lanes = 0;
      for (std::uint64_t n : stats_.partition_events_processed) lanes += n;
      parallel_share_ = static_cast<double>(lanes) /
                        static_cast<double>(stats_.events_processed);
      pdes_windows_ = static_cast<double>(stats_.windows);
    } else {
      // The engine did not engage (one worker thread): count the events once
      // on a serial replay, outside the timed call.
      if (serial_events_ == 0) {
        serial_events_ = static_cast<double>(
            RunReplay(system_->topology(), options_, spec_.parameters,
                      sim::PdesConfig{}, nullptr, -1)
                .events);
      }
      out.sim_events = serial_events_;
    }
    digest->Add(step.compute);
    digest->Add(step.allreduce);
    digest->Add(step.weight_update);
    digest->Add(static_cast<std::int64_t>(out.sim_events));

    const double values[] = {step.allreduce, step.weight_update, step.compute,
                             out.sim_events};
    const char* fields[] = {"allreduce_s", "weight_update_s", "compute_s",
                            "events"};
    for (int i = 0; i < 4; ++i) {
      const std::string key = Key(variant_, fields[i]);
      if (ctx.record != nullptr) {
        ctx.record->Put(key, values[i]);
      } else if (!(values[i] == ctx.reference->Get(key)) && out.ok) {
        out.ok = false;
        out.failure = "SimulateStep " + key + " differs from the reference";
      }
    }

    if (ctx.spans != nullptr && index >= 0) {
      const Replay replay = RunReplay(system_->topology(), options_,
                                      spec_.parameters, options_.pdes,
                                      ctx.spans, index);
      if (out.ok && !(replay.result.reduce_seconds +
                          replay.result.broadcast_seconds ==
                      step.allreduce)) {
        out.ok = false;
        out.failure = "collective replay disagrees with SimulateStep";
      }
    }
    return out;
  }

  std::vector<std::string> Notes() const override { return notes_; }

 private:
  int variant_ = 0;
  core::SystemOptions options_;
  sim::PdesStats stats_;
  std::unique_ptr<core::MultipodSystem> system_;
  models::ModelSpec spec_;
  double serial_events_ = 0;
  double parallel_share_ = 0;
  double pdes_windows_ = 0;
  std::vector<std::string> notes_;
};

}  // namespace

std::unique_ptr<Workload> MakeSummation() {
  return std::make_unique<Summation>();
}

bool RecordSummationReference(Reference* reference) {
  for (int variant = 0; variant < kVariants; ++variant) {
    RunContext ctx;
    ctx.threads = 1;
    ctx.record = reference;
    Summation workload;
    // A seed whose first draw lands on this variant.
    std::uint64_t seed = 0;
    while (static_cast<int>(SeedStream(seed).Next() % kVariants) != variant) {
      ++seed;
    }
    ctx.seed = seed;
    workload.Setup(ctx);
    Digest digest;
    workload.Op(0, ctx, &digest);
    Metrics unused;
    std::string failure;
    if (!workload.Finish(ctx, &unused, &failure)) return false;
  }
  return true;
}

}  // namespace perfbench
