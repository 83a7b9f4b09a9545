// Layer probes: fixed synthetic loads that time one layer's public entry
// points in isolation, shaped like the 4096-chip summation.
//
//   * sim.probe_ns_per_event drives Simulator::ScheduleAt/Run with the
//     summation's event count in 4096-wide same-time waves; each event
//     carries a small ring-step capture and the last one of a wave starts the
//     next wave, as a ring step's barrier does.
//   * network.probe_ns_per_send calls Network::Send from every chip of the
//     128x32 mesh to its Y or X ring neighbour with the summation's chunk
//     bytes, one barrier-joined wave at a time, and subtracts the event cost
//     the sends cause (one completion event each).
#include "collectives/all_reduce.h"
#include "network/network.h"
#include "sim/simulator.h"
#include "topology/topology.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace tpu;

constexpr int kWaveWidth = 4096;       // chips of the 128x32 multipod
constexpr int kEventWaves = 1140;      // ~4.67M events, the summation's count
constexpr int kSendWaves = 128;        // 524,288 sends
constexpr Bytes kChunkBytes = 1'600'000;  // 25.6M elems, bf16, over 32 chips

struct Waves {
  sim::Simulator* simulator;
  int done = 0;
  int left = 0;
};

void StartEventWave(Waves* waves) {
  const SimTime when = waves->simulator->now() + 1e-6;
  for (int i = 0; i < kWaveWidth; ++i) {
    waves->simulator->ScheduleAt(when, [waves] {
      if (++waves->done < kWaveWidth) return;
      waves->done = 0;
      if (--waves->left > 0) StartEventWave(waves);
    });
  }
}

struct SendWaves {
  net::Network* network;
  const std::vector<topo::ChipId>* y_next;
  const std::vector<topo::ChipId>* x_next;
  int done = 0;
  int left = 0;
};

void StartSendWave(SendWaves* waves) {
  const std::vector<topo::ChipId>& next =
      waves->left % 2 == 0 ? *waves->y_next : *waves->x_next;
  for (topo::ChipId chip = 0; chip < kWaveWidth; ++chip) {
    waves->network->Send(chip, next[chip], kChunkBytes, [waves] {
      if (++waves->done < kWaveWidth) return;
      waves->done = 0;
      if (--waves->left > 0) StartSendWave(waves);
    });
  }
}

}  // namespace

ProbeResult RunLayerProbes(SpanLog* spans) {
  ProbeResult result;
  {
    sim::Simulator simulator;
    Waves waves{&simulator, 0, kEventWaves};
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span(spans, "probe.sim");
      StartEventWave(&waves);
      simulator.Run();
    }
    result.ns_per_event = SecondsSince(start) * 1e9 /
                          static_cast<double>(simulator.events_processed());
  }
  {
    const topo::MeshTopology topology(topo::TopologyConfig::Multipod(4));
    std::vector<topo::ChipId> y_next(kWaveWidth), x_next(kWaveWidth);
    for (topo::ChipId chip = 0; chip < kWaveWidth; ++chip) {
      const topo::Coord c = topology.CoordOf(chip);
      y_next[chip] = topology.ChipAt({c.x, (c.y + 1) % topology.size_y()});
      x_next[chip] = topology.ChipAt({(c.x + 1) % topology.size_x(), c.y});
    }
    sim::Simulator simulator;
    net::Network network(&topology, net::NetworkConfig{}, &simulator);
    SendWaves waves{&network, &y_next, &x_next, 0, kSendWaves};
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span(spans, "probe.network");
      StartSendWave(&waves);
      simulator.Run();
    }
    const double seconds = SecondsSince(start);
    const double sends = static_cast<double>(network.traffic().messages);
    const double events = static_cast<double>(simulator.events_processed());
    result.ns_per_send =
        (seconds * 1e9 - events * result.ns_per_event) / sends;
  }
  return result;
}

void SetLayerDefaults(Metrics* per_layer) {
  static const char* const kCounts[] = {
      "sim.events",           "sim.events_scheduled",
      "sim.peak_queue_depth", "sim.pool_fresh_allocs",
      "sim.pdes_windows",     "network.messages",
      "plan.candidates",      "plan.evaluated",
      "trace.nodes"};
  static const char* const kRatios[] = {
      "sim.parallel_event_share", "plan.cache_hit_ratio",
      "plan.estimate_rel_err_p50", "plan.estimate_rel_err_max",
      "plan.top1_agree_ratio",     "plan.replay_match_ratio"};
  static const char* const kBytes[] = {
      "network.bytes_mesh_x", "network.bytes_cross_pod_x",
      "network.bytes_mesh_y", "network.bytes_wrap_y"};
  static const char* const kMs[] = {
      "collectives.call_ms",      "collectives.self_ms_est",
      "core.step_ms",             "plan.closed_form_ms",
      "plan.des_tier_ms",         "trace.record_overhead_ms",
      "trace.analyze_ms"};
  for (const char* name : kCounts) per_layer->SetNotCalled(name, "count");
  for (const char* name : kRatios) per_layer->SetNotCalled(name, "ratio");
  for (const char* name : kBytes) per_layer->SetNotCalled(name, "bytes");
  per_layer->SetNotCalled("sim.probe_ns_per_event", "ns");
  per_layer->SetNotCalled("network.probe_ns_per_send", "ns");
  for (const char* name : kMs) per_layer->SetNotCalled(name, "ms");
  per_layer->SetNotCalled("trace.analyze_ns_per_node", "ns");
}

}  // namespace perfbench
