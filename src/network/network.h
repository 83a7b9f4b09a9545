// Timed message transport over the multipod interconnect.
//
// Each directed physical link is a FIFO resource with a bandwidth and a
// propagation latency; cross-pod optical links (Section 1, Figure 2) carry
// higher latency than within-pod links. Messages follow the dimension-ordered
// sparse routes from the topology and are forwarded store-and-forward per
// hop at message granularity — collectives chunk their payloads, so this
// matches the chunk-pipelined behaviour of real ring collectives while
// naturally halving effective bandwidth on folded (mesh-dimension) rings,
// where each physical link carries two ring edges.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/units.h"
#include "sim/simulator.h"
#include "topology/topology.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace tpu::net {

struct LinkParams {
  Bandwidth bandwidth = GBps(70.0);  // per direction
  SimTime latency = Micros(0.3);
};

struct NetworkConfig {
  LinkParams mesh_x{GBps(70.0), Micros(0.3)};
  LinkParams cross_pod_x{GBps(70.0), Micros(1.5)};  // longer optical links
  LinkParams mesh_y{GBps(70.0), Micros(0.3)};
  LinkParams wrap_y{GBps(70.0), Micros(0.5)};
  // Fixed software/DMA overhead charged once per message at the sender.
  SimTime message_overhead = Micros(1.0);

  const LinkParams& ParamsFor(topo::LinkType type) const {
    switch (type) {
      case topo::LinkType::kMeshX:
        return mesh_x;
      case topo::LinkType::kCrossPodX:
        return cross_pod_x;
      case topo::LinkType::kMeshY:
        return mesh_y;
      case topo::LinkType::kWrapY:
        return wrap_y;
    }
    return mesh_x;  // unreachable
  }
};

// Per-link-type traffic accounting, used by benches to report where bytes go
// (e.g. the 32x X-vs-Y payload asymmetry of the 2-D all-reduce, Section 3.3).
struct TrafficStats {
  Bytes mesh_x_bytes = 0;
  Bytes cross_pod_x_bytes = 0;
  Bytes mesh_y_bytes = 0;
  Bytes wrap_y_bytes = 0;
  std::int64_t messages = 0;

  Bytes total_bytes() const {
    return mesh_x_bytes + cross_pod_x_bytes + mesh_y_bytes + wrap_y_bytes;
  }
  // Counts one hop of a `bytes`-sized message over a link of `type`.
  void AddHop(topo::LinkType type, Bytes bytes) {
    switch (type) {
      case topo::LinkType::kMeshX:
        mesh_x_bytes += bytes;
        break;
      case topo::LinkType::kCrossPodX:
        cross_pod_x_bytes += bytes;
        break;
      case topo::LinkType::kMeshY:
        mesh_y_bytes += bytes;
        break;
      case topo::LinkType::kWrapY:
        wrap_y_bytes += bytes;
        break;
    }
  }
  TrafficStats& operator+=(const TrafficStats& other) {
    mesh_x_bytes += other.mesh_x_bytes;
    cross_pod_x_bytes += other.cross_pod_x_bytes;
    mesh_y_bytes += other.mesh_y_bytes;
    wrap_y_bytes += other.wrap_y_bytes;
    messages += other.messages;
    return *this;
  }
};

// A resolved route: the chip pair plus where its hop schedule sits in the
// resolving network's route cache (Network::Resolve). A 16-byte value; pass
// it to that network's Send.
struct RouteHandle {
  topo::ChipId from = -1;
  topo::ChipId to = -1;
  std::uint32_t first_hop = 0;  // index into the network's hop table
  std::uint32_t num_hops = 0;   // 0 for, and only for, a self-send
};

// A fork lane. While a thread runs one link-disjoint group of a forked
// summation stage (coll::RunSummationStages) on a Simulator of its own, every
// Network reads that simulator's clock, schedules completions on it and
// counts traffic into `traffic`; the stage's join hands the lanes' traffic
// back with Network::MergeTraffic. A thread without a lane uses each
// network's own simulator and counters, at the cost of one thread-local load
// and branch per Send.
struct Lane {
  explicit Lane(sim::Simulator* lane_simulator) : simulator(lane_simulator) {}

  sim::Simulator* simulator;
  TrafficStats traffic;
};

class ScopedLane {
 public:
  explicit ScopedLane(Lane* lane) : previous_(Slot()) { Slot() = lane; }
  ~ScopedLane() { Slot() = previous_; }

  ScopedLane(const ScopedLane&) = delete;
  ScopedLane& operator=(const ScopedLane&) = delete;

  // The thread's lane, or nullptr.
  static Lane* Current() { return Slot(); }

 private:
  static Lane*& Slot() {
    thread_local Lane* lane = nullptr;
    return lane;
  }

  Lane* previous_;
};

class Network {
 public:
  Network(const topo::MeshTopology* topology, const NetworkConfig& config,
          sim::Simulator* simulator);

  const topo::MeshTopology& topology() const { return *topology_; }
  // The simulator driving this network: the thread's fork lane's simulator
  // while one is installed (ScopedLane), the constructor's otherwise.
  sim::Simulator& simulator() {
    Lane* lane = ScopedLane::Current();
    return lane != nullptr ? *lane->simulator : *simulator_;
  }
  const NetworkConfig& config() const { return config_; }

  int PodOf(topo::ChipId chip) const { return topology_->PodOf(chip); }

  // Resolves the dimension-ordered (from, to) route, computing and caching
  // its hop schedule on first use. Routes depend only on the (immutable)
  // topology and the per-construction config, so entries are never
  // invalidated.
  //
  // Stability contract: a handle stays valid for the network's lifetime.
  // It names an index range of one flat hop table that only ever grows, so
  // resolving further routes (which may reallocate the table) never moves
  // or changes a resolved route. Callers that send over one pair many times
  // — a ring pass, once per rank per step — resolve once and keep the
  // handle.
  //
  // Read-only fork contract: while a forked stage's lanes run (ScopedLane),
  // the cache is only read. The forking thread warms every route the
  // stage's groups use (ForEachRouteLink) before the lanes start and parks
  // until they join; a lane resolving a cold route fails loudly instead of
  // racing its sibling lanes on the cache. network_test's NetworkPdes cases
  // hold the fork contract under TSan, and RouteHandleSurvivesCacheGrowth the
  // stability contract under ASan.
  RouteHandle Resolve(topo::ChipId from, topo::ChipId to) const;

  // Sends `bytes` over a resolved route (see Resolve). `on_done` fires at
  // the simulated time the message fully arrives. Zero-byte messages still
  // pay per-message overhead and hop latency (they model control/barrier
  // traffic).
  void Send(const RouteHandle& route, Bytes bytes,
            sim::Simulator::Callback on_done);
  // Resolves (from, to) and sends over it.
  void Send(topo::ChipId from, topo::ChipId to, Bytes bytes,
            sim::Simulator::Callback on_done) {
    Send(Resolve(from, to), bytes, std::move(on_done));
  }

  // Pure function of current link occupancy: the time Send would complete if
  // issued now *on healthy links*. Deliberately ignores injected degradation
  // and failures — this is the expectation that fault-detection deadlines
  // (fault::HealthMonitor, GradientSummationConfig::deadline) compare the
  // observed phase time against. Does not mutate state.
  SimTime EstimateArrival(topo::ChipId from, topo::ChipId to,
                          Bytes bytes) const;

  // Lifetime traffic accounting.
  TrafficStats traffic() const { return traffic_; }
  // Adds a fork lane's traffic (the join of a forked stage, in group order).
  void MergeTraffic(const TrafficStats& lane) { traffic_ += lane; }

  // Calls fn(link) for every link of the (from, to) route, warming its route
  // cache entry. A forked stage's grouping pass walks every route its groups
  // will send over this way, on the forking thread, so that lanes only ever
  // read the cache.
  template <typename Fn>
  void ForEachRouteLink(topo::ChipId from, topo::ChipId to, Fn&& fn) const {
    const RouteHandle route = Resolve(from, to);
    for (std::uint32_t i = 0; i < route.num_hops; ++i) {
      fn(hops_[route.first_hop + i].link);
    }
  }
  // Highest per-link utilization (busy fraction of elapsed sim time).
  double MaxLinkUtilization() const;
  // Mean utilization across links that carried any traffic.
  double MeanActiveLinkUtilization() const;
  // One link's utilization (busy fraction of elapsed sim time).
  double LinkUtilization(topo::LinkId link) const;
  // Seconds of already-reserved service still queued on one link: how far
  // into the simulated future the link is committed right now. Zero when
  // idle. This is the "queue occupancy" signal the telemetry sampler reads.
  SimTime LinkBacklogSeconds(topo::LinkId link) const;
  // Max backlog over all links.
  SimTime MaxLinkBacklogSeconds() const;

  // Failure/straggler injection: adds one degradation source multiplying the
  // serialization time of one directed link (a flaky optical link, a
  // congested neighbor). factor >= 1 (enforced). Sources stack as the max of
  // the active factors — two overlapping faults slow the link by the worse
  // of the two, and healing one leaves the other in force. Heal with the
  // matching ReleaseDegradedLink (or RestoreLink to force-clear).
  void DegradeLink(topo::LinkId link, double factor);

  // Removes one degradation source previously added with DegradeLink(link,
  // factor). The link's effective multiplier drops to the max of the
  // remaining sources (1.0 when none are left). A release with no matching
  // source is a no-op, so overlapping fault schedules cannot over-heal.
  void ReleaseDegradedLink(topo::LinkId link, double factor);

  // Heals a link unconditionally: clears every degradation source and the
  // full failure depth, returning the link to its configured parameters.
  // Timing of traffic sent after the restore is bit-identical to a
  // never-degraded link.
  void RestoreLink(topo::LinkId link);

  // Link failure: traffic routed through the link stalls for
  // kFailedLinkStall per byte-less hop rather than completing on schedule,
  // so a synchronous collective blocked on it visibly exceeds any sane
  // deadline instead of deadlocking the event queue. Failures are
  // depth-counted: a link failed by two overlapping faults (say a chip death
  // and a host preemption sharing the link) stays failed until both release
  // it.
  void FailLink(topo::LinkId link);

  // Undoes one FailLink. The link heals only when the failure depth reaches
  // zero (and carries no degradation); releasing an already-healthy link is
  // a no-op. This is what makes overlapping transient fault schedules
  // order-independent: a heal racing another fault's Fail on the same link
  // can never resurrect it early.
  void ReleaseFailedLink(topo::LinkId link);

  bool LinkFailed(topo::LinkId link) const;
  // Current effective serialization multiplier (1.0 = healthy; the max over
  // active degradation sources).
  double LinkDegradation(topo::LinkId link) const;
  int failed_link_count() const;

  // Stall charged per hop over a failed link. Large enough to trip any
  // deadline, small enough that the event queue still drains.
  static constexpr SimTime kFailedLinkStall = Seconds(3600.0);

  // Dumps this network's lifetime accounting (per-class traffic bytes,
  // message count, utilization, failed links, queue-delay histogram
  // percentiles come from the live per-Send metrics) into `metrics`.
  // Counters add, so call once per network at the end of a run.
  void ExportMetrics(trace::MetricsRegistry& metrics) const;

 private:
  // Trace state is cached per recorder: when a different recorder is
  // installed (or tracing turns off and on), tracks are re-registered
  // lazily. Tracing only observes — the simulated schedule is identical
  // with tracing on or off.
  void EnsureTraceState(trace::TraceRecorder* recorder);
  trace::TraceRecorder::TrackId LinkTrack(trace::TraceRecorder* recorder,
                                          topo::LinkId link);

  // One hop of a cached route: everything Send needs that is invariant
  // across messages. Live state (degradation, failure, FIFO occupancy) is
  // read fresh per message, so caching never changes behaviour. The
  // bandwidth is stored as-is (not as a reciprocal) so the serialization
  // arithmetic stays bit-identical to the uncached path.
  struct CachedHop {
    topo::LinkId link;
    topo::LinkType type;
    SimTime latency;
    Bandwidth bandwidth;
  };

  // The time a hop holds its link: the healthy serialization time scaled by
  // the link's live degradation, plus kFailedLinkStall on a failed link.
  // Both branches of Send time their hops with it.
  SimTime LiveSerialize(const CachedHop& hop, SimTime healthy) const {
    SimTime serialize = healthy * degradation_[hop.link];
    // A failed link stalls the message: it eventually "arrives" (so the
    // event queue drains and simulations terminate), but far past any
    // deadline a health monitor would set.
    if (failed_[hop.link] != 0) serialize += kFailedLinkStall;
    return serialize;
  }

  // Recomputes the effective degradation_[link] after a source was added or
  // removed, and emits the restore trace instant when the link heals.
  void RefreshDegradation(topo::LinkId link);

  const topo::MeshTopology* topology_;
  NetworkConfig config_;
  sim::Simulator* simulator_;
  std::vector<sim::FifoResource> link_resources_;  // indexed by LinkId
  // Hot-path state, one branch/multiply per hop: the *effective* serialize
  // multiplier (max over active sources) and the failure depth.
  std::vector<double> degradation_;
  std::vector<int> failed_;  // depth-counted failure state
  // Active degradation sources as (link, factor) pairs. Faults are rare and
  // short-lived, so a flat list with linear scans beats per-link storage.
  std::vector<std::pair<topo::LinkId, double>> degrade_sources_;
  TrafficStats traffic_;
  // The route cache (see Resolve for its stability and fork contracts).
  // hops_ holds every resolved route's hops back to back; route_cache_,
  // indexed by source chip, holds the handful of routes that source has
  // ever resolved — collectives only talk to ring/recursive-halving
  // neighbours, so a linear scan beats hashing. Mutable because Resolve and
  // EstimateArrival are const but may warm the cache.
  mutable std::vector<CachedHop> hops_;
  mutable std::vector<std::vector<RouteHandle>> route_cache_;

  trace::TraceRecorder* trace_recorder_ = nullptr;  // cache key, not owned
  std::vector<trace::TraceRecorder::TrackId> link_tracks_;
  std::vector<trace::TraceRecorder::CounterId> pod_bytes_in_flight_;
  std::vector<trace::TraceRecorder::CounterId> pod_busy_links_;
};

}  // namespace tpu::net
