#include "network/network.h"

#include <algorithm>
#include <cstdio>
#include <string>

namespace tpu::net {
namespace {

const char* LinkTypeName(topo::LinkType type) {
  switch (type) {
    case topo::LinkType::kMeshX:
      return "meshX";
    case topo::LinkType::kCrossPodX:
      return "crossX";
    case topo::LinkType::kMeshY:
      return "meshY";
    case topo::LinkType::kWrapY:
      return "wrapY";
  }
  return "link";
}

std::string BytesLabel(Bytes bytes) {
  char buf[32];
  if (bytes >= kMiB) {
    std::snprintf(buf, sizeof(buf), "xfer %.1fMiB",
                  static_cast<double>(bytes) / kMiB);
  } else if (bytes >= kKiB) {
    std::snprintf(buf, sizeof(buf), "xfer %.1fKiB",
                  static_cast<double>(bytes) / kKiB);
  } else {
    std::snprintf(buf, sizeof(buf), "xfer %lldB",
                  static_cast<long long>(bytes));
  }
  return buf;
}

}  // namespace

Network::Network(const topo::MeshTopology* topology,
                 const NetworkConfig& config, sim::Simulator* simulator)
    : topology_(topology), config_(config), simulator_(simulator) {
  TPU_CHECK(topology != nullptr);
  TPU_CHECK(simulator != nullptr);
  link_resources_.reserve(topology_->links().size());
  for (std::size_t i = 0; i < topology_->links().size(); ++i) {
    link_resources_.emplace_back(simulator_);
  }
  degradation_.assign(topology_->links().size(), 1.0);
  failed_.assign(topology_->links().size(), 0);
  route_cache_.resize(topology_->num_chips());
}

RouteHandle Network::Resolve(topo::ChipId from, topo::ChipId to) const {
  if (from == to) return RouteHandle{from, to, 0, 0};
  std::vector<RouteHandle>& routes = route_cache_[from];
  for (const RouteHandle& route : routes) {
    if (route.to == to) return route;
  }
  TPU_CHECK(sim::CurrentAmbient().lane == nullptr)
      << "route " << from << "->" << to
      << " was not warmed before the stage forked";

  RouteHandle route{from, to, static_cast<std::uint32_t>(hops_.size()), 0};
  topology_->ForEachRouteLink(from, to, [&](topo::LinkId id) {
    const topo::Link& link = topology_->link(id);
    const LinkParams& params = config_.ParamsFor(link.type);
    hops_.push_back({id, link.type, params.latency, params.bandwidth});
    ++route.num_hops;
  });
  TPU_CHECK_GT(route.num_hops, 0u);
  routes.push_back(route);
  return route;
}

void Network::Send(const RouteHandle& route, Bytes bytes,
                   sim::Simulator::Callback on_done) {
  TPU_CHECK_GE(bytes, 0);
  // On a fork lane, clock reads, completion scheduling and traffic
  // accounting all go to the lane; otherwise to the members.
  const sim::Ambient& ambient = sim::CurrentAmbient();
  Lane* lane = ambient.lane;
  sim::Simulator& des = lane != nullptr ? *lane->simulator : *simulator_;
  TrafficStats& traffic = lane != nullptr ? lane->traffic : traffic_;
  ++traffic.messages;
  const CachedHop* const hops = hops_.data() + route.first_hop;

  if (!ambient.Observed()) {
    // Unobserved: per hop only the serialization time, the FIFO reservation
    // and the traffic count, then one ScheduleAt for the completion — no
    // MessageRecord, no per-hop observation checks. Hops are timed exactly
    // as in the observed branch below (LiveSerialize, ReserveFrom, latency),
    // so the simulated schedule is bit-identical with observation on or
    // off. DESIGN.md ("Unobserved Send") has the measurement that pays for
    // this second copy of the hop loop.
    if (route.num_hops == 0) {
      des.Schedule(config_.message_overhead, std::move(on_done));
      return;
    }
    SimTime head = des.now() + config_.message_overhead;
    for (std::uint32_t i = 0;; ++i) {
      const CachedHop& hop = hops[i];
      const SimTime serialize =
          LiveSerialize(hop, static_cast<double>(bytes) / hop.bandwidth);
      const SimTime start =
          link_resources_[hop.link].ReserveFrom(head, serialize);
      traffic.AddHop(hop.type, bytes);
      head = start + serialize + hop.latency;
      if (i + 1 == route.num_hops) {
        des.ScheduleAt(head, std::move(on_done));
        return;
      }
    }
  }

  trace::TraceRecorder* recorder = ambient.trace;
  trace::MetricsRegistry* metrics = ambient.metrics;
  sim::EventObserver* observer = ambient.observer;
  const topo::ChipId from = route.from;
  const topo::ChipId to = route.to;
  if (recorder != nullptr) EnsureTraceState(recorder);
  if (route.num_hops == 0) {
    const std::uint64_t done_seq =
        des.Schedule(config_.message_overhead, std::move(on_done));
    if (observer != nullptr) {
      sim::MessageRecord record;
      record.from = from;
      record.to = to;
      record.bytes = bytes;
      record.overhead = config_.message_overhead;
      observer->OnMessage(done_seq, std::move(record));
    }
    return;
  }

  // Store-and-forward per hop at message granularity: at each hop the message
  // waits for the link to be free, occupies it for bytes/bandwidth, and then
  // pays the propagation latency. We precompute the full hop schedule now —
  // FIFO ordering per link is preserved because reservations are made in
  // Send-call order (the simulator is single-threaded). The hop parameters
  // come from the route cache; only live link state is read per message.
  sim::MessageRecord record;
  std::uint64_t done_seq = 0;
  if (observer != nullptr) {
    record.from = from;
    record.to = to;
    record.bytes = bytes;
    record.overhead = config_.message_overhead;
    record.hops.reserve(route.num_hops);
  }
  SimTime head = des.now() + config_.message_overhead;
  for (std::uint32_t i = 0; i < route.num_hops; ++i) {
    const CachedHop& hop = hops[i];
    const SimTime healthy_serialize =
        static_cast<double>(bytes) / hop.bandwidth;
    const SimTime serialize = LiveSerialize(hop, healthy_serialize);

    sim::FifoResource& resource = link_resources_[hop.link];
    const SimTime start = resource.ReserveFrom(head, serialize);
    const bool last_hop = i + 1 == route.num_hops;
    if (last_hop) {
      // The completion callback fires when the message tail has arrived.
      done_seq = des.ScheduleAt(start + serialize + hop.latency,
                                std::move(on_done));
    }
    if (observer != nullptr) {
      sim::MessageHopRecord hop_record;
      hop_record.link = hop.link;
      hop_record.pod = PodOf(topology_->link(hop.link).from);
      hop_record.type_name = LinkTypeName(hop.type);
      hop_record.queue = start - head;
      hop_record.serialize = serialize;
      hop_record.healthy_serialize = healthy_serialize;
      hop_record.latency = hop.latency;
      hop_record.start = start;
      record.hops.push_back(hop_record);
    }

    if (recorder != nullptr) {
      // One span per hop on the link's own track; the gap between the hop's
      // earliest start (`head`) and its actual start is FIFO queueing.
      const trace::TraceRecorder::TrackId track =
          LinkTrack(recorder, hop.link);
      recorder->Complete(track, BytesLabel(bytes), start, start + serialize);
      if (failed_[hop.link] != 0) {
        recorder->Instant(track, "failed-link stall", start);
      }
      const int pod = PodOf(topology_->link(hop.link).from);
      recorder->CounterDelta(pod_busy_links_[pod], start, 1.0);
      recorder->CounterDelta(pod_busy_links_[pod], start + serialize, -1.0);
      recorder->CounterDelta(pod_bytes_in_flight_[pod], start,
                             static_cast<double>(bytes));
      recorder->CounterDelta(pod_bytes_in_flight_[pod],
                             start + serialize + hop.latency,
                             static_cast<double>(bytes) * -1.0);
    }
    if (metrics != nullptr) {
      metrics->Histogram("net.link_queue_delay_us")
          .Record(ToMicros(start - head));
      metrics->Histogram("net.hop_serialize_us").Record(ToMicros(serialize));
    }
    head = start + serialize + hop.latency;
    traffic.AddHop(hop.type, bytes);
  }
  if (observer != nullptr) {
    // The completion event carries the message's provenance: which links it
    // crossed, and where each hop's time went (queue/serialize/latency).
    observer->OnMessage(done_seq, std::move(record));
  }
}

void Network::EnsureTraceState(trace::TraceRecorder* recorder) {
  if (trace_recorder_ == recorder) return;
  trace_recorder_ = recorder;
  link_tracks_.assign(topology_->links().size(), -1);
  const int num_pods = topology_->config().num_pods;
  pod_bytes_in_flight_.resize(num_pods);
  pod_busy_links_.resize(num_pods);
  for (int pod = 0; pod < num_pods; ++pod) {
    // Anchor each pod's counters to a per-pod track so Perfetto shows them
    // under the pod's process.
    const trace::TraceRecorder::TrackId anchor =
        recorder->Track("pod" + std::to_string(pod), "links");
    pod_bytes_in_flight_[pod] = recorder->Counter(anchor, "bytes_in_flight");
    pod_busy_links_[pod] = recorder->Counter(anchor, "busy_links");
  }
}

trace::TraceRecorder::TrackId Network::LinkTrack(
    trace::TraceRecorder* recorder, topo::LinkId link_id) {
  trace::TraceRecorder::TrackId& cached = link_tracks_[link_id];
  if (cached >= 0) return cached;
  const topo::Link& link = topology_->link(link_id);
  const topo::Coord from = topology_->CoordOf(link.from);
  const topo::Coord to = topology_->CoordOf(link.to);
  char name[96];
  std::snprintf(name, sizeof(name), "link %d (%d,%d)->(%d,%d) %s",
                static_cast<int>(link_id), from.x, from.y, to.x, to.y,
                LinkTypeName(link.type));
  cached = recorder->Track("pod" + std::to_string(PodOf(link.from)), name);
  return cached;
}

void Network::ExportMetrics(trace::MetricsRegistry& metrics) const {
  const TrafficStats totals = traffic();
  metrics.Counter("net.messages").Add(totals.messages);
  metrics.Counter("net.bytes.mesh_x").Add(totals.mesh_x_bytes);
  metrics.Counter("net.bytes.cross_pod_x").Add(totals.cross_pod_x_bytes);
  metrics.Counter("net.bytes.mesh_y").Add(totals.mesh_y_bytes);
  metrics.Counter("net.bytes.wrap_y").Add(totals.wrap_y_bytes);
  metrics.Gauge("net.max_link_utilization").Max(MaxLinkUtilization());
  metrics.Gauge("net.mean_active_link_utilization")
      .Max(MeanActiveLinkUtilization());
  metrics.Gauge("net.failed_links")
      .Max(static_cast<double>(failed_link_count()));
}

SimTime Network::EstimateArrival(topo::ChipId from, topo::ChipId to,
                                 Bytes bytes) const {
  SimTime head = simulator_->now() + config_.message_overhead;
  const RouteHandle route = Resolve(from, to);
  for (std::uint32_t i = 0; i < route.num_hops; ++i) {
    const CachedHop& hop = hops_[route.first_hop + i];
    const SimTime serialize = static_cast<double>(bytes) / hop.bandwidth;
    const SimTime start = std::max(head, link_resources_[hop.link].free_at());
    head = start + serialize + hop.latency;
  }
  return head;
}

void Network::DegradeLink(topo::LinkId link, double factor) {
  TPU_CHECK_GE(link, 0);
  TPU_CHECK_LT(link, static_cast<topo::LinkId>(degradation_.size()));
  TPU_CHECK_GE(factor, 1.0) << "a degradation factor below 1 would speed the "
                               "link up; use ReleaseDegradedLink to heal";
  degrade_sources_.emplace_back(link, factor);
  if (factor > degradation_[link]) degradation_[link] = factor;
  if (trace::TraceRecorder* recorder = trace::CurrentTrace()) {
    EnsureTraceState(recorder);
    char label[48];
    std::snprintf(label, sizeof(label), "degraded x%.1f", degradation_[link]);
    recorder->Instant(LinkTrack(recorder, link), label, simulator_->now());
  }
}

void Network::RefreshDegradation(topo::LinkId link) {
  double factor = 1.0;
  for (const auto& [source_link, source_factor] : degrade_sources_) {
    if (source_link == link && source_factor > factor) factor = source_factor;
  }
  degradation_[link] = factor;
  if (factor == 1.0 && failed_[link] == 0) {
    if (trace::TraceRecorder* recorder = trace::CurrentTrace()) {
      EnsureTraceState(recorder);
      recorder->Instant(LinkTrack(recorder, link), "link restored",
                        simulator_->now());
    }
  }
}

void Network::ReleaseDegradedLink(topo::LinkId link, double factor) {
  TPU_CHECK_GE(link, 0);
  TPU_CHECK_LT(link, static_cast<topo::LinkId>(degradation_.size()));
  for (std::size_t i = 0; i < degrade_sources_.size(); ++i) {
    if (degrade_sources_[i].first == link &&
        degrade_sources_[i].second == factor) {
      degrade_sources_.erase(degrade_sources_.begin() +
                             static_cast<std::ptrdiff_t>(i));
      RefreshDegradation(link);
      return;
    }
  }
  // No matching source: the link was force-restored (or never degraded by
  // this factor). Idempotent no-op by design.
}

void Network::RestoreLink(topo::LinkId link) {
  TPU_CHECK_GE(link, 0);
  TPU_CHECK_LT(link, static_cast<topo::LinkId>(degradation_.size()));
  degradation_[link] = 1.0;
  failed_[link] = 0;
  std::erase_if(degrade_sources_,
                [link](const auto& source) { return source.first == link; });
  if (trace::TraceRecorder* recorder = trace::CurrentTrace()) {
    EnsureTraceState(recorder);
    recorder->Instant(LinkTrack(recorder, link), "link restored",
                      simulator_->now());
  }
}

void Network::FailLink(topo::LinkId link) {
  TPU_CHECK_GE(link, 0);
  TPU_CHECK_LT(link, static_cast<topo::LinkId>(failed_.size()));
  ++failed_[link];
  if (trace::TraceRecorder* recorder = trace::CurrentTrace()) {
    EnsureTraceState(recorder);
    recorder->Instant(LinkTrack(recorder, link), "link failed",
                      simulator_->now());
  }
}

void Network::ReleaseFailedLink(topo::LinkId link) {
  TPU_CHECK_GE(link, 0);
  TPU_CHECK_LT(link, static_cast<topo::LinkId>(failed_.size()));
  if (failed_[link] == 0) return;  // force-restored meanwhile: no-op
  if (--failed_[link] == 0 && degradation_[link] == 1.0) {
    if (trace::TraceRecorder* recorder = trace::CurrentTrace()) {
      EnsureTraceState(recorder);
      recorder->Instant(LinkTrack(recorder, link), "link restored",
                        simulator_->now());
    }
  }
}

bool Network::LinkFailed(topo::LinkId link) const {
  TPU_CHECK_GE(link, 0);
  TPU_CHECK_LT(link, static_cast<topo::LinkId>(failed_.size()));
  return failed_[link] != 0;
}

double Network::LinkDegradation(topo::LinkId link) const {
  TPU_CHECK_GE(link, 0);
  TPU_CHECK_LT(link, static_cast<topo::LinkId>(degradation_.size()));
  return degradation_[link];
}

int Network::failed_link_count() const {
  int count = 0;
  for (const int depth : failed_) count += depth > 0 ? 1 : 0;
  return count;
}

double Network::MeanActiveLinkUtilization() const {
  const SimTime elapsed = simulator_->now();
  if (elapsed <= 0.0) return 0.0;
  double total = 0;
  int active = 0;
  for (const auto& resource : link_resources_) {
    if (resource.busy_time() > 0) {
      total += resource.busy_time() / elapsed;
      ++active;
    }
  }
  return active > 0 ? total / active : 0.0;
}

double Network::MaxLinkUtilization() const {
  const SimTime elapsed = simulator_->now();
  if (elapsed <= 0.0) return 0.0;
  double max_busy = 0.0;
  for (const auto& resource : link_resources_) {
    max_busy = std::max(max_busy, resource.busy_time());
  }
  return max_busy / elapsed;
}

double Network::LinkUtilization(topo::LinkId link) const {
  TPU_CHECK_GE(link, 0);
  TPU_CHECK_LT(link, static_cast<topo::LinkId>(link_resources_.size()));
  const SimTime elapsed = simulator_->now();
  if (elapsed <= 0.0) return 0.0;
  return link_resources_[link].busy_time() / elapsed;
}

SimTime Network::LinkBacklogSeconds(topo::LinkId link) const {
  TPU_CHECK_GE(link, 0);
  TPU_CHECK_LT(link, static_cast<topo::LinkId>(link_resources_.size()));
  return std::max(0.0, link_resources_[link].free_at() - simulator_->now());
}

SimTime Network::MaxLinkBacklogSeconds() const {
  const SimTime now = simulator_->now();
  SimTime max_backlog = 0.0;
  for (const auto& resource : link_resources_) {
    max_backlog = std::max(max_backlog, resource.free_at() - now);
  }
  return max_backlog;
}

}  // namespace tpu::net
