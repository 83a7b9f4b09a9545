// The one lockstep pass (lockstep.h) and the ring and halving-doubling
// collectives built on it (ring.h, halving_doubling.h).
#include "collectives/lockstep.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "collectives/halving_doubling.h"
#include "collectives/payload_pool.h"
#include "common/bfloat16.h"
#include "common/check.h"
#include "common/math_util.h"
#include "sim/event_observer.h"
#include "sim/simulator.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace tpu::coll {
namespace {

// Splits a range into the two per-direction halves of a bidirectional ring:
// the first travels clockwise (ring order as given), the second
// counter-clockwise (ring order reversed).
std::pair<Range, Range> DirectionHalves(const Range& range) {
  const std::int64_t mid = range.begin + range.size() / 2;
  return {Range{range.begin, mid}, Range{mid, range.end}};
}

// Join-counter for one step's rendezvous, owned by its own notifications:
// the last Notify fires the continuation and deletes the barrier. Callbacks
// capture it as a raw pointer (8 inline bytes, no refcount traffic), which
// is safe because every simulated message completes — even failed-link
// sends finish after their stall — so the notification count always reaches
// `expected`. Under a causal observer the barrier registers as a join, so
// slack analysis sees which rank's transfer released each step.
class StepBarrier {
 public:
  StepBarrier(int expected, sim::Simulator::Callback on_all_done)
      : remaining_(expected), on_all_done_(std::move(on_all_done)) {
    TPU_CHECK_GT(expected, 0);
    if (sim::EventObserver* observer = sim::CurrentEventObserver()) {
      join_ = observer->OnJoinOpen(expected);
    }
  }

  void Notify() {
    if (join_ >= 0) {
      if (sim::EventObserver* observer = sim::CurrentEventObserver()) {
        observer->OnJoinNotify(join_);
      }
    }
    if (--remaining_ == 0) {
      on_all_done_();
      delete this;
    }
  }

 private:
  int remaining_;
  int join_ = -1;
  sim::Simulator::Callback on_all_done_;
};

// One pass (lockstep.h) running on the network: per step, every rank sends
// its chunk to its peer, and a StepBarrier starts the next step once all n
// messages have arrived.
class LockstepPass : public std::enable_shared_from_this<LockstepPass> {
 public:
  LockstepPass(net::Network* network, const StepGeometry& geometry,
               std::vector<float*> data, const CollectiveOptions& options,
               sim::Simulator::Callback on_done)
      : network_(network),
        geometry_(geometry),
        data_(std::move(data)),
        options_(options),
        on_done_(std::move(on_done)) {}

  // Resolves every route the pass sends over (`order` is the group's) once,
  // then runs the first step. A degenerate pass completes at once.
  void Start(const std::vector<topo::ChipId>& order) {
    if (geometry_.degenerate()) {
      network_->simulator().Schedule(0.0, std::move(on_done_));
      return;
    }
    routes_.reserve(geometry_.peer_layers() * geometry_.ranks());
    geometry_.ForEachRoute(order, [this](topo::ChipId from, topo::ChipId to) {
      routes_.push_back(network_->Resolve(from, to));
    });
    RunStep(0);
  }

 private:
  void RunStep(int step) {
    auto self = shared_from_this();
    // The barrier's continuation holds the shared_ptr that keeps this pass
    // alive until the step completes; the hot per-message callbacks hold only
    // the raw barrier pointer.
    auto* barrier =
        new StepBarrier(geometry_.ranks(), [self, step] {
          if (step + 1 < self->geometry_.steps()) {
            self->RunStep(step + 1);
          } else {
            self->on_done_();
          }
        });
    const net::RouteHandle* routes =
        routes_.data() + geometry_.PeerLayer(step) * geometry_.ranks();
    const Bytes elem_bytes = options_.wire_bytes_per_elem();
    // Time-only passes complete each message with a bare barrier
    // notification: the capture is one pointer, stored inline in the event.
    auto send_time_only = [&](int rank, const Range& chunk) {
      network_->Send(routes[rank], chunk.size() * elem_bytes,
                     [barrier] { barrier->Notify(); });
    };
    if (data_.empty()) {
      geometry_.ForEachSend(step, [&](int rank, int, const Range& chunk) {
        send_time_only(rank, chunk);
      });
      return;
    }
    // Data-carrying passes snapshot the outgoing values now (this step's
    // incoming data must not contaminate what travels within the same step)
    // into a pooled buffer the callback owns.
    geometry_.ForEachSend(step, [&](int rank, int peer, const Range& chunk) {
      if (chunk.size() == 0) {
        send_time_only(rank, chunk);
        return;
      }
      const float* in = data_[geometry_.Member(rank)];
      PayloadPool::Handle payload = PayloadPool::ThisThread().Snapshot(
          in + chunk.begin, in + chunk.end);
      if (options_.bfloat16_wire) {
        float* p = payload.data();
        for (std::size_t i = 0; i < payload.size(); ++i) {
          p[i] = QuantizeToBFloat16(p[i]);
        }
      }
      const Bytes wire_bytes = chunk.size() * elem_bytes;
      float* const out = data_[geometry_.Member(peer)] + chunk.begin;
      if (geometry_.adds()) {
        network_->Send(routes[rank], wire_bytes,
                       [barrier, payload = std::move(payload), out] {
                         const float* p = payload.data();
                         for (std::size_t i = 0; i < payload.size(); ++i) {
                           out[i] += p[i];
                         }
                         barrier->Notify();
                       });
      } else {
        network_->Send(routes[rank], wire_bytes,
                       [barrier, payload = std::move(payload), out] {
                         std::copy(payload.data(),
                                   payload.data() + payload.size(), out);
                         barrier->Notify();
                       });
      }
    });
  }

  net::Network* network_;
  StepGeometry geometry_;
  std::vector<float*> data_;  // the group's, empty for a time-only pass
  CollectiveOptions options_;
  sim::Simulator::Callback on_done_;
  // routes_[layer * n + rank]: rank -> its peer in peer layer `layer`.
  std::vector<net::RouteHandle> routes_;
};

// Groups within one collective phase overlap in time, so under a trace
// recorder each gets an async span (b/e pair keyed by a fresh id) on the
// shared "rings" track rather than a nested B/E span, named by the group's
// label (or the algorithm's default) plus the operation; its duration also
// goes to the algorithm's histogram. Returns `on_done` wrapped to close the
// span, or unchanged when no recorder is installed. Purely observational:
// the schedule is unchanged.
sim::Simulator::Callback WithGroupSpan(net::Network& network,
                                       Algorithm algorithm, CollectiveOp op,
                                       const std::string& label,
                                       sim::Simulator::Callback on_done) {
  trace::TraceRecorder* recorder = trace::CurrentTrace();
  if (recorder == nullptr) return on_done;
  const bool ring = algorithm == Algorithm::kRing;
  const bool rs = op == CollectiveOp::kReduceScatter;
  const trace::TraceRecorder::TrackId track =
      recorder->Track("system", "rings");
  std::string name = label.empty() ? (ring ? "ring" : "hd") : label;
  if (ring) {
    name += rs ? " reduce-scatter" : " all-gather";
  } else {
    name += rs ? " hd-reduce-scatter" : " hd-all-gather";
  }
  const char* histogram = ring ? "coll.ring_us" : "coll.hd_us";
  const std::uint64_t async_id = recorder->NextAsyncId();
  sim::Simulator* simulator = &network.simulator();
  const SimTime begin = simulator->now();
  recorder->AsyncBegin(track, std::move(name), async_id, begin);
  return [recorder, track, async_id, simulator, begin, histogram,
          done = std::move(on_done)]() mutable {
    const SimTime end = simulator->now();
    recorder->AsyncEnd(track, async_id, end);
    if (trace::MetricsRegistry* metrics = trace::CurrentMetrics()) {
      metrics->Histogram(histogram).Record(ToMicros(end - begin));
    }
    done();
  };
}

// Starts one group's passes; `on_done` fires when all of them complete.
void StartGroup(net::Network& network, Algorithm algorithm, CollectiveOp op,
                const RingSpec& group, const CollectiveOptions& options,
                sim::Simulator::Callback on_done) {
  const GroupPasses passes = PassesOf(algorithm, op, group, options);
  on_done =
      WithGroupSpan(network, algorithm, op, group.label, std::move(on_done));
  if (passes.count == 1) {
    std::make_shared<LockstepPass>(&network, passes.pass[0], group.data,
                                   options, std::move(on_done))
        ->Start(group.order);
    return;
  }
  auto barrier = std::make_shared<sim::Barrier>(
      passes.count, [done = std::move(on_done)]() mutable { done(); });
  for (const StepGeometry& pass : passes) {
    std::make_shared<LockstepPass>(&network, pass, group.data, options,
                                   [barrier] { barrier->Notify(); })
        ->Start(group.order);
  }
}

// StartCollective, then runs the simulator to completion; returns the
// elapsed simulated time.
SimTime RunCollective(net::Network& network, Algorithm algorithm,
                      CollectiveOp op, const std::vector<RingSpec>& groups,
                      const CollectiveOptions& options) {
  sim::Simulator& simulator = network.simulator();
  const SimTime start = simulator.now();
  StartCollective(network, algorithm, op, groups, options, [] {});
  simulator.Run();
  return simulator.now() - start;
}

}  // namespace

StepGeometry::StepGeometry(Algorithm algorithm, CollectiveOp op, int ranks,
                           Range range, bool reversed)
    : ring_(algorithm == Algorithm::kRing),
      reduce_(op == CollectiveOp::kReduceScatter),
      reversed_(reversed),
      n_(ranks),
      range_(range) {
  TPU_CHECK_GT(ranks, 0);
  steps_ = ring_ ? n_ - 1 : static_cast<int>(Log2Floor(n_));
  chunk_ = CeilDiv(range.size(), n_);
}

GroupPasses PassesOf(Algorithm algorithm, CollectiveOp op,
                     const RingSpec& group, const CollectiveOptions& options) {
  const int n = group.size();
  TPU_CHECK(!group.order.empty()) << "a collective group needs a member";
  if (group.has_data()) {
    TPU_CHECK_EQ(group.data.size(), group.order.size())
        << "one data pointer per group member";
  }
  TPU_CHECK_GE(group.range.begin, 0) << "negative range";
  TPU_CHECK_GE(group.range.size(), 0) << "inverted range";
  TPU_CHECK(algorithm == Algorithm::kRing || IsPowerOfTwo(n))
      << "halving-doubling needs a power-of-two group, got " << n;
  GroupPasses passes;
  if (algorithm == Algorithm::kRing && options.bidirectional && n > 2) {
    const auto [cw, ccw] = DirectionHalves(group.range);
    passes.pass[0] = StepGeometry(algorithm, op, n, cw);
    passes.pass[1] = StepGeometry(algorithm, op, n, ccw, /*reversed=*/true);
    passes.count = 2;
  } else {
    passes.pass[0] = StepGeometry(algorithm, op, n, group.range);
    passes.count = 1;
  }
  return passes;
}

SimTime ExpectedPhaseSeconds(net::Network& network, Algorithm algorithm,
                             CollectiveOp op,
                             const std::vector<RingSpec>& groups,
                             const CollectiveOptions& options) {
  const SimTime now = network.simulator().now();
  auto clock = [&network, now](topo::ChipId from, topo::ChipId to,
                               Bytes bytes) {
    return network.EstimateArrival(from, to, bytes) - now;
  };
  SimTime worst = 0;
  for (const RingSpec& group : groups) {
    worst = std::max(
        worst, EstimateGroupSeconds(algorithm, op, group, options, clock));
  }
  return worst;
}

void StartCollective(net::Network& network, Algorithm algorithm,
                     CollectiveOp op, const std::vector<RingSpec>& groups,
                     const CollectiveOptions& options,
                     std::function<void()> on_done) {
  auto outer = std::make_shared<sim::Barrier>(
      static_cast<int>(groups.size()),
      [done = std::move(on_done)]() mutable { done(); });
  for (const RingSpec& group : groups) {
    StartGroup(network, algorithm, op, group, options,
               [outer] { outer->Notify(); });
  }
}

Range ChunkOfRange(const Range& range, int parts, int index) {
  TPU_CHECK_GT(parts, 0);
  TPU_CHECK_GE(index, 0);
  TPU_CHECK_LT(index, parts);
  return ChunkAt(range, CeilDiv(range.size(), parts), index);
}

std::vector<Range> OwnedAfterReduceScatter(const Range& range, int ring_size,
                                           int rank,
                                           const CollectiveOptions& options) {
  TPU_CHECK_GT(ring_size, 0);
  TPU_CHECK_GE(rank, 0);
  TPU_CHECK_LT(rank, ring_size);
  if (ring_size == 1) return {range};
  if (!options.bidirectional || ring_size <= 2) {
    return {ChunkOfRange(range, ring_size, (rank + 1) % ring_size)};
  }
  const auto [cw, ccw] = DirectionHalves(range);
  // Clockwise pass: position == rank. Counter-clockwise pass: position is
  // mirrored, so rank owns chunk ((n-1-rank)+1) % n of the CCW half.
  return {ChunkOfRange(cw, ring_size, (rank + 1) % ring_size),
          ChunkOfRange(ccw, ring_size, (ring_size - rank) % ring_size)};
}

SimTime ReduceScatter(net::Network& network, std::vector<RingSpec> rings,
                      const CollectiveOptions& options) {
  return RunCollective(network, Algorithm::kRing, CollectiveOp::kReduceScatter,
                       rings, options);
}

SimTime AllGather(net::Network& network, std::vector<RingSpec> rings,
                  const CollectiveOptions& options) {
  return RunCollective(network, Algorithm::kRing, CollectiveOp::kAllGather,
                       rings, options);
}

SimTime AllReduce(net::Network& network, std::vector<RingSpec> rings,
                  const CollectiveOptions& options) {
  sim::Simulator& simulator = network.simulator();
  const SimTime start = simulator.now();
  auto outer =
      std::make_shared<sim::Barrier>(static_cast<int>(rings.size()), [] {});
  for (const RingSpec& spec : rings) {
    // Chain: reduce-scatter, then all-gather on the same ring. The copy of
    // `spec` kept by the lambda restarts the all-gather phase.
    StartGroup(network, Algorithm::kRing, CollectiveOp::kReduceScatter, spec,
               options, [network = &network, spec, options, outer] {
                 StartGroup(*network, Algorithm::kRing,
                            CollectiveOp::kAllGather, spec, options,
                            [outer] { outer->Notify(); });
               });
  }
  simulator.Run();
  return simulator.now() - start;
}

Range HdOwnedAfterReduceScatter(const Range& range, int group_size, int rank) {
  TPU_CHECK(IsPowerOfTwo(group_size));
  TPU_CHECK_GE(rank, 0);
  TPU_CHECK_LT(rank, group_size);
  if (group_size == 1) return range;
  return ChunkOfRange(range, group_size, rank);
}

SimTime HdReduceScatter(net::Network& network, std::vector<RingSpec> groups,
                        const CollectiveOptions& options) {
  return RunCollective(network, Algorithm::kHalvingDoubling,
                       CollectiveOp::kReduceScatter, groups, options);
}

SimTime HdAllGather(net::Network& network, std::vector<RingSpec> groups,
                    const CollectiveOptions& options) {
  return RunCollective(network, Algorithm::kHalvingDoubling,
                       CollectiveOp::kAllGather, groups, options);
}

}  // namespace tpu::coll
