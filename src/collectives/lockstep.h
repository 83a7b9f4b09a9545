// The lockstep pass: the one barrier-synchronised step loop behind the ring
// (ring.h) and recursive halving-doubling (halving_doubling.h) collectives.
//
// A pass is n ranks exchanging chunks of one payload range in steps; every
// rank's step-s transfer completes before step s+1 starts, which is how the
// synchronous XLA collectives behave. Only a small step geometry differs
// between the algorithms: the number of steps, the peer each rank sends to
// in step s and the element range it sends, and whether delivery adds
// (reduce-scatter, recursive halving) or copies (all-gather, recursive
// doubling). StepGeometry is that geometry. The pass (lockstep.cc) runs it,
// the stage fork (all_reduce.cc) walks its routes, and EstimateGroupSeconds
// prices it: for phase deadlines on the network's healthy-link clock, and
// for the planner's closed form (plan/cost.cc) on its own hop model.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "collectives/ring.h"
#include "common/units.h"
#include "network/network.h"
#include "topology/topology.h"

namespace tpu::coll {

enum class CollectiveOp { kReduceScatter, kAllGather };
enum class Algorithm { kRing, kHalvingDoubling };

// Chunk `index` of `range` cut into chunks of `chunk_elems` elements (the
// last may be short, trailing ones empty).
inline Range ChunkAt(const Range& range, std::int64_t chunk_elems, int index) {
  const std::int64_t begin =
      std::min(range.end, range.begin + index * chunk_elems);
  return Range{begin, std::min(range.end, begin + chunk_elems)};
}

// The step geometry of one pass over `ranks` ranks and `range`. Ranks are
// pass positions; Member(rank) is the group member (index into
// RingSpec::order and ::data) at that position, which a counter-clockwise
// ring pass walks backwards.
//
// Ring: n-1 steps; rank r sends to r+1 the chunk (r - s) mod n in
// reduce-scatter step s, and (r + 1 - s) mod n in all-gather step s (it
// starts out owning chunk r+1, the reduce-scatter output, and forwards what
// it last received). Halving-doubling: log2(n) rounds; in round s rank r
// exchanges with r ^ d, d = n/2^(s+1) when halving and 2^s when doubling,
// a block of d chunks: halving sends the block the partner keeps, doubling
// the block this rank holds. Chunks are ChunkOfRange's n-way layout.
class StepGeometry {
 public:
  StepGeometry() = default;
  StepGeometry(Algorithm algorithm, CollectiveOp op, int ranks, Range range,
               bool reversed = false);

  int ranks() const { return n_; }
  int steps() const { return steps_; }
  // Nothing to exchange: one rank or an empty range. Such a pass completes
  // at once, sends nothing and is priced at zero.
  bool degenerate() const { return n_ <= 1 || range_.size() == 0; }
  // Delivery adds the received chunk into the peer's buffer (reduce-scatter,
  // halving) or overwrites it (all-gather, doubling).
  bool adds() const { return reduce_; }
  int Member(int rank) const { return reversed_ ? n_ - 1 - rank : rank; }
  // Elements per chunk (the last chunks may be short or empty).
  std::int64_t chunk_elems() const { return chunk_; }

  // A ring sends to the same peer in every step; a halving-doubling
  // partner changes with the round. Peer layer PeerLayer(step) holds that
  // step's peers.
  int peer_layers() const { return ring_ ? 1 : steps_; }
  int PeerLayer(int step) const { return ring_ ? 0 : step; }
  int Peer(int layer, int rank) const {
    if (ring_) return rank + 1 == n_ ? 0 : rank + 1;
    return rank ^ Distance(layer);
  }

  // Calls fn(rank, peer, chunk) for every rank's step-`step` send, in rank
  // order.
  template <typename Fn>
  void ForEachSend(int step, Fn&& fn) const {
    if (ring_) {
      // The chunk index advances by one (mod n) with the rank.
      int chunk = ((reduce_ ? 0 : 1) - step) % n_;
      if (chunk < 0) chunk += n_;
      for (int rank = 0; rank < n_; ++rank, ++chunk) {
        if (chunk == n_) chunk = 0;
        fn(rank, rank + 1 == n_ ? 0 : rank + 1, ChunkAt(chunk));
      }
      return;
    }
    const int distance = Distance(step);
    for (int rank = 0; rank < n_; ++rank) {
      const int partner = rank ^ distance;
      const int first = (reduce_ ? partner : rank) / distance * distance;
      fn(rank, partner,
         Range{ChunkAt(first).begin, ChunkAt(first + distance - 1).end});
    }
  }

  // Calls fn(from, to) for every route the pass sends over, peer layer by
  // peer layer in rank order, with the chips taken from the group's
  // `order`: the routes the pass resolves at its start, and the ones a
  // forked stage warms and groups by. Nothing for a degenerate pass.
  template <typename Fn>
  void ForEachRoute(const std::vector<topo::ChipId>& order, Fn&& fn) const {
    if (degenerate()) return;
    for (int layer = 0; layer < peer_layers(); ++layer) {
      for (int rank = 0; rank < n_; ++rank) {
        fn(order[Member(rank)], order[Member(Peer(layer, rank))]);
      }
    }
  }

 private:
  int Distance(int step) const {
    return reduce_ ? n_ >> (step + 1) : 1 << step;
  }
  Range ChunkAt(int chunk) const { return coll::ChunkAt(range_, chunk_, chunk); }

  bool ring_ = true;
  bool reduce_ = true;
  bool reversed_ = false;
  int n_ = 0;
  int steps_ = 0;
  Range range_;
  std::int64_t chunk_ = 0;
};

// The passes one group runs: a single pass over the group's range, or, for
// a bidirectional ring of more than two ranks, a clockwise pass over the
// range's first half and a counter-clockwise one over its second (the two
// ring directions are independent full-duplex links). Fails loudly on a bad
// group: an empty order, a data list whose length differs from the order's,
// a negative or inverted range, or a halving-doubling group whose size is
// not a power of two.
struct GroupPasses {
  StepGeometry pass[2];
  int count = 0;

  const StepGeometry* begin() const { return pass; }
  const StepGeometry* end() const { return pass + count; }
};
GroupPasses PassesOf(Algorithm algorithm, CollectiveOp op,
                     const RingSpec& group, const CollectiveOptions& options);

// Closed-form duration of one group's collective, pricing each message with
// clock(from, to, wire_bytes): the slowest of the group's passes, each the
// sum over its steps of the step's slowest message. Contention between
// messages is not modelled. A ring pass sends over the same links in every
// step and at most one chunk per message, so it is priced as its step count
// times its slowest full-chunk message.
template <typename Clock>
SimTime EstimateGroupSeconds(Algorithm algorithm, CollectiveOp op,
                             const RingSpec& group,
                             const CollectiveOptions& options, Clock&& clock) {
  const Bytes elem_bytes = options.wire_bytes_per_elem();
  SimTime worst = 0;
  for (const StepGeometry& pass : PassesOf(algorithm, op, group, options)) {
    if (pass.degenerate()) continue;
    auto price = [&](int rank, int peer, std::int64_t elems) {
      return clock(group.order[pass.Member(rank)],
                   group.order[pass.Member(peer)], elems * elem_bytes);
    };
    SimTime total = 0;
    if (algorithm == Algorithm::kRing) {
      SimTime slowest = 0;
      for (int rank = 0; rank < pass.ranks(); ++rank) {
        slowest = std::max(slowest, price(rank, pass.Peer(0, rank),
                                          pass.chunk_elems()));
      }
      total = pass.steps() * slowest;
    } else {
      for (int step = 0; step < pass.steps(); ++step) {
        SimTime slowest = 0;
        pass.ForEachSend(step, [&](int rank, int peer, const Range& chunk) {
          slowest = std::max(slowest, price(rank, peer, chunk.size()));
        });
        total += slowest;
      }
    }
    worst = std::max(worst, total);
  }
  return worst;
}

// Healthy-network estimate of one collective phase over `groups`: the
// slowest group's EstimateGroupSeconds, each message priced by
// Network::EstimateArrival against the current link occupancy (which
// deliberately ignores injected degradation). This is the expectation
// phase-deadline detection compares reality against. Folded (mesh
// dimension) rings put two ring edges on each physical link; the resulting
// ~2x contention is not modelled, which is why deadline multiples below ~2
// are prone to false positives on X rings.
SimTime ExpectedPhaseSeconds(net::Network& network, Algorithm algorithm,
                             CollectiveOp op,
                             const std::vector<RingSpec>& groups,
                             const CollectiveOptions& options);

// Schedules `op` under `algorithm` on every group concurrently and fires
// `on_done` when the last completes; the caller runs the simulator. Each
// RingSpec is a group: its `order`, `data` and `range` (halving-doubling
// ignores `options.bidirectional`: its exchanges are already symmetric
// full-duplex pairs).
void StartCollective(net::Network& network, Algorithm algorithm,
                     CollectiveOp op, const std::vector<RingSpec>& groups,
                     const CollectiveOptions& options,
                     std::function<void()> on_done);

}  // namespace tpu::coll
