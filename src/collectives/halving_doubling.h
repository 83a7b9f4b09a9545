// Recursive halving-doubling collectives (Thakur et al.'s MPI algorithms,
// the schedule XLA picks for small payloads on power-of-two groups).
//
// Recursive halving (reduce-scatter): log2(n) barrier-synchronized rounds;
// in round k each rank exchanges half of its live payload with a partner at
// chunk distance n/2^(k+1), so the payload shrinks geometrically while the
// message count stays logarithmic. Recursive doubling (all-gather) is the
// exact reverse. Compared with rings this trades bandwidth efficiency for
// latency: fewer rounds, but partners are far apart on a mesh, so each
// message crosses many physical hops. The collective planner (src/plan)
// enumerates both and lets the cost model decide.
//
// Like the ring collectives these are functional when participant buffers
// are supplied and timing-only otherwise, and each group runs one lockstep
// pass (lockstep.h). Ownership after the halving phase is the *natural*
// chunk layout: rank r owns chunk r of the range (HdOwnedAfterReduceScatter),
// unlike the ring layout which is rotated.
#pragma once

#include <vector>

#include "collectives/ring.h"
#include "common/units.h"
#include "network/network.h"

namespace tpu::coll {

// The contiguous chunk rank `rank` owns after recursive halving on a group
// of `group_size` participants (group_size must be a power of two).
Range HdOwnedAfterReduceScatter(const Range& range, int group_size, int rank);

// Blocking recursive-halving reduce-scatter / recursive-doubling all-gather
// over every group in `groups` concurrently (StartCollective with
// Algorithm::kHalvingDoubling is the non-blocking form): run the simulator
// to completion and return elapsed simulated time. Each RingSpec is reused
// as a participant list (`order`, `data`, `range`); its `bidirectional`
// option is ignored (exchanges are already symmetric full-duplex pairs).
// Group sizes must be powers of two.
SimTime HdReduceScatter(net::Network& network, std::vector<RingSpec> groups,
                        const CollectiveOptions& options);
SimTime HdAllGather(net::Network& network, std::vector<RingSpec> groups,
                    const CollectiveOptions& options);

}  // namespace tpu::coll
