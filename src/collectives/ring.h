// Ring collectives over the simulated interconnect.
//
// These are *functional* implementations: when participant buffers are
// supplied, real float data moves between simulated chips chunk-by-chunk and
// the final buffer contents can be checked for exact correctness (reduction
// order on a ring is deterministic). When buffers are omitted, the same
// schedule runs timing-only, which is what the large-scale step-time
// simulations use.
//
// Algorithms follow Section 3.3: bidirectional rings (payload split across
// the two ring directions, which are independent full-duplex links), ring
// reduce-scatter and ring all-gather, optional bfloat16 wire compression.
// Every ring pass is a lockstep pass (lockstep.h); StartCollective is the
// non-blocking form of the calls below.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "network/network.h"
#include "topology/topology.h"

namespace tpu::coll {

struct Range {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t size() const { return end - begin; }
  friend bool operator==(const Range&, const Range&) = default;
};

struct CollectiveOptions {
  // Split the payload across both ring directions (doubles effective ring
  // bandwidth on torus dimensions).
  bool bidirectional = true;
  // Transmit gradients as bfloat16: halves wire bytes; when data buffers are
  // present, transmitted values are quantized (Section 3.3/4.1).
  bool bfloat16_wire = false;

  std::int64_t wire_bytes_per_elem() const { return bfloat16_wire ? 2 : 4; }
};

// One ring participating in a collective. `order[i]` is the chip at ring
// position i; `data[i]`, when non-null, points to that chip's full payload
// buffer (the collective touches only `range`). Distinct rings passed to one
// call run concurrently on the simulated network.
struct RingSpec {
  std::vector<topo::ChipId> order;
  std::vector<float*> data;  // empty, or one pointer per ring position
  Range range;               // payload subrange covered by this collective
  // Trace label prefix for this ring's spans (e.g. "Y x=3"); purely
  // observational, ignored when tracing is off.
  std::string label;

  int size() const { return static_cast<int>(order.size()); }
  bool has_data() const { return !data.empty(); }
};

// The contiguous chunk layout shared by the ring and halving-doubling
// collectives: `range` divided into `parts` chunks of ceil(len / parts)
// elements (trailing chunks may be short or empty).
Range ChunkOfRange(const Range& range, int parts, int index);

// The chunk of `range` that ring position `rank` owns after a reduce-scatter
// (and therefore contributes during the matching all-gather). With
// bidirectional rings the result is two ranges (one per direction); either
// may be empty for tiny payloads.
std::vector<Range> OwnedAfterReduceScatter(const Range& range, int ring_size,
                                           int rank,
                                           const CollectiveOptions& options);

// Runs ring reduce-scatter on all rings concurrently. On return, simulated
// time has advanced past the completion of every ring; the returned value is
// the elapsed simulated time. If data buffers are present, each rank's owned
// chunks contain the cross-ring sums.
SimTime ReduceScatter(net::Network& network, std::vector<RingSpec> rings,
                      const CollectiveOptions& options);

// Inverse of ReduceScatter: each rank contributes its owned chunks and all
// ranks end with the full `range` contents.
SimTime AllGather(net::Network& network, std::vector<RingSpec> rings,
                  const CollectiveOptions& options);

// reduce-scatter followed by all-gather on each ring (the classic 1-D ring
// all-reduce). All rings run concurrently; RS->AG transition is per-ring.
SimTime AllReduce(net::Network& network, std::vector<RingSpec> rings,
                  const CollectiveOptions& options);

}  // namespace tpu::coll
