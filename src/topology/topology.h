// TPU-v3 multipod topology.
//
// The paper's machine is a 128x32 2-D mesh of 4096 TPU-v3 chips, built from
// four 32x32 pods joined along the X dimension by cross-pod optical links
// (Figures 1-2). The Y dimension keeps the within-pod torus wrap links; the
// X dimension is a mesh (no global wrap). Each chip has two cores, and each
// host machine drives four chips (eight cores).
//
// Because the TPU-v3 routing table holds only 1024 entries, a chip only
// "sees" the chips in its own row and column (sparse routing); all routes are
// dimension-ordered within that visibility set, which is sufficient for the
// ring collectives used in training (Section 1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"

namespace tpu::topo {

using ChipId = std::int32_t;
using LinkId = std::int32_t;
using HostId = std::int32_t;

struct Coord {
  int x = 0;
  int y = 0;
  friend bool operator==(const Coord&, const Coord&) = default;
};

enum class Dim { kX, kY };

enum class LinkType {
  kMeshX,      // standard within-pod X link
  kCrossPodX,  // longer optical link joining neighboring pods along X
  kMeshY,      // standard within-pod Y link
  kWrapY,      // torus wrap link at the Y edges
};

// A directed physical link between neighboring chips. Each undirected cable
// is modeled as two directed links since TPU ICI links are full duplex.
struct Link {
  LinkId id = -1;
  ChipId from = -1;
  ChipId to = -1;
  LinkType type = LinkType::kMeshX;
};

struct TopologyConfig {
  int pod_size_x = 32;
  int pod_size_y = 32;
  int num_pods = 4;     // pods are laid out side by side along X
  bool wrap_y = true;   // within-pod torus links at the Y edges (kept in the
                        // multipod per the paper)
  bool wrap_x = false;  // the multipod X dimension is a mesh
  int cores_per_chip = 2;
  int chips_per_host = 4;
  int routing_table_entries = 1024;

  int size_x() const { return pod_size_x * num_pods; }
  int size_y() const { return pod_size_y; }
  int num_chips() const { return size_x() * size_y(); }

  static TopologyConfig Multipod(int num_pods) {
    TopologyConfig config;
    config.num_pods = num_pods;
    return config;
  }

  // A slice: a sub-rectangle of one pod (e.g. the 512-chip MaskRCNN or
  // 256-chip DLRM slices). Slices lose the Y wrap unless they span the
  // full Y extent of the pod.
  static TopologyConfig Slice(int size_x, int size_y, bool wrap_y) {
    TopologyConfig config;
    config.pod_size_x = size_x;
    config.pod_size_y = size_y;
    config.num_pods = 1;
    config.wrap_y = wrap_y;
    return config;
  }
};

class MeshTopology {
 public:
  explicit MeshTopology(const TopologyConfig& config);

  const TopologyConfig& config() const { return config_; }
  int size_x() const { return config_.size_x(); }
  int size_y() const { return config_.size_y(); }
  int num_chips() const { return config_.num_chips(); }
  int num_cores() const { return num_chips() * config_.cores_per_chip; }
  int num_hosts() const { return num_chips() / config_.chips_per_host; }

  ChipId ChipAt(Coord c) const {
    TPU_CHECK_GE(c.x, 0);
    TPU_CHECK_LT(c.x, size_x());
    TPU_CHECK_GE(c.y, 0);
    TPU_CHECK_LT(c.y, size_y());
    return static_cast<ChipId>(c.y) * size_x() + c.x;
  }
  Coord CoordOf(ChipId chip) const {
    TPU_CHECK_GE(chip, 0);
    TPU_CHECK_LT(chip, num_chips());
    return Coord{chip % size_x(), chip / size_x()};
  }

  // Hosts are assigned contiguous groups of chips along X rows.
  HostId HostOf(ChipId chip) const {
    const Coord c = CoordOf(chip);
    const int hosts_per_row = size_x() / config_.chips_per_host;
    return c.y * hosts_per_row + c.x / config_.chips_per_host;
  }
  std::vector<ChipId> ChipsOfHost(HostId host) const;

  const std::vector<Link>& links() const { return links_; }
  const Link& link(LinkId id) const { return links_[id]; }

  // Directed link from `from` to neighboring chip `to`; aborts if the chips
  // are not physical neighbors.
  LinkId LinkBetween(ChipId from, ChipId to) const;
  bool AreNeighbors(ChipId a, ChipId b) const;

  // Dimension-ordered route (X first, then Y), including wrap shortcuts when
  // the dimension is a torus. Returns the chip sequence from `from` to `to`
  // inclusive.
  std::vector<ChipId> Route(ChipId from, ChipId to) const;
  // The directed links traversed by Route(from, to).
  std::vector<LinkId> RouteLinks(ChipId from, ChipId to) const;

  // Sparse-routing visibility: the chips in the same row or column (the
  // neighbor set the 1024-entry routing table can hold).
  std::vector<ChipId> VisibleChips(ChipId chip) const;
  // Largest visibility set across chips; must fit the routing table.
  int MaxRoutingEntriesUsed() const;

  // The chips of one line along `dim` passing through `through`, ordered by
  // coordinate. For a torus dimension this order is already a physical ring.
  std::vector<ChipId> LineAlong(Dim dim, ChipId through) const;

  // Ring order for collectives along `dim`. On a torus dimension this is the
  // natural ring. On a mesh dimension the ring is "folded" (0,2,4,...,5,3,1)
  // so consecutive ring positions stay within two physical hops and every
  // physical link carries at most two ring edges.
  std::vector<ChipId> RingAlong(Dim dim, ChipId through) const;

  // Ring over every stride-th chip along `dim` starting at the line offset of
  // `through`. Used for gradient reduction that "hops over peers that are
  // model parallelism neighbors" (Section 3.3, Figure 4 dotted blue rings).
  std::vector<ChipId> StridedRingAlong(Dim dim, ChipId through,
                                       int stride) const;

  // True if the given X coordinate boundary (x -> x+1) crosses pods.
  bool IsCrossPodBoundary(int x) const {
    return (x + 1) % config_.pod_size_x == 0 && x + 1 < size_x();
  }

  // Pods are laid out side by side along X, so a chip's pod index is its X
  // coordinate divided by the pod width. Every chip of a Y column (and hence
  // every Y-dimension ring) lives in exactly one pod; only X-dimension
  // traffic crosses pods.
  int num_pods() const { return config_.num_pods; }
  int PodOf(ChipId chip) const { return CoordOf(chip).x / config_.pod_size_x; }

  std::string ToString() const;

 private:
  void BuildLinks();
  LinkId AddLink(ChipId from, ChipId to, LinkType type);

  TopologyConfig config_;
  std::vector<Link> links_;
  // link_index_[from * 4 + direction] -> LinkId (directions: +x,-x,+y,-y)
  std::vector<LinkId> link_index_;

  static constexpr int kDirPlusX = 0;
  static constexpr int kDirMinusX = 1;
  static constexpr int kDirPlusY = 2;
  static constexpr int kDirMinusY = 3;
};

// An axis-aligned rectangle of chips: [x0, x0+size_x) x [y0, y0+size_y).
// The unit of elastic shrink and of cluster slice carving — a carved
// sub-mesh is itself a legal Slice topology (same X-then-Y dimension-ordered
// routes, folded rings).
struct SubmeshRect {
  int x0 = 0;
  int y0 = 0;
  int size_x = 0;
  int size_y = 0;

  int chips() const { return size_x * size_y; }
  // Alias for chips(); zero when either extent is zero or negative.
  int area() const { return size_x <= 0 || size_y <= 0 ? 0 : chips(); }
  // Chip-sides on the rectangle boundary; zero for an empty rect.
  int perimeter() const { return area() == 0 ? 0 : 2 * (size_x + size_y); }
  bool empty() const { return area() == 0; }
  bool Contains(Coord c) const {
    return c.x >= x0 && c.x < x0 + size_x && c.y >= y0 && c.y < y0 + size_y;
  }
  // Every chip of `other` lies inside this rect. An empty `other` is
  // contained nowhere (a zero-area allocation is meaningless).
  bool Contains(const SubmeshRect& other) const {
    return !other.empty() && other.x0 >= x0 && other.y0 >= y0 &&
           other.x0 + other.size_x <= x0 + size_x &&
           other.y0 + other.size_y <= y0 + size_y;
  }
  // The two rects share at least one chip. Empty rects intersect nothing —
  // touching edges (adjacent slices) do not count as overlap.
  bool Intersects(const SubmeshRect& other) const {
    return !empty() && !other.empty() && x0 < other.x0 + other.size_x &&
           other.x0 < x0 + size_x && y0 < other.y0 + other.size_y &&
           other.y0 < y0 + size_y;
  }
  friend bool operator==(const SubmeshRect&, const SubmeshRect&) = default;
};

// Largest axis-aligned rectangular sub-mesh of `topo` containing none of
// `dead_chips` (maximal-rectangle-in-binary-matrix, histogram-stack form).
// `x_granularity` quantizes x0 and size_x to multiples of the given width —
// pass the model-parallel group width so a carved slice keeps tiling into
// whole groups; it must divide topo.size_x(). Ties on area break toward the
// first rectangle in (y, then x) scan order, so the carve is deterministic.
// Returns a zero-area rect when every granule contains a dead chip.
SubmeshRect LargestHealthySubmesh(const MeshTopology& topo,
                                  const std::vector<ChipId>& dead_chips,
                                  int x_granularity = 1);

}  // namespace tpu::topo
