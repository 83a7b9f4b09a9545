#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "collectives/all_reduce.h"
#include "collectives/halving_doubling.h"
#include "collectives/ring.h"
#include "collectives/xfer.h"
#include "common/rng.h"
#include "network/network.h"
#include "sim/pdes.h"
#include "sim/simulator.h"
#include "telemetry/probes.h"
#include "telemetry/sampler.h"
#include "telemetry/telemetry.h"
#include "topology/topology.h"

namespace tpu::coll {
namespace {

// A small harness bundling topology + simulator + network + per-chip buffers
// filled with integer-valued floats (so cross-chip sums are exact regardless
// of reduction order).
class Harness {
 public:
  Harness(int size_x, int size_y, bool wrap_y, std::int64_t elems)
      : topo_(topo::TopologyConfig::Slice(size_x, size_y, wrap_y)),
        network_(&topo_, net::NetworkConfig{}, &simulator_),
        elems_(elems) {
    Rng rng(1234);
    buffers_.resize(topo_.num_chips());
    expected_sum_.assign(elems, 0.0f);
    for (auto& buffer : buffers_) {
      buffer.resize(elems);
      for (std::int64_t i = 0; i < elems; ++i) {
        buffer[i] = static_cast<float>(rng.NextBounded(8));
      }
    }
    for (const auto& buffer : buffers_) {
      for (std::int64_t i = 0; i < elems; ++i) expected_sum_[i] += buffer[i];
    }
  }

  topo::MeshTopology& topo() { return topo_; }
  net::Network& network() { return network_; }
  std::int64_t elems() const { return elems_; }
  std::vector<float>& buffer(topo::ChipId chip) { return buffers_[chip]; }
  const std::vector<float>& expected_sum() const { return expected_sum_; }

  std::vector<float*> ChipBufferPtrs() {
    std::vector<float*> ptrs;
    ptrs.reserve(buffers_.size());
    for (auto& buffer : buffers_) ptrs.push_back(buffer.data());
    return ptrs;
  }

  RingSpec SpecFor(const std::vector<topo::ChipId>& order) {
    RingSpec spec;
    spec.order = order;
    for (topo::ChipId chip : order) spec.data.push_back(buffers_[chip].data());
    spec.range = Range{0, elems_};
    return spec;
  }

  // Expected ring sum over a set of chips.
  std::vector<float> SumOver(const std::vector<topo::ChipId>& chips) const {
    std::vector<float> sum(elems_, 0.0f);
    for (topo::ChipId chip : chips) {
      for (std::int64_t i = 0; i < elems_; ++i) sum[i] += buffers_[chip][i];
    }
    return sum;
  }

 private:
  topo::MeshTopology topo_;
  sim::Simulator simulator_;
  net::Network network_;
  std::int64_t elems_;
  std::vector<std::vector<float>> buffers_;
  std::vector<float> expected_sum_;
};

TEST(OwnedAfterReduceScatter, RanksPartitionTheRange) {
  for (int n : {1, 2, 3, 4, 7, 8, 32}) {
    for (bool bidir : {false, true}) {
      CollectiveOptions options;
      options.bidirectional = bidir;
      const Range range{0, 1000};
      std::vector<int> covered(1000, 0);
      for (int rank = 0; rank < n; ++rank) {
        for (const Range& owned :
             OwnedAfterReduceScatter(range, n, rank, options)) {
          for (std::int64_t i = owned.begin; i < owned.end; ++i) ++covered[i];
        }
      }
      for (int c : covered) {
        EXPECT_EQ(c, 1) << "n=" << n << " bidir=" << bidir;
      }
    }
  }
}

TEST(OwnedAfterReduceScatter, TinyPayloadStillPartitions) {
  CollectiveOptions options;
  options.bidirectional = true;
  const Range range{0, 3};  // fewer elements than an 8-ring's chunk count
  std::vector<int> covered(3, 0);
  for (int rank = 0; rank < 8; ++rank) {
    for (const Range& owned : OwnedAfterReduceScatter(range, 8, rank, options)) {
      for (std::int64_t i = owned.begin; i < owned.end; ++i) ++covered[i];
    }
  }
  for (int c : covered) EXPECT_EQ(c, 1);
}

struct RingCase {
  int ring_len;
  bool bidirectional;
};

class RingCollectiveTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(RingCollectiveTest, ReduceScatterProducesOwnedSums) {
  const auto [ring_len, bidir] = GetParam();
  Harness h(1, ring_len, /*wrap_y=*/true, /*elems=*/240);
  CollectiveOptions options;
  options.bidirectional = bidir;

  const auto ring = h.topo().RingAlong(topo::Dim::kY, 0);
  std::vector<RingSpec> rings{h.SpecFor(ring)};
  const SimTime elapsed = ReduceScatter(h.network(), rings, options);
  if (ring_len > 1) {
    EXPECT_GT(elapsed, 0.0);
  }

  for (int rank = 0; rank < ring_len; ++rank) {
    for (const Range& owned :
         OwnedAfterReduceScatter(Range{0, h.elems()}, ring_len, rank, options)) {
      for (std::int64_t i = owned.begin; i < owned.end; ++i) {
        EXPECT_EQ(h.buffer(ring[rank])[i], h.expected_sum()[i])
            << "rank " << rank << " elem " << i;
      }
    }
  }
}

TEST_P(RingCollectiveTest, AllReduceSumsEverywhere) {
  const auto [ring_len, bidir] = GetParam();
  Harness h(1, ring_len, /*wrap_y=*/true, /*elems=*/240);
  CollectiveOptions options;
  options.bidirectional = bidir;

  const auto ring = h.topo().RingAlong(topo::Dim::kY, 0);
  std::vector<RingSpec> rings{h.SpecFor(ring)};
  AllReduce(h.network(), rings, options);

  for (topo::ChipId chip : ring) {
    for (std::int64_t i = 0; i < h.elems(); ++i) {
      ASSERT_EQ(h.buffer(chip)[i], h.expected_sum()[i])
          << "chip " << chip << " elem " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RingSizes, RingCollectiveTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 8, 16),
                       ::testing::Bool()));

TEST(RingCollective, AllReduceOnFoldedMeshRing) {
  // X dimension of a slice is a mesh; the ring is folded. Results must be
  // identical to the torus case.
  Harness h(8, 1, /*wrap_y=*/false, /*elems=*/64);
  const auto ring = h.topo().RingAlong(topo::Dim::kX, 0);
  std::vector<RingSpec> rings{h.SpecFor(ring)};
  AllReduce(h.network(), rings, CollectiveOptions{});
  for (topo::ChipId chip : ring) {
    for (std::int64_t i = 0; i < h.elems(); ++i) {
      ASSERT_EQ(h.buffer(chip)[i], h.expected_sum()[i]);
    }
  }
}

TEST(RingCollective, PayloadSmallerThanRing) {
  Harness h(1, 8, true, /*elems=*/3);
  const auto ring = h.topo().RingAlong(topo::Dim::kY, 0);
  std::vector<RingSpec> rings{h.SpecFor(ring)};
  AllReduce(h.network(), rings, CollectiveOptions{});
  for (topo::ChipId chip : ring) {
    for (std::int64_t i = 0; i < h.elems(); ++i) {
      ASSERT_EQ(h.buffer(chip)[i], h.expected_sum()[i]);
    }
  }
}

TEST(RingCollective, BFloat16WireApproximatesSum) {
  Harness h(1, 8, true, /*elems=*/128);
  // Overwrite with values that need rounding in bf16.
  Rng rng(99);
  std::vector<float> expected(h.elems(), 0.0f);
  for (topo::ChipId chip = 0; chip < h.topo().num_chips(); ++chip) {
    for (std::int64_t i = 0; i < h.elems(); ++i) {
      h.buffer(chip)[i] = static_cast<float>(rng.NextUniform(-1.0, 1.0));
      expected[i] += h.buffer(chip)[i];
    }
  }
  CollectiveOptions options;
  options.bfloat16_wire = true;
  const auto ring = h.topo().RingAlong(topo::Dim::kY, 0);
  std::vector<RingSpec> rings{h.SpecFor(ring)};
  AllReduce(h.network(), rings, options);
  for (topo::ChipId chip : ring) {
    for (std::int64_t i = 0; i < h.elems(); ++i) {
      // bf16 relative error ~2^-8 per hop; sum of 8 values in [-1,1].
      ASSERT_NEAR(h.buffer(chip)[i], expected[i], 0.3);
      ASSERT_NE(h.buffer(chip)[i], 0.0f);
    }
  }
}

TEST(RingCollective, BFloat16HalvesWireBytes) {
  auto run = [](bool bf16) {
    Harness h(1, 8, true, /*elems=*/1024);
    CollectiveOptions options;
    options.bfloat16_wire = bf16;
    const auto ring = h.topo().RingAlong(topo::Dim::kY, 0);
    std::vector<RingSpec> rings{h.SpecFor(ring)};
    AllReduce(h.network(), rings, options);
    return h.network().traffic().total_bytes();
  };
  const Bytes f32 = run(false);
  const Bytes bf16 = run(true);
  EXPECT_NEAR(static_cast<double>(bf16) / f32, 0.5, 0.02);
}

TEST(RingCollective, BidirectionalIsFasterOnTorus) {
  auto run = [](bool bidir) {
    Harness h(1, 16, true, /*elems=*/1 << 16);
    CollectiveOptions options;
    options.bidirectional = bidir;
    const auto ring = h.topo().RingAlong(topo::Dim::kY, 0);
    std::vector<RingSpec> rings{h.SpecFor(ring)};
    return AllReduce(h.network(), rings, options);
  };
  EXPECT_LT(run(true), run(false));
}

TEST(RingCollective, ConcurrentRingsOverlap) {
  // Two disjoint column rings must take about the time of one, not double.
  const std::int64_t elems = 1 << 15;
  Harness h2(2, 8, true, elems);
  std::vector<RingSpec> two{
      h2.SpecFor(h2.topo().RingAlong(topo::Dim::kY, h2.topo().ChipAt({0, 0}))),
      h2.SpecFor(h2.topo().RingAlong(topo::Dim::kY, h2.topo().ChipAt({1, 0})))};
  const SimTime both = AllReduce(h2.network(), two, CollectiveOptions{});

  Harness h1(2, 8, true, elems);
  std::vector<RingSpec> one{
      h1.SpecFor(h1.topo().RingAlong(topo::Dim::kY, h1.topo().ChipAt({0, 0})))};
  const SimTime single = AllReduce(h1.network(), one, CollectiveOptions{});
  EXPECT_NEAR(both, single, single * 0.01);
}

class TwoDSummationTest
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(TwoDSummationTest, EveryChipGetsGlobalSum) {
  const auto [size_x, size_y, bidir] = GetParam();
  Harness h(size_x, size_y, /*wrap_y=*/true, /*elems=*/512);
  GradientSummationConfig config;
  config.elems = h.elems();
  config.collective.bidirectional = bidir;
  const auto result =
      TwoDGradientSummation(h.network(), config, h.ChipBufferPtrs());
  EXPECT_GT(result.reduce_seconds, 0.0);
  EXPECT_GT(result.broadcast_seconds, 0.0);
  EXPECT_EQ(result.update_seconds, 0.0);  // no hook installed
  for (int chip = 0; chip < h.topo().num_chips(); ++chip) {
    for (std::int64_t i = 0; i < h.elems(); ++i) {
      ASSERT_EQ(h.buffer(chip)[i], h.expected_sum()[i])
          << "chip " << chip << " elem " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MeshShapes, TwoDSummationTest,
    ::testing::Combine(::testing::Values(2, 4, 8), ::testing::Values(2, 4, 8),
                       ::testing::Bool()));

TEST(TwoDSummation, ModelParallelStrideSumsOverPeerGroups) {
  // Stride 2: chips with even x form one gradient group, odd x the other
  // (they hold different model shards, Figure 4).
  const int size_x = 8, size_y = 4;
  Harness h(size_x, size_y, true, /*elems=*/128);
  GradientSummationConfig config;
  config.elems = h.elems();
  config.model_parallel_stride = 2;

  // Expected: sum over all chips with x of matching parity.
  std::vector<std::vector<float>> expected(2);
  for (int parity = 0; parity < 2; ++parity) {
    std::vector<topo::ChipId> group;
    for (int x = parity; x < size_x; x += 2) {
      for (int y = 0; y < size_y; ++y) group.push_back(h.topo().ChipAt({x, y}));
    }
    expected[parity] = h.SumOver(group);
  }

  TwoDGradientSummation(h.network(), config, h.ChipBufferPtrs());
  for (int chip = 0; chip < h.topo().num_chips(); ++chip) {
    const int parity = h.topo().CoordOf(chip).x % 2;
    for (std::int64_t i = 0; i < h.elems(); ++i) {
      ASSERT_EQ(h.buffer(chip)[i], expected[parity][i])
          << "chip " << chip << " elem " << i;
    }
  }
}

TEST(TwoDSummation, WeightUpdateHookRunsOnShards) {
  Harness h(4, 4, true, /*elems=*/1024);
  GradientSummationConfig config;
  config.elems = h.elems();
  std::int64_t max_seen = 0;
  config.shard_update_seconds = [&](std::int64_t owned) {
    max_seen = std::max(max_seen, owned);
    return Micros(1.0) * static_cast<double>(owned);
  };
  const auto result = TwoDGradientSummation(h.network(), config);
  EXPECT_GT(result.update_seconds, 0.0);
  EXPECT_EQ(result.max_owned_elems, max_seen);
  // 16 chips: each owns about 1/16 of the payload.
  EXPECT_LE(max_seen, 2 * 1024 / 16 + 8);
  EXPECT_GT(max_seen, 0);
}

TEST(TwoDSummation, XPayloadIsYPayloadOverRingSize) {
  // Data parallel on a tall mesh: bytes on Y links should exceed bytes on X
  // links by about the Y ring size (Section 3.3: "32 times less").
  const int size_y = 8;
  Harness h(4, size_y, true, /*elems=*/1 << 14);
  GradientSummationConfig config;
  config.elems = h.elems();
  TwoDGradientSummation(h.network(), config, h.ChipBufferPtrs());
  const auto& traffic = h.network().traffic();
  const double y_bytes =
      static_cast<double>(traffic.mesh_y_bytes + traffic.wrap_y_bytes);
  const double x_bytes =
      static_cast<double>(traffic.mesh_x_bytes + traffic.cross_pod_x_bytes);
  EXPECT_GT(y_bytes, 0);
  EXPECT_GT(x_bytes, 0);
  // Per-hop bytes on X are payload/size_y; X rings are folded (up to 2
  // physical hops per ring edge), so allow a factor-2 band around size_y.
  EXPECT_GT(y_bytes / x_bytes, size_y / 2.5);
}

TEST(TwoDSummation, BeatsOneDimensionalRingAtScale) {
  const std::int64_t elems = 1 << 16;
  Harness h2(16, 8, true, elems);
  GradientSummationConfig config;
  config.elems = elems;
  const SimTime two_d =
      TwoDGradientSummation(h2.network(), config).total();

  Harness h1(16, 8, true, elems);
  const SimTime one_d = OneDGradientSummation(h1.network(), config);
  EXPECT_LT(two_d, one_d);
}

TEST(OneDSummation, SnakeRingCorrectness) {
  Harness h(4, 4, true, /*elems=*/64);
  GradientSummationConfig config;
  config.elems = h.elems();
  OneDGradientSummation(h.network(), config, h.ChipBufferPtrs());
  for (int chip = 0; chip < h.topo().num_chips(); ++chip) {
    for (std::int64_t i = 0; i < h.elems(); ++i) {
      ASSERT_EQ(h.buffer(chip)[i], h.expected_sum()[i]);
    }
  }
}

TEST(HalvingDoubling, ReduceScatterThenAllGatherSums) {
  Harness h(8, 4, true, /*elems=*/64);
  const std::vector<topo::ChipId> row =
      h.topo().LineAlong(topo::Dim::kX, h.topo().ChipAt({0, 1}));
  const std::vector<float> want = h.SumOver(row);

  std::vector<RingSpec> groups{h.SpecFor(row)};
  HdReduceScatter(h.network(), groups, CollectiveOptions{});
  // After halving, rank r holds the summed natural chunk r.
  for (std::size_t rank = 0; rank < row.size(); ++rank) {
    const Range owned = HdOwnedAfterReduceScatter(
        Range{0, h.elems()}, static_cast<int>(row.size()),
        static_cast<int>(rank));
    for (std::int64_t i = owned.begin; i < owned.end; ++i) {
      ASSERT_EQ(h.buffer(row[rank])[i], want[i]) << "rank " << rank;
    }
  }
  HdAllGather(h.network(), groups, CollectiveOptions{});
  for (const topo::ChipId chip : row) {
    for (std::int64_t i = 0; i < h.elems(); ++i) {
      ASSERT_EQ(h.buffer(chip)[i], want[i]);
    }
  }
}

TEST(HalvingDoubling, OwnershipPartitionsTheRange) {
  const Range range{0, 1000};
  for (int n : {1, 2, 4, 8, 16}) {
    std::vector<int> covered(1000, 0);
    for (int rank = 0; rank < n; ++rank) {
      const Range owned = HdOwnedAfterReduceScatter(range, n, rank);
      for (std::int64_t i = owned.begin; i < owned.end; ++i) ++covered[i];
    }
    for (int c : covered) EXPECT_EQ(c, 1) << "n=" << n;
  }
}

TEST(HalvingDoubling, ExpectedPhaseSecondsLowerBoundsTheRun) {
  const std::int64_t elems = 1 << 14;
  Harness h(8, 4, true, elems);
  std::vector<RingSpec> groups;
  for (int x = 0; x < 8; ++x) {
    RingSpec spec;
    spec.order = h.topo().LineAlong(topo::Dim::kY, h.topo().ChipAt({x, 0}));
    spec.range = Range{0, elems};
    groups.push_back(spec);
  }
  const SimTime expected =
      ExpectedHdPhaseSeconds(h.network(), groups, CollectiveOptions{});
  const SimTime actual =
      HdReduceScatter(h.network(), groups, CollectiveOptions{});
  EXPECT_GT(expected, 0.0);
  // The estimate ignores contention between concurrent exchanges, so it can
  // only undershoot the simulated run.
  EXPECT_LE(expected, actual * (1 + 1e-9));
}

TEST(PhaseDeadline, DisabledByDefault) {
  PhaseDeadlineConfig deadline;
  EXPECT_EQ(deadline.multiple, 0.0);
  EXPECT_FALSE(deadline.enabled());
}

TEST(PhaseDeadline, ZeroExpectedFloorsAtMinDeadline) {
  PhaseDeadlineConfig deadline;
  deadline.multiple = 3.0;
  deadline.min_deadline = Micros(50);
  // A degenerate phase (empty group, zero payload) has expected == 0; the
  // floor keeps the deadline meaningful instead of instant.
  EXPECT_EQ(deadline.DeadlineFor(0.0), Micros(50));
}

TEST(PhaseDeadline, SmallExpectationsFloorLargeOnesScale) {
  PhaseDeadlineConfig deadline;
  deadline.multiple = 3.0;
  deadline.min_deadline = Micros(50);
  EXPECT_EQ(deadline.DeadlineFor(Micros(10)), Micros(50));   // 30us < floor
  EXPECT_EQ(deadline.DeadlineFor(Micros(100)), Micros(300));  // scales
}

// Every field of two summation results, per-phase timings and the timeout
// summary included.
void ExpectSameSummation(const GradientSummationResult& got,
                         const GradientSummationResult& want) {
  EXPECT_EQ(got.reduce_seconds, want.reduce_seconds);
  EXPECT_EQ(got.update_seconds, want.update_seconds);
  EXPECT_EQ(got.broadcast_seconds, want.broadcast_seconds);
  EXPECT_EQ(got.phase_seconds.y_reduce_scatter,
            want.phase_seconds.y_reduce_scatter);
  EXPECT_EQ(got.phase_seconds.x_reduce_scatter,
            want.phase_seconds.x_reduce_scatter);
  EXPECT_EQ(got.phase_seconds.update, want.phase_seconds.update);
  EXPECT_EQ(got.phase_seconds.x_all_gather, want.phase_seconds.x_all_gather);
  EXPECT_EQ(got.phase_seconds.y_all_gather, want.phase_seconds.y_all_gather);
  EXPECT_EQ(got.max_owned_elems, want.max_owned_elems);
  ASSERT_EQ(got.phases.size(), want.phases.size());
  for (std::size_t i = 0; i < want.phases.size(); ++i) {
    EXPECT_STREQ(got.phases[i].name, want.phases[i].name);
    EXPECT_EQ(got.phases[i].start, want.phases[i].start);
    EXPECT_EQ(got.phases[i].expected, want.phases[i].expected);
    EXPECT_EQ(got.phases[i].actual, want.phases[i].actual);
    EXPECT_EQ(got.phases[i].deadline, want.phases[i].deadline);
    EXPECT_EQ(got.phases[i].timed_out, want.phases[i].timed_out);
  }
  EXPECT_EQ(got.timed_out, want.timed_out);
  EXPECT_EQ(got.detected_at, want.detected_at);
  EXPECT_STREQ(got.timed_out_phase, want.timed_out_phase);
}

// One deadline-monitored 2-D summation with a sharded update on a 4-pod
// slice (4 pods of 8x8), at `threads` PDES threads (1 = serial). `arm` runs
// on the fresh simulator and network first, e.g. to degrade or schedule.
struct PdesRun {
  GradientSummationResult result;
  net::TrafficStats traffic;
  sim::PdesStats pdes;
  std::uint64_t events = 0;
  std::uint64_t events_scheduled = 0;
  std::string telemetry_json;
};

template <typename Arm>
PdesRun RunPdesSummation(int threads, Arm&& arm) {
  topo::TopologyConfig shape;
  shape.pod_size_x = 8;
  shape.pod_size_y = 8;
  shape.num_pods = 4;
  const topo::MeshTopology topo(shape);
  sim::Simulator simulator;
  net::Network network(&topo, {}, &simulator);
  PdesRun out;
  arm(topo, simulator, network, out);
  sim::PdesConfig pdes;
  pdes.enable = threads > 1;
  pdes.threads = threads;
  pdes.stats = &out.pdes;
  sim::ScopedPdesConfig install(pdes);
  GradientSummationConfig config;
  config.elems = 1 << 16;
  config.shard_update_seconds = [](std::int64_t owned) {
    return owned * 1e-9;
  };
  config.deadline.multiple = 3.0;
  out.result = TwoDGradientSummation(network, config);
  out.traffic = network.traffic();
  out.events = out.pdes.engaged ? out.pdes.events_processed
                                : simulator.events_processed();
  out.events_scheduled = out.pdes.engaged ? out.pdes.events_scheduled
                                          : simulator.events_scheduled();
  return out;
}

void ExpectSameRun(const PdesRun& got, const PdesRun& want) {
  ExpectSameSummation(got.result, want.result);
  EXPECT_EQ(got.traffic.mesh_x_bytes, want.traffic.mesh_x_bytes);
  EXPECT_EQ(got.traffic.cross_pod_x_bytes, want.traffic.cross_pod_x_bytes);
  EXPECT_EQ(got.traffic.mesh_y_bytes, want.traffic.mesh_y_bytes);
  EXPECT_EQ(got.traffic.wrap_y_bytes, want.traffic.wrap_y_bytes);
  EXPECT_EQ(got.traffic.messages, want.traffic.messages);
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.events_scheduled, want.events_scheduled);
}

// Deadline monitoring, the sharded-update barrier and the fork/join all live
// in the shared stage runner: an engaged run at 4 threads must report every
// result field exactly as the serial run does, with all four stages forked.
TEST(PdesSummation, DeadlineMonitoredEngagedRunMatchesSerial) {
  // A badly degraded Y link in pod 1 makes the Y phases overrun.
  auto degrade = [](const topo::MeshTopology& topo, sim::Simulator&,
                    net::Network& network, PdesRun&) {
    network.DegradeLink(
        topo.LinkBetween(topo.ChipAt({9, 2}), topo.ChipAt({9, 3})), 50.0);
  };
  const PdesRun serial = RunPdesSummation(1, degrade);
  const PdesRun engaged = RunPdesSummation(4, degrade);
  ASSERT_FALSE(serial.pdes.engaged);
  ASSERT_TRUE(engaged.pdes.engaged);
  EXPECT_TRUE(serial.result.timed_out);
  ASSERT_EQ(engaged.result.phases.size(), 4u);
  EXPECT_EQ(engaged.pdes.windows, 4u);
  ExpectSameRun(engaged, serial);
}

// A link degradation scheduled to land mid-Y-reduce-scatter is pending when
// that stage starts, so the stage stays on the caller's simulator, where the
// fault lands exactly when the serial run sees it; the three later stages
// start with nothing pending and fork.
TEST(PdesSummation, PendingLinkDegradationKeepsItsStageUnforked) {
  const PdesRun healthy =
      RunPdesSummation(1, [](auto&&...) {});
  const SimTime mid_y = healthy.result.phase_seconds.y_reduce_scatter / 2;
  auto arm = [mid_y](const topo::MeshTopology& topo, sim::Simulator& simulator,
                     net::Network& network, PdesRun&) {
    const topo::LinkId link =
        topo.LinkBetween(topo.ChipAt({9, 2}), topo.ChipAt({9, 3}));
    simulator.Schedule(mid_y, [&network, link] {
      network.DegradeLink(link, 8.0);
    });
  };
  const PdesRun serial = RunPdesSummation(1, arm);
  const PdesRun engaged = RunPdesSummation(4, arm);
  EXPECT_GT(serial.result.phase_seconds.y_reduce_scatter,
            healthy.result.phase_seconds.y_reduce_scatter);
  ASSERT_TRUE(engaged.pdes.engaged);
  EXPECT_EQ(engaged.pdes.windows, 3u);
  EXPECT_EQ(engaged.pdes.partition_events_processed.size(), 3u);
  ExpectSameRun(engaged, serial);
}

// A telemetry sampler ticking on the simulator keeps a tick pending at every
// stage start, so no stage forks: each tick reads the network at exactly the
// instant the serial run does, and the sampled series match byte for byte.
TEST(PdesSummation, TickingSamplerKeepsEveryStageUnforked) {
  auto sampled = [](int threads) {
    telemetry::TelemetryConfig config;
    config.sample_interval = Micros(2);
    telemetry::TelemetrySession session(config);
    session.BeginRun("pdes", 0.0);
    std::unique_ptr<telemetry::TimeSeriesSampler> sampler;
    PdesRun run = RunPdesSummation(
        threads, [&](const topo::MeshTopology&, sim::Simulator& simulator,
                     net::Network& network, PdesRun&) {
          sampler = std::make_unique<telemetry::TimeSeriesSampler>(
              &simulator, &session);
          telemetry::RegisterNetworkProbes(*sampler, network);
          telemetry::RegisterSimulatorProbes(*sampler, simulator);
          sampler->set_stop_predicate(
              [&simulator] { return simulator.queue_depth() == 0; });
          sampler->Start();
        });
    EXPECT_GT(sampler->ticks(), 4u);
    session.CommitRun();
    run.telemetry_json = session.ToJson();
    return run;
  };
  const PdesRun serial = sampled(1);
  const PdesRun engaged = sampled(4);
  ASSERT_TRUE(engaged.pdes.engaged);
  EXPECT_EQ(engaged.pdes.windows, 0u);
  ExpectSameRun(engaged, serial);
  EXPECT_EQ(engaged.telemetry_json, serial.telemetry_json);
}

TEST(SnakeRing, VisitsEveryChipWithNeighborSteps) {
  topo::MeshTopology topo(topo::TopologyConfig::Slice(6, 5, false));
  const auto ring = SnakeRingOverMesh(topo);
  EXPECT_EQ(static_cast<int>(ring.size()), topo.num_chips());
  for (std::size_t i = 0; i + 1 < ring.size(); ++i) {
    EXPECT_TRUE(topo.AreNeighbors(ring[i], ring[i + 1])) << i;
  }
}

TEST(HaloExchange, TimesTileBoundaryTraffic) {
  Harness h(8, 1, false, 1);
  // 8 parts in a 1x8 spatial grid over the image (SSD-style), 64 KiB halos.
  std::vector<topo::ChipId> parts;
  for (int x = 0; x < 8; ++x) parts.push_back(h.topo().ChipAt({x, 0}));
  const SimTime t = HaloExchange(h.network(), parts, 8, 1, 64 * kKiB, 0);
  EXPECT_GT(t, 0.0);
  // 7 boundaries x 2 directions x 64 KiB on X links.
  EXPECT_EQ(h.network().traffic().mesh_x_bytes, 7 * 2 * 64 * kKiB);
}

TEST(HaloExchange, TwoDGridExchangesBothDims) {
  Harness h(4, 4, false, 1);
  std::vector<topo::ChipId> parts;
  for (int gy = 0; gy < 2; ++gy) {
    for (int gx = 0; gx < 2; ++gx) parts.push_back(h.topo().ChipAt({gx, gy}));
  }
  HaloExchange(h.network(), parts, 2, 2, 1000, 2000);
  EXPECT_EQ(h.network().traffic().mesh_x_bytes, 2 * 2 * 1000);
  EXPECT_EQ(h.network().traffic().mesh_y_bytes, 2 * 2 * 2000);
}

TEST(AllToAll, QuadraticTraffic) {
  Harness h(4, 1, false, 1);
  std::vector<topo::ChipId> chips;
  for (int x = 0; x < 4; ++x) chips.push_back(h.topo().ChipAt({x, 0}));
  const SimTime t = AllToAll(h.network(), chips, 1000);
  EXPECT_GT(t, 0.0);
  EXPECT_EQ(h.network().traffic().messages, 4 * 3);
}

TEST(CollectivePermute, ConcurrentPairs) {
  Harness h(4, 1, false, 1);
  std::vector<std::pair<topo::ChipId, topo::ChipId>> pairs{
      {h.topo().ChipAt({0, 0}), h.topo().ChipAt({1, 0})},
      {h.topo().ChipAt({2, 0}), h.topo().ChipAt({3, 0})}};
  const SimTime t = CollectivePermute(h.network(), pairs, 1 << 20);
  // Disjoint links: both transfers overlap, total close to one transfer.
  Harness h1(4, 1, false, 1);
  const SimTime t1 = CollectivePermute(
      h1.network(), {{h1.topo().ChipAt({0, 0}), h1.topo().ChipAt({1, 0})}},
      1 << 20);
  EXPECT_NEAR(t, t1, t1 * 0.01);
}

}  // namespace
}  // namespace tpu::coll
