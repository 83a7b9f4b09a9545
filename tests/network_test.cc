#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "network/network.h"
#include "sim/simulator.h"
#include "topology/topology.h"

namespace tpu::net {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : topo_(topo::TopologyConfig::Slice(8, 8, /*wrap_y=*/true)),
        network_(&topo_, MakeConfig(), &simulator_) {}

  static NetworkConfig MakeConfig() {
    NetworkConfig config;
    config.mesh_x = {GBps(10.0), Micros(1.0)};
    config.mesh_y = {GBps(10.0), Micros(1.0)};
    config.wrap_y = {GBps(10.0), Micros(1.0)};
    config.cross_pod_x = {GBps(10.0), Micros(5.0)};
    config.message_overhead = Micros(2.0);
    return config;
  }

  topo::MeshTopology topo_;
  sim::Simulator simulator_;
  Network network_;
};

TEST_F(NetworkTest, SingleHopTiming) {
  SimTime done_at = -1;
  network_.Send(topo_.ChipAt({0, 0}), topo_.ChipAt({1, 0}), 10000,
                [&] { done_at = simulator_.now(); });
  simulator_.Run();
  // overhead (2us) + serialize (10000 B / 10 GB/s = 1us) + latency (1us).
  EXPECT_NEAR(done_at, Micros(4.0), 1e-12);
}

TEST_F(NetworkTest, MultiHopStoreAndForward) {
  SimTime done_at = -1;
  network_.Send(topo_.ChipAt({0, 0}), topo_.ChipAt({3, 0}), 10000,
                [&] { done_at = simulator_.now(); });
  simulator_.Run();
  // overhead + 3 x (serialize + latency) = 2 + 3 * 2 = 8us.
  EXPECT_NEAR(done_at, Micros(8.0), 1e-12);
}

TEST_F(NetworkTest, ContendingMessagesSerializeOnSharedLink) {
  SimTime first = -1, second = -1;
  const auto a = topo_.ChipAt({0, 0});
  const auto b = topo_.ChipAt({1, 0});
  network_.Send(a, b, 10000, [&] { first = simulator_.now(); });
  network_.Send(a, b, 10000, [&] { second = simulator_.now(); });
  simulator_.Run();
  EXPECT_NEAR(first, Micros(4.0), 1e-12);
  // Second message queues behind the first's serialization (1us).
  EXPECT_NEAR(second, Micros(5.0), 1e-12);
}

TEST_F(NetworkTest, OppositeDirectionsDoNotContend) {
  SimTime ab = -1, ba = -1;
  const auto a = topo_.ChipAt({0, 0});
  const auto b = topo_.ChipAt({1, 0});
  network_.Send(a, b, 10000, [&] { ab = simulator_.now(); });
  network_.Send(b, a, 10000, [&] { ba = simulator_.now(); });
  simulator_.Run();
  EXPECT_NEAR(ab, Micros(4.0), 1e-12);
  EXPECT_NEAR(ba, Micros(4.0), 1e-12);  // full duplex
}

TEST_F(NetworkTest, ZeroByteMessageStillPaysLatency) {
  SimTime done_at = -1;
  network_.Send(topo_.ChipAt({0, 0}), topo_.ChipAt({1, 0}), 0,
                [&] { done_at = simulator_.now(); });
  simulator_.Run();
  EXPECT_NEAR(done_at, Micros(3.0), 1e-12);  // overhead + latency
}

TEST_F(NetworkTest, SelfSendCostsOnlyOverhead) {
  SimTime done_at = -1;
  network_.Send(5, 5, 1 << 20, [&] { done_at = simulator_.now(); });
  simulator_.Run();
  EXPECT_NEAR(done_at, Micros(2.0), 1e-12);
}

TEST_F(NetworkTest, TrafficAccountingByLinkType) {
  network_.Send(topo_.ChipAt({0, 0}), topo_.ChipAt({2, 0}), 1000, [] {});
  network_.Send(topo_.ChipAt({0, 0}), topo_.ChipAt({0, 7}), 1000, [] {});
  simulator_.Run();
  // First: 2 X hops. Second: 1 Y wrap hop (shortcut).
  EXPECT_EQ(network_.traffic().mesh_x_bytes, 2000);
  EXPECT_EQ(network_.traffic().wrap_y_bytes, 1000);
  EXPECT_EQ(network_.traffic().mesh_y_bytes, 0);
  EXPECT_EQ(network_.traffic().messages, 2);
  EXPECT_EQ(network_.traffic().total_bytes(), 3000);
}

TEST_F(NetworkTest, EstimateArrivalMatchesIdleSend) {
  const auto a = topo_.ChipAt({0, 0});
  const auto b = topo_.ChipAt({3, 0});
  const SimTime estimate = network_.EstimateArrival(a, b, 10000);
  SimTime done_at = -1;
  network_.Send(a, b, 10000, [&] { done_at = simulator_.now(); });
  simulator_.Run();
  EXPECT_NEAR(estimate, done_at, 1e-12);
}

TEST(NetworkCrossPod, CrossPodLatencyIsHigher) {
  topo::MeshTopology topo(topo::TopologyConfig::Multipod(2));
  sim::Simulator simulator;
  NetworkConfig config;
  Network network(&topo, config, &simulator);

  // Within-pod hop 30->31 vs cross-pod hop 31->32 on the same row.
  SimTime within = -1, cross = -1;
  network.Send(topo.ChipAt({30, 0}), topo.ChipAt({31, 0}), 1000,
               [&] { within = simulator.now(); });
  simulator.Run();
  const SimTime t0 = simulator.now();
  network.Send(topo.ChipAt({31, 0}), topo.ChipAt({32, 0}), 1000,
               [&] { cross = simulator.now(); });
  simulator.Run();
  EXPECT_GT(cross - t0, within);
  EXPECT_GT(network.traffic().cross_pod_x_bytes, 0);
}

// The fork-lane contract (network.h: Lane and route_cache_): once the
// forking thread has warmed every route with ForEachRouteLink, threads that
// each run link-disjoint sends on a Simulator of their own under a
// ScopedLane only read the shared route cache and count traffic into their
// own lane. Four lanes, one per pod, chain rounds of a Y send and an in-pod
// X send over the same chip pairs, concurrently. This test is part of the
// TSan CI matrix, which would flag any violation; completions and the
// merged traffic must be bit-identical to running the lanes one after
// another on one thread.
TEST(NetworkPdes, ConcurrentPartitionSendsKeepRouteCacheAndTrafficExact) {
  topo::TopologyConfig shape;
  shape.pod_size_x = 4;
  shape.pod_size_y = 4;
  shape.num_pods = 4;
  const topo::MeshTopology topo(shape);
  constexpr int kLanes = 4;
  constexpr int kRounds = 5;

  struct RunResult {
    std::vector<std::vector<SimTime>> completions;  // per lane, in issue order
    TrafficStats traffic;
  };
  auto run = [&](int threads) {
    sim::Simulator simulator;
    Network network(&topo, {}, &simulator);
    auto y_pair = [&](int lane) {
      return std::make_pair(topo.ChipAt({4 * lane, 0}),
                            topo.ChipAt({4 * lane, 3}));
    };
    auto x_pair = [&](int lane) {
      return std::make_pair(topo.ChipAt({4 * lane, 1}),
                            topo.ChipAt({4 * lane + 3, 1}));
    };
    for (int lane = 0; lane < kLanes; ++lane) {
      for (const auto& [from, to] : {y_pair(lane), x_pair(lane)}) {
        network.ForEachRouteLink(from, to, [](topo::LinkId) {});
      }
    }
    RunResult result;
    result.completions.resize(kLanes);
    std::vector<TrafficStats> lane_traffic(kLanes);
    auto run_lane = [&](int lane_index) {
      sim::Simulator lane_simulator;
      Lane lane(&lane_simulator);
      ScopedLane scope(&lane);
      std::vector<SimTime>& log = result.completions[lane_index];
      std::function<void(int)> round = [&](int remaining) {
        if (remaining == 0) return;
        auto log_and_continue = [&log, &network, &round, remaining] {
          log.push_back(network.simulator().now());
          if (log.size() % 2 == 0) round(remaining - 1);
        };
        const auto [y_from, y_to] = y_pair(lane_index);
        const auto [x_from, x_to] = x_pair(lane_index);
        network.Send(y_from, y_to, 4096, log_and_continue);
        network.Send(x_from, x_to, 8192, log_and_continue);
      };
      round(kRounds);
      lane_simulator.Run();
      lane_traffic[lane_index] = lane.traffic;
    };
    if (threads == 1) {
      for (int lane = 0; lane < kLanes; ++lane) run_lane(lane);
    } else {
      ThreadPool pool(threads);
      for (int lane = 0; lane < kLanes; ++lane) {
        pool.Schedule([&run_lane, lane] { run_lane(lane); });
      }
      pool.Wait();
    }
    for (const TrafficStats& traffic : lane_traffic) {
      network.MergeTraffic(traffic);
    }
    result.traffic = network.traffic();
    return result;
  };

  const RunResult serial = run(1);
  const RunResult parallel = run(kLanes);
  EXPECT_EQ(serial.completions, parallel.completions);
  EXPECT_EQ(serial.traffic.mesh_x_bytes, parallel.traffic.mesh_x_bytes);
  EXPECT_EQ(serial.traffic.mesh_y_bytes, parallel.traffic.mesh_y_bytes);
  EXPECT_EQ(serial.traffic.wrap_y_bytes, parallel.traffic.wrap_y_bytes);
  EXPECT_EQ(serial.traffic.messages, parallel.traffic.messages);
  // Every lane ran all of its rounds and the merge saw every send.
  for (int lane = 0; lane < kLanes; ++lane) {
    EXPECT_EQ(parallel.completions[lane].size(), 2u * kRounds);
  }
  EXPECT_EQ(parallel.traffic.messages, 2 * kRounds * kLanes);
  EXPECT_EQ(parallel.traffic.cross_pod_x_bytes, 0);
}

// A lane may only read the route cache: a send over a route nobody warmed
// fails loudly instead of racing its sibling lanes on the cache.
TEST(NetworkPdes, ColdRouteOnAForkLaneFailsLoudly) {
  const topo::MeshTopology topo(topo::TopologyConfig::Slice(4, 4, true));
  sim::Simulator simulator;
  Network network(&topo, {}, &simulator);
  EXPECT_DEATH(
      {
        sim::Simulator lane_simulator;
        Lane lane(&lane_simulator);
        ScopedLane scope(&lane);
        network.Send(topo.ChipAt({0, 0}), topo.ChipAt({1, 0}), 64, [] {});
      },
      "was not warmed before the stage forked");
}

TEST(NetworkUtilization, ReportsBusyFraction) {
  topo::MeshTopology topo(topo::TopologyConfig::Slice(2, 2, false));
  sim::Simulator simulator;
  NetworkConfig config;
  config.mesh_x = {GBps(1.0), 0.0};
  config.message_overhead = 0.0;
  Network network(&topo, config, &simulator);
  // 1 GB at 1 GB/s = 1s busy on one link.
  network.Send(0, 1, 1'000'000'000, [] {});
  simulator.Run();
  EXPECT_NEAR(network.MaxLinkUtilization(), 1.0, 1e-9);
}

}  // namespace
}  // namespace tpu::net
