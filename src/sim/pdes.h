// Ambient request for within-run parallel event execution.
//
// The one engine-capable driver, the summation stage runner behind both the
// fixed 2-D schedule and planned execution (coll::RunSummationStages),
// consults the thread's PdesConfig and, when the run qualifies, forks each
// stage into link-disjoint ring groups that run on their own Simulators on a
// thread pool and join at the stage's end (DESIGN.md §16). Everything else
// ignores the request, which *is* the serial fallback.
#pragma once

#include <cstdint>
#include <vector>

namespace tpu::sim {

// Post-run accounting of an engaged run.
struct PdesStats {
  // The run qualified (see PdesConfig) — whether or not any stage forked.
  bool engaged = false;
  // Work events over the caller's simulator plus every forked lane: matches
  // the serial run's Simulator counters bit-exactly.
  std::uint64_t events_processed = 0;
  std::uint64_t events_scheduled = 0;
  // Number of stages that forked (a stage stays on the caller's simulator
  // when it forms one group or other events are pending at its start).
  std::uint64_t windows = 0;
  // Per forked stage, in stage order: the events it processed off the
  // caller's simulator.
  std::vector<std::uint64_t> partition_events_processed;
};

// Installed with ScopedPdesConfig the same way trace / metrics / telemetry
// sessions are.
struct PdesConfig {
  bool enable = false;
  // Worker threads for forked stages. 1 leaves the serial path untouched;
  // results are identical for any value.
  int threads = 1;
  // Optional out-param: filled after an engaged run (left untouched when
  // the run stayed serial, except `engaged`).
  PdesStats* stats = nullptr;
};

inline PdesConfig& PdesConfigSlot() {
  thread_local PdesConfig config;
  return config;
}
inline const PdesConfig& CurrentPdesConfig() { return PdesConfigSlot(); }

class ScopedPdesConfig {
 public:
  explicit ScopedPdesConfig(const PdesConfig& config)
      : previous_(PdesConfigSlot()) {
    PdesConfigSlot() = config;
  }
  ~ScopedPdesConfig() { PdesConfigSlot() = previous_; }

  ScopedPdesConfig(const ScopedPdesConfig&) = delete;
  ScopedPdesConfig& operator=(const ScopedPdesConfig&) = delete;

 private:
  PdesConfig previous_;
};

}  // namespace tpu::sim
