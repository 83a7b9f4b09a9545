// The workload interface the perfbench loop drives, and the three workloads.
//
// A workload owns everything one measured run needs. Setup() builds meshes,
// systems and the seeded inputs; Op() runs one closed-loop operation, times
// only the user-visible call into the simulator, and then checks its
// simulated outputs (untimed). With a span log (traced runs) Op() also
// replays the call layer by layer from outside, and Finish() turns the spans
// and counters into per-layer metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunContext {
  std::uint64_t seed = 0;
  int threads = 1;              // worker-thread request (min(4, nproc))
  const Reference* reference = nullptr;
  Reference* record = nullptr;  // non-null: record outputs, skip reference checks
  SpanLog* spans = nullptr;     // non-null: traced operation
};

struct OpResult {
  double op_ms = 0;        // host time of the timed call
  double sim_events = 0;   // simulated work events that call processed
  int op_class = 0;        // operations of one class repeat the same work
  bool ok = true;
  std::string failure;     // first failed check, for the log
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds systems and seeded inputs.
  virtual void Setup(const RunContext& ctx) = 0;
  // Operation `index` of the seeded stream. Folds the simulated outputs of
  // the operation into `digest`.
  virtual OpResult Op(int index, const RunContext& ctx, Digest* digest) = 0;
  // The untimed warm-up operation run at the end of set-up.
  virtual OpResult WarmUp(const RunContext& ctx) {
    Digest unused;
    return Op(-1, ctx, &unused);
  }
  // Operations per round; runs end on round boundaries.
  virtual int ops_per_round() const { return 1; }
  // After the loop: once-per-run checks (return false on failure, with the
  // reason) and, in traced runs, the per-layer metrics.
  virtual bool Finish(const RunContext& ctx, Metrics* per_layer,
                      std::string* failure) = 0;
  // Lines for the human-readable report (plan families, layer split).
  virtual std::vector<std::string> Notes() const { return {}; }
};

std::unique_ptr<Workload> MakeSummation();
std::unique_ptr<Workload> MakePlanSearch();
std::unique_ptr<Workload> MakeCritPath();

// Records every reference value the checks use, for all seeded variants.
bool RecordSummationReference(Reference* reference);
bool RecordPlanSearchReference(Reference* reference);
bool RecordCritPathReference(Reference* reference);

// Layer probes shared by every traced run (probes.cc).
struct ProbeResult {
  double ns_per_event = 0;  // Simulator::ScheduleAt + Run, per event
  double ns_per_send = 0;   // Network::Send, minus the event cost it causes
};
ProbeResult RunLayerProbes(SpanLog* spans);

// Writes the per-layer metrics every workload reports, with zeros for the
// layers this workload never calls (see README.md).
void SetLayerDefaults(Metrics* per_layer);

// Runs two traced critpath_1024 operations on their own span log and sets
// the trace.* metrics from them; false, with the reason, if a check failed.
// Lets a workload that never calls the trace layer measure it.
bool RunCritPathProbe(const RunContext& ctx, Metrics* per_layer,
                      std::string* failure);

}  // namespace perfbench
