// The ambient run context: everything a simulation reads from its thread
// rather than from its arguments.
//
// Four optional sinks record what a run does — the trace recorder, the
// metrics registry, the telemetry session and the causal event observer —
// and two settings steer how it runs: the PDES request (sim/pdes.h) and the
// fork lane a forked summation stage runs on (net::Lane). All six live in
// one thread_local struct, so an instrumentation site pays one TLS access
// and one branch, and a worker thread starts from the default context: no
// sink, serial, no lane. Sinks only record; simulated results are
// bit-identical whatever is installed.
//
// The sink types and net::Lane are only named here, so sim gains no
// dependency on the layers that define them.
#pragma once

#include <type_traits>
#include <utility>

#include "sim/pdes.h"

namespace tpu::trace {
class TraceRecorder;
class MetricsRegistry;
}  // namespace tpu::trace
namespace tpu::telemetry {
class TelemetrySession;
}  // namespace tpu::telemetry
namespace tpu::net {
struct Lane;
}  // namespace tpu::net

namespace tpu::sim {

class EventObserver;

struct Ambient {
  trace::TraceRecorder* trace = nullptr;
  trace::MetricsRegistry* metrics = nullptr;
  telemetry::TelemetrySession* telemetry = nullptr;
  EventObserver* observer = nullptr;
  PdesConfig pdes;
  net::Lane* lane = nullptr;

  // True when any sink is installed. An observed run records per-event
  // state on its own thread, so it neither forks stages nor sweeps points
  // on worker threads, and Network::Send takes its recording branch.
  bool Observed() const {
    return trace != nullptr || metrics != nullptr || telemetry != nullptr ||
           observer != nullptr;
  }
};

// The calling thread's context. Constant-initialized: no guard, no
// constructor call, one TLS access.
inline Ambient& CurrentAmbient() {
  thread_local Ambient ambient;
  return ambient;
}

// Installs `value` into one field for the scope's lifetime and restores the
// previous value on exit, so nested installs unwind in LIFO order.
template <auto Field>
class ScopedSlot {
 public:
  using Value =
      std::remove_reference_t<decltype(std::declval<Ambient&>().*Field)>;

  explicit ScopedSlot(const Value& value)
      : previous_(CurrentAmbient().*Field) {
    CurrentAmbient().*Field = value;
  }
  ~ScopedSlot() { CurrentAmbient().*Field = previous_; }
  ScopedSlot(const ScopedSlot&) = delete;
  ScopedSlot& operator=(const ScopedSlot&) = delete;

 private:
  Value previous_;
};

using ScopedEventObserver = ScopedSlot<&Ambient::observer>;
using ScopedPdesConfig = ScopedSlot<&Ambient::pdes>;

// Nulls the four sinks for the scope's lifetime — throwaway pricing runs,
// candidate evaluations and probes leave nothing behind in the caller's
// trace, metrics, telemetry or causal record — and restores them on exit.
// The PDES request and the lane are left as they are.
class ScopedUnobserved {
 public:
  ScopedUnobserved() : saved_(CurrentAmbient()) {
    Ambient& ambient = CurrentAmbient();
    ambient.trace = nullptr;
    ambient.metrics = nullptr;
    ambient.telemetry = nullptr;
    ambient.observer = nullptr;
  }
  ~ScopedUnobserved() {
    Ambient& ambient = CurrentAmbient();
    ambient.trace = saved_.trace;
    ambient.metrics = saved_.metrics;
    ambient.telemetry = saved_.telemetry;
    ambient.observer = saved_.observer;
  }
  ScopedUnobserved(const ScopedUnobserved&) = delete;
  ScopedUnobserved& operator=(const ScopedUnobserved&) = delete;

 private:
  Ambient saved_;
};

}  // namespace tpu::sim
