// Stock probe sets for the telemetry sampler.
//
// Each Register* helper wires one subsystem's instantaneous signals into a
// TimeSeriesSampler under stable dotted names (the watchdogs key on some of
// them — see telemetry.h). Subsystems above this library in the dependency
// order register their own probes: recover::RegisterRecoveryProbes
// (recover/controller.h) and gpu::RegisterGpuStepRateProbe
// (gpu/gpu_cluster.h).
#pragma once

#include "network/network.h"
#include "sim/simulator.h"
#include "telemetry/sampler.h"
#include "topology/topology.h"

namespace tpu::telemetry {

// sim.queue_depth (pending work events now), sim.events_processed,
// sim.events_scheduled. All are pure functions of the simulated run; the
// thread-local pool stats are deliberately excluded (process-history
// dependent, would break replay byte-identity).
void RegisterSimulatorProbes(TimeSeriesSampler& sampler,
                             const sim::Simulator& simulator);

// net.max_link_util, net.mean_link_util, net.failed_links,
// net.max_link_backlog_s. "net.max_link_util" feeds the link-collapse
// watchdog.
void RegisterNetworkProbes(TimeSeriesSampler& sampler,
                           const net::Network& network);

// Per-link close-up: net.link.<id>.util and net.link.<id>.backlog_s.
void RegisterLinkProbes(TimeSeriesSampler& sampler, const net::Network& network,
                        topo::LinkId link);

}  // namespace tpu::telemetry
