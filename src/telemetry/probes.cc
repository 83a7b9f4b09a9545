#include "telemetry/probes.h"

#include <string>

namespace tpu::telemetry {

void RegisterSimulatorProbes(TimeSeriesSampler& sampler,
                             const sim::Simulator& simulator) {
  const sim::Simulator* sim = &simulator;
  sampler.RegisterProbe("sim.queue_depth", [sim] {
    return static_cast<double>(sim->queue_depth());
  });
  sampler.RegisterProbe("sim.events_processed", [sim] {
    return static_cast<double>(sim->events_processed());
  });
  // Deliberately no pool-stat probe: the callback pool is thread-local and
  // warms across a thread's lifetime, so its hit counts depend on process
  // history — sampling them would break the byte-identical-across-repeats
  // guarantee every exporter relies on. Pool health stays in the metrics
  // registry (ExportSimulatorMetrics), which is not replay-compared.
  sampler.RegisterProbe("sim.events_scheduled", [sim] {
    return static_cast<double>(sim->events_scheduled());
  });
}

void RegisterNetworkProbes(TimeSeriesSampler& sampler,
                           const net::Network& network) {
  const net::Network* net = &network;
  sampler.RegisterProbe("net.max_link_util",
                        [net] { return net->MaxLinkUtilization(); });
  sampler.RegisterProbe("net.mean_link_util",
                        [net] { return net->MeanActiveLinkUtilization(); });
  sampler.RegisterProbe("net.failed_links", [net] {
    return static_cast<double>(net->failed_link_count());
  });
  sampler.RegisterProbe("net.max_link_backlog_s",
                        [net] { return net->MaxLinkBacklogSeconds(); });
}

void RegisterLinkProbes(TimeSeriesSampler& sampler, const net::Network& network,
                        topo::LinkId link) {
  const net::Network* net = &network;
  const std::string prefix = "net.link." + std::to_string(link);
  sampler.RegisterProbe(prefix + ".util",
                        [net, link] { return net->LinkUtilization(link); });
  sampler.RegisterProbe(prefix + ".backlog_s", [net, link] {
    return net->LinkBacklogSeconds(link);
  });
}

}  // namespace tpu::telemetry
