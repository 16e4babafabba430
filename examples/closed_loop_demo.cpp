// Closed-loop demo: drive a Q/U-style quorum system with §3's closed-loop
// clients on the discrete-event engine (the paper's testbed stand-in) and
// watch response time decompose into network delay and queueing as client
// demand rises.
//
//   ./closed_loop_demo [t] [max_clients]
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "core/placement.hpp"
#include "net/synthetic.hpp"
#include "quorum/majority.hpp"
#include "sim/client_sites.hpp"
#include "sim/engine.hpp"

int main(int argc, char** argv) {
  using namespace qp;
  const std::size_t t = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 2;
  const std::size_t max_clients = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 100;

  const net::LatencyMatrix matrix = net::planetlab50_synth();
  const quorum::MajorityQuorum system =
      quorum::make_majority(quorum::MajorityFamily::QuThreshold, t);
  std::cout << "Simulating " << system.name() << " (n = " << system.universe_size()
            << ", quorum = " << system.quorum_size() << ") on " << matrix.size()
            << " sites\n";

  const auto placed = core::best_majority_placement(matrix, system);
  const auto sites = sim::representative_client_sites(matrix, system, placed.placement, 10);
  const std::vector<std::size_t> servers = placed.placement.support_set();
  std::cout << "Servers anchored at " << matrix.site_name(placed.anchor_client)
            << "; clients at 10 representative sites\n\n";

  sim::EngineConfig config;
  config.duration_ms = 8000.0;
  config.warmup_ms = 1500.0;
  config.master_seed = 2006;
  config.replications = 1;

  std::cout << std::fixed << std::setprecision(1);
  std::cout << "clients  response  network  queueing  throughput  busy%\n";
  for (std::size_t total = 10; total <= max_clients; total += 30) {
    const std::size_t per_site = std::max<std::size_t>(1, total / sites.size());
    const auto result = sim::run_engine_closed_loop(
        matrix, system, placed.placement,
        sim::clients_at_sites(matrix.size(), sites, per_site), config);
    double busy = 0.0;
    for (std::size_t site : servers) busy += result.site_utilization[site];
    busy /= static_cast<double>(servers.size());
    std::cout << std::setw(7) << per_site * sites.size() << "  " << std::setw(8)
              << result.mean_response_ms << "  " << std::setw(7)
              << result.mean_network_delay_ms << "  " << std::setw(8)
              << result.mean_response_ms - result.mean_network_delay_ms << "  "
              << std::setw(10)
              << static_cast<double>(result.completed) / (config.duration_ms / 1000.0)
              << "  " << std::setw(5) << 100.0 * busy << '\n';
  }
  std::cout << "\nAs in Figure 3.2b: network delay stays flat while queueing grows\n"
               "with client demand, eventually dominating response time.\n";
  return 0;
}
