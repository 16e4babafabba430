// Failure drill: inject server outages into the closed-loop simulation and
// watch the quorum system route around them once a failure detector steers
// its retries — the fault-tolerance argument for quorums over the singleton
// (§6's closing point), made concrete.
//
//   ./failure_drill [t]
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "core/placement.hpp"
#include "net/synthetic.hpp"
#include "quorum/majority.hpp"
#include "quorum/singleton.hpp"
#include "sim/client_sites.hpp"
#include "sim/engine.hpp"

namespace {

void report(const char* label, const qp::sim::EngineResult& result) {
  std::cout << "  " << std::left << std::setw(26) << label << std::right
            << " completed " << std::setw(6) << result.completed
            << "  failed " << std::setw(4) << result.failed + result.abandoned
            << "  retries " << std::setw(5) << result.retries
            << "  avg response " << std::fixed << std::setprecision(1)
            << result.mean_response_ms << " ms\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qp;
  const std::size_t t = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 1;

  const net::LatencyMatrix matrix = net::planetlab50_synth();
  const quorum::MajorityQuorum system =
      quorum::make_majority(quorum::MajorityFamily::SimpleMajority, t);
  const auto placed = core::best_majority_placement(matrix, system);
  const auto clients = sim::clients_at_sites(
      matrix.size(), sim::representative_client_sites(matrix, system, placed.placement, 10),
      2);

  std::cout << "Drill: " << system.name() << " (tolerates t = " << t
            << " failures) on " << matrix.size() << " sites\n\n";

  // Closed-loop clients that give up on an attempt after 500 ms and retry at
  // once on a freshly drawn quorum, at most 10 attempts per request.
  sim::EngineConfig config;
  config.duration_ms = 8000.0;
  config.warmup_ms = 1000.0;
  config.master_seed = 7;
  config.replications = 1;
  config.retry.timeout_ms = 500.0;
  config.retry.backoff_base_ms = 0.0;
  config.retry.max_attempts = 10;

  // Healthy baseline.
  report("healthy",
         sim::run_engine_closed_loop(matrix, system, placed.placement, clients, config));

  // Kill exactly t servers mid-run: the system must keep serving.
  config.outages.clear();
  for (std::size_t i = 0; i < t; ++i) {
    config.outages.push_back({placed.placement.site_of[i], 2000.0, 6000.0});
  }
  report("t servers down (4 s)",
         sim::run_engine_closed_loop(matrix, system, placed.placement, clients, config));

  // The same outage with a perfect failure detector: every attempt takes the
  // nearest quorum of servers that are up right now.
  config.failover = sim::FailoverMode::Oracle;
  report("t down, oracle failover",
         sim::run_engine_closed_loop(matrix, system, placed.placement, clients, config));
  config.failover = sim::FailoverMode::None;

  // Kill t+1 servers: only t of the 2t+1 survive, fewer than the quorum size
  // t+1, so no quorum can form and requests issued in the outage stall
  // until recovery.
  config.outages.clear();
  for (std::size_t i = 0; i < t + 1; ++i) {
    config.outages.push_back({placed.placement.site_of[i], 2000.0, 6000.0});
  }
  report("t+1 servers down (4 s)",
         sim::run_engine_closed_loop(matrix, system, placed.placement, clients, config));

  // The singleton under the same drill: one outage removes the service.
  const quorum::SingletonQuorum singleton;
  const core::Placement median = core::singleton_placement(matrix);
  const auto single_clients = sim::clients_at_sites(
      matrix.size(), sim::representative_client_sites(matrix, singleton, median, 10), 2);
  config.outages = {{median.site_of[0], 2000.0, 6000.0}};
  report("singleton, its node down",
         sim::run_engine_closed_loop(matrix, singleton, median, single_clients, config));

  std::cout << "\nReading: with t servers down, blind uniform retries keep drawing\n"
               "quorums through dead servers: only one of the quorums avoids all t of\n"
               "them (for t = 1, 2 draws in 3 hit the dead server and a request burns\n"
               "about two 500 ms timeouts), so the majority completes about as few\n"
               "requests as the singleton with its only node down. With a failure\n"
               "detector (oracle failover) every attempt avoids the dead servers and\n"
               "the majority keeps nearly its healthy throughput; the singleton has no\n"
               "live quorum to fail over to. That resilience is what the paper's\n"
               "Figure 6.3 prices: a few ms of extra response time at small universe\n"
               "sizes.\n";
  return 0;
}
