#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "common/thread_pool.hpp"
#include "core/capacity.hpp"
#include "core/delta_eval.hpp"
#include "core/iterative.hpp"
#include "core/local_search.hpp"
#include "core/manytoone.hpp"
#include "core/objective.hpp"
#include "core/placement.hpp"
#include "core/response.hpp"
#include "core/strategy.hpp"
#include "eval/figures.hpp"
#include "net/knn_index.hpp"
#include "net/latency_matrix.hpp"
#include "net/synthetic.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "quorum/grid.hpp"
#include "sim/engine.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

namespace {

using namespace qp;

// Set-up is repeated and its median reported, so one slow repetition (page
// faults, a cold cache) does not decide the metric: at least
// kMinSetupRepeats times and until kMinSetupMs of set-up.
constexpr std::size_t kMinSetupRepeats = 5;
constexpr double kMinSetupMs = 1'000.0;
// Timed plans per plan block, at least; more when the time allows.
constexpr std::size_t kMinPlans = 5;
// The end-to-end run alternates kServeRounds plan blocks with serve rounds,
// so the serves of a plan are spread over the run like its plans. A round
// serves every plan, again until it has served for kMinRoundServeMs; every
// serve must reproduce the plan's first serve bit for bit.
constexpr std::size_t kServeRounds = 2;
constexpr double kMinRoundServeMs = 1'500.0;
// Failure messages kept per run (the count is always exact).
constexpr std::size_t kMaxFailureMessages = 8;

// Engine operating point shared by every workload's serve phase: the
// fault-free phase runs the busiest site at utilization kPeakRho.
constexpr double kServiceMs = 1.0;
constexpr double kPeakRho = 0.7;
constexpr std::size_t kReplications = 4;
constexpr double kWarmupMs = 2'000.0;
constexpr double kDurationMs = 20'000.0;
// Fault phase: rolling outages take the placed sites down one after
// another across the measurement window; clients time out, retry once after
// a short jittered backoff, and fail over away from suspected sites. It runs
// at a lower utilization because timed-out retries concentrate on the
// surviving sites (at kPeakRho they overload them and every request times
// out).
constexpr double kFaultPeakRho = 0.3;
constexpr std::size_t kMaxAttempts = 2;

/// Seed of instance `k` of a run seeded `seed` that builds `count`
/// instances: runs with different seeds never share an instance.
std::uint64_t instance_seed(std::uint64_t seed, std::size_t count, std::size_t k) {
  return seed * count + k;
}

/// One plan: a placement, the explicit access strategy when the plan has
/// one (empty for closest-strategy plans), and what the planner reported.
struct Plan {
  core::Placement placement;
  core::ExplicitStrategy strategy;
  /// The planner's own value for the plan's quality (see each verify).
  double planner_value = 0.0;
  /// Local-search objective of the placement (plan-and-serve-500 only).
  double search_value = 0.0;
  std::size_t lp_iterations = 0;  // Strategy-LP simplex pivots.
};

/// What the engine needs to serve a plan: a dense matrix (a client sample
/// for the 10k-site workload), the plan remapped onto it, and the demand.
struct ServeInput {
  const net::LatencyMatrix* matrix = nullptr;
  const quorum::QuorumSystem* system = nullptr;
  core::Placement placement;
  /// Explicit strategy to serve; nullptr serves the closest strategy.
  const core::ExplicitStrategy* strategy = nullptr;
  /// Per-client demand; empty = uniform clients.
  std::vector<double> demand;
  std::uint64_t seed = 1;  // Engine master seed.
};

struct SetupTiming {
  double scenario_ms = 0.0;
  double knn_ms = 0.0;
  double anchors_ms = 0.0;
};

/// Per-layer values computed by a workload's traced-run extras.
using Layers = std::map<std::string, double>;

/// A workload plans on `instances()` independent inputs generated from the
/// seed; the plan loop cycles through them.
class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// (Re)builds every instance from the seed; returns summed timings.
  virtual SetupTiming setup(std::uint64_t seed) = 0;
  [[nodiscard]] virtual std::size_t instances() const = 0;

  virtual Plan plan(std::size_t instance, LayerTimer& timer) = 0;
  /// Throws CheckFailure unless `plan` passes every output check for
  /// `instance`; returns the freshly evaluated response time of the plan.
  [[nodiscard]] virtual double verify(std::size_t instance, const Plan& plan) const = 0;
  /// Corrupted copies of a good plan of instance 0; verify must reject each.
  [[nodiscard]] virtual std::vector<std::pair<std::string, Plan>> corruptions(
      const Plan& plan) const = 0;
  /// A short plan on instance 0 for the 1-thread vs pooled probe.
  virtual Plan probe_plan() = 0;
  /// The engine input serving `plan`, the plan of `instance`.
  virtual ServeInput serve_input(std::size_t instance, const Plan& plan) = 0;
  /// Traced run only: extra timed calls (a serial search, layers no timed
  /// plan uses). `plan_ms` is instance 0's traced plan median.
  virtual void layer_extras(double plan_ms, Layers& layers) = 0;
};

/// Per-site capacities at the first (lowest, most binding) of the ten
/// uniform capacity levels (7.7) of `system` — the Figure 8.9 sweep's first
/// level.
std::vector<double> first_level_capacities(const quorum::QuorumSystem& system,
                                           std::size_t sites) {
  return core::uniform_capacities(
      sites, core::uniform_capacity_levels(system.optimal_load(), 10).front());
}

/// The site farthest from `from` that hosts no element of `placement`.
std::size_t farthest_unused_site(const net::LatencySpace& space,
                                 const core::Placement& placement, std::size_t from) {
  std::vector<bool> used(space.size(), false);
  for (std::size_t site : placement.site_of) used[site] = true;
  std::size_t best = from;
  double best_rtt = -1.0;
  for (std::size_t s = 0; s < space.size(); ++s) {
    if (!used[s] && space.rtt(from, s) > best_rtt) {
      best = s;
      best_rtt = space.rtt(from, s);
    }
  }
  return best;
}

/// Client 0's row moved entirely onto the quorum whose network delay is
/// farthest from the row's expected delay: a valid strategy that is not the
/// planner's and has a different delay.
core::ExplicitStrategy shifted_strategy(const net::LatencySpace& space,
                                        const core::Placement& placement,
                                        core::ExplicitStrategy strategy) {
  std::vector<double> delay;
  double expected = 0.0;
  std::vector<double>& row = strategy.probability.at(0);
  for (std::size_t i = 0; i < strategy.quorums.size(); ++i) {
    double worst = 0.0;
    for (std::size_t u : strategy.quorums[i]) {
      worst = std::max(worst, space.rtt(0, placement.site_of[u]));
    }
    delay.push_back(worst);
    expected += row[i] * worst;
  }
  std::size_t target = 0;
  for (std::size_t i = 1; i < delay.size(); ++i) {
    if (std::abs(delay[i] - expected) > std::abs(delay[target] - expected)) target = i;
  }
  std::fill(row.begin(), row.end(), 0.0);
  row[target] = 1.0;
  return strategy;
}

/// The corruptions every workload's checks must reject: an element moved
/// far away (a different plan under the planner's value), a site index out
/// of range, and — for plans with a strategy — an unnormalized row and a
/// valid but different row.
std::vector<std::pair<std::string, Plan>> common_corruptions(const net::LatencySpace& space,
                                                             const Plan& plan) {
  std::vector<std::pair<std::string, Plan>> out;
  Plan moved = plan;
  moved.placement.site_of[0] =
      farthest_unused_site(space, plan.placement, plan.placement.site_of[0]);
  out.emplace_back("element moved to the farthest unused site", std::move(moved));
  Plan out_of_range = plan;
  out_of_range.placement.site_of[0] = space.size();
  out.emplace_back("site index out of range", std::move(out_of_range));
  if (!plan.strategy.probability.empty()) {
    Plan unnormalized = plan;
    unnormalized.strategy.probability[0][0] += 0.01;
    out.emplace_back("strategy row does not sum to 1", std::move(unnormalized));
    Plan shifted = plan;
    shifted.strategy = shifted_strategy(space, plan.placement, plan.strategy);
    out.emplace_back("strategy row moved to another quorum", std::move(shifted));
  }
  return out;
}

/// A one-to-one placement corrupted into a many-to-one one.
std::pair<std::string, Plan> doubled_up(const Plan& plan) {
  Plan doubled = plan;
  doubled.placement.site_of[1] = doubled.placement.site_of[0];
  return {"two elements on one site", std::move(doubled)};
}

/// The core/manytoone and core/iterative layers, which no timed plan
/// uses: one iterative_placement on a Planetlab-50 topology from the seed
/// (Grid 5x5, alpha = 0, the 12 central anchors, the first Figure 8.9
/// capacity level), then its iteration 1 replayed through the public calls
/// the alternation makes — phase 1 (best_many_to_one_placement under the
/// uniform strategy), the phase-1 evaluation, phase 2
/// (optimize_access_strategy with load-pinned capacities) and the phase-2
/// evaluation.
void iterative_layers(std::uint64_t seed, Layers& layers) {
  const quorum::GridQuorum grid{5};
  const net::LatencyMatrix matrix = net::planetlab50_synth(seed);
  const std::vector<std::size_t> anchors = eval::central_sites(matrix, 12);
  const std::vector<double> caps = first_level_capacities(grid, matrix.size());
  LayerTimer timer;
  core::IterativeOptions options;
  options.anchor_candidates = anchors;
  const core::IterativeResult result = timer.time("core.iterative_placement", [&] {
    return core::iterative_placement(matrix, grid, caps, 0.0, options);
  });
  std::size_t lp_iterations = 0;
  for (const core::IterationRecord& record : result.history) {
    lp_iterations += record.lp_iterations;
  }

  const std::vector<quorum::Quorum> quorums = grid.enumerate_quorums(100'000);
  const std::vector<double> uniform(quorums.size(), 1.0 / static_cast<double>(quorums.size()));
  const core::ManyToOneSearchResult phase1 = timer.time("core.best_many_to_one_placement", [&] {
    return core::best_many_to_one_placement(matrix, grid, uniform, caps, anchors);
  });
  core::ExplicitStrategy carried;
  carried.quorums = quorums;
  carried.probability.assign(matrix.size(), uniform);
  const core::Evaluation loads = timer.time("core.evaluate", [&] {
    return core::evaluate_explicit(matrix, grid, phase1.best.placement, 0.0, carried);
  });
  std::vector<double> load_caps = loads.site_load;
  for (double& cap : load_caps) cap = cap * (1.0 + 1e-9) + 1e-12;
  const core::StrategyLpResult lp = timer.time("core.optimize_access_strategy", [&] {
    return core::optimize_access_strategy(matrix, grid, phase1.best.placement, load_caps);
  });
  timer.time("core.evaluate", [&] {
    return core::network_delay_objective().evaluate(matrix, grid, phase1.best.placement) +
           core::evaluate_explicit(matrix, grid, phase1.best.placement, 0.0, lp.strategy)
               .avg_response_ms;
  });

  const double manytoone_ms = timer.total_ms("core.best_many_to_one_placement");
  const double replay_ms = manytoone_ms + timer.total_ms("core.optimize_access_strategy") +
                           timer.total_ms("core.evaluate");
  const double rounds = static_cast<double>(result.history.size());
  layers["manytoone.ms"] = manytoone_ms;
  layers["manytoone.calls"] = static_cast<double>(anchors.size());
  layers["manytoone.ms_per_call"] = ratio(manytoone_ms, static_cast<double>(anchors.size()));
  layers["iterative.rounds"] = rounds;
  layers["iterative.lp_iterations"] = static_cast<double>(lp_iterations);
  // Each round repeats the replayed calls, so 1.0 means they explain the plan.
  layers["iterative.replay_share"] =
      ratio(replay_ms * rounds, timer.total_ms("core.iterative_placement"));
}

// ------------------------------------------------------------ sparse-closest-10k

/// local_search_placement on a 10k-site sparse scenario: Grid 7x7, the
/// demand-weighted closest objective, candidate_knn = 64, 6 BestImprovement
/// rounds from a stride placement, on the shared pool.
class SparseClosest10k final : public Workload {
 public:
  SetupTiming setup(std::uint64_t seed) override {
    SetupTiming timing;
    seed_ = seed;
    instances_.clear();
    for (std::size_t k = 0; k < kInstances; ++k) {
      Clock::time_point t0 = Clock::now();
      sim::ScenarioConfig config;
      config.name = "sparse-10k";
      config.site_count = kSites;
      config.seed = instance_seed(seed, kInstances, k);
      // Heap-allocated so the k-NN index's pointer into the scenario stays
      // valid when instances_ grows.
      auto instance = std::make_unique<Instance>(
          Instance{sim::make_sparse_scenario(config), nullptr, nullptr, nullptr});
      timing.scenario_ms += ms_since(t0);
      t0 = Clock::now();
      instance->knn = std::make_unique<net::KnnIndex>(instance->scenario.space);
      timing.knn_ms += ms_since(t0);
      instance->objective = std::make_unique<core::ClosestStrategyObjective>(
          instance->scenario.closest_objective());
      instances_.push_back(std::move(instance));
    }
    initial_.site_of.resize(grid_.universe_size());
    const std::size_t stride = kSites / grid_.universe_size();
    for (std::size_t u = 0; u < grid_.universe_size(); ++u) initial_.site_of[u] = u * stride;
    return timing;
  }

  [[nodiscard]] std::size_t instances() const override { return kInstances; }

  Plan plan(std::size_t k, LayerTimer& timer) override { return run(k, kRounds, 0, timer); }

  [[nodiscard]] double verify(std::size_t k, const Plan& plan) const override {
    const Instance& instance = *instances_[k];
    check_placement(plan.placement, kSites, grid_.universe_size(), true);
    const core::DeltaEvaluator fresh{instance.scenario.space, grid_, plan.placement,
                                     *instance.objective};
    check_agrees("closest objective", plan.planner_value, fresh.objective());
    return fresh.objective();
  }

  [[nodiscard]] std::vector<std::pair<std::string, Plan>> corruptions(
      const Plan& plan) const override {
    std::vector<std::pair<std::string, Plan>> out =
        common_corruptions(instances_.front()->scenario.space, plan);
    out.push_back(doubled_up(plan));
    return out;
  }

  Plan probe_plan() override {
    LayerTimer scratch;
    return run(0, 1, 0, scratch);
  }

  /// The engine needs a dense matrix, so the plan is served to a client
  /// sample: the 49 placed sites plus every 20th other site (~550 sites),
  /// with their RTTs read off the embedding and their scenario demand.
  ServeInput serve_input(std::size_t k, const Plan& plan) override {
    Instance& instance = *instances_[k];
    std::vector<std::size_t> sites = plan.placement.site_of;
    for (std::size_t s = 0; s < kSites; s += kClientStride) sites.push_back(s);
    std::sort(sites.begin(), sites.end());
    sites.erase(std::unique(sites.begin(), sites.end()), sites.end());
    std::vector<std::vector<double>> rtt(sites.size(), std::vector<double>(sites.size()));
    for (std::size_t i = 0; i < sites.size(); ++i) {
      for (std::size_t j = 0; j < sites.size(); ++j) {
        rtt[i][j] = instance.scenario.space.rtt(sites[i], sites[j]);
      }
    }
    instance.sample = std::make_unique<net::LatencyMatrix>(std::move(rtt));
    ServeInput input{instance.sample.get(), &grid_, {}, nullptr, {},
                     instance_seed(seed_, kInstances, k)};
    for (std::size_t site : plan.placement.site_of) {
      input.placement.site_of.push_back(static_cast<std::size_t>(
          std::lower_bound(sites.begin(), sites.end(), site) - sites.begin()));
    }
    for (std::size_t site : sites) {
      input.demand.push_back(instance.scenario.client_demand[site]);
    }
    return input;
  }

  /// One serial (threads = 1) search on instance 0: parallel efficiency is
  /// its time over the fastest pooled plan.
  void layer_extras(double plan_ms, Layers& layers) override {
    LayerTimer serial;
    run(0, kRounds, 1, serial);
    layers["thread_pool.parallel_efficiency"] =
        ratio(serial.median_ms("core.local_search"), plan_ms);
  }

 private:
  static constexpr std::size_t kInstances = 3;
  static constexpr std::size_t kSites = 10'000;
  static constexpr std::size_t kRounds = 6;
  static constexpr std::size_t kKnn = 64;
  static constexpr std::size_t kClientStride = 20;

  struct Instance {
    sim::SparseScenario scenario;
    std::unique_ptr<net::KnnIndex> knn;
    std::unique_ptr<core::ClosestStrategyObjective> objective;
    std::unique_ptr<net::LatencyMatrix> sample;  // Serve-phase client sample.
  };

  Plan run(std::size_t k, std::size_t rounds, std::size_t threads, LayerTimer& timer) {
    const Instance& instance = *instances_[k];
    core::LocalSearchOptions options;
    options.objective = instance.objective.get();
    options.max_rounds = rounds;
    options.candidate_knn = kKnn;
    options.knn = instance.knn.get();
    options.threads = threads;
    const core::LocalSearchResult result = timer.time("core.local_search", [&] {
      return core::local_search_placement(instance.scenario.space, grid_, initial_, options);
    });
    Plan plan;
    plan.placement = result.placement;
    plan.planner_value = result.objective;
    return plan;
  }

  const quorum::GridQuorum grid_{7};
  std::vector<std::unique_ptr<Instance>> instances_;
  core::Placement initial_;
  std::uint64_t seed_ = 1;
};

// ------------------------------------------------------------ plan-and-serve-500

/// synthetic500_scenario: constructive best_placement (Grid 7x7,
/// load-aware, 32 central anchors), 4 rounds of dense load-aware local
/// search, then the demand-weighted strategy LP at the first (binding)
/// capacity level.
class PlanAndServe500 final : public Workload {
 public:
  SetupTiming setup(std::uint64_t seed) override {
    SetupTiming timing;
    seed_ = seed;
    instances_.clear();
    for (std::size_t k = 0; k < kInstances; ++k) {
      Clock::time_point t0 = Clock::now();
      sim::Scenario scenario = sim::synthetic500_scenario(instance_seed(seed, kInstances, k));
      timing.scenario_ms += ms_since(t0);
      t0 = Clock::now();
      std::vector<std::size_t> anchors = eval::central_sites(scenario.matrix, kAnchors);
      timing.anchors_ms += ms_since(t0);
      const core::LoadAwareObjective objective = scenario.load_objective();
      std::vector<double> caps = first_level_capacities(grid_, scenario.site_count());
      instances_.push_back(
          {std::move(scenario), objective, std::move(anchors), std::move(caps)});
    }
    return timing;
  }

  [[nodiscard]] std::size_t instances() const override { return kInstances; }

  Plan plan(std::size_t k, LayerTimer& timer) override { return run(k, 0, timer); }

  [[nodiscard]] double verify(std::size_t k, const Plan& plan) const override {
    const Instance& instance = instances_[k];
    const net::LatencyMatrix& matrix = instance.scenario.matrix;
    check_placement(plan.placement, matrix.size(), grid_.universe_size(), true);
    check_strategy(plan.strategy, matrix.size(), grid_.universe_size());
    check_agrees("local search objective", plan.search_value,
                 instance.objective.evaluate(matrix, grid_, plan.placement));
    const std::span<const double> demand{instance.scenario.client_demand};
    const core::Evaluation network =
        core::evaluate_explicit(matrix, grid_, plan.placement, 0.0, plan.strategy, demand);
    check_agrees("strategy LP delay", plan.planner_value, network.avg_network_delay_ms);
    const std::vector<double> load = core::site_loads_explicit(
        plan.strategy, plan.placement, matrix.size(), instance.objective.client_weights());
    for (std::size_t w = 0; w < load.size(); ++w) {
      if (load[w] > instance.caps[w] * (1.0 + 1e-7) + 1e-9) {
        throw CheckFailure{"strategy exceeds the capacity of site " + std::to_string(w)};
      }
    }
    return core::evaluate_explicit(matrix, grid_, plan.placement, instance.objective.alpha(),
                                   plan.strategy, demand)
        .avg_response_ms;
  }

  [[nodiscard]] std::vector<std::pair<std::string, Plan>> corruptions(
      const Plan& plan) const override {
    std::vector<std::pair<std::string, Plan>> out =
        common_corruptions(instances_.front().scenario.matrix, plan);
    out.push_back(doubled_up(plan));
    return out;
  }

  Plan probe_plan() override {
    LayerTimer scratch;
    return run(0, 0, scratch);
  }

  ServeInput serve_input(std::size_t k, const Plan& plan) override {
    const Instance& instance = instances_[k];
    return {&instance.scenario.matrix, &grid_, plan.placement, &plan.strategy,
            instance.scenario.client_demand, instance_seed(seed_, kInstances, k)};
  }

  /// A pooled and a serial (threads = 1) local search on instance 0 give
  /// the parallel efficiency; iterative_layers covers core/manytoone and
  /// core/iterative.
  void layer_extras(double, Layers& layers) override {
    LayerTimer pooled;
    run(0, 0, pooled);
    LayerTimer serial;
    run(0, 1, serial);
    layers["placement.anchors"] = static_cast<double>(kAnchors);
    layers["thread_pool.parallel_efficiency"] =
        ratio(serial.median_ms("core.local_search"), pooled.median_ms("core.local_search"));
    iterative_layers(seed_, layers);
  }

 private:
  static constexpr std::size_t kInstances = 8;
  static constexpr std::size_t kAnchors = 32;
  // BestImprovement rounds of the dense search. Unbounded, the search runs
  // 4-23 rounds depending on the input; the bound keeps the work per plan
  // comparable across inputs.
  static constexpr std::size_t kSearchRounds = 4;

  struct Instance {
    sim::Scenario scenario;
    core::LoadAwareObjective objective;
    std::vector<std::size_t> anchors;
    std::vector<double> caps;
  };

  Plan run(std::size_t k, std::size_t search_threads, LayerTimer& timer) {
    const Instance& instance = instances_[k];
    const net::LatencyMatrix& matrix = instance.scenario.matrix;
    const auto builder = [&matrix](std::size_t v0) {
      return core::grid_placement_for_client(matrix, 7, v0);
    };
    const core::PlacementSearchResult constructive = timer.time("core.best_placement", [&] {
      return core::best_placement(matrix, grid_, instance.objective, builder,
                                  instance.anchors);
    });
    core::LocalSearchOptions options;
    options.objective = &instance.objective;
    options.max_rounds = kSearchRounds;
    options.threads = search_threads;
    const core::LocalSearchResult polished = timer.time("core.local_search", [&] {
      return core::local_search_placement(matrix, grid_, constructive.placement, options);
    });
    const core::StrategyLpResult lp = timer.time("core.optimize_access_strategy", [&] {
      return core::optimize_access_strategy(matrix, grid_, polished.placement, instance.caps,
                                            instance.objective.client_weights());
    });
    if (lp.status != lp::SolveStatus::Optimal) {
      throw CheckFailure{"strategy LP did not reach an optimum"};
    }
    Plan plan;
    plan.placement = polished.placement;
    plan.strategy = lp.strategy;
    plan.planner_value = lp.avg_network_delay;
    plan.search_value = polished.objective;
    plan.lp_iterations = lp.lp_iterations;
    return plan;
  }

  const quorum::GridQuorum grid_{7};
  std::vector<Instance> instances_;
  std::uint64_t seed_ = 1;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "sparse-closest-10k") return std::make_unique<SparseClosest10k>();
  if (name == "plan-and-serve-500") return std::make_unique<PlanAndServe500>();
  throw std::invalid_argument{"unknown workload: " + name};
}

// ------------------------------------------------------------------ serving

struct ServeOutcome {
  sim::EngineResult clean;
  sim::EngineResult faulty;
  double wall_ms = 0.0;  // Both phases.
};

/// Fault-free then fault-phase engine runs of one plan (see the constants
/// at the top of the file for the operating point).
ServeOutcome serve(const ServeInput& input, LayerTimer& timer) {
  const net::LatencyMatrix& matrix = *input.matrix;
  const std::size_t sites = matrix.size();
  const std::vector<double> weights =
      input.demand.empty() ? std::vector<double>{} : core::demand_shares(input.demand, sites);
  const std::vector<double> site_load =
      input.strategy != nullptr
          ? core::site_loads_explicit(*input.strategy, input.placement, sites, weights)
          : core::site_loads_closest(matrix, *input.system, input.placement, weights);
  const std::vector<double> shape =
      input.demand.empty() ? std::vector<double>(sites, 1.0) : input.demand;

  sim::EngineConfig config;
  config.service_time_ms = kServiceMs;
  config.strategy =
      input.strategy != nullptr ? sim::EngineStrategy::Explicit : sim::EngineStrategy::Closest;
  config.explicit_strategy = input.strategy;
  config.warmup_ms = kWarmupMs;
  config.duration_ms = kDurationMs;
  config.master_seed = input.seed;
  config.replications = kReplications;

  ServeOutcome outcome;
  const Clock::time_point t0 = Clock::now();
  const std::vector<double> rates =
      sim::scale_rates_to_peak_utilization(shape, site_load, kServiceMs, kPeakRho);
  outcome.clean = timer.time("sim.run_engine", [&] {
    return sim::run_engine(matrix, *input.system, input.placement, rates, config);
  });

  // Each placed site is down for one slot of the measurement window, in
  // site order, so exactly one placed site is down at any time.
  const std::vector<std::size_t> support = input.placement.support_set();
  const double slot = kDurationMs / static_cast<double>(support.size());
  for (std::size_t k = 0; k < support.size(); ++k) {
    const double start = kWarmupMs + slot * static_cast<double>(k);
    config.outages.push_back({support[k], start, start + slot});
  }
  // The timeout covers the slowest client-to-replica round trip.
  double max_rtt = 0.0;
  for (std::size_t v = 0; v < sites; ++v) {
    for (std::size_t w : support) max_rtt = std::max(max_rtt, matrix.rtt(v, w));
  }
  config.retry.timeout_ms = 1.25 * max_rtt + 25.0;
  config.retry.max_attempts = kMaxAttempts;
  config.retry.backoff_base_ms = 5.0;
  config.retry.jitter_frac = 0.25;
  config.failover = sim::FailoverMode::Suspicion;
  const std::vector<double> fault_rates =
      sim::scale_rates_to_peak_utilization(shape, site_load, kServiceMs, kFaultPeakRho);
  outcome.faulty = timer.time("sim.run_engine", [&] {
    return sim::run_engine(matrix, *input.system, input.placement, fault_rates, config);
  });
  outcome.wall_ms = ms_since(t0);
  return outcome;
}

bool same_result(const sim::EngineResult& a, const sim::EngineResult& b) {
  return a.issued == b.issued && a.completed == b.completed && a.failed == b.failed &&
         a.abandoned == b.abandoned && a.retries == b.retries &&
         a.dropped_messages == b.dropped_messages && a.p50_ms == b.p50_ms &&
         a.p99_ms == b.p99_ms && a.degraded_p99_ms == b.degraded_p99_ms &&
         a.mean_response_ms == b.mean_response_ms;
}

/// Request accounting: every windowed request is completed, failed or
/// abandoned, and nothing is lost without faults.
void check_accounting(const ServeOutcome& outcome) {
  for (const sim::EngineResult* r : {&outcome.clean, &outcome.faulty}) {
    if (r->issued == 0 || r->issued != r->completed + r->failed + r->abandoned) {
      throw CheckFailure{"engine request accounting does not balance"};
    }
  }
  if (outcome.clean.failed + outcome.clean.abandoned != 0) {
    throw CheckFailure{"fault-free engine run lost requests"};
  }
}

/// The serve phase over every instance's plan: the engine inputs, the first
/// serve's per-plan outcomes, each plan's serve wall times, and the windowed
/// requests one serve of every plan resolves.
struct Served {
  std::vector<ServeInput> inputs;
  std::vector<ServeOutcome> outcomes;
  std::vector<std::vector<double>> wall_ms;  // [instance][repeat]
  std::size_t repeats = 0;
  double requests = 0.0;

  /// One repeat's wall time, each plan served at its fastest.
  [[nodiscard]] double fastest_ms() const {
    double sum = 0.0;
    for (const std::vector<double>& walls : wall_ms) {
      sum += *std::min_element(walls.begin(), walls.end());
    }
    return sum;
  }

  template <typename Field>
  [[nodiscard]] double mean(Field field) const {
    return ratio(total(field), static_cast<double>(outcomes.size()));
  }
  template <typename Field>
  [[nodiscard]] double total(Field field) const {
    double sum = 0.0;
    for (const ServeOutcome& outcome : outcomes) sum += static_cast<double>(field(outcome));
    return sum;
  }
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

// ------------------------------------------------------------------- runner

/// Plans, checks and times; owns the bookkeeping shared by all workloads.
class Runner {
 public:
  Runner(Workload& workload, Report& report)
      : workload_(workload),
        report_(report),
        digests_(workload.instances()),
        first_(workload.instances()),
        response_(workload.instances(), 0.0) {}

  /// One checked plan; returns its wall time, or nullopt when it failed.
  std::optional<double> attempt(std::size_t instance, LayerTimer& timer) {
    ++report_.attempted;
    try {
      const Clock::time_point t0 = Clock::now();
      Plan plan = timer.time("perfbench.plan", [&] { return workload_.plan(instance, timer); });
      const double ms = ms_since(t0);
      const double fresh = workload_.verify(instance, plan);
      const std::uint64_t digest = plan_digest(plan.placement, plan.strategy);
      if (!digests_[instance]) {
        digests_[instance] = digest;
        response_[instance] = fresh;
        first_[instance] = std::move(plan);
      } else if (*digests_[instance] != digest) {
        throw CheckFailure{"plan differs from the run's first plan on the same input"};
      }
      return ms;
    } catch (const std::exception& error) {
      ++report_.failed;
      if (report_.failures.size() < kMaxFailureMessages) {
        report_.fail("plan (instance " + std::to_string(instance) + "): " + error.what());
      }
      return std::nullopt;
    }
  }

  /// Plans whole cycles over every instance, back to back, until at least
  /// `min_plans` plans were made and another cycle would end more than half
  /// a cycle past `seconds`. Returns each instance's plan times.
  std::vector<std::vector<double>> block(double seconds, std::size_t min_plans,
                                         LayerTimer& timer) {
    const std::size_t instances = workload_.instances();
    std::vector<std::vector<double>> times(instances);
    const Clock::time_point t0 = Clock::now();
    double cycle_ms = 0.0;
    for (std::size_t plans = 0;
         plans < min_plans || ms_since(t0) + 0.5 * cycle_ms < 1000.0 * seconds;) {
      const Clock::time_point c0 = Clock::now();
      for (std::size_t v = 0; v < instances; ++v, ++plans) {
        if (const std::optional<double> ms = attempt(v, timer)) times[v].push_back(*ms);
      }
      cycle_ms = ms_since(c0);
    }
    return times;
  }

  [[nodiscard]] const Plan* first(std::size_t instance) const {
    return digests_[instance] ? &first_[instance] : nullptr;
  }

  /// Mean fresh response over the instances that produced a plan.
  [[nodiscard]] double mean_response() const {
    double sum = 0.0;
    std::size_t count = 0;
    for (std::size_t v = 0; v < response_.size(); ++v) {
      if (digests_[v]) {
        sum += response_[v];
        ++count;
      }
    }
    return ratio(sum, static_cast<double>(count));
  }

 private:
  Workload& workload_;
  Report& report_;
  std::vector<std::optional<std::uint64_t>> digests_;
  std::vector<Plan> first_;
  std::vector<double> response_;
};

/// One serve round (see kServeRounds). A failure is reported and ends the
/// serve phase: `served` is reset.
void serve_round(Workload& workload, const Runner& runner, LayerTimer& timer, Report& report,
                 std::optional<Served>& served) {
  if (!served) return;
  try {
    if (served->inputs.empty()) {
      for (std::size_t k = 0; k < workload.instances(); ++k) {
        const Plan* plan = runner.first(k);
        if (plan == nullptr) throw CheckFailure{"no plan to serve"};
        served->inputs.push_back(workload.serve_input(k, *plan));
      }
      served->wall_ms.resize(served->inputs.size());
    }
    double round_ms = 0.0;
    do {
      for (std::size_t k = 0; k < served->inputs.size(); ++k) {
        ServeOutcome outcome = serve(served->inputs[k], timer);
        check_accounting(outcome);
        served->wall_ms[k].push_back(outcome.wall_ms);
        round_ms += outcome.wall_ms;
        if (served->repeats == 0) {
          served->requests += static_cast<double>(outcome.clean.issued + outcome.faulty.issued);
          served->outcomes.push_back(std::move(outcome));
        } else if (!same_result(served->outcomes[k].clean, outcome.clean) ||
                   !same_result(served->outcomes[k].faulty, outcome.faulty)) {
          throw CheckFailure{"engine results differ between repeats"};
        }
      }
      ++served->repeats;
    } while (round_ms < kMinRoundServeMs);
  } catch (const std::exception& error) {
    report.fail(std::string{"serve: "} + error.what());
    served.reset();
  }
}

/// Corrupted plans must all be rejected by the workload's checks.
void negative_self_test(const Workload& workload, const Plan& good, Report& report) {
  std::size_t rejected = 0;
  const auto corrupted = workload.corruptions(good);
  for (const auto& [what, plan] : corrupted) {
    try {
      (void)workload.verify(0, plan);
      report.fail("self-test: the checks accepted a corrupted plan (" + what + ")");
    } catch (const CheckFailure&) {
      ++rejected;
    }
  }
  report.note("self_test_rejected",
              std::to_string(rejected) + "/" + std::to_string(corrupted.size()));
}

/// The same short plan on the shared pool and fully serial (nested inside
/// a one-index parallel_for, where every pool call runs inline) must agree
/// bit for bit.
void determinism_probe(Workload& workload, Report& report) {
  try {
    const Plan pooled = workload.probe_plan();
    std::optional<Plan> serial;
    common::global_thread_pool().parallel_for(
        0, 1, [&](std::size_t) { serial = workload.probe_plan(); });
    const bool same =
        plan_digest(pooled.placement, pooled.strategy) ==
            plan_digest(serial->placement, serial->strategy) &&
        pooled.planner_value == serial->planner_value;
    report.note("determinism_probe", same ? "identical" : "MISMATCH");
    if (!same) report.fail("determinism probe: 1-thread and pooled plans differ");
  } catch (const std::exception& error) {
    report.fail(std::string{"determinism probe threw: "} + error.what());
  }
}

/// Mean over instances of each instance's fastest plan, so every input
/// weighs the same whatever its cost and however often it was planned. The
/// minimum, not the median: host interference only ever adds time, and it
/// comes in phases of seconds to minutes that shift a whole run's median.
double per_input_min(const std::vector<std::vector<double>>& times) {
  double sum = 0.0;
  std::size_t inputs = 0;
  for (const std::vector<double>& samples : times) {
    if (samples.empty()) continue;
    sum += *std::min_element(samples.begin(), samples.end());
    ++inputs;
  }
  return ratio(sum, static_cast<double>(inputs));
}

std::size_t sample_count(const std::vector<std::vector<double>>& times) {
  std::size_t count = 0;
  for (const std::vector<double>& samples : times) count += samples.size();
  return count;
}

std::string trace_path(const Options& options) {
  return options.trace_dir + "/trace-" + options.workload + "-" +
         std::to_string(options.seed) + ".json";
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"sparse-closest-10k", "plan-and-serve-500"};
}

Report run_workload(const Options& options) {
  std::unique_ptr<Workload> workload = make_workload(options.workload);
  Report report;
  obs::set_enabled(false);

  // Set-up, repeated; the last repetition's inputs are kept.
  std::vector<double> setup_s;
  std::vector<double> scenario_ms;
  std::vector<double> knn_ms;
  std::vector<double> anchors_ms;
  for (double total_ms = 0.0; setup_s.size() < kMinSetupRepeats || total_ms < kMinSetupMs;) {
    const Clock::time_point t0 = Clock::now();
    const SetupTiming timing = workload->setup(options.seed);
    total_ms += ms_since(t0);
    setup_s.push_back(ms_since(t0) / 1000.0);
    scenario_ms.push_back(timing.scenario_ms);
    knn_ms.push_back(timing.knn_ms);
    anchors_ms.push_back(timing.anchors_ms);
  }

  Runner runner(*workload, report);
  LayerTimer untimed;
  (void)runner.attempt(0, untimed);  // Warm-up plan, checked but not timed.

  // Plan times per instance. Every instance is planned (and checked) the
  // same number of times: the quality metric averages over all of them.
  LayerTimer timer;
  std::vector<std::vector<double>> plan_ms(workload->instances());
  std::vector<std::vector<double>> untraced_ms;
  std::map<std::string, std::uint64_t> counters;
  double caller_wait_p50 = 0.0;
  std::optional<Served> served{Served{}};
  if (!options.trace) {
    for (std::size_t round = 0; round < kServeRounds; ++round) {
      const std::vector<std::vector<double>> block =
          runner.block(options.seconds / static_cast<double>(kServeRounds), kMinPlans, timer);
      for (std::size_t k = 0; k < block.size(); ++k) {
        plan_ms[k].insert(plan_ms[k].end(), block[k].begin(), block[k].end());
      }
      serve_round(*workload, runner, timer, report, served);
    }
  } else {
    // Half the time untraced (the overhead baseline), half traced.
    LayerTimer baseline;
    untraced_ms = runner.block(options.seconds / 2.0, kMinPlans, baseline);
    obs::reset();
    obs::set_enabled(true);
    if (!obs::start_trace(trace_path(options))) {
      report.note("trace_file", "could not be opened; spans not written");
    }
    plan_ms = runner.block(options.seconds / 2.0, kMinPlans, timer);
    counters = counter_totals();
    caller_wait_p50 = histogram_p50("common.thread_pool.caller_wait_ms");
    for (std::size_t round = 0; round < kServeRounds; ++round) {
      serve_round(*workload, runner, timer, report, served);
    }
  }
  report.note("plan_samples", std::to_string(sample_count(plan_ms)));
  report.note("setup_samples", std::to_string(setup_s.size()));
  report.note("instances", std::to_string(workload->instances()));
  if (served) {
    const auto abandoned = served->total([](const ServeOutcome& o) { return o.faulty.abandoned; });
    const auto issued = served->total([](const ServeOutcome& o) { return o.faulty.issued; });
    report.note("serve_samples", std::to_string(served->repeats));
    report.note("fault_phase_abandoned", std::to_string(static_cast<std::size_t>(abandoned)) +
                                             "/" +
                                             std::to_string(static_cast<std::size_t>(issued)));
  }

  determinism_probe(*workload, report);
  if (const Plan* plan = runner.first(0)) negative_self_test(*workload, *plan, report);

  const double plan_min = per_input_min(plan_ms);
  const double serve_ms = served ? served->fastest_ms() : 0.0;
  const double requests = served ? served->requests : 0.0;
  const auto sim_mean = [&](auto field) { return served ? served->mean(field) : 0.0; };
  const auto sim_total = [&](auto field) { return served ? served->total(field) : 0.0; };

  if (!options.trace) {
    const double ok = static_cast<double>(report.attempted - report.failed);
    report.add("setup_s", median(setup_s), "s");
    report.add("plan_ms_min", plan_min, "ms");
    report.add("plan_response_ms", runner.mean_response(), "ms");
    report.add("sim_requests_per_s", ratio(requests, serve_ms / 1000.0), "1/s");
    report.add("sim_p50_ms", sim_mean([](const ServeOutcome& o) { return o.clean.p50_ms; }),
               "ms");
    report.add("sim_p99_ms", sim_mean([](const ServeOutcome& o) { return o.clean.p99_ms; }),
               "ms");
    report.add("sim_degraded_p99_ms",
               sim_mean([](const ServeOutcome& o) { return o.faulty.degraded_p99_ms; }), "ms");
    report.add("sim_unavailability",
               sim_mean([](const ServeOutcome& o) { return o.faulty.unavailability; }),
               "ratio");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    report.add("plan_ok_frac", ratio(ok, static_cast<double>(report.attempted)), "ratio");
    return report;
  }

  Layers layers;
  try {
    const std::vector<double>& first = plan_ms[0];
    workload->layer_extras(first.empty() ? 0.0 : *std::min_element(first.begin(), first.end()),
                           layers);
  } catch (const std::exception& error) {
    report.fail(std::string{"traced extras: "} + error.what());
  }
  obs::stop_trace();

  const double plans = static_cast<double>(std::max<std::size_t>(1, sample_count(plan_ms)));
  const auto per_plan = [&](const char* name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second) / plans;
  };
  const auto layer = [&](const char* name, double fallback) {
    const auto it = layers.find(name);
    return it == layers.end() ? fallback : it->second;
  };
  const double search_ms = timer.median_ms("core.local_search");
  const double kept = per_plan("core.delta_eval.closest_clients_kept");
  const double recomputed = per_plan("core.delta_eval.closest_clients_recomputed");
  const double pruned = per_plan("core.delta_eval.closest_clients_pruned");
  const double lp_ms = layer("strategy_lp.ms", timer.median_ms("core.optimize_access_strategy"));
  const Plan* first_plan = runner.first(0);
  const double lp_iterations =
      first_plan != nullptr ? static_cast<double>(first_plan->lp_iterations) : 0.0;

  report.add("net.scenario_ms", median(scenario_ms), "ms");
  report.add("net.knn_build_ms", median(knn_ms), "ms");
  report.add("net.anchors_ms", median(anchors_ms), "ms");
  report.add("placement.best_placement_ms", timer.median_ms("core.best_placement"), "ms");
  report.add("placement.anchors", layer("placement.anchors", 0.0), "count");
  report.add("local_search.ms", search_ms, "ms");
  report.add("local_search.rounds", per_plan("core.local_search.rounds"), "count");
  report.add("local_search.candidates", per_plan("core.local_search.candidates"), "count");
  report.add("local_search.moves", per_plan("core.local_search.moves_accepted"), "count");
  report.add("local_search.us_per_candidate",
             ratio(1000.0 * search_ms, per_plan("core.local_search.candidates")), "us");
  report.add("delta_eval.candidates", per_plan("core.delta_eval.candidates"), "count");
  report.add("delta_eval.clients_kept", kept, "count");
  report.add("delta_eval.clients_recomputed", recomputed, "count");
  report.add("delta_eval.clients_pruned", pruned, "count");
  report.add("delta_eval.kept_share", ratio(kept, kept + recomputed + pruned), "ratio");
  report.add("delta_eval.fast_path", per_plan("core.delta_eval.fast_path"), "count");
  report.add("delta_eval.general_fallbacks", per_plan("core.delta_eval.general_fallbacks"),
             "count");
  report.add("manytoone.ms", layer("manytoone.ms", 0.0), "ms");
  report.add("manytoone.calls", layer("manytoone.calls", 0.0), "count");
  report.add("manytoone.ms_per_call", layer("manytoone.ms_per_call", 0.0), "ms");
  report.add("strategy_lp.ms", lp_ms, "ms");
  report.add("lp.strategy.solves", per_plan("lp.strategy.solves"), "count");
  report.add("lp.strategy.iterations", per_plan("lp.strategy.iterations"), "count");
  report.add("lp.strategy.us_per_iteration",
             layer("lp.strategy.us_per_iteration", ratio(1000.0 * lp_ms, lp_iterations)), "us");
  report.add("lp.revised.refactorizations", per_plan("lp.revised.refactorizations"), "count");
  report.add("lp.strategy.warm_start_hit", per_plan("lp.strategy.warm_start_hit"), "count");
  report.add("lp.strategy.warm_start_miss", per_plan("lp.strategy.warm_start_miss"), "count");
  report.add("iterative.rounds", layer("iterative.rounds", 0.0), "count");
  report.add("iterative.lp_iterations", layer("iterative.lp_iterations", 0.0), "count");
  report.add("iterative.replay_share", layer("iterative.replay_share", 0.0), "ratio");
  report.add("engine.ms", serve_ms, "ms");
  report.add("engine.requests_issued", requests, "count");
  report.add("engine.retries",
             sim_total([](const ServeOutcome& o) { return o.faulty.retries; }), "count");
  report.add("engine.dropped_messages",
             sim_total([](const ServeOutcome& o) { return o.faulty.dropped_messages; }),
             "count");
  report.add("engine.us_per_request", ratio(1000.0 * serve_ms, requests), "us");
  report.add("thread_pool.jobs", per_plan("common.thread_pool.jobs"), "count");
  report.add("thread_pool.indices", per_plan("common.thread_pool.indices"), "count");
  report.add("thread_pool.caller_wait_ms_p50", caller_wait_p50, "ms");
  report.add("thread_pool.parallel_efficiency", layer("thread_pool.parallel_efficiency", 0.0),
             "ratio");
  report.add("obs.trace_overhead_ratio", ratio(plan_min, per_input_min(untraced_ms)),
             "ratio");
  return report;
}

}  // namespace perfbench
