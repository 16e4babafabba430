// Shared by the LP test suites: solve with lp::RevisedSimplexSolver and
// check every Optimal result against lp::certify_optimality.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "lp/problem.hpp"
#include "lp/revised_simplex.hpp"

namespace qp::lp {

/// Expects (values, duals) to pass the duality certificate of `problem`;
/// prints the four residuals when it does not.
inline void expect_certified(const LpProblem& problem, const std::vector<double>& values,
                             const std::vector<double>& duals) {
  const OptimalityCertificate c = certify_optimality(problem, values, duals);
  EXPECT_TRUE(c.holds()) << "primal " << c.primal_violation << ", dual sign "
                         << c.dual_sign_violation << ", reduced cost "
                         << c.reduced_cost_violation << ", gap " << c.duality_gap;
}

/// Solves with the revised simplex; every Optimal result must carry a
/// duality certificate.
inline SolveResult solve_certified(LpProblem& problem, SimplexOptions options = {}) {
  SolveResult s = RevisedSimplexSolver{options}.solve(problem);
  if (s.status == SolveStatus::Optimal) expect_certified(problem, s.values, s.duals);
  return s;
}

}  // namespace qp::lp
