// The seed simplex, kept as a test oracle: the same dense two-phase primal
// simplex with Bland's rule as lp::solve_lp / lp::PreparedLp, but it prices
// every column from scratch on every pivot instead of carrying the reduced
// costs through the pivots. Production must match it bit for bit — status,
// final basis, values and objective — so a changed pivot path shows.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "lp/model.h"

namespace spmwcet::reference {

/// Solves the LP relaxation of `model` (integrality ignored).
lp::Solution solve_lp(const lp::Model& model);

/// Phase-one-once re-solver over a fixed constraint matrix, like
/// lp::PreparedLp: each solve replays phase two on a copy of the prepared
/// tableau with the given dense objective.
class PreparedLp {
public:
  explicit PreparedLp(const lp::Model& model);
  ~PreparedLp();
  PreparedLp(PreparedLp&&) noexcept;
  PreparedLp& operator=(PreparedLp&&) noexcept;

  lp::Solution solve(lp::Sense sense,
                     const std::vector<double>& objective) const;

private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Solves run by this oracle (solve_lp and PreparedLp::solve) since process
/// start; parity tests read it to show the oracle side actually ran.
uint64_t simplex_solves();

} // namespace spmwcet::reference
