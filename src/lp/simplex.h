// Dense two-phase primal simplex for the LP relaxation.
//
// Standard-form conversion: every variable is shifted to its lower bound,
// finite upper bounds become explicit rows, GE/EQ rows get artificial
// variables eliminated in phase one. Bland's rule guarantees termination.
//
// PreparedLp sits on top of the cold path as the re-solve accelerator: it
// runs standard-form construction and phase one exactly once and re-solves
// phase two against swapped objective vectors. Phase two replays the cold
// path's arithmetic on a copy of the phase-one tableau, so a PreparedLp
// solve is bit-identical to a cold solve_lp of the same model with that
// objective.
#pragma once

#include <memory>

#include "lp/model.h"

namespace spmwcet::lp {

/// Solves the LP relaxation of `model` (integrality ignored).
Solution solve_lp(const Model& model);

/// Phase-one-once re-solver for objective-only model families (the IPET
/// skeleton): the constraint matrix is fixed at construction, each solve
/// supplies a dense objective over the model's variables.
class PreparedLp {
public:
  explicit PreparedLp(const Model& model);
  ~PreparedLp();
  PreparedLp(PreparedLp&&) noexcept;
  PreparedLp& operator=(PreparedLp&&) noexcept;

  std::size_t num_vars() const;

  /// Solves with `objective` as the dense objective vector (one coefficient
  /// per model variable, Model::objective() layout). Thread-safe: each call
  /// works on its own copy of the prepared tableau.
  Solution solve(Sense sense, const std::vector<double>& objective) const;

private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

} // namespace spmwcet::lp
