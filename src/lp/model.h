// Linear/integer programming model builder. This module replaces the
// commercial ILP solver (CPLEX) the paper uses for both the knapsack
// scratchpad allocation and — inside aiT — the IPET path analysis.
//
// Scope: dense problems with up to a few thousand variables/constraints,
// variables bounded below by zero (the natural form of both knapsack and
// IPET flow models). Upper bounds and integrality are first-class.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace spmwcet::lp {

enum class Relation : uint8_t { LE, GE, EQ };
enum class Sense : uint8_t { Maximize, Minimize };

enum class Status : uint8_t {
  Optimal,
  Infeasible,
  Unbounded,
};

/// A linear term: coefficient * variable.
struct Term {
  int var = 0;
  double coef = 0.0;
};

struct Constraint {
  std::vector<Term> terms;
  Relation rel = Relation::LE;
  double rhs = 0.0;
  std::string name;
};

struct Variable {
  std::string name;
  double lower = 0.0;
  double upper = std::numeric_limits<double>::infinity();
  bool integer = false;
};

/// An LP/MILP instance under construction.
class Model {
public:
  /// Adds a variable with bounds [lower, upper]; returns its index.
  int add_var(std::string name, double lower = 0.0,
              double upper = std::numeric_limits<double>::infinity(),
              bool integer = false);

  void add_constraint(std::vector<Term> terms, Relation rel, double rhs,
                      std::string name = {});

  void set_objective(Sense sense, std::vector<Term> terms);

  std::size_t num_vars() const { return vars_.size(); }
  std::size_t num_constraints() const { return constraints_.size(); }
  const std::vector<Variable>& vars() const { return vars_; }
  const std::vector<Constraint>& constraints() const { return constraints_; }
  Sense sense() const { return sense_; }
  const std::vector<double>& objective() const { return objective_; }

private:
  std::vector<Variable> vars_;
  std::vector<Constraint> constraints_;
  std::vector<double> objective_; // dense, resized with vars
  Sense sense_ = Sense::Maximize;
};

struct Solution {
  Status status = Status::Infeasible;
  double objective = 0.0;
  std::vector<double> values;
  /// Final basis of an LP solve: the basic column per tableau row, in the
  /// solver's standard-form column layout (structural | slack/surplus |
  /// artificial). The PreparedLp oracle tests compare it with the cold
  /// solve's and read which columns ended basic.
  std::vector<int> basis;

  double value(int var) const { return values.at(static_cast<std::size_t>(var)); }
};

} // namespace spmwcet::lp
