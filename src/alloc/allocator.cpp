#include "alloc/allocator.h"

#include <algorithm>

#include "support/diag.h"

namespace spmwcet::alloc {

namespace {

AllocationResult from_chosen(const std::vector<MemoryObject>& objects,
                             const KnapsackResult& ks) {
  AllocationResult result;
  result.benefit_nj = ks.benefit_nj;
  result.used_bytes = ks.used_bytes;
  for (const std::size_t i : ks.chosen) {
    const MemoryObject& obj = objects[i];
    result.chosen.push_back(obj);
    if (obj.is_function)
      result.assignment.functions.insert(obj.name);
    else
      result.assignment.globals.insert(obj.name);
  }
  return result;
}

} // namespace

namespace {

// Above this object count the branch-and-bound ILP is replaced by the
// exact DP: B&B node counts explode on population-scale candidate tables
// (a generated callheavy workload carries ~400 memory objects and measured
// minutes per solve), while every paper benchmark stays far below the
// threshold and keeps the ILP path bit-for-bit.
constexpr std::size_t kIlpObjectLimit = 100;

} // namespace

AllocationResult allocate_energy_optimal(const minic::ObjModule& mod,
                                         const sim::AccessProfile& profile,
                                         uint32_t spm_capacity,
                                         const energy::EnergyModel& em) {
  return allocate_energy_optimal(collect_objects(mod, profile, em),
                                 spm_capacity);
}

AllocationResult allocate_energy_optimal(
    const std::vector<MemoryObject>& objects, uint32_t spm_capacity) {
  if (objects.size() <= kIlpObjectLimit) {
    const KnapsackResult ks = solve_knapsack_ilp(objects, spm_capacity);
    return from_chosen(objects, ks);
  }

  // Scalable exact path: zero-benefit objects can never raise the optimum,
  // so solve over the positive-benefit subset only. If that subset fits
  // outright, the answer needs no solver at all; otherwise the DP capacity
  // is bounded by the subset's total footprint, keeping it cheap.
  std::vector<MemoryObject> positive;
  uint64_t positive_bytes = 0;
  for (const MemoryObject& obj : objects) {
    if (obj.benefit_nj <= 0.0) continue;
    positive.push_back(obj);
    positive_bytes += obj.size_bytes;
  }
  KnapsackResult ks;
  if (positive_bytes <= spm_capacity) {
    for (std::size_t i = 0; i < positive.size(); ++i) {
      ks.chosen.push_back(i);
      ks.benefit_nj += positive[i].benefit_nj;
      ks.used_bytes += positive[i].size_bytes;
    }
  } else {
    ks = solve_knapsack_dp(positive, spm_capacity);
  }
  return from_chosen(positive, ks);
}

AllocationResult allocate_wcet_driven(const minic::ObjModule& mod,
                                      uint32_t spm_capacity,
                                      link::LinkOptions opts) {
  opts.spm_size = spm_capacity;

  // Candidates with their sizes; benefits are discovered by re-analysis.
  sim::AccessProfile empty_profile;
  std::vector<MemoryObject> objects =
      collect_objects(mod, empty_profile, energy::EnergyModel{});

  link::SpmAssignment current;
  uint32_t used = 0;
  auto wcet_of = [&](const link::SpmAssignment& a) -> uint64_t {
    const link::Image img = link::link_program(mod, opts, a);
    return wcet::analyze_wcet(img).wcet;
  };
  uint64_t current_wcet = wcet_of(current);

  std::vector<bool> taken(objects.size(), false);
  AllocationResult result;

  for (;;) {
    int best = -1;
    uint64_t best_wcet = current_wcet;
    double best_gain_per_byte = 0.0;
    for (std::size_t i = 0; i < objects.size(); ++i) {
      if (taken[i]) continue;
      // Alignment can add up to 3 bytes per object; be conservative.
      if (used + objects[i].size_bytes + 4 > spm_capacity) continue;
      link::SpmAssignment trial = current;
      if (objects[i].is_function)
        trial.functions.insert(objects[i].name);
      else
        trial.globals.insert(objects[i].name);
      uint64_t w;
      try {
        w = wcet_of(trial);
      } catch (const ProgramError&) {
        continue; // alignment pushed past capacity; skip this candidate
      }
      if (w >= current_wcet) continue;
      const double gain_per_byte =
          static_cast<double>(current_wcet - w) /
          std::max<uint32_t>(1, objects[i].size_bytes);
      if (gain_per_byte > best_gain_per_byte) {
        best_gain_per_byte = gain_per_byte;
        best = static_cast<int>(i);
        best_wcet = w;
      }
    }
    if (best < 0) break;
    taken[static_cast<std::size_t>(best)] = true;
    const MemoryObject& obj = objects[static_cast<std::size_t>(best)];
    if (obj.is_function)
      current.functions.insert(obj.name);
    else
      current.globals.insert(obj.name);
    used += obj.size_bytes;
    current_wcet = best_wcet;
    result.chosen.push_back(obj);
  }

  result.assignment = current;
  result.used_bytes = used;
  return result;
}

} // namespace spmwcet::alloc
