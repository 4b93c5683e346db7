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

AllocationResult allocate_energy_optimal(const minic::ObjModule& mod,
                                         const sim::AccessProfile& profile,
                                         uint32_t spm_capacity,
                                         const energy::EnergyModel& em) {
  return allocate_energy_optimal(
      collect_objects(mod, link::lay_out(mod).extents(), profile, em),
      spm_capacity);
}

AllocationResult allocate_energy_optimal(
    const std::vector<MemoryObject>& objects, uint32_t spm_capacity) {
  return from_chosen(objects, solve_knapsack_dp(objects, spm_capacity));
}

AllocationResult allocate_wcet_driven(
    const std::vector<MemoryObject>& objects, uint32_t spm_capacity,
    const std::function<uint64_t(const link::SpmAssignment&)>& wcet_of) {
  link::SpmAssignment current;
  uint32_t used = 0;
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
