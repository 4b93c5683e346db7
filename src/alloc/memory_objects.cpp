#include "alloc/memory_objects.h"

#include "support/bitops.h"
#include "support/diag.h"

namespace spmwcet::alloc {

std::vector<MemoryObject>
collect_objects(const minic::ObjModule& mod,
                std::span<const link::FunctionExtent> extents,
                const sim::AccessProfile& profile,
                const energy::EnergyModel& em) {
  SPMWCET_CHECK(extents.size() == mod.functions.size());
  std::vector<MemoryObject> objects;

  auto counts_for = [&](const std::string& name) -> sim::AccessCounts {
    const sim::AccessCounts* c = profile.find(name);
    return c != nullptr ? *c : sim::AccessCounts{};
  };

  for (std::size_t i = 0; i < mod.functions.size(); ++i) {
    const std::string& name = mod.functions[i].name;
    const sim::AccessCounts c = counts_for(name);
    MemoryObject obj;
    obj.name = name;
    obj.is_function = true;
    obj.size_bytes = extents[i].total_bytes;
    // Fetches are halfword reads; literal-pool loads land in load[2]
    // because the pool belongs to the function's address range.
    obj.accesses = c.fetch + c.load[0] + c.load[1] + c.load[2];
    obj.benefit_nj = static_cast<double>(c.fetch) * em.spm_benefit_nj(2) +
                     static_cast<double>(c.load[0]) * em.spm_benefit_nj(1) +
                     static_cast<double>(c.load[1]) * em.spm_benefit_nj(2) +
                     static_cast<double>(c.load[2]) * em.spm_benefit_nj(4);
    objects.push_back(obj);
  }

  for (const auto& g : mod.globals) {
    const sim::AccessCounts c = counts_for(g.name);
    MemoryObject obj;
    obj.name = g.name;
    obj.is_function = false;
    // The linker aligns every object to 4 bytes; charge the padded size so
    // a full knapsack can never overflow the scratchpad.
    obj.size_bytes = align_up(g.size_bytes(), 4);
    obj.accesses = 0;
    for (int w = 0; w < 3; ++w) {
      const uint32_t bytes = 1u << w;
      obj.accesses += c.load[w] + c.store[w];
      obj.benefit_nj += static_cast<double>(c.load[w] + c.store[w]) *
                        em.spm_benefit_nj(bytes);
    }
    objects.push_back(obj);
  }

  return objects;
}

} // namespace spmwcet::alloc
