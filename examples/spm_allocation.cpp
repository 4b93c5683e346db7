// Walkthrough of the paper's allocation flow (Steinke et al., DATE 2002):
// profile a main-memory-only run of G.721, build the per-object energy
// benefit function, solve the knapsack ILP for a given scratchpad capacity,
// and show what moved onto the scratchpad and what it bought.
//
//   $ ./examples/spm_allocation [capacity_bytes]
#include <cstdlib>
#include <iostream>

#include "alloc/allocator.h"
#include "link/layout.h"
#include "sim/simulator.h"
#include "support/table_printer.h"
#include "wcet/analyzer.h"
#include "workloads/workload.h"

using namespace spmwcet;

int main(int argc, char** argv) {
  const uint32_t capacity =
      argc > 1 ? static_cast<uint32_t>(std::atoi(argv[1])) : 1024;
  const auto workload = workloads::make_g721();

  // 1. Profile on the main-memory-only configuration.
  link::LinkOptions opts;
  opts.spm_size = capacity;
  const link::Image base_img = link::link_program(workload.module, opts, {});
  sim::SimConfig pcfg;
  pcfg.collect_profile = true;
  sim::Simulator profiler(base_img, pcfg);
  const sim::SimResult base_run = profiler.run();
  std::cout << "profiled " << base_run.instructions << " instructions, "
            << base_run.cycles << " cycles (all in main memory)\n\n";

  // 2. Candidates and their energy benefits.
  const auto objects =
      alloc::collect_objects(workload.module,
                             link::lay_out(workload.module).extents(),
                             base_run.profile, {});
  TablePrinter objtable(
      {"object", "kind", "size [B]", "accesses", "benefit [nJ]"});
  for (const auto& obj : objects)
    objtable.add_row({obj.name, obj.is_function ? "code" : "data",
                      TablePrinter::fmt(static_cast<uint64_t>(obj.size_bytes)),
                      TablePrinter::fmt(obj.accesses),
                      TablePrinter::fmt(obj.benefit_nj, 1)});
  objtable.render(std::cout);

  // 3. Knapsack (exact, via the in-tree branch-and-bound ILP solver).
  const auto allocation =
      alloc::allocate_energy_optimal(workload.module, base_run.profile,
                                     capacity);
  std::cout << "\nknapsack with capacity " << capacity << " bytes chose "
            << allocation.chosen.size() << " objects ("
            << allocation.used_bytes << " bytes, benefit "
            << allocation.benefit_nj / 1000.0 << " uJ per run):\n";
  for (const auto& obj : allocation.chosen)
    std::cout << "  - " << obj.name << " (" << obj.size_bytes << " B)\n";

  // 4. Relink, re-simulate, re-analyze.
  const link::Image spm_img =
      link::link_program(workload.module, opts, allocation.assignment);
  const sim::SimResult spm_run = sim::simulate(spm_img, {});
  const auto base_wcet = wcet::analyze_wcet(base_img, {});
  const auto spm_wcet = wcet::analyze_wcet(spm_img, {});

  std::cout << "\n                    main-only      with SPM\n"
            << "ACET  [cycles]:  " << base_run.cycles << "   " << spm_run.cycles
            << "\nWCET  [cycles]:  " << base_wcet.wcet << "   " << spm_wcet.wcet
            << "\n\nThe WCET improvement ("
            << 100.0 * (1.0 - static_cast<double>(spm_wcet.wcet) /
                                  static_cast<double>(base_wcet.wcet))
            << " %) tracks the ACET improvement ("
            << 100.0 * (1.0 - static_cast<double>(spm_run.cycles) /
                                  static_cast<double>(base_run.cycles))
            << " %) — the paper's core claim.\n";
  return 0;
}
