// Future-work ablation (paper Section 5): energy-driven (Steinke knapsack)
// vs WCET-driven scratchpad allocation. The WCET-driven greedy places the
// objects on the analyzed critical path, so its WCET should be at least as
// good as the energy-driven one at the same capacity.
#include "bench_common.h"

#include "alloc/allocator.h"
#include "harness/sweep_runner.h"
#include "link/layout.h"
#include "sim/simulator.h"
#include "wcet/analyzer.h"

namespace {

using namespace spmwcet;

void BM_WcetDrivenAllocation(benchmark::State& state) {
  const auto wl = workloads::make_bubble_sort(24, workloads::SortInput::Random);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        alloc::allocate_wcet_driven(wl.module, 512, link::LinkOptions{}));
}
BENCHMARK(BM_WcetDrivenAllocation);

} // namespace

int main(int argc, char** argv) {
  using namespace spmwcet;
  const auto wl = workloads::make_multisort(32);

  bench::print_header(
      "Ablation: energy-driven vs WCET-driven scratchpad allocation "
      "(MultiSort)");
  TablePrinter table({"spm [bytes]", "WCET energy-driven",
                      "WCET wcet-driven", "sim energy-driven",
                      "sim wcet-driven"});
  harness::SweepConfig energy_cfg;
  energy_cfg.sizes = {128, 512, 2048, 8192};
  harness::SweepConfig wcet_cfg = energy_cfg;
  wcet_cfg.wcet_driven_alloc = true;

  // Both allocation strategies' sweeps run as one batch over all hardware
  // threads.
  const auto results = harness::run_matrix(
      {{&wl, energy_cfg}, {&wl, wcet_cfg}}, /*jobs=*/0);
  const auto& energy = results[0];
  const auto& wcet_driven = results[1];
  for (std::size_t i = 0; i < energy.size(); ++i) {
    const auto& e = energy[i];
    const auto& w = wcet_driven[i];
    table.add_row({TablePrinter::fmt(static_cast<uint64_t>(e.size_bytes)),
                   TablePrinter::fmt(e.wcet_cycles),
                   TablePrinter::fmt(w.wcet_cycles),
                   TablePrinter::fmt(e.sim_cycles),
                   TablePrinter::fmt(w.sim_cycles)});
  }
  table.render(std::cout);
  std::cout << "\n";

  return bench::run_benchmarks(argc, argv);
}
