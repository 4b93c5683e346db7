#include "api/render.h"

#include <ostream>

#include "api/wire.h"
#include "support/table_printer.h"

namespace spmwcet::api {

void render_point(const PointResult& result, std::ostream& os) {
  const harness::SweepPoint& pt = result.point;
  if (result.setup == MemSetup::Scratchpad) {
    os << result.workload << " with " << result.size_bytes
       << "-byte scratchpad (" << pt.spm_used_bytes << " bytes allocated):\n"
       << "  ACET " << pt.sim_cycles << " cycles, WCET " << pt.wcet_cycles
       << " cycles, ratio " << pt.ratio << "\n";
    return;
  }
  os << result.workload << " with " << result.size_bytes << "-byte "
     << (result.options.cache_unified ? "unified" : "instruction")
     << " cache (assoc " << result.options.cache_assoc
     << (result.options.with_persistence ? ", persistence" : ", MUST-only")
     << "):\n"
     << "  ACET " << pt.sim_cycles << " cycles (" << pt.cache_hits
     << " hits / " << pt.cache_misses << " misses), WCET " << pt.wcet_cycles
     << " cycles, ratio " << pt.ratio << "\n";
}

void render_sweep(const SweepResult& result, std::ostream& os, bool csv) {
  for (std::size_t i = 0; i < result.series.size(); ++i) {
    const SweepResult::Series& s = result.series[i];
    const TablePrinter table =
        harness::to_table(s.workload, result.setup, s.points);
    if (csv)
      table.render_csv(os);
    else
      table.render(os);
    if (!csv && i + 1 < result.series.size()) os << "\n";
  }
}

void render_eval(const EvalResult& result, std::ostream& os, bool csv) {
  harness::render_evaluation(result.results, os, csv);
}

void render_corpus(const CorpusResult& result, std::ostream& os, bool csv) {
  TablePrinter table({"size", "wcet min", "wcet mean", "wcet max",
                      "ratio min", "ratio mean", "ratio max", "energy min",
                      "energy mean", "energy max"});
  for (const CorpusResult::SizeStats& st : result.stats)
    table.add_row({TablePrinter::fmt(static_cast<uint64_t>(st.size_bytes)),
                   TablePrinter::fmt(st.wcet_min),
                   TablePrinter::fmt(st.wcet_mean, 1),
                   TablePrinter::fmt(st.wcet_max),
                   TablePrinter::fmt(st.ratio_min, 3),
                   TablePrinter::fmt(st.ratio_mean, 3),
                   TablePrinter::fmt(st.ratio_max, 3),
                   TablePrinter::fmt(st.energy_min_nj, 1),
                   TablePrinter::fmt(st.energy_mean_nj, 1),
                   TablePrinter::fmt(st.energy_max_nj, 1)});
  if (csv) {
    table.render_csv(os);
    return;
  }
  os << "generated corpus " << result.shape << " seeds [" << result.base_seed
     << ", " << (result.base_seed + result.count - 1) << "] (" << result.count
     << " programs, " << setup_name(result.setup) << " setup):\n";
  table.render(os);
  os << "corpus totals: sim " << result.total_sim_cycles << " cycles, WCET "
     << result.total_wcet_cycles << " cycles\n";
}

void render_corpus_json(const CorpusResult& result, std::ostream& os) {
  os << wire::corpus_to_json(result).dump() << "\n";
}

void render_simbench(const SimBenchResult& result, std::ostream& os) {
  TablePrinter table({"benchmark", "instructions", "best [ms]", "instr/s",
                      "stack window", "fallback", "observed [ms]"});
  for (const SimBenchResult::Row& r : result.rows)
    table.add_row({r.benchmark, TablePrinter::fmt(r.instructions),
                   TablePrinter::fmt(r.best_seconds * 1e3, 3),
                   TablePrinter::fmt(r.instr_per_second, 0),
                   r.stack_window ? "yes" : "no",
                   TablePrinter::fmt(r.fallback_instructions),
                   TablePrinter::fmt(r.observed_best_seconds * 1e3, 3)});
  os << "simulator throughput (best of " << result.repeat
     << ", profiling on):\n";
  table.render(os);
  os << "aggregate instructions/second: "
     << static_cast<uint64_t>(result.aggregate_ips) << "\n";
}

void render_simbench_json(const SimBenchResult& result, std::ostream& os) {
  os << wire::simbench_to_json(result).dump() << "\n";
}

void render_wcetbench(const WcetBenchResult& result, std::ostream& os) {
  TablePrinter table(
      {"benchmark", "setup", "analyses/pass", "best [ms]", "analyses/s"});
  for (const WcetBenchResult::Row& r : result.rows)
    table.add_row({r.benchmark, r.setup,
                   TablePrinter::fmt(static_cast<uint64_t>(r.analyses)),
                   TablePrinter::fmt(r.best_seconds * 1e3, 3),
                   TablePrinter::fmt(r.analyses_per_second, 0)});
  os << "WCET analyzer throughput (best of " << result.repeat
     << ", one pass = the 8 paper sizes of one setup):\n";
  table.render(os);
  os << "aggregate analyses/second: "
     << static_cast<uint64_t>(result.aggregate_aps) << "\n";
}

void render_wcetbench_json(const WcetBenchResult& result, std::ostream& os) {
  os << wire::wcetbench_to_json(result).dump() << "\n";
}

} // namespace spmwcet::api
