#include "harness/report.h"

#include <ostream>

#include "link/layout.h"
#include "support/diag.h"

namespace spmwcet::harness {

namespace {

void section(std::ostream& os, const std::string& title, bool csv) {
  if (csv) {
    os << "# " << title << "\n";
    return;
  }
  os << "==============================================================\n"
     << title << "\n"
     << "==============================================================\n";
}

void emit(const TablePrinter& table, std::ostream& os, bool csv) {
  if (csv)
    table.render_csv(os);
  else
    table.render(os);
}

} // namespace

TablePrinter ratio_table(const std::string& benchmark,
                         const std::vector<SweepPoint>& spm,
                         const std::vector<SweepPoint>& cache) {
  TablePrinter table({"size [bytes]", benchmark + " ratio (scratchpad)",
                      "ratio (cache)"});
  for (std::size_t i = 0; i < spm.size() && i < cache.size(); ++i)
    table.add_row({TablePrinter::fmt(static_cast<uint64_t>(spm[i].size_bytes)),
                   TablePrinter::fmt(spm[i].ratio, 3),
                   TablePrinter::fmt(cache[i].ratio, 3)});
  return table;
}

TablePrinter benchmark_table(
    const std::vector<std::shared_ptr<const workloads::WorkloadInfo>>& wls) {
  TablePrinter table(
      {"Name", "Description", "functions", "code+pools [B]", "data [B]"});
  for (const auto& wl : wls) {
    uint64_t code = 0, data = 0;
    for (const link::FunctionExtent& f : link::lay_out(wl->module).extents())
      code += f.total_bytes;
    for (const auto& g : wl->module.globals) data += g.size_bytes();
    table.add_row({wl->name, wl->description,
                   TablePrinter::fmt(
                       static_cast<uint64_t>(wl->module.functions.size())),
                   TablePrinter::fmt(code), TablePrinter::fmt(data)});
  }
  return table;
}

void render_evaluation(const std::vector<EvaluationResult>& results,
                       std::ostream& os, bool csv) {
  std::vector<std::shared_ptr<const workloads::WorkloadInfo>> wls;
  wls.reserve(results.size());
  for (const EvaluationResult& r : results) wls.push_back(r.workload);

  section(os, "Table 2: benchmarks", csv);
  emit(benchmark_table(wls), os, csv);
  os << "\n";

  for (const EvaluationResult& r : results) {
    section(os, "Figure 3/6: " + r.workload->name + " size sweeps", csv);
    emit(to_table(r.workload->name, MemSetup::Scratchpad, r.spm), os, csv);
    if (!csv) os << "\n";
    emit(to_table(r.workload->name, MemSetup::Cache, r.cache), os, csv);
    os << "\n";
  }

  for (const EvaluationResult& r : results) {
    section(os, "Figure 4/5: " + r.workload->name + " WCET/ACET ratio", csv);
    emit(ratio_table(r.workload->name, r.spm, r.cache), os, csv);
    os << "\n";
  }
}

} // namespace spmwcet::harness
