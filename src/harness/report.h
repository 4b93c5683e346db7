// The one-command paper reproduction: api::Engine::eval runs every Table-2
// workload under both memory setups as a single run_matrix batch, and this
// file renders the full evaluation — the Table-2 benchmark summary, the
// per-benchmark Figure-3/6 sweep tables, and the Figure-4/5 WCET/ACET
// ratio tables — deterministically, so the whole report can be golden-file
// tested and diffed across job counts.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.h"

namespace spmwcet::harness {

/// One benchmark evaluated under both memory setups.
struct EvaluationResult {
  std::shared_ptr<const workloads::WorkloadInfo> workload;
  std::vector<SweepPoint> spm;
  std::vector<SweepPoint> cache;
};

/// Figure 4/5: the WCET/ACET ratio series, scratchpad vs cache side by side.
TablePrinter ratio_table(const std::string& benchmark,
                         const std::vector<SweepPoint>& spm,
                         const std::vector<SweepPoint>& cache);

/// Table 2: the benchmark set with static statistics from our builds
/// (function count, code+pool bytes, data bytes).
TablePrinter benchmark_table(
    const std::vector<std::shared_ptr<const workloads::WorkloadInfo>>& wls);

/// Renders the whole evaluation report. With csv, every table is emitted as
/// CSV under a `# title` comment line instead of aligned text.
void render_evaluation(const std::vector<EvaluationResult>& results,
                       std::ostream& os, bool csv = false);

} // namespace spmwcet::harness
