// Engine API v1 — result renderers shared by the CLI and the serve loop.
//
// The CLI prints these renderings to stdout; `spmwcet serve` embeds the
// identical bytes in a response's "output" field when the request asks for
// render:"text"/"csv". One implementation for both is what makes "serve
// output diffs clean against the batch CLI" a structural guarantee rather
// than a test-enforced coincidence.
#pragma once

#include <iosfwd>

#include "api/engine.h"

namespace spmwcet::api {

/// The one-point report `spmwcet run <bench> --spm/--cache BYTES` prints.
void render_point(const PointResult& result, std::ostream& os);

/// The sweep tables `spmwcet sweep <bench>|all --spm|--cache` prints
/// (per-workload tables, blank-line separated in text mode).
void render_sweep(const SweepResult& result, std::ostream& os,
                  bool csv = false);

/// The full evaluation report `spmwcet sweep <bench>|all` prints (Table 2 +
/// Figure-3/6 sweeps + Figure-4/5 ratios).
void render_eval(const EvalResult& result, std::ostream& os,
                 bool csv = false);

/// The `spmwcet corpus <shape>` aggregate table: per size, min/mean/max of
/// WCET, ratio and energy across the seed range, plus the corpus-wide
/// cycle totals (the determinism probe the CI byte-diffs).
void render_corpus(const CorpusResult& result, std::ostream& os,
                   bool csv = false);

/// BENCH_corpus.json (schema spmwcet-corpus/1).
void render_corpus_json(const CorpusResult& result, std::ostream& os);

/// The `spmwcet simbench` throughput table + aggregate lines.
void render_simbench(const SimBenchResult& result, std::ostream& os);

/// BENCH_sim.json (schema spmwcet-sim-throughput/8: per-benchmark rows,
/// each with its stack-window engagement, plus the overall aggregate).
void render_simbench_json(const SimBenchResult& result, std::ostream& os);

/// The `spmwcet wcetbench` analyzer-throughput table + aggregate line.
void render_wcetbench(const WcetBenchResult& result, std::ostream& os);

/// BENCH_wcet.json (schema spmwcet-wcet-throughput/4: per-setup rows plus
/// the overall analyses/second aggregate).
void render_wcetbench_json(const WcetBenchResult& result, std::ostream& os);

} // namespace spmwcet::api
