// spmwcet — command-line driver for the scratchpad-vs-cache WCET toolchain.
//
// The CLI is a thin client of the Engine API (src/api/): flag parsing
// builds validated Request values, an api::Engine executes them, and the
// shared renderers (api/render.h) print the Results — the same renderers
// `spmwcet serve` uses for its "output" fields, so serve responses diff
// clean against batch CLI output by construction.
//
//   spmwcet list
//   spmwcet run <benchmark> [--spm BYTES | --cache BYTES [--assoc N]
//                            [--icache] [--persistence]]
//   spmwcet sweep <benchmark>|all [--jobs N] [--csv]
//       — with no setup flag: the full both-setup evaluation (every size,
//         Figure-4/5 ratio tables, Table-2 summary); `all` covers the
//         whole paper, a benchmark name just that workload.
//   spmwcet sweep <benchmark>|all --spm [--wcet-alloc] | --cache [--assoc N]
//                            [--icache] [--persistence]  [--csv] [--jobs N]
//   spmwcet serve [--jobs N]
//       — resident mode: newline-delimited JSON requests on stdin, one
//         response per line on stdout (see api/wire.h for the schema);
//         lowering, profiling and responses are amortized across requests.
//   spmwcet serve --socket PATH | --tcp PORT [--max-inflight N]
//               [--max-queue-wait MS] [--idle-timeout MS] [--drain MS]
//       — networked resident mode: same protocol over a unix-domain
//         socket and/or loopback TCP (PORT 0 picks an ephemeral port,
//         logged to stderr). Connections are served concurrently by one
//         shared engine. --max-queue-wait sheds requests that queue past
//         it ("overloaded"), --idle-timeout reaps wedged sessions, and the
//         first SIGINT/SIGTERM drains in-flight pipelined requests for up
//         to --drain ms (default 5000) before closing — a second signal
//         forces an immediate stop.
//   spmwcet serve --bench [--repeat N] [--jobs N]
//       — measures warm-vs-cold request latency on a built-in script.
//   spmwcet serve --bench --clients N [--requests R] [--json FILE]
//       — multi-client saturation: aggregate requests/second over a unix
//         socket at 1, 2, 4, … N concurrent clients on a warm engine.
//   spmwcet disasm <benchmark> [function]
//   spmwcet annotations <benchmark> [--spm BYTES]
//   spmwcet simbench [--repeat N] [--spm BYTES] [--json FILE]
//       — simulator throughput (instructions/second) over the simbench set
//         (paper workloads + generated members), best-of-N, for the
//         no-assignment baseline and an SPM-placed configuration.
//   spmwcet wcetbench [--repeat N] [--json FILE]
//       — WCET-analyzer throughput (analyses/second) over the paper
//         workloads on sweep-shaped work (8 sizes per setup, MUST-only and
//         persistence cache passes), best-of-N.
//   spmwcet corpus <shape> [--count N] [--base N] [--spm [BYTES] |
//                  --cache [BYTES]] [--jobs N] [--csv] [--json FILE]
//       — generated-workload corpus: runs the seed range
//         [base, base+count) of one shape as a single batch and prints
//         per-size min/mean/max WCET, ratio and energy plus corpus-wide
//         cycle totals. A bare --spm/--cache picks the setup over the
//         paper size ladder; a byte value restricts the sweep to that one
//         size.
//   spmwcet corpusbench [<shape>] [--count N] [--base N] [--repeat N]
//                       [--json FILE]
//       — corpus-pipeline throughput (cold generation + analysis vs warm
//         artifact-cached re-analysis), best-of-N; --json writes
//         BENCH_corpus.json.
//
// Each command accepts only the flags it reads: any other flag, or a cache
// geometry flag (--assoc/--icache/--persistence) where no cache point
// runs, or --wcet-alloc where no scratchpad point runs, is an error.
//
// Benchmarks: g721, adpcm, multisort, bubble — plus generated workloads,
// addressable anywhere a benchmark name is accepted as
// "gen:<shape>:<seed>" (shapes: tiny, mixed, loopy, callheavy, branchy),
// e.g. `spmwcet run gen:loopy:42 --spm 1024`. Same seed + shape is the
// same program on every platform.
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "alloc/allocator.h"
#include "api/engine.h"
#include "api/render.h"
#include "api/serve.h"
#include "api/serve_socket.h"
#include "harness/artifact_cache.h"
#include "harness/experiment.h"
#include "link/layout.h"
#include "sim/simulator.h"
#include "wcet/analyzer.h"
#include "wcet/dump.h"
#include "workloads/generated.h"

#include "cli_args.h"

namespace {

using namespace spmwcet;
using cli::Args;
using cli::check_flags;
using cli::parse;

int usage() {
  std::cerr << "usage:\n"
            << "  spmwcet list\n"
            << "  spmwcet run <bench> [--spm BYTES | --cache BYTES"
               " [--assoc N] [--icache] [--persistence]]"
               " [--trace] [--blocks]\n"
            << "  spmwcet sweep <bench>|all [--jobs N] [--csv]"
               "   # both setups + ratio tables\n"
            << "  spmwcet sweep <bench>|all --spm [--wcet-alloc] | --cache"
               " [--assoc N] [--icache] [--persistence] [--csv] [--jobs N]\n"
            << "  spmwcet serve [--jobs N] [--bench [--repeat N]]\n"
            << "  spmwcet serve --socket PATH | --tcp PORT"
               " [--max-inflight N] [--max-queue-wait MS]\n"
               "      [--idle-timeout MS] [--drain MS]"
               "   # SIGTERM drains, SIGTERM x2 forces\n"
            << "  spmwcet serve --bench --clients N [--requests R]"
               " [--json FILE]\n"
            << "  spmwcet disasm <bench> [function]\n"
            << "  spmwcet annotations <bench> [--spm BYTES]\n"
            << "  spmwcet simbench [--repeat N] [--spm BYTES] [--json FILE]\n"
            << "  spmwcet wcetbench [--repeat N] [--json FILE]\n"
            << "  spmwcet corpus <shape> [--count N] [--base N]"
               " [--spm [BYTES] | --cache [BYTES]]\n"
               "      [--jobs N] [--csv] [--json FILE]\n"
            << "  spmwcet corpusbench [<shape>] [--count N] [--base N]"
               " [--repeat N] [--json FILE]\n"
            << "benchmarks:";
  // The same vocabulary the Engine API validates requests against.
  for (const std::string& name : workloads::all_benchmark_names())
    std::cerr << " " << name;
  std::cerr << "\ngenerated: gen:<shape>:<seed> with shape one of";
  for (const std::string& name : workloads::gen_shape_names())
    std::cerr << " " << name;
  std::cerr << "\n";
  return 2;
}

/// Workloads come from the memoized registry, so diagnostic commands that
/// touch the same benchmark repeatedly lower the MiniC program once per
/// process. (Engine-served commands resolve through the same registry.)
std::shared_ptr<const workloads::WorkloadInfo>
make_workload(const std::string& name) {
  return workloads::WorkloadRegistry::instance().benchmark(name);
}

/// Unwraps a Result, mapping the structured ApiError onto the CLI's
/// "error: <code>: <message> (<context>)" + exit-1 convention.
template <typename T>
const T& unwrap(const api::Result<T>& result) {
  return result.value_or_throw();
}

int cmd_list() {
  TablePrinter table({"name", "description", "functions", "globals"});
  for (const auto& wl : workloads::cached_paper_benchmarks())
    table.add_row({wl->name, wl->description,
                   TablePrinter::fmt(
                       static_cast<uint64_t>(wl->module.functions.size())),
                   TablePrinter::fmt(
                       static_cast<uint64_t>(wl->module.globals.size()))});
  table.render(std::cout);
  return 0;
}

int cmd_run(const Args& a) {
  // Unlike `sweep`, `run` measures one point, so a nonzero capacity is
  // required.
  if ((a.spm_flag && a.spm.value_or(0) == 0) ||
      (a.cache_flag && a.cache.value_or(0) == 0))
    throw Error("run requires a size: --spm BYTES or --cache BYTES");

  if (a.spm_flag || a.cache_flag) {
    const harness::MemSetup setup =
        a.spm_flag ? harness::MemSetup::Scratchpad : harness::MemSetup::Cache;
    api::Engine engine(a.engine_options());
    const auto request = api::PointRequest::make(
        a.positional[1], setup, a.spm_flag ? *a.spm : *a.cache, a.options());
    api::render_point(unwrap(engine.point(unwrap(request))), std::cout);
    return 0;
  }

  // Plain main-memory configuration with a full report — a developer
  // diagnostic (like disasm/annotations) that stays below the Engine API.
  const auto& wl = *make_workload(a.positional[1]);
  const link::Image img = link::link_program(wl.module, {}, {});
  sim::SimConfig scfg;
  if (a.trace) scfg.trace = &std::cerr;
  const auto run = sim::simulate(img, scfg);
  const auto report = wcet::analyze_wcet(img, {});
  std::cout << wl.name << " (main memory only):\n"
            << "  ACET " << run.cycles << " cycles, " << run.instructions
            << " instructions\n\n";
  wcet::render_report(report, std::cout, a.blocks);
  return 0;
}

int cmd_sweep(const Args& a) {
  const std::vector<std::string> names =
      a.positional[1] == "all"
          ? workloads::paper_benchmark_names()
          : std::vector<std::string>{a.positional[1]};
  api::Engine engine(a.engine_options());

  // `sweep` with no setup flag runs the full both-setup evaluation — the
  // whole paper for `all`, or one benchmark — as one batch, rendered with
  // the Table-2 summary and the Figure-4/5 ratio tables.
  if (!a.spm_flag && !a.cache_flag) {
    const auto request = api::EvalRequest::make(names, {}, a.options());
    api::render_eval(unwrap(engine.eval(unwrap(request))), std::cout, a.csv);
    return 0;
  }

  const harness::MemSetup setup =
      a.spm_flag ? harness::MemSetup::Scratchpad : harness::MemSetup::Cache;
  const auto request = api::SweepRequest::make(names, setup, {}, a.options());
  api::render_sweep(unwrap(engine.sweep(unwrap(request))), std::cout, a.csv);
  return 0;
}

int cmd_simbench(const Args& a) {
  if (a.positional.size() > 1)
    throw Error("simbench always measures the full simbench set; unexpected "
                "argument: " +
                a.positional[1]);
  // --spm without a value keeps the default SPM-placed capacity (4 KiB);
  // an explicit --spm 0 measures the no-assignment baseline only.
  const uint32_t spm_bytes = a.spm.value_or(4096);
  const auto request = api::SimBenchRequest::make(a.repeat, spm_bytes);
  api::Engine engine(a.engine_options());
  const api::SimBenchResult result = unwrap(engine.simbench(unwrap(request)));
  api::render_simbench(result, std::cout);
  if (!a.json.empty()) {
    std::ofstream out(a.json);
    if (!out) throw Error("cannot write " + a.json);
    api::render_simbench_json(result, out);
  }
  return 0;
}

int cmd_wcetbench(const Args& a) {
  if (a.positional.size() > 1)
    throw Error("wcetbench always measures the full paper set; unexpected "
                "argument: " +
                a.positional[1]);
  const auto request = api::WcetBenchRequest::make(a.repeat);
  api::Engine engine(a.engine_options());
  const api::WcetBenchResult result =
      unwrap(engine.wcetbench(unwrap(request)));
  api::render_wcetbench(result, std::cout);
  if (!a.json.empty()) {
    std::ofstream out(a.json);
    if (!out) throw Error("cannot write " + a.json);
    api::render_wcetbench_json(result, out);
  }
  return 0;
}

int cmd_corpus(const Args& a) {
  const harness::MemSetup setup =
      a.cache_flag ? harness::MemSetup::Cache : harness::MemSetup::Scratchpad;
  // A bare --spm/--cache selects the setup over the paper size ladder; an
  // explicit byte value narrows the corpus to that single size.
  std::vector<uint32_t> sizes;
  if (a.spm_flag && a.spm.has_value()) sizes.push_back(*a.spm);
  if (a.cache_flag && a.cache.has_value()) sizes.push_back(*a.cache);
  const auto request = api::CorpusRequest::make(
      a.positional[1], a.base, a.count, setup, sizes, a.options());
  api::Engine engine(a.engine_options());
  const api::CorpusResult result = unwrap(engine.corpus(unwrap(request)));
  api::render_corpus(result, std::cout, a.csv);
  if (!a.json.empty()) {
    std::ofstream out(a.json);
    if (!out) throw Error("cannot write " + a.json);
    api::render_corpus_json(result, out);
  }
  return 0;
}

int cmd_corpusbench(const Args& a) {
  const std::string shape =
      a.positional.size() > 1 ? a.positional[1] : "mixed";
  if (a.repeat < 2 || a.repeat > api::kMaxRepeat)
    throw Error("corpusbench: --repeat " + std::to_string(a.repeat) +
                " outside the supported range [2, " +
                std::to_string(api::kMaxRepeat) + "]");
  if (a.json.empty())
    return api::run_corpus_bench(a.engine_options(), shape, a.base, a.count,
                                 a.repeat, std::cout);
  std::ofstream out(a.json);
  if (!out) throw Error("cannot write " + a.json);
  return api::run_corpus_bench(a.engine_options(), shape, a.base, a.count,
                               a.repeat, std::cout, &out);
}

// SIGINT/SIGTERM write one byte to the running SocketServer's stop pipe
// (the only async-signal-safe shutdown path); the main thread parked in
// wait() then performs the actual stop.
volatile std::sig_atomic_t g_serve_stop_fd = -1;

void serve_signal_handler(int) {
  const int fd = g_serve_stop_fd;
  if (fd < 0) return;
  const char byte = 1;
  (void)!::write(fd, &byte, 1);
}

int cmd_serve(const Args& a) {
  if (a.bench) {
    // The serve benches consume --repeat/--requests directly (no Request
    // factory in front of them), so range-check here: a repeat of 0 would
    // "measure" zero iterations and report vacuous timings under exit 0.
    if (a.repeat == 0 || a.repeat > api::kMaxRepeat)
      throw Error("serve --bench: --repeat " + std::to_string(a.repeat) +
                  " outside the supported range [1, " +
                  std::to_string(api::kMaxRepeat) + "]");
    if (a.clients > 0 && a.requests == 0)
      throw Error("serve --bench: --requests must be at least 1");
    if (a.clients > 0)
      return api::run_serve_saturation_bench(a.engine_options(), a.clients,
                                             a.requests, std::cout, a.json);
    return api::run_serve_bench(a.engine_options(), a.repeat, std::cout);
  }

  if (!a.socket.empty() || a.tcp.has_value()) {
    api::Engine engine(a.engine_options());
    api::SocketServeOptions sopts;
    sopts.unix_path = a.socket;
    sopts.tcp_port = a.tcp;
    sopts.idle_timeout_ms = a.idle_timeout;
    sopts.drain_deadline_ms = a.drain;
    sopts.log = &std::cerr;
    api::SocketServer server(engine, sopts);
    if (!a.socket.empty())
      std::cerr << "serve: listening on unix socket " << a.socket << "\n";
    if (a.tcp.has_value())
      std::cerr << "serve: listening on tcp 127.0.0.1:" << server.tcp_port()
                << "\n";
    g_serve_stop_fd = server.stop_fd();
    std::signal(SIGINT, serve_signal_handler);
    std::signal(SIGTERM, serve_signal_handler);
    server.wait();
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    g_serve_stop_fd = -1;
    return 0;
  }

  api::Engine engine(a.engine_options());
  api::serve_loop(engine, std::cin, std::cout, &std::cerr);
  return 0;
}

int cmd_disasm(const Args& a) {
  const auto& wl = *make_workload(a.positional[1]);
  const link::Image img = link::link_program(wl.module, {}, {});
  if (a.positional.size() > 2)
    wcet::disassemble_function(img, a.positional[2], std::cout);
  else
    wcet::disassemble_program(img, std::cout);
  return 0;
}

int cmd_annotations(const Args& a) {
  const auto& wl = *make_workload(a.positional[1]);
  link::LinkOptions opts;
  link::SpmAssignment assignment;
  if (a.spm_flag) {
    opts.spm_size = a.spm.value_or(0);
    // Use the paper's allocation flow to pick the scratchpad contents.
    harness::ArtifactCache artifacts;
    assignment = alloc::allocate_energy_optimal(
                     wl.module, harness::canonical_run(wl, artifacts)->profile,
                     a.spm.value_or(0))
                     .assignment;
  }
  const link::Image img = link::link_program(wl.module, opts, assignment);
  img.regions.dump_annotations(std::cout);
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    if (args.positional.empty()) return usage();
    const std::string& cmd = args.positional[0];
    check_flags(args);
    if (cmd == "list") return cmd_list();
    if (cmd == "simbench") return cmd_simbench(args);
    if (cmd == "wcetbench") return cmd_wcetbench(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "corpusbench") return cmd_corpusbench(args);
    if (args.positional.size() < 2) return usage();
    if (cmd == "corpus") return cmd_corpus(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "sweep") return cmd_sweep(args);
    if (cmd == "disasm") return cmd_disasm(args);
    if (cmd == "annotations") return cmd_annotations(args);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
