// Command-line parsing for spmwcet_cli: the flag grammar (parse) and each
// command's flag whitelist (check_flags). Header-only so the CLI tests can
// drive the same parser in-process; the binary reports a thrown Error as
// "error: <message>" and exits 1.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "api/engine.h"
#include "support/diag.h"

namespace spmwcet::cli {

struct Args {
  std::vector<std::string> positional;
  std::vector<std::string> flags; ///< every --flag given, in order
  // Flag presence and value are tracked separately: `sweep` uses --spm /
  // --cache as bare mode flags, `run` requires a byte value, and
  // `simbench --spm 0` must be distinguishable from a bare --spm.
  bool spm_flag = false;
  bool cache_flag = false;
  std::optional<uint32_t> spm;   ///< numeric value, when one was given
  std::optional<uint32_t> cache;
  uint32_t assoc = 1;
  bool icache = false;
  bool persistence = false;
  bool wcet_alloc = false;
  bool csv = false;
  bool trace = false;
  bool blocks = false;
  bool no_artifact_cache = false;
  bool legacy_sim = false;
  bool legacy_wcet = false;
  bool no_incremental = false;
  bool no_block_tier = false;
  bool bench = false;
  uint32_t repeat = 5;
  std::string json;
  uint32_t jobs = 1;
  std::string socket;               ///< serve: unix-domain listener path
  std::optional<uint16_t> tcp;      ///< serve: loopback-TCP port (0=ephemeral)
  uint32_t max_inflight = 0;        ///< serve: admission bound (0=hw threads)
  uint32_t max_queue_wait = 0;      ///< serve: shed after this queue wait (0=off)
  uint32_t idle_timeout = 0;        ///< serve: idle-session reap (0=off)
  uint32_t drain = 5000;            ///< serve: SIGTERM drain budget [ms]
  uint32_t clients = 0;             ///< serve --bench: saturation client count
  uint32_t requests = 1000;         ///< serve --bench: requests per client
  uint32_t count = 100;             ///< corpus: seed-range length
  uint32_t base = 1;                ///< corpus: first seed

  bool given(const std::string& flag) const {
    return std::find(flags.begin(), flags.end(), flag) != flags.end();
  }

  api::ExperimentOptions options() const {
    api::ExperimentOptions opts;
    opts.cache_assoc = assoc;
    opts.cache_unified = !icache;
    opts.with_persistence = persistence;
    opts.wcet_driven_alloc = wcet_alloc;
    opts.use_artifact_cache = !no_artifact_cache;
    opts.legacy_wcet = legacy_wcet;
    opts.incremental = !no_incremental;
    opts.block_tier = !no_block_tier;
    return opts;
  }
  api::EngineOptions engine_options() const {
    api::EngineOptions opts;
    opts.jobs = jobs;
    opts.max_inflight = max_inflight;
    opts.max_queue_wait_ms = max_queue_wait;
    return opts;
  }
};

/// Full-string uint32 parse; rejects overflow instead of wrapping mod 2^32
/// (a wrapped size would silently bypass the Engine's range validation).
inline uint32_t parse_u32(const std::string& flag, const std::string& s) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0')
    throw Error("expected a number after " + flag + ", got '" + s + "'");
  if (errno != 0 || v > UINT32_MAX)
    throw Error("value after " + flag + " out of range: " + s);
  return static_cast<uint32_t>(v);
}

inline Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_u32 = [&]() -> uint32_t {
      if (i + 1 >= argc) throw Error("missing value after " + arg);
      return parse_u32(arg, argv[++i]);
    };
    // `sweep` uses --spm/--cache as mode flags with no size, `run` gives a
    // size; consume a value only when the next argument is numeric.
    auto maybe_u32 = [&]() -> std::optional<uint32_t> {
      if (i + 1 >= argc) return std::nullopt;
      const std::string peek = argv[i + 1];
      if (peek.empty() ||
          peek.find_first_not_of("0123456789") != std::string::npos)
        return std::nullopt;
      return parse_u32(arg, argv[++i]);
    };
    if (arg.rfind("--", 0) == 0) a.flags.push_back(arg);
    if (arg == "--spm") {
      a.spm_flag = true;
      a.spm = maybe_u32();
    } else if (arg == "--cache") {
      a.cache_flag = true;
      a.cache = maybe_u32();
    }
    else if (arg == "--assoc")
      a.assoc = next_u32();
    else if (arg == "--icache")
      a.icache = true;
    else if (arg == "--persistence")
      a.persistence = true;
    else if (arg == "--wcet-alloc")
      a.wcet_alloc = true;
    else if (arg == "--csv")
      a.csv = true;
    else if (arg == "--jobs")
      a.jobs = next_u32();
    else if (arg == "--no-artifact-cache")
      a.no_artifact_cache = true;
    else if (arg == "--legacy-sim")
      a.legacy_sim = true;
    else if (arg == "--legacy-wcet")
      a.legacy_wcet = true;
    else if (arg == "--no-incremental")
      a.no_incremental = true;
    else if (arg == "--no-block-tier")
      a.no_block_tier = true;
    else if (arg == "--bench")
      a.bench = true;
    else if (arg == "--repeat")
      a.repeat = next_u32();
    else if (arg == "--socket") {
      if (i + 1 >= argc) throw Error("missing value after --socket");
      a.socket = argv[++i];
    } else if (arg == "--tcp") {
      const uint32_t port = next_u32();
      if (port > 65535)
        throw Error("--tcp port out of range: " + std::to_string(port));
      a.tcp = static_cast<uint16_t>(port);
    } else if (arg == "--max-inflight")
      a.max_inflight = next_u32();
    else if (arg == "--max-queue-wait")
      a.max_queue_wait = next_u32();
    else if (arg == "--idle-timeout")
      a.idle_timeout = next_u32();
    else if (arg == "--drain")
      a.drain = next_u32();
    else if (arg == "--clients")
      a.clients = next_u32();
    else if (arg == "--requests")
      a.requests = next_u32();
    else if (arg == "--count")
      a.count = next_u32();
    else if (arg == "--base")
      a.base = next_u32();
    else if (arg == "--json") {
      if (i + 1 >= argc) throw Error("missing value after --json");
      a.json = argv[++i];
    }
    else if (arg == "--trace")
      a.trace = true;
    else if (arg == "--blocks")
      a.blocks = true;
    else if (arg.rfind("--", 0) == 0)
      throw Error("unknown option: " + arg);
    else
      a.positional.push_back(arg);
  }
  return a;
}

/// The flags each command reads: the CLI's mirror of the wire's per-op
/// field whitelist (check_fields in api/wire.cpp). A flag outside its
/// command's list is an error, never a silent no-op.
inline const std::map<std::string, std::set<std::string>>& command_flags() {
  static const auto table = [] {
    // The ExperimentOptions an Engine pipeline request carries.
    const std::set<std::string> options = {
        "--assoc",          "--icache",         "--persistence",
        "--wcet-alloc",     "--no-artifact-cache", "--legacy-wcet",
        "--no-incremental", "--no-block-tier"};
    const auto with_options = [&](std::set<std::string> own) {
      own.insert(options.begin(), options.end());
      return own;
    };
    return std::map<std::string, std::set<std::string>>{
        {"list", {}},
        {"run", with_options({"--spm", "--cache", "--trace", "--blocks"})},
        {"sweep", with_options({"--spm", "--cache", "--jobs", "--csv"})},
        {"corpus", with_options({"--spm", "--cache", "--count", "--base",
                                 "--jobs", "--csv", "--json"})},
        {"serve",
         {"--jobs", "--bench", "--repeat", "--clients", "--requests",
          "--json", "--socket", "--tcp", "--max-inflight",
          "--max-queue-wait", "--idle-timeout", "--drain"}},
        {"disasm", {}},
        {"annotations", {"--spm"}},
        {"simbench",
         {"--legacy-sim", "--no-block-tier", "--repeat", "--spm", "--json"}},
        {"wcetbench",
         {"--legacy-wcet", "--no-incremental", "--repeat", "--json"}},
        {"corpusbench", {"--count", "--base", "--repeat", "--json", "--jobs"}},
    };
  }();
  return table;
}

/// Rejects every flag the command would ignore: flags outside its
/// whitelist, and flags for points this invocation never runs (cache
/// geometry without a cache point, --wcet-alloc without a scratchpad
/// point, pipeline options on run's plain main-memory report).
inline void check_flags(const Args& a) {
  const std::string& cmd = a.positional[0];
  const auto allowed = command_flags().find(cmd);
  if (allowed == command_flags().end()) return; // usage() answers
  for (const std::string& flag : a.flags) {
    if (allowed->second.count(flag) != 0) continue;
    std::string owners;
    for (const auto& [other, flags] : command_flags())
      if (flags.count(flag) != 0)
        owners += (owners.empty() ? "" : ", ") + other;
    throw Error(flag + " is not accepted by " + cmd +
                (owners.empty() ? "" : "; only accepted by " + owners));
  }
  if (cmd != "run" && cmd != "sweep" && cmd != "corpus") return;
  if (a.spm_flag && a.cache_flag)
    throw Error("--spm and --cache are mutually exclusive");
  // `sweep` with no setup flag runs both setups; `corpus` defaults to the
  // scratchpad; a plain `run` runs neither.
  const bool cache_points = a.cache_flag || (cmd == "sweep" && !a.spm_flag);
  const bool spm_points =
      a.spm_flag || (cmd != "run" && !a.cache_flag);
  for (const char* flag : {"--assoc", "--icache", "--persistence"})
    if (a.given(flag) && !cache_points)
      throw Error(std::string(flag) + " applies only to cache points; this " +
                  cmd + " command runs none (add --cache)");
  if (a.given("--wcet-alloc") && !spm_points)
    throw Error("--wcet-alloc applies only to scratchpad points; this " + cmd +
                " command runs none (add --spm)");
  if (cmd != "run") return;
  const bool point = a.spm_flag || a.cache_flag;
  for (const char* flag : {"--no-artifact-cache", "--legacy-wcet",
                           "--no-incremental", "--no-block-tier"})
    if (a.given(flag) && !point)
      throw Error(std::string(flag) +
                  " applies only to a --spm or --cache point of run");
  for (const char* flag : {"--trace", "--blocks"})
    if (a.given(flag) && point)
      throw Error(std::string(flag) +
                  " applies only to run's main-memory report (no --spm or "
                  "--cache)");
}

} // namespace spmwcet::cli
