// CLI strictness: every command accepts exactly the flags it reads — the
// command-line mirror of the wire's per-op field whitelist — and a cache
// geometry flag where no cache point runs (or --wcet-alloc where no
// scratchpad point runs) is an error. Each case drives the built
// spmwcet_cli binary and checks both the exit status and the error text,
// so a crash or an unrelated failure cannot pass for a rejection.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace {

struct Outcome {
  int status = -1;
  std::string output; ///< stdout and stderr, interleaved
};

Outcome run_cli(const std::string& args) {
  const std::string cmd = std::string("'") + SPMWCET_CLI + "' " + args +
                          " 2>&1";
  Outcome out;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return out;
  std::array<char, 4096> buf{};
  std::size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0)
    out.output.append(buf.data(), n);
  const int raw = pclose(pipe);
  out.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  return out;
}

void expect_rejected(const std::string& args, const std::string& text) {
  const Outcome out = run_cli(args);
  EXPECT_EQ(out.status, 1) << args << "\n" << out.output;
  EXPECT_NE(out.output.find("error: " + text), std::string::npos)
      << args << "\n  expected: error: " << text << "\n  got: " << out.output;
}

/// Every flag the parser knows, with a value where it takes one.
const std::map<std::string, std::string> kFlagArgs = {
    {"--spm", ""},           {"--cache", ""},
    {"--assoc", " 2"},       {"--icache", ""},
    {"--persistence", ""},   {"--wcet-alloc", ""},
    {"--csv", ""},           {"--jobs", " 1"},
    {"--no-artifact-cache", ""}, {"--legacy-sim", ""},
    {"--legacy-wcet", ""},   {"--no-incremental", ""},
    {"--no-block-tier", ""}, {"--bench", ""},
    {"--repeat", " 2"},      {"--socket", " /nonexistent/s.sock"},
    {"--tcp", " 0"},         {"--max-inflight", " 1"},
    {"--max-queue-wait", " 1"}, {"--idle-timeout", " 1"},
    {"--drain", " 1"},       {"--clients", " 1"},
    {"--requests", " 1"},    {"--count", " 1"},
    {"--base", " 1"},        {"--json", " /dev/null"},
    {"--trace", ""},         {"--blocks", ""},
};

struct Command {
  std::string invocation; ///< command plus its positional arguments
  std::set<std::string> accepts;
};

const std::set<std::string> kOptions = {
    "--assoc",          "--icache",          "--persistence",
    "--wcet-alloc",     "--no-artifact-cache", "--legacy-wcet",
    "--no-incremental", "--no-block-tier"};

std::set<std::string> with_options(std::set<std::string> own) {
  own.insert(kOptions.begin(), kOptions.end());
  return own;
}

const std::map<std::string, Command> kCommands = {
    {"list", {"list", {}}},
    {"run", {"run g721", with_options({"--spm", "--cache", "--trace",
                                       "--blocks"})}},
    {"sweep", {"sweep g721", with_options({"--spm", "--cache", "--jobs",
                                           "--csv"})}},
    {"corpus", {"corpus mixed",
                with_options({"--spm", "--cache", "--count", "--base",
                              "--jobs", "--csv", "--json"})}},
    {"serve", {"serve",
               {"--jobs", "--bench", "--repeat", "--clients", "--requests",
                "--json", "--socket", "--tcp", "--max-inflight",
                "--max-queue-wait", "--idle-timeout", "--drain"}}},
    {"disasm", {"disasm g721", {}}},
    {"annotations", {"annotations g721", {"--spm"}}},
    {"simbench", {"simbench", {"--legacy-sim", "--no-block-tier", "--repeat",
                               "--spm", "--json"}}},
    {"wcetbench", {"wcetbench", {"--legacy-wcet", "--no-incremental",
                                 "--repeat", "--json"}}},
    {"corpusbench", {"corpusbench", {"--count", "--base", "--repeat",
                                     "--json", "--jobs"}}},
};

TEST(CliFlags, EveryCommandRejectsEveryFlagItDoesNotRead) {
  std::size_t cases = 0;
  for (const auto& [name, command] : kCommands)
    for (const auto& [flag, value] : kFlagArgs) {
      if (command.accepts.count(flag) != 0) continue;
      expect_rejected(command.invocation + " " + flag + value,
                      flag + " is not accepted by " + name);
      ++cases;
    }
  EXPECT_EQ(cases, 214u); // 10 commands x 28 flags, minus the accepted
}

TEST(CliFlags, RejectionNamesTheCommandsThatAcceptTheFlag) {
  expect_rejected("sweep all --legacy-sim",
                  "--legacy-sim is not accepted by sweep; only accepted by "
                  "simbench");
  expect_rejected("simbench --persistence",
                  "--persistence is not accepted by simbench; only accepted "
                  "by corpus, run, sweep");
  expect_rejected("wcetbench --assoc 2",
                  "--assoc is not accepted by wcetbench; only accepted by "
                  "corpus, run, sweep");
}

TEST(CliFlags, CacheGeometryNeedsACachePoint) {
  struct Case {
    const char* args;
    const char* error;
  };
  const std::vector<Case> cases = {
      {"sweep g721 --spm --assoc 4 --persistence --icache",
       "--assoc applies only to cache points; this sweep command runs none"},
      {"sweep g721 --spm --icache",
       "--icache applies only to cache points; this sweep command runs none"},
      {"sweep g721 --spm --persistence",
       "--persistence applies only to cache points; this sweep command runs "
       "none"},
      {"run g721 --assoc 4",
       "--assoc applies only to cache points; this run command runs none"},
      {"run g721 --spm 1024 --persistence",
       "--persistence applies only to cache points; this run command runs "
       "none"},
      {"corpus mixed --icache",
       "--icache applies only to cache points; this corpus command runs "
       "none"},
      {"corpus mixed --spm --assoc 2",
       "--assoc applies only to cache points; this corpus command runs none"},
      {"run g721 --cache 1024 --wcet-alloc",
       "--wcet-alloc applies only to scratchpad points; this run command "
       "runs none"},
      {"sweep g721 --cache --wcet-alloc",
       "--wcet-alloc applies only to scratchpad points; this sweep command "
       "runs none"},
      {"corpus mixed --cache --wcet-alloc",
       "--wcet-alloc applies only to scratchpad points; this corpus command "
       "runs none"},
      {"run g721 --spm 512 --cache 512",
       "--spm and --cache are mutually exclusive"},
      {"run g721 --legacy-wcet",
       "--legacy-wcet applies only to a --spm or --cache point of run"},
      {"run g721 --cache 1024 --blocks",
       "--blocks applies only to run's main-memory report"},
      // Associativity past the abstract caches' byte-wide age domain is a
      // typed request error, on the default and the seed analyzer alike.
      {"run adpcm --cache 8192 --assoc 256 --persistence",
       "out_of_range: cache associativity 256 exceeds the supported maximum "
       "of 128 (assoc)"},
      {"run adpcm --cache 8192 --assoc 256 --legacy-wcet",
       "out_of_range: cache associativity 256 exceeds the supported maximum "
       "of 128 (assoc)"},
  };
  EXPECT_EQ(cases.size(), 15u);
  for (const Case& c : cases) expect_rejected(c.args, c.error);
}

TEST(CliFlags, FlagsThatReachTheirPointsAreAccepted) {
  for (const char* args :
       {"run g721 --cache 256 --assoc 2 --icache --persistence",
        "run adpcm --spm 512 --wcet-alloc --legacy-wcet",
        "run multisort --blocks"}) {
    const Outcome out = run_cli(args);
    EXPECT_EQ(out.status, 0) << args << "\n" << out.output;
  }
}

} // namespace
