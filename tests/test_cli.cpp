// CLI strictness: every command accepts exactly the flags it reads — the
// command-line mirror of the wire's per-op field whitelist — and a cache
// geometry flag where no cache point runs (or --wcet-alloc where no
// scratchpad point runs) is an error. Each case drives the built
// spmwcet_cli binary and checks both the exit status and the error text,
// so a crash or an unrelated failure cannot pass for a rejection. The
// argument fuzz at the end feeds seeded mutants of these command lines to
// the CLI's own parser (cli_args.h) in-process, and a sample of them to
// the binary.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "cli_args.h"
#include "fuzz_mutate.h"

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
    {"--bench", ""},
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

const std::set<std::string> kOptions = {"--assoc", "--icache",
                                        "--persistence", "--wcet-alloc"};

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
    {"simbench", {"simbench", {"--repeat", "--json"}}},
    {"wcetbench", {"wcetbench", {"--repeat", "--json"}}},
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
  EXPECT_EQ(cases, 181u); // 10 commands x 23 flags, minus the accepted
}

/// The implementation-selecting flags of earlier versions. The parser no
/// longer knows them, on any command.
const std::vector<std::string> kRetiredFlags = {
    "--no-artifact-cache", "--legacy-wcet", "--no-incremental",
    "--no-block-tier", "--legacy-sim"};

TEST(CliFlags, RetiredModeFlagsAreUnknownOptions) {
  std::size_t cases = 0;
  for (const auto& [name, command] : kCommands)
    for (const std::string& flag : kRetiredFlags) {
      expect_rejected(command.invocation + " " + flag,
                      "unknown option: " + flag);
      ++cases;
    }
  EXPECT_EQ(cases, 50u); // 10 commands x 5 flags
}

TEST(CliFlags, RejectionNamesTheCommandsThatAcceptTheFlag) {
  expect_rejected("sweep all --json /dev/null",
                  "--json is not accepted by sweep; only accepted by "
                  "corpus, corpusbench, serve, simbench, wcetbench");
  expect_rejected("simbench --persistence",
                  "--persistence is not accepted by simbench; only accepted "
                  "by corpus, run, sweep");
  expect_rejected("wcetbench --assoc 2",
                  "--assoc is not accepted by wcetbench; only accepted by "
                  "corpus, run, sweep");
}

struct RejectCase {
  const char* args;
  const char* error;
};

const std::vector<RejectCase> kContextRejections = {
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
      {"run g721 --cache 1024 --blocks",
       "--blocks applies only to run's main-memory report"},
      // Associativity past the cache analysis' byte-wide age domain is a
      // typed request error, with and without persistence.
      {"run adpcm --cache 8192 --assoc 256 --persistence",
       "out_of_range: cache associativity 256 exceeds the supported maximum "
       "of 128 (assoc)"},
      {"run adpcm --cache 8192 --assoc 256",
       "out_of_range: cache associativity 256 exceeds the supported maximum "
       "of 128 (assoc)"},
};

const std::vector<std::string> kAcceptedLines = {
    "run g721 --cache 256 --assoc 2 --icache --persistence",
    "run adpcm --spm 512 --wcet-alloc",
    "run multisort --blocks",
};

TEST(CliFlags, CacheGeometryNeedsACachePoint) {
  EXPECT_EQ(kContextRejections.size(), 14u);
  for (const RejectCase& c : kContextRejections)
    expect_rejected(c.args, c.error);
}

TEST(CliFlags, FlagsThatReachTheirPointsAreAccepted) {
  for (const std::string& args : kAcceptedLines) {
    const Outcome out = run_cli(args);
    EXPECT_EQ(out.status, 0) << args << "\n" << out.output;
  }
}

// ---- argument fuzzing -------------------------------------------------------

/// The command lines above: every command with each flag it accepts and
/// with each retired flag, the context rejections, and the accepted
/// multi-flag lines.
std::vector<std::string> cli_corpus() {
  std::vector<std::string> corpus;
  for (const auto& [name, command] : kCommands) {
    corpus.push_back(command.invocation);
    for (const std::string& flag : command.accepts)
      corpus.push_back(command.invocation + " " + flag + kFlagArgs.at(flag));
    for (const std::string& flag : kRetiredFlags)
      corpus.push_back(command.invocation + " " + flag);
  }
  for (const RejectCase& c : kContextRejections) corpus.push_back(c.args);
  corpus.insert(corpus.end(), kAcceptedLines.begin(), kAcceptedLines.end());
  return corpus;
}

/// A command line's argv words: split on spaces, as the shell hands an
/// unquoted line over.
std::vector<std::string> words_of(const std::string& line) {
  std::vector<std::string> words;
  for (std::size_t at = 0; at <= line.size();) {
    const std::size_t end = std::min(line.find(' ', at), line.size());
    if (end > at) words.push_back(line.substr(at, end - at));
    at = end + 1;
  }
  return words;
}

/// What the CLI's parser makes of a command line: accepted (the command
/// runs, or prints usage when it names none) or the Error message the
/// binary prints after "error: " before exiting 1.
struct ParseOutcome {
  bool accepted = false;
  std::string error;
};

ParseOutcome parse_line(const std::string& line) {
  std::vector<std::string> words = words_of(line);
  std::vector<char*> argv{const_cast<char*>("spmwcet")};
  for (std::string& w : words) argv.push_back(w.data());
  try {
    const spmwcet::cli::Args args =
        spmwcet::cli::parse(static_cast<int>(argv.size()), argv.data());
    if (!args.positional.empty()) spmwcet::cli::check_flags(args);
    return {true, {}};
  } catch (const spmwcet::Error& e) {
    return {false, e.what()};
  }
}

/// The same argv words, each single-quoted for the shell run_cli uses.
std::string shell_quote(const std::string& line) {
  std::string out;
  for (const std::string& word : words_of(line)) {
    out += " '";
    for (const char c : word)
      out += c == '\'' ? std::string("'\\''") : std::string(1, c);
    out += "'";
  }
  return out;
}

/// Commands that finish in well under a second whatever their arguments
/// (one point, a listing); --trace is left out, it prints every executed
/// instruction.
bool cheap_to_run(const std::string& line) {
  for (const char* cmd : {"run ", "list", "disasm ", "annotations "})
    if (line.rfind(cmd, 0) == 0)
      return line.find("--trace") == std::string::npos;
  return false;
}

TEST(CliArgsFuzz, MutantsParseOrFailWithAnError) {
  // 2,000 seeded mutants of the command lines above. Each one either
  // parses (the binary would run it) or fails with a spmwcet::Error — any
  // other exception or a crash fails the test. Every 20th rejected mutant
  // also goes through the binary, which must exit 1 with the same
  // "error:" line: the parser under test is the binary's. Every 20th
  // accepted mutant of a single-point or listing command runs through the
  // binary too and must finish, with an "error:" line if it fails; other
  // accepted lines may start a server or a long sweep and are not run.
  std::mt19937 rng(20261017);
  const std::vector<std::string> corpus = cli_corpus();
  int accepted = 0, rejected = 0, through_binary = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string line = corpus[rng() % corpus.size()];
    const int rounds = 1 + static_cast<int>(rng() % 3);
    for (int r = 0; r < rounds; ++r)
      line = spmwcet::fuzz::mutate(line, rng, corpus);
    // argv words are C strings: a NUL byte would end the word (and the
    // shell command line) early.
    std::erase(line, '\0');

    ParseOutcome parsed;
    try {
      parsed = parse_line(line);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw a non-Error exception: "
                    << e.what() << "\n  line: " << line;
      continue;
    }
    if (parsed.accepted) {
      if (++accepted % 20 != 0 || !cheap_to_run(line)) continue;
      ++through_binary;
      const Outcome out = run_cli(shell_quote(line));
      EXPECT_TRUE(out.status == 0 || out.status == 2 ||
                  (out.status == 1 &&
                   out.output.find("error: ") != std::string::npos))
          << line << "\n  status " << out.status << "\n" << out.output;
      continue;
    }
    ++rejected;
    EXPECT_FALSE(parsed.error.empty()) << line;
    if (rejected % 20 != 0) continue;
    ++through_binary;
    const Outcome out = run_cli(shell_quote(line));
    EXPECT_EQ(out.status, 1) << line << "\n" << out.output;
    EXPECT_NE(out.output.find("error: " + parsed.error), std::string::npos)
        << line << "\n  expected: error: " << parsed.error
        << "\n  got: " << out.output;
  }
  // Both outcomes occur, so neither branch is vacuous.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(through_binary, 0);
}

} // namespace
