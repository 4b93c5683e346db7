// The instruction-set simulator (the ARMulator stand-in): executes a linked
// image cycle-accurately against the Table-1 timing model, optionally with
// a functional cache or with an observer of its cache-visible reads (the
// cache branch's one run per workload), and collects the per-object access
// profile that drives scratchpad allocation.
//
// One executor: the block table's micro-op handlers (sim/block_table.h) are
// the only instruction semantics. Compiled superblocks run wherever a valid
// one starts at pc and the budget admits it; every other instruction, and
// every instruction of a traced run, is fetched from memory, decoded and
// run as a one-op block by the same op compiler. Memory translation is O(1)
// (sim/memory_system.h), SP-relative accesses go by offset into a stack
// window proven at run start, and profiling accumulates into a dense
// per-symbol-id vector folded into the name-keyed AccessProfile once at
// run() exit. The seed interpreter is the test oracle reference::simulate
// (tests/reference/simulator.h).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "cache/geometry.h"
#include "link/image.h"
#include "sim/block_table.h"
#include "sim/memory_system.h"
#include "sim/profile.h"

namespace spmwcet::sim {

struct SimConfig {
  std::optional<cache::CacheConfig> cache;
  /// Abort (SimulationError) after this many instructions; guards against
  /// runaway programs in tests.
  uint64_t max_instructions = 500'000'000;
  bool collect_profile = false;
  /// When set, every executed instruction is written here as
  /// "cycle addr disassembly" — the ARMulator-style execution trace. A
  /// traced run executes one instruction at a time.
  std::ostream* trace = nullptr;
  /// Optional shared decode of the SAME image (program::DecodedImage built
  /// from equal bytes): the simulator compiles its block table from it
  /// instead of decoding a second time. Borrowed only during construction.
  const program::DecodedImage* predecoded = nullptr;
  /// Optional shared compiled block table of the SAME image: borrowed for
  /// the simulator's lifetime instead of compiling locally (the harness
  /// caches one per canonical image, like `predecoded`).
  const BlockTable* compiled_blocks = nullptr;
  /// Optional observer of the cache-visible reads (every non-scratchpad
  /// fetch and load, in program order): one such run yields the cache
  /// branch's all-geometry cache::ReuseTable. Exclusive with `cache`.
  cache::ReuseTable::Builder* reuse = nullptr;
};

struct SimResult {
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Values emitted by OUT instructions, in order.
  std::vector<int32_t> output;
  AccessProfile profile;
};

/// Executes one image. The object is single-use: construct, run(), then
/// inspect memory through read_global(). The image is copied, so passing a
/// freshly linked temporary is safe.
class Simulator {
public:
  Simulator(link::Image img, const SimConfig& cfg);

  /// Runs from the image entry point until HALT.
  SimResult run();

  /// Reads global `name[index]` from simulated memory with the symbol's
  /// width and signedness (valid after run()).
  int64_t read_global(const std::string& name, uint32_t index = 0) const;

  /// The image's global `name`, resolved once for repeated element reads
  /// through read_global(sym, index); throws SimulationError if absent.
  const link::Symbol& global(const std::string& name) const;
  int64_t read_global(const link::Symbol& sym, uint32_t index) const;

  /// Writes global `name[index]` (e.g. to place input data between runs).
  void write_global(const std::string& name, uint32_t index, int64_t value);

  /// Compiled blocks retired by self-modifying stores during run() (tests
  /// assert invalidation behavior through it).
  uint64_t block_invalidations() const { return block_run_.invalidations(); }

  /// Instructions run() retired through the one-op fallback rather than a
  /// compiled block (a BL pair counts 2, as in SimResult::instructions).
  uint64_t fallback_instructions() const { return fallback_; }

  /// Whether run() served SP-relative accesses through the stack window
  /// (sim/block_table.h): the image passed the window proof. False before
  /// run().
  bool stack_window_active() const { return stack_window_; }

private:
  void run_blocks(SimResult& result);
  uint32_t run_one(BlockCtx& ctx);
  void prove_stack_window(BlockCtx& ctx);
  void fold_profile();

  link::Image image_; // owned copy; mem_ and symbols_ point into it
  SimConfig cfg_;
  MemorySystem mem_;
  SymbolIndex symbols_;

  // The compiled table (borrowed from cfg_.compiled_blocks or owned), this
  // run's invalidation state, and the literal pointers bound against mem_'s
  // arenas.
  const BlockTable* blocks_ = nullptr;
  std::optional<BlockTable> owned_blocks_;
  BlockRun block_run_;
  std::vector<const uint8_t*> lit_ptrs_;
  /// Cached or observed runs: the blocks' fetch runs (BlockCtx::runs).
  std::vector<FetchRun> fetch_runs_;
  std::vector<uint32_t> run_first_;

  uint32_t regs_[isa::kNumRegs] = {};
  uint32_t sp_ = 0;
  uint32_t lr_ = 0;
  uint32_t pc_ = 0;
  Flags flags_;
  bool halted_ = false;
  AccessProfile profile_;
  uint64_t fallback_ = 0;

  // Dense profiling state: one AccessCounts per symbol id, then the stack
  // and "other" slots.
  std::vector<AccessCounts> counts_;
  uint32_t stack_slot_ = 0;
  uint32_t other_slot_ = 0;
  uint32_t stack_lo_ = 0; ///< profile stack window [stack_lo_, stack_hi_)
  uint32_t stack_hi_ = 0;
  bool stack_window_ = false; ///< see stack_window_active()
};

/// Convenience: build, run, and return the result in one call.
SimResult simulate(const link::Image& img, const SimConfig& cfg = {});

} // namespace spmwcet::sim
