// The instruction-set simulator (the ARMulator stand-in): executes a linked
// image cycle-accurately against the Table-1 timing model, optionally with
// a functional cache (the test oracle of the cache branch) or with an
// observer of its cache-visible reads (the cache branch's one run per
// workload), and collects the per-object access profile that drives
// scratchpad allocation.
//
// Production runs one path: code halfwords are predecoded once per image
// (sim/predecode.h), memory translation is O(1) (sim/memory_system.h),
// straight-line blocks run on the superblock tier (sim/block_table.h), and
// profiling accumulates into a dense per-symbol-id vector that is folded
// into the name-keyed AccessProfile once at run() exit.
//
// The seed implementation (per-instruction decode, binary searches,
// string-map profiling) and the per-instruction path below the block tier
// are still woven into step(); SimConfig::fast_path and
// SimConfig::block_tier select them. Only the parity tests set either:
// every production caller keeps the defaults, and results are
// field-identical either way (cycles, cache stats, profiles, output).
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
#include "sim/predecode.h"
#include "sim/profile.h"

namespace spmwcet::sim {

struct SimConfig {
  std::optional<cache::CacheConfig> cache;
  /// Abort (SimulationError) after this many instructions; guards against
  /// runaway programs in tests.
  uint64_t max_instructions = 500'000'000;
  bool collect_profile = false;
  /// When set, every executed instruction is written here as
  /// "cycle addr disassembly" — the ARMulator-style execution trace.
  std::ostream* trace = nullptr;
  /// Predecoded code + flat memory translation + interned profiling.
  /// false selects the seed implementation, a test oracle; results are
  /// identical either way.
  bool fast_path = true;
  /// Optional shared decode of the SAME image (program::DecodedImage built
  /// from equal bytes): the fast path's CodeTable then copies it instead of
  /// decoding a second time. Borrowed only during construction.
  const program::DecodedImage* predecoded = nullptr;
  /// Superblock translation tier above the fast path (sim/block_table.h):
  /// straight-line blocks execute as threaded code with entry-folded
  /// accounting. false keeps the per-instruction fast path, a test
  /// oracle; results are identical either way. The tier engages only
  /// without a functional cache (folding would reorder the
  /// tag-state-mutating accesses) and without a trace stream.
  bool block_tier = true;
  /// Optional shared compiled block table of the SAME image: borrowed for
  /// the simulator's lifetime instead of compiling locally (the harness
  /// caches one per canonical image, like `predecoded`).
  const BlockTable* compiled_blocks = nullptr;
  /// Optional observer of the cache-visible reads (every non-scratchpad
  /// fetch and load, in program order): one such run yields the cache
  /// branch's all-geometry cache::ReuseTable. Exclusive with `cache`; the
  /// block tier stays engaged and reports its folded fetches in order.
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

  const MemorySystem& memory() const { return mem_; }

  /// Compiled blocks retired by self-modifying stores during run(); 0 when
  /// the block tier is off (tests assert invalidation behavior through it).
  uint64_t block_invalidations() const { return block_run_.invalidations(); }

  /// Whether the translation tier is engaged for this run (fast path +
  /// block_tier, no functional cache, no trace).
  bool block_tier_active() const { return blocks_ != nullptr; }

private:
  void step(SimResult& result);
  void run_blocks(SimResult& result);
  isa::Instr fetch_decoded(uint32_t addr);
  bool cond_holds(isa::Cond c) const;
  void set_flags_sub(uint32_t a, uint32_t b);
  void profile_fetch(uint32_t addr);
  void profile_data(uint32_t addr, uint32_t bytes, bool is_store);
  void profile_fetch_interned(uint32_t addr);
  void profile_data_interned(uint32_t addr, uint32_t bytes, bool is_store);
  void fold_profile();

  link::Image image_; // owned copy; mem_ and symbols_ point into it
  SimConfig cfg_;
  MemorySystem mem_;
  SymbolIndex symbols_;
  std::optional<CodeTable> code_; ///< present iff cfg_.fast_path

  // Translation tier (present iff block_tier_active()): the compiled table
  // (borrowed from cfg_.compiled_blocks or owned), this run's invalidation
  // state, and the literal pointers bound against mem_'s arenas.
  const BlockTable* blocks_ = nullptr;
  std::optional<BlockTable> owned_blocks_;
  BlockRun block_run_;
  std::vector<const uint8_t*> lit_ptrs_;

  uint32_t regs_[isa::kNumRegs] = {};
  uint32_t sp_ = 0;
  uint32_t lr_ = 0;
  uint32_t pc_ = 0;
  Flags flags_;
  bool halted_ = false;
  AccessProfile profile_;

  // Interned profiling state (fast path): one AccessCounts per symbol id,
  // then the stack and "other" slots.
  std::vector<AccessCounts> counts_;
  uint32_t stack_slot_ = 0;
  uint32_t other_slot_ = 0;
  uint32_t stack_lo_ = 0; ///< profile stack window [stack_lo_, stack_hi_)
  uint32_t stack_hi_ = 0;
};

/// Convenience: build, run, and return the result in one call.
SimResult simulate(const link::Image& img, const SimConfig& cfg = {});

} // namespace spmwcet::sim
