// The simulator's only executor: straight-line superblocks discovered from
// the decoded spans (program::DecodedImage boundaries) and compiled once
// into threaded code — a flat sequence of fused micro-op handlers
// (function-pointer dispatch, no JIT) with the per-instruction bookkeeping
// folded into one block-entry update:
//   * fetch cycles and fetch-profile increments are summed per block at
//     compile time (the span's memory class and every halfword's profile
//     slot are static) and applied in one add, so executing N instructions
//     touches the cycle counter once instead of N times;
//   * ALU compute extras and the unconditional B/BL/POP{pc} penalties are
//     folded the same way; only data-dependent costs (taken BCC, dynamic
//     loads/stores) stay in their handlers;
//   * LDR_LIT/ADR addresses are pc-relative constants, so each one is
//     pre-classified against the region map at compile time (cost + profile
//     slot) and resolved to a stable arena pointer once per simulator —
//     in-block literal loads skip address translation entirely.
//
// Block discovery rule: a block starts at every address reachable as a
// branch/call target, fall-through, or span start, and extends through
// consecutive valid halfwords until the first branch (BCC, B, fused BL,
// POP{pc}), HALT, decode gap, another block's start, or the span end. BL
// pairs are fused into one micro-op (counting two instructions) only when
// the BL_LO half is verified at compile time; otherwise the block ends
// before the BL_HI.
//
// One-op fallback: where no block can run, the simulator fetches the
// halfword from memory, decodes it and runs it through execute_one(), which
// compiles it with the same op compiler as build() — one instruction
// semantics for both. That happens
//   * at a pc with no compiled block (gaps, odd pc, an unfusable BL_HI or a
//     bare BL_LO, which raise their traps there);
//   * when fewer budgeted instructions remain than the block would retire
//     (the instruction-budget trap must fire at the same instruction);
//   * at an invalidated block (see below);
//   * for every instruction of a traced run (SimConfig::trace).
// (A failed stack-window proof is no fallback of this kind: blocks still
// run, and only SP-relative accesses take the translated path.)
//
// Stack window: SP-relative accesses (LDR_SP, STR_SP, PUSH, POP, POP{pc})
// go by offset into the stack region's arena bytes when the simulator has
// proven, at run start, that the region is one main-memory arena run inside
// the symbol-free profile stack window and overlaps no code span (see
// BlockCtx::win). Such an access charges a main-memory word and the stack
// profile slot, exactly what the translated path would; an access outside
// the window (an overflowing stack, a misaligned sp) or a run whose image
// fails the proof takes the ordinary timed load/store below.
//
// Cached and observed reads: with a functional cache (SimConfig::cache) or
// a reuse observer (SimConfig::reuse) blocks still run, and each block
// reports its folded fetches in program order (see BlockCtx::observed), so
// the cache sees the same access order as one instruction at a time. A
// block's main-memory fetches are segments, one up to each load-bearing op
// and the rest at exit, each cut into per-line runs (FetchRun) that such a
// simulator builds from the table once (BlockTable::fetch_runs); a load
// reports the segments through its own op first. Under
// a reuse observer loads stay on the inline paths (try_load, bound
// literals, the stack window) and report themselves; under a cache they
// take the memory system's out-of-line path, which charges them.
//
// Invalidation: a store that lands in a code span marks every overlapping
// compiled block invalid; an invalidated block is never entered again and
// its addresses run through the one-op fallback, which decodes the new
// bytes from memory. A store into the *currently executing* block also
// aborts the block after the store's micro-op — the entry-folded
// accounting of the unexecuted suffix is rolled back and execution resumes
// at the next instruction. Mid-block traps simply propagate: the SimResult
// is discarded on throw, so the folded accounting of unexecuted ops is
// unobservable.
//
// A BlockTable is immutable after construction and self-contained (it
// copies everything it needs), so one compiled table can be shared by many
// simulators of the same image (harness::ArtifactCache does); the mutable
// valid/invalidation state lives in a per-simulator BlockRun.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "isa/instruction.h"
#include "isa/timing.h"
#include "link/image.h"
#include "program/decoded_image.h"
#include "sim/memory_system.h"
#include "sim/profile.h"

namespace spmwcet::sim {

struct SimResult;
class BlockTable;
class BlockRun;

/// NZCV condition flags, shared with the reference simulator so both test
/// and set conditions identically.
struct Flags {
  bool n = false, z = false, c = false, v = false;
};

/// Flag semantics of CMP/CMPI (subtraction).
inline void flags_set_sub(Flags& f, uint32_t a, uint32_t b) {
  const uint32_t r = a - b;
  f.n = (r >> 31) != 0;
  f.z = r == 0;
  f.c = a >= b; // no borrow
  const bool sa = (a >> 31) != 0, sb = (b >> 31) != 0, sr = (r >> 31) != 0;
  f.v = (sa != sb) && (sr != sa);
}

/// ARM condition-code evaluation over NZCV.
inline bool flags_cond_holds(const Flags& f, isa::Cond c) {
  switch (c) {
    case isa::Cond::EQ: return f.z;
    case isa::Cond::NE: return !f.z;
    case isa::Cond::LT: return f.n != f.v;
    case isa::Cond::GE: return f.n == f.v;
    case isa::Cond::LE: return f.z || f.n != f.v;
    case isa::Cond::GT: return !f.z && f.n == f.v;
    case isa::Cond::LO: return !f.c;
    case isa::Cond::HS: return f.c;
  }
  return false; // unreachable; Cond is a 3-bit field
}

struct MicroOp;

/// Everything a micro-op handler may touch, bundled as raw pointers into
/// the owning Simulator. Filled once per run; next_pc/stop/cur_* are reset
/// per block by BlockTable::execute.
struct BlockCtx {
  uint32_t* regs = nullptr; ///< r0..r7
  uint32_t* sp = nullptr;
  uint32_t* lr = nullptr;
  Flags* flags = nullptr;
  bool* halted = nullptr;
  MemorySystem* mem = nullptr;
  AccessCounts* counts = nullptr; ///< dense profile slots (SymbolIndex layout)
  const SymbolIndex* symbols = nullptr;
  SimResult* result = nullptr;
  const BlockTable* table = nullptr;
  BlockRun* run = nullptr; ///< per-simulator invalidation state
  const uint8_t* const* lit_ptrs = nullptr; ///< resolved literal pointers
  uint32_t stack_lo = 0, stack_hi = 0; ///< profile stack window
  uint32_t stack_slot = 0, other_slot = 0;
  bool profile = false;
  /// Proven at run start: the profile stack window does not wrap below
  /// address zero and no symbol interval intersects it, so in-window data
  /// accesses resolve to the stack slot with one compare instead of the
  /// find_id binary search.
  bool stack_clean = false;
  /// The stack window, proven once per run (Simulator::run_blocks): the
  /// stack region's bytes [win_lo, win_lo + win_span + 3), backed by `win`,
  /// are one main-memory arena run inside the profile stack window (with
  /// stack_clean) and overlap no code span. An aligned SP-relative word access
  /// starting at offset < win_span is then served by offset: main-memory
  /// timing, the stack profile slot, no translation and no code-span
  /// check. win_span == 0 when the proof failed.
  uint8_t* win = nullptr;
  uint32_t win_lo = 0;
  uint32_t win_span = 0;
  /// Reads are cached or observed (SimConfig::cache or ::reuse). Fetches
  /// are entry-folded, so a block reports them to the memory system lazily
  /// in program order: its segments through a load-bearing op before the
  /// op's first load (MicroOp::fetch_end), the rest at block exit.
  bool observed = false;

  /// The simulator's BlockTable::fetch_runs (observed runs only).
  const FetchRun* runs = nullptr;
  const uint32_t* run_first = nullptr;

  // Per-block execution state (owned by BlockTable::execute).
  uint32_t next_pc = 0;
  const FetchRun* fetch_runs = nullptr; ///< the block's runs (observed)
  uint32_t fetch_done = 0; ///< runs [0, fetch_done) reported
  bool stop = false; ///< abort after the current micro-op (self-mod store)
  const MicroOp* stopped_at = nullptr; ///< the aborting micro-op
  uint32_t cur_lo = 0, cur_hi = 0; ///< executing block's address range
};

/// Handlers chain by tail-calling the next op's handler (u[1].fn(ctx, u+1)),
/// so every handler body carries its own indirect-jump site — the branch
/// predictor learns per-handler successor patterns instead of thrashing one
/// shared dispatch branch (the classic threaded-code dispatch win, in
/// portable C++: the compiler turns the matching-signature tail call into a
/// jump). A block's op run ends with an h_end sentinel that returns.
using MicroHandler = void (*)(BlockCtx&, const MicroOp*);

/// One fused handler invocation. `aux`/`aux2`/`slot`/`cost` are
/// handler-specific precomputed operands (scaled immediates, static branch
/// targets, literal addresses/indices/slots/access costs). The fetch_* and
/// static_cost fields exist only for the self-modifying-store rollback:
/// they record this op's contribution to the block's entry-folded
/// accounting so an aborted block can subtract its unexecuted suffix.
struct MicroOp {
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  /// Cap on ops per block: bounds the tail-call chain depth (relevant only
  /// in unoptimized builds, where the calls really nest) and the rollback
  /// scan; longer straight-line runs split into back-to-back blocks.
  static constexpr uint32_t kMaxBlockOps = 64;

  MicroHandler fn = nullptr;
  isa::Instr ins;
  uint32_t iaddr = 0;
  uint32_t aux = 0;
  uint32_t aux2 = 0;
  uint32_t slot = 0;
  uint32_t fetch_slot = kNoSlot;
  uint32_t fetch_slot2 = kNoSlot; ///< second half of a fused BL pair
  uint8_t cost = 0;        ///< pre-classified static data-access cycles
  uint8_t static_cost = 0; ///< fetch + compute-extra + static penalties
  uint8_t units = 1;       ///< instructions retired (BL pair counts 2)
  /// Load-bearing ops: the block's fetch runs through this op's own
  /// halfwords, the ones to report before its first load. 0 elsewhere.
  uint8_t fetch_end = 0;
};

/// Per-simulator mutable state of a (possibly shared) BlockTable: which
/// blocks are still valid, and how many invalidations stores caused.
class BlockRun {
public:
  void reset(std::size_t block_count) {
    valid_.assign(block_count, 1);
    invalidations_ = 0;
  }
  bool valid(int index) const { return valid_[static_cast<size_t>(index)] != 0; }
  void invalidate(std::size_t index) {
    if (valid_[index] != 0) {
      valid_[index] = 0;
      ++invalidations_;
    }
  }
  /// Number of compiled blocks invalidated by stores so far.
  uint64_t invalidations() const { return invalidations_; }

private:
  std::vector<uint8_t> valid_;
  uint64_t invalidations_ = 0;
};

class BlockTable {
public:
  /// Compiles all blocks of the image's code spans from an existing decode
  /// of the same image; `img` supplies the region map, entry and stack
  /// window used for static pre-classification.
  BlockTable(const program::DecodedImage& dec, const SymbolIndex& symbols,
             const link::Image& img);

  /// Index of the block starting at `pc`, or -1 (the caller falls back to
  /// execute_one).
  int find(uint32_t pc) const {
    const SpanIdx* s = find_span(pc);
    if (s == nullptr || (pc & 1u) != 0) return -1;
    return s->block_at[(pc - s->lo) >> 1];
  }

  /// Instructions the block retires when it runs to completion — the
  /// dispatch loop's budget guard.
  uint32_t instr_count(int index) const {
    return blocks_[static_cast<size_t>(index)].instr_count;
  }

  /// Executes one block: applies the entry-folded accounting, runs the
  /// micro-ops, and returns the number of instructions actually retired
  /// (less than instr_count(index) only when a self-modifying store
  /// aborted the block). ctx.next_pc holds the successor pc.
  uint32_t execute(int index, BlockCtx& ctx) const;

  /// Executes one instruction outside the compiled blocks: `ins` at `iaddr`
  /// (with `second`, the BL_LO half, when `ins` is a BL_HI), decoded by the
  /// caller from memory whose fetches the caller already charged. Compiled
  /// by build()'s op compiler; returns the instructions retired (2 for a
  /// BL pair). ctx.next_pc holds the successor pc.
  uint32_t execute_one(const isa::Instr& ins, const isa::Instr& second,
                       uint32_t iaddr, BlockCtx& ctx) const;

  /// True iff [addr, addr+bytes) overlaps a code span (a self-modifying
  /// store, or a stack region the window proof must reject).
  bool covers(uint32_t addr, uint32_t bytes) const {
    // Spans are sorted and disjoint: the only candidates are the last span
    // starting at or before `addr` and the first span starting after it.
    const auto it = std::upper_bound(
        span_idx_.begin(), span_idx_.end(), addr,
        [](uint32_t a, const SpanIdx& s) { return a < s.lo; });
    if (it != span_idx_.begin()) {
      const SpanIdx& prev = *std::prev(it);
      if (addr < prev.lo + prev.len && addr + bytes > prev.lo) return true;
    }
    return it != span_idx_.end() && it->lo < addr + bytes;
  }

  /// Marks every compiled block overlapping [addr, addr+bytes) invalid in
  /// `run` — the self-modifying-store hook.
  void invalidate_overlapping(uint32_t addr, uint32_t bytes,
                              BlockRun& run) const;

  /// Resolves the static literal addresses against one simulator's memory
  /// arenas (stable pointers for the simulator's lifetime). Entries the
  /// memory system cannot serve flat stay null; their handlers fall back
  /// to the ordinary timed load.
  void bind_literals(const MemorySystem& mem,
                     std::vector<const uint8_t*>& out) const;

  /// Every block's cache-visible fetches as per-line runs in program
  /// order, block i's in runs[first[i], first[i + 1]): a segment through
  /// each load-bearing op (MicroOp::fetch_end), the rest at exit. Only
  /// cached or observed runs read them, so each such simulator builds its
  /// own.
  void fetch_runs(std::vector<FetchRun>& runs,
                  std::vector<uint32_t>& first) const;

  std::size_t block_count() const { return blocks_.size(); }

private:
  struct Block {
    uint32_t lo = 0;
    uint32_t hi = 0; ///< exclusive end; also the fall-through pc
    uint32_t first_op = 0;
    uint32_t op_count = 0; ///< real ops; micro_ holds one h_end sentinel more
    uint32_t instr_count = 0;
    uint32_t static_cycles = 0; ///< sum of the ops' static_cost
    uint32_t fold_first = 0; ///< into folds_: fetch-profile increments
    uint32_t fold_count = 0;
    bool main_code = false; ///< fetches are cache-visible (not SPM code)
  };
  struct SlotCount {
    uint32_t slot = 0;
    uint32_t count = 0;
  };
  struct LitRef {
    uint32_t addr = 0;
    uint32_t bytes = 0;
  };
  struct SpanIdx {
    uint32_t lo = 0;
    uint32_t len = 0; ///< bytes
    std::vector<int32_t> block_at; ///< per halfword: block index or -1
  };

  void build(const program::DecodedImage& dec, const SymbolIndex& symbols,
             const link::Image& img);

  const SpanIdx* find_span(uint32_t addr) const {
    // Real layouts have at most two spans (main + SPM code).
    if (!span_idx_.empty() && addr - span_idx_[0].lo < span_idx_[0].len)
      return &span_idx_[0];
    if (span_idx_.size() >= 2 && addr - span_idx_[1].lo < span_idx_[1].len)
      return &span_idx_[1];
    if (span_idx_.size() <= 2) return nullptr;
    const auto it = std::upper_bound(
        span_idx_.begin() + 2, span_idx_.end(), addr,
        [](uint32_t a, const SpanIdx& s) { return a < s.lo; });
    if (it == span_idx_.begin() + 2) return nullptr;
    const SpanIdx& s = *std::prev(it);
    return addr - s.lo < s.len ? &s : nullptr;
  }

  std::vector<SpanIdx> span_idx_; ///< sorted by lo, disjoint
  std::vector<Block> blocks_;     ///< sorted by lo, disjoint
  std::vector<MicroOp> micro_;    ///< all blocks' ops, contiguous
  std::vector<SlotCount> folds_;  ///< all blocks' fetch folds, contiguous
  std::vector<LitRef> lits_;      ///< static literal ranges to bind
};

} // namespace spmwcet::sim
