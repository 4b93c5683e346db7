// All-geometry cache outcomes from one pass over an access stream.
//
// A cache only changes timing: control flow, outputs and the stream of
// cache-visible reads are the same for every geometry. So instead of one
// FunctionalCache simulation per (size, associativity) point, one observed
// run feeds the stream through an online Mattson stack pass (Mattson et
// al., IBM Sys. J. 1970) and the hits of every power-of-two geometry are
// read off the resulting table (Hill & Smith, "Evaluating Associativity in
// CPU Caches", IEEE TC 1989).
//
// The pass keeps one LRU stack of 16-byte line numbers. With bit-selection
// indexing, lines x and y share a set of a 2^k-set cache iff their low k
// bits agree, i.e. iff ctz(x ^ y) >= k. When x is re-referenced, every line
// y above it on the stack was touched since x's previous reference, so the
// walk charges y to levels 0..min(ctz(x ^ y), 16). The resulting per-level
// count d[k] is x's LRU stack distance inside its set of a 2^k-set cache,
// and an A-way LRU set hits exactly when d[k] < A. The table stores, per
// level, how many references fell into each distance class bit_width(d), so
// hits(2^k sets, 2^a ways) is a prefix sum. Cold references miss
// everywhere; immediate re-references of the MRU line (distance 0 at every
// level) skip the walk.
//
// A table records one stream: the unified one (instruction fetches and
// data loads) or the fetch-only one (what an instruction cache sees), so a
// run that only needs one kind walks one stack. Scratchpad accesses and
// stores never enter either stream: the SPM bypasses the cache, and stores
// are write-through/no-allocate.
//
// Coverage: 16-byte lines, 1..65536 sets and 1..65536 ways, i.e. every
// geometry from 16 B to 1 MiB, direct-mapped to fully associative.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "cache/geometry.h"
#include "isa/timing.h"

namespace spmwcet::cache {

/// Reuse profile of one access stream: hits of every covered geometry.
class ReuseHistogram {
public:
  static constexpr uint32_t kLevels = 17;  ///< set counts 2^0 .. 2^16
  static constexpr uint32_t kClasses = 18; ///< bit_width(d), capped at 17

  uint64_t accesses() const;
  /// Hits of an LRU cache with 2^set_bits sets of 2^way_bits ways.
  uint64_t hits(uint32_t set_bits, uint32_t way_bits) const;

private:
  friend class StackDistanceRecorder;

  uint64_t cold_ = 0;
  /// first_zero_[k]: references whose set-local distance is 0 from level k
  /// upward (k = 0 holds the immediate re-references).
  std::array<uint64_t, kLevels> first_zero_{};
  /// by_class_[k][b]: references with bit_width(d[k]) == b >= 1.
  std::array<std::array<uint64_t, kClasses>, kLevels> by_class_{};
};

/// The online Mattson pass feeding one ReuseHistogram. Holds the LRU stack
/// (one word per distinct line touched), so it lives only for the run.
class StackDistanceRecorder {
public:
  /// One reference to `line`.
  void access(uint32_t line) {
    if (!stack_.empty() && stack_[0] == line) {
      ++hist_.first_zero_[0];
      return;
    }
    // Depth one (alternating code and data lines) is the next most common.
    if (stack_.size() > 1 && stack_[1] == line) {
      swap_top();
      return;
    }
    walk(line);
  }
  /// `n` further references to the line just accessed.
  void repeat(uint64_t n) { hist_.first_zero_[0] += n; }

  const ReuseHistogram& histogram() const { return hist_; }

private:
  /// Depth one: x = stack_[1] moves to the top past one line, charged at
  /// every level up to the bits the two share.
  void swap_top() {
    std::swap(stack_[0], stack_[1]);
    const uint32_t shared = std::min<uint32_t>(
        std::countr_zero(stack_[0] ^ stack_[1]), ReuseHistogram::kLevels - 1);
    for (uint32_t k = 0; k <= shared; ++k) ++hist_.by_class_[k][1];
    if (shared < ReuseHistogram::kLevels - 1) ++hist_.first_zero_[shared + 1];
  }
  void walk(uint32_t line);

  std::vector<uint32_t> stack_; ///< MRU first
  ReuseHistogram hist_;
};

/// Cache outcomes of every covered geometry of one kind (unified or
/// instruction-only) for one program run.
class ReuseTable {
public:
  static constexpr uint32_t kLineBytes = 16;

  struct Outcome {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t cycles = 0; ///< base + hits * hit cost + misses * miss cost
    friend bool operator==(const Outcome&, const Outcome&) = default;
  };

  /// True if `cfg` is a geometry the table answers (16-byte lines, at most
  /// 65536 sets and 65536 ways).
  static bool supports(const CacheConfig& cfg);

  /// The run's cycles, hits and misses under `cfg`; throws Error for a
  /// geometry outside supports() or of the other cache kind.
  Outcome lookup(const CacheConfig& cfg) const;

  /// Collects one stream of a run. The simulator reports every
  /// non-scratchpad fetch and load in program order; an instruction-only
  /// table ignores the loads.
  class Builder {
  public:
    explicit Builder(bool unified) : unified_(unified) {}

    /// One halfword instruction fetch from main memory.
    void fetch(uint32_t addr) {
      stack_.access(addr / kLineBytes);
      ++fetches_;
    }
    /// `halfwords` (>= 1) consecutive halfword fetches inside `line`: one
    /// stack access, then immediate re-references. Compiled blocks hold
    /// their fetches as such runs (sim::FetchRun).
    void fetch_run(uint32_t line, uint32_t halfwords) {
      stack_.access(line);
      stack_.repeat(halfwords - 1);
      fetches_ += halfwords;
    }
    /// One data load of `bytes` from main memory.
    void load(uint32_t addr, uint32_t bytes) {
      if (!unified_) return; // an instruction cache never sees data
      stack_.access(addr / kLineBytes);
      load_cycles_ += isa::MemTiming::main_memory(bytes);
    }

    /// Seals the table; `uncached_cycles` is the run's total with no cache.
    ReuseTable finish(uint64_t uncached_cycles) const;

  private:
    bool unified_;
    StackDistanceRecorder stack_;
    uint64_t fetches_ = 0;
    uint64_t load_cycles_ = 0; ///< uncached cycles of the recorded loads
  };

private:
  ReuseHistogram hist_;
  /// Cycles no cache can change: the uncached total minus the uncached cost
  /// of the recorded accesses.
  uint64_t base_ = 0;
  bool unified_ = true;
};

} // namespace spmwcet::cache
