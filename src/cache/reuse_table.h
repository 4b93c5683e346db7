// Every-set-count cache outcomes of one associativity from one pass over an
// access stream.
//
// A cache only changes timing: control flow, outputs and the stream of
// cache-visible reads are the same for every geometry. So one observed run
// feeds the stream through a forest simulation (Hill & Smith, "Evaluating
// Associativity in CPU Caches", IEEE TC 1989), and the hits of every set
// count of the request's associativity A are read off the resulting table.
// With bit-selection indexing the LRU sets of A ways nest from one set
// count to the next: a line's stack distance can only shrink from 2^k to
// 2^(k+1) sets, so a hit at level k is a hit at every finer level, and a
// set's MRU line is the MRU line of every finer set holding it. Level k
// keeps 2^k LRU sets of A ways, for every level with 2^k * A * 16 B <= 1 MiB
// (coverage: sets x ways <= 65,536 lines). An access moves the line to the
// front of its set level by level, stops at the first level where it
// already was the MRU, and counts its first hitting level, so hits(2^k
// sets) is a prefix sum. A shift stops at the first empty way.
//
// Entries are sized from the image's main-memory line count: with every
// line below 2^b, level k stores the tag line >> k in the narrowest of a
// byte, halfword or word that leaves all-ones free for an empty way, and
// from the level where each set holds at most A distinct lines (no set can
// evict) one "seen" bit per line stands for every finer level.
//
// A table records one stream: the unified one (instruction fetches and
// data loads) or the fetch-only one (what an instruction cache sees).
// Scratchpad accesses and stores never enter either stream: the SPM
// bypasses the cache, and stores are write-through/no-allocate.
#pragma once

#include <array>
#include <cstdint>
#include <numeric>
#include <vector>

#include "cache/geometry.h"
#include "isa/timing.h"
#include "link/region_map.h"

namespace spmwcet::cache {

/// Reuse profile of one access stream under one associativity.
struct ReuseHistogram {
  static constexpr uint32_t kLevels = 17; ///< set counts 2^0 .. 2^16

  /// first_hit[k]: references whose first hitting level is k.
  std::array<uint64_t, kLevels> first_hit{};
  uint64_t misses = 0; ///< references that miss at every level

  /// Hits of an LRU cache with 2^set_bits sets of the recorded ways.
  uint64_t hits(uint32_t set_bits) const {
    SPMWCET_CHECK(set_bits < kLevels);
    return std::accumulate(first_hit.begin(),
                           first_hit.begin() + set_bits + 1, uint64_t{0});
  }
  uint64_t accesses() const { return hits(kLevels - 1) + misses; }
};

/// The forest simulation of one associativity feeding one ReuseHistogram.
/// Holds every level's sets, so it lives only for the run.
class ForestRecorder {
public:
  /// Sets of `assoc` ways (a power of two, at most 2^16) over lines below
  /// 2^line_bits.
  ForestRecorder(uint32_t assoc, uint32_t line_bits);

  /// One reference to `line`.
  void access(uint32_t line) {
    if (line == mru_) {
      ++hist_.first_hit[0];
      return;
    }
    descend(line);
  }
  /// `n` further references to the line just accessed.
  void repeat(uint64_t n) { hist_.first_hit[0] += n; }

  const ReuseHistogram& histogram() const { return hist_; }
  /// Heap bytes the sets and the seen bits hold.
  std::size_t footprint_bytes() const;

private:
  void descend(uint32_t line);
  template <typename Tag>
  bool descend_levels(std::vector<Tag>& tags, uint32_t end, uint32_t line,
                      uint32_t& k, int& first);

  uint32_t mru_ = UINT32_MAX; ///< the last line accessed (level 0's MRU)
  uint32_t assoc_;
  uint32_t line_bits_;
  /// Levels [0, end32_) hold 32-bit tags, [end32_, end16_) 16-bit and
  /// [end16_, end8_) 8-bit ones; level k's sets start at offset_[k] of its
  /// width's array.
  uint32_t end32_ = 0, end16_ = 0, end8_ = 0;
  std::array<uint32_t, ReuseHistogram::kLevels> offset_{};
  std::vector<uint32_t> tags32_;
  std::vector<uint16_t> tags16_;
  std::vector<uint8_t> tags8_;
  /// Level end8_, where no set evicts: one bit per line seen. Empty when
  /// that level lies beyond the coverage.
  std::vector<uint64_t> seen_;
  ReuseHistogram hist_;
};

/// Cache outcomes of every covered size of one associativity and one kind
/// (unified or instruction-only) for one program run.
class ReuseTable {
public:
  static constexpr uint32_t kLineBytes = 16;

  struct Outcome {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t cycles = 0; ///< base + hits * hit cost + misses * miss cost
    friend bool operator==(const Outcome&, const Outcome&) = default;
  };

  /// True if `cfg` is a geometry some table answers (16-byte lines, at most
  /// 65536 sets x ways).
  static bool supports(const CacheConfig& cfg);

  /// The run's cycles, hits and misses under `cfg`; throws Error for a
  /// geometry outside supports(), another associativity or the other cache
  /// kind.
  Outcome lookup(const CacheConfig& cfg) const;

  /// Collects one stream of a run. The simulator reports every
  /// non-scratchpad fetch and load in program order; an instruction-only
  /// table ignores the loads.
  class Builder {
  public:
    /// A table of `assoc` ways over the main memory of `regions`.
    Builder(const link::RegionMap& regions, bool unified, uint32_t assoc);

    /// `halfwords` (>= 1) consecutive halfword fetches from main memory
    /// inside `line`: one access, then immediate re-references. Compiled
    /// blocks report their fetches as such runs (sim::FetchRun).
    void fetch_run(uint32_t line, uint32_t halfwords) {
      forest_.access(line);
      forest_.repeat(halfwords - 1);
      fetches_ += halfwords;
    }
    /// One data load of `bytes` from main memory.
    void load(uint32_t addr, uint32_t bytes) {
      if (!unified_) return; // an instruction cache never sees data
      forest_.access(addr / kLineBytes);
      load_cycles_ += isa::MemTiming::main_memory(bytes);
    }

    const ForestRecorder& recorder() const { return forest_; }

    /// Seals the table; `uncached_cycles` is the run's total with no cache.
    ReuseTable finish(uint64_t uncached_cycles) const;

  private:
    bool unified_;
    uint32_t assoc_;
    ForestRecorder forest_;
    uint64_t fetches_ = 0;
    uint64_t load_cycles_ = 0; ///< uncached cycles of the recorded loads
  };

private:
  ReuseHistogram hist_;
  /// Cycles no cache can change: the uncached total minus the uncached cost
  /// of the recorded accesses.
  uint64_t base_ = 0;
  bool unified_ = true;
  uint32_t assoc_ = 1;
};

} // namespace spmwcet::cache
