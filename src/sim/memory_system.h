// The simulated memory hierarchy: backing storage for every mapped region,
// Table-1 access timing, and either an optional functional cache in front of
// main memory (unified or instruction-only) or an observer that records the
// reads such a cache would see (cache::ReuseTable). Scratchpad accesses
// always bypass the cache, as on real TCM hardware.
//
// Two translation modes share identical observable behavior (cycles, cache
// state, trap messages):
//  * fast (default): regions are grouped into a handful of contiguous
//    areas, each backed by one arena plus a per-byte class map
//    (0 = unmapped, else MemClass+1), so address -> pointer + MemClass is
//    O(1) per access. Accesses the map cannot serve exactly (unmapped or
//    partially mapped ranges, misalignment) fall through to the legacy
//    path, which reproduces the seed's cost charging and error text.
//  * legacy: the seed's per-access binary searches (block list for the
//    pointer, region map for the class), the slow path of the fast mode
//    and, with SimConfig::fast_path unset, the parity tests' oracle.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/functional_cache.h"
#include "cache/reuse_table.h"
#include "link/image.h"

namespace spmwcet::sim {

/// Maximum gap (bytes) bridged when merging sorted regions into one
/// contiguous fast-path span — shared by the MemorySystem arenas and the
/// CodeTable so both structures cover exactly the same address runs.
inline constexpr uint32_t kRegionMergeGapBytes = 4096;

class MemorySystem {
public:
  /// Builds backing storage for all regions of `img`, loads its segments,
  /// and installs `cache_cfg` (if any) in front of main memory.
  /// `fast_translation` selects the O(1) area tables; false keeps the
  /// seed's binary-search translation (the parity tests' oracle).
  MemorySystem(const link::Image& img,
               std::optional<cache::CacheConfig> cache_cfg,
               bool fast_translation = true);

  // ---- timed accesses (drive the cycle counter) ---------------------------

  /// Instruction fetch (16-bit). Returns the halfword.
  uint16_t fetch(uint32_t addr);

  /// Data load of 1/2/4 bytes; returns the raw zero-extended value.
  uint32_t load(uint32_t addr, uint32_t bytes);

  /// Data store of 1/2/4 bytes (write-through, no allocate).
  void store(uint32_t addr, uint32_t bytes, uint32_t value);

  /// Timing-only fetch for the simulator's predecode fast path: charges
  /// exactly the cycles (and cache state) fetch() would for a mapped,
  /// aligned code address whose memory class is already known.
  void count_fetch(uint32_t addr, isa::MemClass cls) {
    cycles_ += read_cost_for(cls, addr, 2, /*is_fetch=*/true);
  }

  /// Adds non-memory execution cycles (ALU extras, branch penalties).
  void add_cycles(uint32_t n) { cycles_ += n; }

  /// Removes cycles previously charged with add_cycles — the block tier's
  /// rollback when a self-modifying store aborts an entry-folded block.
  void unwind_cycles(uint64_t n) { cycles_ -= n; }

  uint64_t cycles() const { return cycles_; }

  /// Stable pointer to [addr, addr+bytes) iff the fast-mode class map can
  /// serve the whole range with one memory class (written to `cls`); null
  /// in legacy mode, when reads are cached or observed (they must reach
  /// read_cost_for), and for unmapped/mixed-class ranges. Areas never move
  /// after construction, so the pointer stays valid for the system's
  /// lifetime (the block tier binds literal-pool addresses once).
  const uint8_t* flat_ptr(uint32_t addr, uint32_t bytes,
                          isa::MemClass& cls) const {
    return fast_ && !hooked_reads_ ? flat(addr, bytes, cls) : nullptr;
  }

  /// Inline load fast path for the block tier: serves exactly the accesses
  /// load()'s fast branch would, entirely in the header. Returns false
  /// (charging nothing) when the flat map cannot serve the access or reads
  /// are cached or observed — the caller falls back to load(), which owns
  /// the seed-exact slow path, the traps and the read hooks.
  bool try_load(uint32_t addr, uint32_t bytes, uint32_t& v) {
    if (hooked_reads_ || !fast_ || addr % bytes != 0) return false;
    isa::MemClass cls;
    const uint8_t* p = flat(addr, bytes, cls);
    if (p == nullptr) return false;
    cycles_ += isa::MemTiming::uncached(cls, bytes);
    v = 0;
    for (uint32_t i = 0; i < bytes; ++i)
      v |= static_cast<uint32_t>(p[i]) << (8 * i);
    return true;
  }

  /// Inline store fast path, the write-through/no-allocate counterpart of
  /// try_load (stores never touch cache tags, so no cache check needed).
  bool try_store(uint32_t addr, uint32_t bytes, uint32_t value) {
    if (!fast_ || addr % bytes != 0) return false;
    isa::MemClass cls;
    uint8_t* p = flat(addr, bytes, cls);
    if (p == nullptr) return false;
    cycles_ += isa::MemTiming::uncached(cls, bytes);
    for (uint32_t i = 0; i < bytes; ++i)
      p[i] = static_cast<uint8_t>(value >> (8 * i));
    return true;
  }

  // ---- untimed accessors (result extraction, loaders, tests) -------------

  uint32_t peek(uint32_t addr, uint32_t bytes) const;
  void poke(uint32_t addr, uint32_t bytes, uint32_t value);

  isa::MemClass class_of(uint32_t addr) const {
    return image_->regions.classify(addr);
  }

  const cache::FunctionalCache* cache() const {
    return cache_ ? &*cache_ : nullptr;
  }
  uint64_t cache_hits() const { return cache_ ? cache_->hits() : 0; }
  uint64_t cache_misses() const { return cache_ ? cache_->misses() : 0; }

  /// Reports every later non-scratchpad fetch and load to `rec`, in
  /// program order: the observed run behind the cache branch's
  /// all-geometry table. Exclusive with a functional cache.
  void observe_reuse(cache::ReuseTable::Builder* rec) {
    SPMWCET_CHECK_MSG(!cache_, "reuse observation runs without a cache");
    reuse_ = rec;
    hooked_reads_ = rec != nullptr;
  }

private:
  /// Contiguous fast-mode arena covering a run of nearby regions; small
  /// alignment gaps between them stay part of the arena but are marked
  /// unmapped in `cls`.
  struct Area {
    uint32_t lo = 0;
    uint32_t len = 0;           ///< bytes covered: [lo, lo+len)
    std::vector<uint8_t> bytes; ///< backing storage (gaps stay zero)
    std::vector<uint8_t> cls;   ///< per byte: 0 = unmapped, else MemClass+1
  };

  /// Legacy backing block (one per merged run of adjacent regions).
  struct Block {
    uint32_t lo;
    uint32_t hi;
    std::vector<uint8_t> bytes;
  };

  /// O(1) translation: pointer to [addr, addr+bytes) iff the whole range
  /// is mapped with one memory class (written to `cls`); else nullptr.
  const uint8_t* flat(uint32_t addr, uint32_t bytes,
                      isa::MemClass& cls) const {
    for (const Area& a : areas_) {
      const uint32_t off = addr - a.lo; // wraps for addr < lo
      if (off >= a.len) continue;
      if (bytes > a.len - off) return nullptr;
      const uint8_t c = a.cls[off];
      if (c == 0) return nullptr;
      for (uint32_t i = 1; i < bytes; ++i)
        if (a.cls[off + i] != c) return nullptr;
      cls = static_cast<isa::MemClass>(c - 1);
      return a.bytes.data() + off;
    }
    return nullptr;
  }
  uint8_t* flat(uint32_t addr, uint32_t bytes, isa::MemClass& cls) {
    return const_cast<uint8_t*>(
        static_cast<const MemorySystem*>(this)->flat(addr, bytes, cls));
  }

  uint8_t* locate(uint32_t addr, uint32_t bytes);
  const uint8_t* locate(uint32_t addr, uint32_t bytes) const;

  /// Timing for a read access (fetch or load) of `bytes` at `addr`.
  uint32_t read_cost(uint32_t addr, uint32_t bytes, bool is_fetch);

  /// read_cost with the memory class already known (fast paths).
  uint32_t read_cost_for(isa::MemClass cls, uint32_t addr, uint32_t bytes,
                         bool is_fetch) {
    if (cls == isa::MemClass::Scratchpad) return isa::MemTiming::scratchpad();
    if (cache_ && (is_fetch || cache_unified_))
      return cache_->access(addr) ? isa::MemTiming::cache_hit() : miss_cost_;
    if (reuse_ != nullptr) [[unlikely]] {
      if (is_fetch)
        reuse_->fetch(addr);
      else
        reuse_->load(addr, bytes);
    }
    return isa::MemTiming::main_memory(bytes);
  }

  // Seed-exact slow paths (also the whole story in legacy mode).
  uint16_t fetch_slow(uint32_t addr);
  uint32_t load_slow(uint32_t addr, uint32_t bytes);
  void store_slow(uint32_t addr, uint32_t bytes, uint32_t value);

  const link::Image* image_;
  const bool fast_;
  std::vector<Area> areas_;   // fast mode storage, sorted by lo
  std::vector<Block> blocks_; // legacy mode storage, sorted by lo
  std::optional<cache::FunctionalCache> cache_;
  bool cache_unified_ = false;
  uint32_t miss_cost_ = 0;
  cache::ReuseTable::Builder* reuse_ = nullptr;
  /// A cache or a reuse observer is attached: reads must take the
  /// out-of-line path through read_cost_for.
  bool hooked_reads_ = false;
  uint64_t cycles_ = 0;
};

} // namespace spmwcet::sim
