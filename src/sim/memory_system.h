// The simulated memory hierarchy: backing storage for every mapped region,
// Table-1 access timing, and either an optional functional cache in front of
// main memory (unified or instruction-only) or an observer that records the
// reads such a cache would see: the forest simulation behind one
// cache::ReuseTable, every set count of the request's associativity
// (coverage sets x ways <= 65,536 lines). Scratchpad accesses always bypass
// the cache, as on real TCM hardware.
//
// Translation is O(1): regions are grouped into a handful of contiguous
// areas, each backed by one arena plus a per-byte class map (0 = unmapped,
// else MemClass+1). An access the map cannot serve (unmapped or partially
// mapped ranges, misalignment) traps. The seed's binary-search translation
// lives on in the reference simulator (tests/reference/simulator.h).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/functional_cache.h"
#include "cache/reuse_table.h"
#include "link/image.h"

namespace spmwcet::sim {

/// Maximum gap (bytes) bridged when merging sorted regions into one
/// contiguous span — shared by the MemorySystem arenas and the decoded code
/// spans (program::DecodedImage) so both cover exactly the same address runs.
inline constexpr uint32_t kRegionMergeGapBytes = 4096;

/// Consecutive main-memory halfword fetches inside one reuse-table line: a
/// piece of a compiled block's fetch segments, which a cached or observed
/// simulator builds once (BlockTable::fetch_runs, sim/block_table.h).
struct FetchRun {
  static constexpr uint32_t kLineBytes = cache::ReuseTable::kLineBytes;
  uint32_t line = 0;      ///< the line every halfword of the run lies in
  uint16_t offset = 0;    ///< the first halfword's byte offset in `line`
  uint16_t halfwords = 0; ///< >= 1
  /// The first halfword's address.
  uint32_t lo() const { return line * kLineBytes + offset; }
};

class MemorySystem {
public:
  /// Builds backing storage for all regions of `img`, loads its segments,
  /// and installs `cache_cfg` (if any) in front of main memory.
  MemorySystem(const link::Image& img,
               std::optional<cache::CacheConfig> cache_cfg);

  // ---- timed accesses (drive the cycle counter) ---------------------------

  /// Instruction fetch (16-bit). Returns the halfword.
  uint16_t fetch(uint32_t addr);

  /// Data load of 1/2/4 bytes; returns the raw zero-extended value.
  uint32_t load(uint32_t addr, uint32_t bytes);

  /// Data store of 1/2/4 bytes (write-through, no allocate).
  void store(uint32_t addr, uint32_t bytes, uint32_t value);

  /// The block tier's entry-folded main-memory fetches, runs [first, last)
  /// in program order, reported when reads are cached or observed. The
  /// block already charged main_memory(2) for each halfword; a cache
  /// replaces that with its hit or miss cost, halfword by halfword.
  void report_fetches(const FetchRun* first, const FetchRun* last) {
    if (reuse_ != nullptr) {
      for (; first != last; ++first)
        reuse_->fetch_run(first->line, first->halfwords);
      return;
    }
    for (; first != last; ++first)
      for (uint32_t k = 0, a = first->lo(); k < first->halfwords;
           ++k, a += 2) {
        cycles_ -= isa::MemTiming::main_memory(2);
        cycles_ += read_cost_for(isa::MemClass::MainMemory, a, 2,
                                 /*is_fetch=*/true);
      }
  }

  /// Charges a main-memory load the caller served from arena bytes itself
  /// (the block tier's stack window), through the cache or the observer.
  void charge_main_load(uint32_t addr, uint32_t bytes) {
    cycles_ += read_cost_for(isa::MemClass::MainMemory, addr, bytes,
                             /*is_fetch=*/false);
  }

  /// Adds non-memory execution cycles (ALU extras, branch penalties).
  void add_cycles(uint32_t n) { cycles_ += n; }

  /// Removes cycles previously charged with add_cycles — the block tier's
  /// rollback when a self-modifying store aborts an entry-folded block.
  void unwind_cycles(uint64_t n) { cycles_ -= n; }

  uint64_t cycles() const { return cycles_; }

  /// Stable pointer to [addr, addr+bytes) iff the class map can serve the
  /// whole range with one memory class (written to `cls`); null when reads
  /// are cached (they must reach read_cost_for), and for unmapped or
  /// mixed-class ranges. A reuse observer does not stop it: the block tier
  /// reports a bound main-memory literal itself (charge_main_load). Areas
  /// never move after construction, so the pointer stays valid for the
  /// system's lifetime (the block tier binds literal-pool addresses once).
  const uint8_t* flat_ptr(uint32_t addr, uint32_t bytes,
                          isa::MemClass& cls) const {
    return cache_ ? nullptr : flat(addr, bytes, cls);
  }

  /// Writable arena bytes backing [lo, hi) when one arena covers the whole
  /// range; null when the range crosses arenas. Costs one pass over the
  /// arenas and reads no class byte: the caller proves the range's memory
  /// class from the region map. Areas never move, so the pointer stays
  /// valid for the system's lifetime (the block tier's stack window,
  /// sim/block_table.h).
  uint8_t* arena_bytes(uint32_t lo, uint32_t hi) {
    if (hi < lo) return nullptr;
    for (Area& a : areas_)
      if (lo - a.lo < a.len && hi - a.lo <= a.len)
        return a.bytes.data() + (lo - a.lo);
    return nullptr;
  }

  /// Inline load for the block tier: serves exactly the accesses load()
  /// would, entirely in the header, reporting a main-memory load to a reuse
  /// observer itself. Returns false (charging nothing) when the flat map
  /// cannot serve the access or reads are cached — the caller falls back
  /// to load(), which owns the traps and the cache.
  bool try_load(uint32_t addr, uint32_t bytes, uint32_t& v) {
    if (addr % bytes != 0) return false;
    isa::MemClass cls;
    const uint8_t* p = flat(addr, bytes, cls);
    if (p == nullptr) return false;
    if (hooked_reads_) [[unlikely]] {
      if (cache_) return false;
      if (cls == isa::MemClass::MainMemory) reuse_->load(addr, bytes);
    }
    cycles_ += isa::MemTiming::uncached(cls, bytes);
    v = 0;
    for (uint32_t i = 0; i < bytes; ++i)
      v |= static_cast<uint32_t>(p[i]) << (8 * i);
    return true;
  }

  /// Inline store, the write-through/no-allocate counterpart of try_load
  /// (stores never touch cache tags, so no cache check needed); store()
  /// is this plus the traps.
  bool try_store(uint32_t addr, uint32_t bytes, uint32_t value) {
    if (addr % bytes != 0) return false;
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

  uint64_t cache_hits() const { return cache_ ? cache_->hits() : 0; }
  uint64_t cache_misses() const { return cache_ ? cache_->misses() : 0; }

  /// Reports every later non-scratchpad fetch and load to `rec`, in
  /// program order: the observed run behind the cache branch's table of
  /// every set count of one associativity. Exclusive with a functional
  /// cache.
  void observe_reuse(cache::ReuseTable::Builder* rec) {
    SPMWCET_CHECK_MSG(!cache_, "reuse observation runs without a cache");
    reuse_ = rec;
    hooked_reads_ = rec != nullptr;
  }

private:
  /// Contiguous arena covering a run of nearby regions; small
  /// alignment gaps between them stay part of the arena but are marked
  /// unmapped in `cls`.
  struct Area {
    uint32_t lo = 0;
    uint32_t len = 0;           ///< bytes covered: [lo, lo+len)
    std::vector<uint8_t> bytes; ///< backing storage (gaps stay zero)
    std::vector<uint8_t> cls;   ///< per byte: 0 = unmapped, else MemClass+1
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

  /// Timing for a read access (fetch or load) of `bytes` at `addr` of
  /// class `cls`; charges or reports the cache-visible reads.
  uint32_t read_cost_for(isa::MemClass cls, uint32_t addr, uint32_t bytes,
                         bool is_fetch) {
    if (cls == isa::MemClass::Scratchpad) return isa::MemTiming::scratchpad();
    if (cache_ && (is_fetch || cache_unified_))
      return cache_->access(addr) ? isa::MemTiming::cache_hit() : miss_cost_;
    if (reuse_ != nullptr) [[unlikely]] {
      if (is_fetch)
        reuse_->fetch_run(addr / cache::ReuseTable::kLineBytes, 1);
      else
        reuse_->load(addr, bytes);
    }
    return isa::MemTiming::main_memory(bytes);
  }

  /// Raises the trap of an access the class map cannot serve: `misaligned`
  /// or, for an address the region map does not map, its "access to
  /// unmapped address" error, else `unmapped` (a range that runs out of
  /// its region); each message ends in the address.
  [[noreturn]] void trap(uint32_t addr, uint32_t bytes,
                         const std::string& misaligned,
                         const std::string& unmapped) const;

  const link::Image* image_;
  std::vector<Area> areas_; // sorted by lo
  std::optional<cache::FunctionalCache> cache_;
  bool cache_unified_ = false;
  uint32_t miss_cost_ = 0;
  cache::ReuseTable::Builder* reuse_ = nullptr;
  /// A cache or a reuse observer is attached: cached reads take the
  /// out-of-line path through read_cost_for, observed ones report
  /// themselves.
  bool hooked_reads_ = false;
  uint64_t cycles_ = 0;
};

} // namespace spmwcet::sim
