#include "sim/memory_system.h"

#include <algorithm>

#include "isa/timing.h"
#include "support/diag.h"

namespace spmwcet::sim {

using isa::MemClass;
using isa::MemTiming;

MemorySystem::MemorySystem(const link::Image& img,
                           std::optional<cache::CacheConfig> cache_cfg,
                           bool fast_translation)
    : image_(&img), fast_(fast_translation) {
  if (fast_) {
    // Group nearby regions into contiguous arenas; gaps up to the merge
    // bound (alignment padding, inter-object holes) are carried inside the
    // arena but marked unmapped, so O(1) translation still rejects them
    // exactly like the block search would.
    const link::Region* prev = nullptr;
    for (const auto& r : img.regions.regions()) {
      // flat() treats "contiguously mapped" and "within one legacy block"
      // as equivalent, which needs exactly-adjacent regions to share one
      // memory class (legacy merging would fuse them regardless).
      SPMWCET_CHECK_MSG(prev == nullptr || prev->hi != r.lo ||
                            link::mem_class(prev->kind) ==
                                link::mem_class(r.kind),
                        "adjacent regions with different memory classes");
      prev = &r;
      if (areas_.empty() || r.lo - (areas_.back().lo + areas_.back().len) >
                                kRegionMergeGapBytes) {
        areas_.push_back(Area{r.lo, 0, {}, {}});
      }
      Area& a = areas_.back();
      a.len = r.hi - a.lo;
      a.bytes.resize(a.len, 0);
      a.cls.resize(a.len, 0);
      const uint8_t c = static_cast<uint8_t>(link::mem_class(r.kind)) + 1;
      std::fill(a.cls.begin() + (r.lo - a.lo), a.cls.begin() + (r.hi - a.lo),
                c);
    }
  } else {
    // One backing block per region, merging adjacent ranges.
    for (const auto& r : img.regions.regions()) {
      if (!blocks_.empty() && blocks_.back().hi == r.lo) {
        blocks_.back().hi = r.hi;
        blocks_.back().bytes.resize(blocks_.back().hi - blocks_.back().lo, 0);
      } else {
        blocks_.push_back(
            Block{r.lo, r.hi, std::vector<uint8_t>(r.hi - r.lo, 0)});
      }
    }
  }
  // Load segments. Alignment padding between regions is not mapped; such
  // bytes must be zero (nothing ever fetches or loads them).
  for (const auto& seg : img.segments)
    for (std::size_t i = 0; i < seg.bytes.size(); ++i) {
      uint8_t* p = locate(seg.base + static_cast<uint32_t>(i), 1);
      if (p == nullptr) {
        SPMWCET_CHECK_MSG(seg.bytes[i] == 0,
                          "non-zero segment byte outside mapped regions");
        continue;
      }
      *p = seg.bytes[i];
    }
  if (cache_cfg) {
    cache_.emplace(*cache_cfg);
    cache_unified_ = cache_cfg->unified;
    miss_cost_ = MemTiming::cache_miss(cache_cfg->line_bytes);
    hooked_reads_ = true;
  }
}

uint8_t* MemorySystem::locate(uint32_t addr, uint32_t bytes) {
  return const_cast<uint8_t*>(
      static_cast<const MemorySystem*>(this)->locate(addr, bytes));
}

const uint8_t* MemorySystem::locate(uint32_t addr, uint32_t bytes) const {
  if (fast_) {
    // A range is inside one legacy block exactly when every byte is mapped
    // (blocks are maximal contiguous runs, and contiguous mapped runs have
    // one memory class).
    MemClass cls;
    return flat(addr, bytes, cls);
  }
  auto it = std::upper_bound(
      blocks_.begin(), blocks_.end(), addr,
      [](uint32_t a, const Block& b) { return a < b.lo; });
  if (it == blocks_.begin()) return nullptr;
  --it;
  if (addr < it->lo || addr + bytes > it->hi) return nullptr;
  return it->bytes.data() + (addr - it->lo);
}

uint32_t MemorySystem::read_cost(uint32_t addr, uint32_t bytes,
                                 bool is_fetch) {
  const MemClass cls = image_->regions.classify(addr);
  return read_cost_for(cls, addr, bytes, is_fetch);
}

uint16_t MemorySystem::fetch(uint32_t addr) {
  if (fast_ && (addr & 1u) == 0) {
    MemClass cls;
    const uint8_t* p = flat(addr, 2, cls);
    if (p != nullptr) {
      cycles_ += read_cost_for(cls, addr, 2, /*is_fetch=*/true);
      return static_cast<uint16_t>(p[0] | (static_cast<uint16_t>(p[1]) << 8));
    }
  }
  return fetch_slow(addr);
}

uint16_t MemorySystem::fetch_slow(uint32_t addr) {
  SPMWCET_CHECK_MSG(addr % 2 == 0, "misaligned fetch");
  cycles_ += read_cost(addr, 2, /*is_fetch=*/true);
  const uint8_t* p = locate(addr, 2);
  if (p == nullptr)
    throw SimulationError("fetch from unmapped address " +
                          std::to_string(addr));
  return static_cast<uint16_t>(p[0] | (static_cast<uint16_t>(p[1]) << 8));
}

uint32_t MemorySystem::load(uint32_t addr, uint32_t bytes) {
  if (fast_ && addr % bytes == 0) {
    MemClass cls;
    const uint8_t* p = flat(addr, bytes, cls);
    if (p != nullptr) {
      cycles_ += read_cost_for(cls, addr, bytes, /*is_fetch=*/false);
      uint32_t v = 0;
      for (uint32_t i = 0; i < bytes; ++i)
        v |= static_cast<uint32_t>(p[i]) << (8 * i);
      return v;
    }
  }
  return load_slow(addr, bytes);
}

uint32_t MemorySystem::load_slow(uint32_t addr, uint32_t bytes) {
  if (addr % bytes != 0)
    throw SimulationError("misaligned load of " + std::to_string(bytes) +
                          " bytes at " + std::to_string(addr));
  cycles_ += read_cost(addr, bytes, /*is_fetch=*/false);
  const uint8_t* p = locate(addr, bytes);
  if (p == nullptr)
    throw SimulationError("load from unmapped address " +
                          std::to_string(addr));
  uint32_t v = 0;
  for (uint32_t i = 0; i < bytes; ++i)
    v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

void MemorySystem::store(uint32_t addr, uint32_t bytes, uint32_t value) {
  if (fast_ && addr % bytes == 0) {
    MemClass cls;
    uint8_t* p = flat(addr, bytes, cls);
    if (p != nullptr) {
      cycles_ += MemTiming::uncached(cls, bytes);
      for (uint32_t i = 0; i < bytes; ++i)
        p[i] = static_cast<uint8_t>(value >> (8 * i));
      return;
    }
  }
  store_slow(addr, bytes, value);
}

void MemorySystem::store_slow(uint32_t addr, uint32_t bytes, uint32_t value) {
  if (addr % bytes != 0)
    throw SimulationError("misaligned store of " + std::to_string(bytes) +
                          " bytes at " + std::to_string(addr));
  const MemClass cls = image_->regions.classify(addr);
  // Write-through, no write-allocate: always the uncached cost; tag state
  // is unaffected even on a hit (data would be updated in place, and the
  // functional model holds no data).
  cycles_ += MemTiming::uncached(cls, bytes);
  uint8_t* p = locate(addr, bytes);
  if (p == nullptr)
    throw SimulationError("store to unmapped address " + std::to_string(addr));
  for (uint32_t i = 0; i < bytes; ++i)
    p[i] = static_cast<uint8_t>(value >> (8 * i));
}

uint32_t MemorySystem::peek(uint32_t addr, uint32_t bytes) const {
  const uint8_t* p = locate(addr, bytes);
  if (p == nullptr)
    throw SimulationError("peek at unmapped address " + std::to_string(addr));
  uint32_t v = 0;
  for (uint32_t i = 0; i < bytes; ++i)
    v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

void MemorySystem::poke(uint32_t addr, uint32_t bytes, uint32_t value) {
  uint8_t* p = locate(addr, bytes);
  if (p == nullptr)
    throw SimulationError("poke at unmapped address " + std::to_string(addr));
  for (uint32_t i = 0; i < bytes; ++i)
    p[i] = static_cast<uint8_t>(value >> (8 * i));
}

} // namespace spmwcet::sim
