#include "sim/memory_system.h"

#include <algorithm>

#include "isa/timing.h"
#include "support/diag.h"

namespace spmwcet::sim {

using isa::MemClass;
using isa::MemTiming;

MemorySystem::MemorySystem(const link::Image& img,
                           std::optional<cache::CacheConfig> cache_cfg)
    : image_(&img) {
  // Group nearby regions into contiguous arenas; gaps up to the merge bound
  // (alignment padding, inter-object holes) are carried inside the arena
  // but marked unmapped, so translation rejects them.
  const link::Region* prev = nullptr;
  for (const auto& r : img.regions.regions()) {
    // flat() serves a range only when every byte carries one class, which
    // needs exactly-adjacent regions to share one memory class.
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
  // Load segments. Alignment padding between regions is not mapped; such
  // bytes must be zero (nothing ever fetches or loads them).
  for (const auto& seg : img.segments)
    for (std::size_t i = 0; i < seg.bytes.size(); ++i) {
      MemClass cls;
      uint8_t* p = flat(seg.base + static_cast<uint32_t>(i), 1, cls);
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

uint16_t MemorySystem::fetch(uint32_t addr) {
  MemClass cls;
  const uint8_t* p = addr % 2 == 0 ? flat(addr, 2, cls) : nullptr;
  if (p == nullptr)
    trap(addr, 2, "misaligned fetch at ", "fetch from unmapped address ");
  cycles_ += read_cost_for(cls, addr, 2, /*is_fetch=*/true);
  return static_cast<uint16_t>(p[0] | (static_cast<uint16_t>(p[1]) << 8));
}

uint32_t MemorySystem::load(uint32_t addr, uint32_t bytes) {
  MemClass cls;
  const uint8_t* p = addr % bytes == 0 ? flat(addr, bytes, cls) : nullptr;
  if (p == nullptr)
    trap(addr, bytes,
         "misaligned load of " + std::to_string(bytes) + " bytes at ",
         "load from unmapped address ");
  cycles_ += read_cost_for(cls, addr, bytes, /*is_fetch=*/false);
  uint32_t v = 0;
  for (uint32_t i = 0; i < bytes; ++i)
    v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

void MemorySystem::store(uint32_t addr, uint32_t bytes, uint32_t value) {
  if (!try_store(addr, bytes, value))
    trap(addr, bytes,
         "misaligned store of " + std::to_string(bytes) + " bytes at ",
         "store to unmapped address ");
}

void MemorySystem::trap(uint32_t addr, uint32_t bytes,
                        const std::string& misaligned,
                        const std::string& unmapped) const {
  if (addr % bytes != 0)
    throw SimulationError(misaligned + std::to_string(addr));
  image_->regions.classify(addr); // throws for an unmapped address
  throw SimulationError(unmapped + std::to_string(addr));
}

uint32_t MemorySystem::peek(uint32_t addr, uint32_t bytes) const {
  MemClass cls;
  const uint8_t* p = flat(addr, bytes, cls);
  if (p == nullptr)
    throw SimulationError("peek at unmapped address " + std::to_string(addr));
  uint32_t v = 0;
  for (uint32_t i = 0; i < bytes; ++i)
    v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

void MemorySystem::poke(uint32_t addr, uint32_t bytes, uint32_t value) {
  MemClass cls;
  uint8_t* p = flat(addr, bytes, cls);
  if (p == nullptr)
    throw SimulationError("poke at unmapped address " + std::to_string(addr));
  for (uint32_t i = 0; i < bytes; ++i)
    p[i] = static_cast<uint8_t>(value >> (8 * i));
}

} // namespace spmwcet::sim
