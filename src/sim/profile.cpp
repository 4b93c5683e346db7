#include "sim/profile.h"

#include <algorithm>

namespace spmwcet::sim {

SymbolIndex::SymbolIndex(const link::Image& img) {
  entries_.reserve(img.symbols.size());
  for (const auto& s : img.symbols)
    entries_.push_back(Entry{s.addr, s.addr + s.size, &s});
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) { return a.lo < b.lo; });
}

int SymbolIndex::find_id(uint32_t addr) const {
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), addr,
      [](uint32_t a, const Entry& e) { return a < e.lo; });
  if (it == entries_.begin()) return -1;
  --it;
  return addr < it->hi ? static_cast<int>(it - entries_.begin()) : -1;
}

uint32_t SymbolIndex::fetch_slot_span(uint32_t addr, uint32_t& lo,
                                      uint32_t& hi) const {
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), addr,
      [](uint32_t a, const Entry& e) { return a < e.lo; });
  // A later entry starting inside the current answer's range would change
  // the lookup result there (upper_bound - 1 picks the largest lo <= addr),
  // so every window is also clamped at the next entry's lo.
  const uint32_t next_lo = it == entries_.end() ? UINT32_MAX : it->lo;
  if (it != entries_.begin() && addr < (it - 1)->hi) {
    --it;
    lo = it->lo;
    hi = it->hi < next_lo ? it->hi : next_lo;
    return it->sym->is_function ? static_cast<uint32_t>(it - entries_.begin())
                                : other_slot();
  }
  // In a gap (or before/after all symbols): "other" until the next symbol.
  lo = it == entries_.begin() ? 0 : (it - 1)->hi;
  hi = next_lo;
  return other_slot();
}

} // namespace spmwcet::sim
