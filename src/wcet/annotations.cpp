#include "wcet/annotations.h"

#include "support/diag.h"

namespace spmwcet::wcet {

Annotations Annotations::from_image(const link::Image& img) {
  Annotations a;
  a.loop_bounds_ = img.loop_bounds;
  a.loop_totals_ = img.loop_totals;
  for (const auto& [addr, symbol] : img.access_hints) {
    const link::Symbol* sym = img.find_symbol(symbol);
    if (sym == nullptr)
      throw AnnotationError("annotation references unknown symbol " + symbol);
    a.access_ranges_[addr] = AccessRange{sym->addr, sym->addr + sym->size - 1};
  }
  return a;
}

void Annotations::set_loop_bound(uint32_t header_addr, int64_t bound) {
  SPMWCET_CHECK_MSG(bound >= 0, "negative loop bound");
  loop_bounds_[header_addr] = bound;
}

void Annotations::set_access_range(uint32_t instr_addr, uint32_t lo,
                                   uint32_t hi) {
  SPMWCET_CHECK_MSG(lo <= hi, "empty access range");
  access_ranges_[instr_addr] = AccessRange{lo, hi};
}

void Annotations::set_loop_total(uint32_t header_addr, int64_t total) {
  SPMWCET_CHECK_MSG(total >= 0, "negative loop total");
  loop_totals_[header_addr] = total;
}

void Annotations::copy_loop_facts(uint32_t lo, uint32_t hi, uint32_t delta,
                                  Annotations& out) const {
  const auto copy = [&](const std::map<uint32_t, int64_t>& from,
                        std::map<uint32_t, int64_t>& to) {
    for (auto it = from.lower_bound(lo); it != from.end() && it->first < hi;
         ++it)
      to.emplace_hint(to.end(), it->first + delta, it->second);
  };
  copy(loop_bounds_, out.loop_bounds_);
  copy(loop_totals_, out.loop_totals_);
}

std::optional<int64_t> Annotations::loop_bound(uint32_t header_addr) const {
  const auto it = loop_bounds_.find(header_addr);
  if (it == loop_bounds_.end()) return std::nullopt;
  return it->second;
}

std::optional<int64_t> Annotations::loop_total(uint32_t header_addr) const {
  const auto it = loop_totals_.find(header_addr);
  if (it == loop_totals_.end()) return std::nullopt;
  return it->second;
}

std::optional<AccessRange> Annotations::access_range(
    uint32_t instr_addr) const {
  const auto it = access_ranges_.find(instr_addr);
  if (it == access_ranges_.end()) return std::nullopt;
  return it->second;
}

} // namespace spmwcet::wcet
