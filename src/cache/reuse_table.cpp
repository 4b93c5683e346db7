#include "cache/reuse_table.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <string>

#include "isa/timing.h"
#include "support/diag.h"

namespace spmwcet::cache {

namespace {

constexpr uint32_t kMaxBits = ReuseHistogram::kLevels - 1; // 2^16 lines

/// Bits of the largest main-memory line `regions` maps: every line a run
/// reports lies below 2^bits.
uint32_t main_line_bits(const link::RegionMap& regions) {
  uint32_t end = 0; // one past the last main-memory line
  for (const link::Region& r : regions.regions())
    if (link::mem_class(r.kind) == isa::MemClass::MainMemory && r.hi > r.lo)
      end = std::max(end, (r.hi - 1) / ReuseTable::kLineBytes + 1);
  return end == 0 ? 0 : static_cast<uint32_t>(std::bit_width(end - 1));
}

} // namespace

ForestRecorder::ForestRecorder(uint32_t assoc, uint32_t line_bits)
    : assoc_(assoc), line_bits_(line_bits) {
  SPMWCET_CHECK(is_pow2(assoc) && assoc <= (1u << kMaxBits) &&
                line_bits <= 28);
  const uint32_t a = log2_pow2(assoc);
  const uint32_t top = kMaxBits - a; // the finest covered level
  // From this level on each set holds at most `assoc` distinct lines.
  const uint32_t settled = line_bits > a ? line_bits - a : 0;
  end8_ = std::min(settled, top + 1);
  // Level k's tags take line_bits - k bits; each width keeps all-ones free.
  end32_ = std::min(end8_, line_bits > 15 ? line_bits - 15 : 0);
  end16_ = std::min(end8_, line_bits > 7 ? line_bits - 7 : 0);
  std::size_t n32 = 0, n16 = 0, n8 = 0;
  for (uint32_t k = 0; k < end8_; ++k) {
    std::size_t& n = k < end32_ ? n32 : k < end16_ ? n16 : n8;
    offset_[k] = static_cast<uint32_t>(n);
    n += (std::size_t{1} << k) * assoc;
  }
  tags32_.assign(n32, std::numeric_limits<uint32_t>::max());
  tags16_.assign(n16, std::numeric_limits<uint16_t>::max());
  tags8_.assign(n8, std::numeric_limits<uint8_t>::max());
  if (settled <= top)
    seen_.assign(((std::size_t{1} << line_bits) + 63) / 64, 0);
}

std::size_t ForestRecorder::footprint_bytes() const {
  return tags32_.size() * sizeof(uint32_t) +
         tags16_.size() * sizeof(uint16_t) + tags8_.size() +
         seen_.size() * sizeof(uint64_t);
}

/// Levels [k, end) of one tag width: moves `line` to the front of its set,
/// noting the first level that held it. True when it stopped at a level
/// where the line already was the MRU (and so is at every finer level).
template <typename Tag>
bool ForestRecorder::descend_levels(std::vector<Tag>& tags, uint32_t end,
                                    uint32_t line, uint32_t& k, int& first) {
  constexpr Tag kEmpty = std::numeric_limits<Tag>::max();
  Tag* const base = tags.data();
  const uint32_t ways = assoc_;
  for (; k < end; ++k) {
    Tag* set = base + offset_[k] + (line & ((1u << k) - 1)) * ways;
    const Tag tag = static_cast<Tag>(line >> k);
    Tag moved = set[0];
    if (moved == tag) {
      if (first < 0) first = static_cast<int>(k);
      return true;
    }
    set[0] = tag;
    // Carry each way down one until the line's old way, the first empty
    // way, or (a miss in a full set) off the LRU end.
    for (uint32_t w = 1; w < ways && moved != kEmpty; ++w) {
      const Tag next = set[w];
      set[w] = moved;
      if (next == tag) {
        if (first < 0) first = static_cast<int>(k);
        break;
      }
      moved = next;
    }
  }
  return false;
}

void ForestRecorder::descend(uint32_t line) {
  SPMWCET_CHECK(line >> line_bits_ == 0);
  mru_ = line;
  uint32_t k = 0;
  int first = -1; // the first level whose set held the line
  const bool stopped = descend_levels(tags32_, end32_, line, k, first) ||
                       descend_levels(tags16_, end16_, line, k, first) ||
                       descend_levels(tags8_, end8_, line, k, first);
  if (!stopped && !seen_.empty()) {
    uint64_t& word = seen_[line / 64];
    const uint64_t bit = uint64_t{1} << (line % 64);
    if (first < 0 && (word & bit) != 0) first = static_cast<int>(end8_);
    word |= bit;
  }
  if (first < 0)
    ++hist_.misses;
  else
    ++hist_.first_hit[static_cast<uint32_t>(first)];
}

ReuseTable::Builder::Builder(const link::RegionMap& regions, bool unified,
                             uint32_t assoc)
    : unified_(unified), assoc_(assoc),
      forest_(assoc, main_line_bits(regions)) {}

ReuseTable ReuseTable::Builder::finish(uint64_t uncached_cycles) const {
  const uint64_t replaced =
      fetches_ * isa::MemTiming::main_memory(2) + load_cycles_;
  SPMWCET_CHECK(replaced <= uncached_cycles);
  ReuseTable t;
  t.hist_ = forest_.histogram();
  t.base_ = uncached_cycles - replaced;
  t.unified_ = unified_;
  t.assoc_ = assoc_;
  return t;
}

bool ReuseTable::supports(const CacheConfig& cfg) {
  return is_pow2(cfg.size_bytes) && is_pow2(cfg.assoc) &&
         cfg.line_bytes == kLineBytes &&
         static_cast<uint64_t>(cfg.assoc) * kLineBytes <= cfg.size_bytes &&
         cfg.num_lines() <= (1u << kMaxBits);
}

ReuseTable::Outcome ReuseTable::lookup(const CacheConfig& cfg) const {
  if (!supports(cfg))
    throw Error("reuse table: unsupported cache geometry (" +
                std::to_string(cfg.size_bytes) + " B, " +
                std::to_string(cfg.line_bytes) + " B lines, " +
                std::to_string(cfg.assoc) + " ways)");
  if (cfg.unified != unified_)
    throw Error(std::string("reuse table: recorded for ") +
                (unified_ ? "a unified" : "an instruction-only") + " cache");
  if (cfg.assoc != assoc_)
    throw Error("reuse table: recorded for " + std::to_string(assoc_) +
                " ways, asked for " + std::to_string(cfg.assoc));
  Outcome o;
  o.hits = hist_.hits(log2_pow2(cfg.num_sets()));
  o.misses = hist_.accesses() - o.hits;
  o.cycles = base_ + o.hits * isa::MemTiming::cache_hit() +
             o.misses * isa::MemTiming::cache_miss(kLineBytes);
  return o;
}

} // namespace spmwcet::cache
