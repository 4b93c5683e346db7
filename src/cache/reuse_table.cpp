#include "cache/reuse_table.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

#include "isa/timing.h"
#include "support/diag.h"

namespace spmwcet::cache {

namespace {

constexpr uint32_t kLevels = ReuseHistogram::kLevels;
constexpr uint32_t kMaxBits = kLevels - 1; // 2^16 sets/ways

// The walk counts the lines it passes per level in one register of 4-bit
// lanes: passing line y adds kUnary[ctz(x ^ y)], which holds a one in
// nibble k-1 for every level 1 <= k <= min(ctz, 16) (level 0 is the walk
// depth itself). So the hot loop does one table load and one add per line
// and carries no dependency through memory. A nibble holds 15 counts:
// longer walks fold the nibbles into byte lanes every kNibbleRun lines and
// the bytes into 32-bit counts before any byte can overflow.
//
// Why lanes: the first cache point of a workload pays for its observed run,
// and that must stay within 1.5x of one FunctionalCache simulation. On
// G.721 (release build, 4-core Xeon, best of 15) the simulation takes about
// 9.1 ms and the observed run with this walk about 12.5 ms (1.4x). A plain
// loop adding 1 to d[1..min(ctz, 16)] per line took about 42 ms (4.6x) and
// raised paper-eval latency_ms_p99 from about 12 to 30 ms; counting lines
// per ctz and taking suffix sums took about 15 ms (1.65x).
constexpr std::array<uint64_t, 33> make_unary() {
  std::array<uint64_t, 33> t{};
  for (uint32_t l = 0; l < t.size(); ++l)
    for (uint32_t k = 1; k <= std::min(l, kMaxBits); ++k)
      t[l] |= uint64_t{1} << (4 * (k - 1));
  return t;
}

/// Indexed by std::countr_zero of a nonzero uint32 (0..31).
constexpr std::array<uint64_t, 33> kUnary = make_unary();
constexpr std::size_t kNibbleRun = 15;
constexpr std::size_t kByteCapacity = 255;
constexpr uint64_t kLowNibbles = 0x0F0F0F0F0F0F0F0FULL;

} // namespace

uint64_t ReuseHistogram::accesses() const {
  // Every warm reference lands at level 0 exactly once: either as an
  // immediate re-reference or in a distance class.
  uint64_t n = cold_ + first_zero_[0];
  for (const uint64_t c : by_class_[0]) n += c;
  return n;
}

uint64_t ReuseHistogram::hits(uint32_t set_bits, uint32_t way_bits) const {
  SPMWCET_CHECK(set_bits <= kMaxBits && way_bits <= kMaxBits);
  uint64_t h = 0;
  for (uint32_t k = 0; k <= set_bits; ++k) h += first_zero_[k];
  for (uint32_t b = 1; b <= way_bits; ++b) h += by_class_[set_bits][b];
  return h;
}

void StackDistanceRecorder::walk(uint32_t x) {
  const uint32_t* s = stack_.data();
  const std::size_t n = stack_.size();
  // Scans s[i, end) up to x, returning the nibble sum of the lines passed.
  const auto scan = [&](std::size_t& i, std::size_t end) {
    uint64_t nib = 0;
    for (; i < end; ++i) {
      const uint32_t y = s[i];
      if (y == x) break;
      nib += kUnary[std::countr_zero(x ^ y)];
    }
    return nib;
  };
  // d[k] = lines passed at level k, where d[0] is the walk depth.
  std::array<uint32_t, kLevels> d;
  std::size_t i = 0;
  const std::size_t first_end = std::min(n, kNibbleRun);
  const uint64_t first = scan(i, first_end);
  bool found = i < first_end;
  if (found) {
    // Most walks end within one nibble run.
    for (uint32_t k = 1; k < kLevels; ++k)
      d[k] = static_cast<uint32_t>(first >> (4 * (k - 1))) & 0xfu;
  } else if (i < n) {
    d.fill(0);
    uint64_t odd = first & kLowNibbles; // byte j: level 2j+1
    uint64_t even = (first >> 4) & kLowNibbles; // byte j: level 2j+2
    std::size_t in_bytes = kNibbleRun;
    for (;;) {
      const std::size_t end = std::min(n, i + kNibbleRun);
      const uint64_t nib = scan(i, end);
      odd += nib & kLowNibbles;
      even += (nib >> 4) & kLowNibbles;
      in_bytes += kNibbleRun;
      found = i < end;
      const bool done = found || i == n;
      if (done || in_bytes + kNibbleRun > kByteCapacity) {
        for (uint32_t j = 0; j < 8; ++j) {
          d[2 * j + 1] += static_cast<uint32_t>(odd >> (8 * j)) & 0xffu;
          d[2 * j + 2] += static_cast<uint32_t>(even >> (8 * j)) & 0xffu;
        }
        odd = even = 0;
        in_bytes = 0;
      }
      if (done) break;
    }
  }
  if (!found) {
    stack_.insert(stack_.begin(), x);
    ++hist_.cold_;
    return;
  }
  std::memmove(stack_.data() + 1, stack_.data(), i * sizeof(uint32_t));
  stack_.front() = x;
  // d[k] never grows with k, so the first zero ends the record.
  d[0] = static_cast<uint32_t>(i);
  for (uint32_t k = 0; k < kLevels; ++k) {
    if (d[k] == 0) {
      ++hist_.first_zero_[k];
      return;
    }
    ++hist_.by_class_[k][std::min<uint32_t>(std::bit_width(d[k]),
                                            ReuseHistogram::kClasses - 1)];
  }
}

ReuseTable ReuseTable::Builder::finish(uint64_t uncached_cycles) const {
  const uint64_t replaced =
      fetches_ * isa::MemTiming::main_memory(2) + load_cycles_;
  SPMWCET_CHECK(replaced <= uncached_cycles);
  ReuseTable t;
  t.hist_ = stack_.histogram();
  t.base_ = uncached_cycles - replaced;
  t.unified_ = unified_;
  return t;
}

bool ReuseTable::supports(const CacheConfig& cfg) {
  return is_pow2(cfg.size_bytes) && is_pow2(cfg.assoc) &&
         cfg.line_bytes == kLineBytes &&
         static_cast<uint64_t>(cfg.assoc) * kLineBytes <= cfg.size_bytes &&
         cfg.num_sets() <= (1u << kMaxBits) && cfg.assoc <= (1u << kMaxBits);
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
  Outcome o;
  o.hits = hist_.hits(log2_pow2(cfg.num_sets()), log2_pow2(cfg.assoc));
  o.misses = hist_.accesses() - o.hits;
  o.cycles = base_ + o.hits * isa::MemTiming::cache_hit() +
             o.misses * isa::MemTiming::cache_miss(kLineBytes);
  return o;
}

} // namespace spmwcet::cache
