#include "alloc/knapsack.h"

#include <algorithm>

namespace spmwcet::alloc {

KnapsackResult solve_knapsack_dp(const std::vector<MemoryObject>& objects,
                                 uint32_t capacity_bytes) {
  std::vector<std::size_t> cand;
  uint64_t cand_bytes = 0;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    const MemoryObject& obj = objects[i];
    if (obj.benefit_nj <= 0.0 || obj.size_bytes > capacity_bytes) continue;
    cand.push_back(i);
    cand_bytes += obj.size_bytes;
  }

  KnapsackResult result;
  if (cand_bytes <= capacity_bytes) {
    result.chosen = std::move(cand);
  } else {
    // best[c] = max benefit within capacity c; bit c of row k records that
    // candidate k improved best[c] when it was added.
    const std::size_t cap = capacity_bytes;
    const std::size_t words = cap / 64 + 1;
    std::vector<double> best(cap + 1, 0.0);
    std::vector<uint64_t> keep(cand.size() * words, 0);
    for (std::size_t k = 0; k < cand.size(); ++k) {
      const MemoryObject& obj = objects[cand[k]];
      const std::size_t w = obj.size_bytes;
      const double b = obj.benefit_nj;
      uint64_t* row = keep.data() + k * words;
      for (std::size_t c = cap; c >= w; --c) {
        if (best[c - w] + b > best[c]) {
          best[c] = best[c - w] + b;
          row[c / 64] |= uint64_t{1} << (c % 64);
        }
        if (c == w) break;
      }
    }
    std::size_t c = cap;
    for (std::size_t k = cand.size(); k-- > 0;) {
      const uint64_t* row = keep.data() + k * words;
      if ((row[c / 64] >> (c % 64) & 1u) == 0) continue;
      result.chosen.push_back(cand[k]);
      c -= objects[cand[k]].size_bytes;
    }
    std::reverse(result.chosen.begin(), result.chosen.end());
  }
  for (const std::size_t i : result.chosen) {
    result.benefit_nj += objects[i].benefit_nj;
    result.used_bytes += objects[i].size_bytes;
  }
  return result;
}

} // namespace spmwcet::alloc
