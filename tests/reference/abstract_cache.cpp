#include "reference/abstract_cache.h"

#include <algorithm>

namespace spmwcet::cache {

namespace {

/// Applies `fn(set)` to every set a one-line access within
/// [line_lo, line_hi] could touch.
template <typename F>
void for_each_touched_set(const CacheConfig& cfg, uint32_t line_lo,
                          uint32_t line_hi, F&& fn) {
  const uint32_t nsets = cfg.num_sets();
  if (line_hi - line_lo + 1 >= nsets) {
    for (uint32_t s = 0; s < nsets; ++s) fn(s);
    return;
  }
  for (uint32_t line = line_lo; line <= line_hi; ++line)
    fn(cfg.set_of_line(line));
}

} // namespace

// ---- MustCache -------------------------------------------------------------

MustCache::MustCache(const CacheConfig& cfg) : cfg_(cfg) {
  cfg_.validate();
  sets_.resize(cfg_.num_sets());
}

bool MustCache::contains_line(uint32_t line) const {
  const auto& s = sets_[cfg_.set_of_line(line)];
  return s.find(cfg_.tag_of_line(line)) != s.end();
}

void MustCache::age_set(uint32_t set) {
  auto& s = sets_[set];
  for (auto it = s.begin(); it != s.end();) {
    if (++it->second >= cfg_.assoc)
      it = s.erase(it);
    else
      ++it;
  }
}

void MustCache::access_line(uint32_t line) {
  const uint32_t set = cfg_.set_of_line(line);
  const uint32_t tag = cfg_.tag_of_line(line);
  auto& s = sets_[set];
  const auto hit = s.find(tag);
  if (hit != s.end()) {
    // LRU must update: lines younger than the accessed one age by 1.
    const uint8_t a = hit->second;
    for (auto& [t, age] : s)
      if (age < a) ++age;
  } else {
    age_set(set);
  }
  s[tag] = 0;
}

void MustCache::access_line_range(uint32_t line_lo, uint32_t line_hi) {
  for_each_touched_set(cfg_, line_lo, line_hi,
                       [this](uint32_t set) { age_set(set); });
}

void MustCache::join_with(const MustCache& other) {
  SPMWCET_CHECK(cfg_ == other.cfg_);
  for (uint32_t set = 0; set < sets_.size(); ++set) {
    auto& a = sets_[set];
    const auto& b = other.sets_[set];
    for (auto it = a.begin(); it != a.end();) {
      const auto bo = b.find(it->first);
      if (bo == b.end()) {
        it = a.erase(it);
      } else {
        it->second = std::max(it->second, bo->second);
        ++it;
      }
    }
  }
}

std::size_t MustCache::resident_count() const {
  std::size_t n = 0;
  for (const auto& s : sets_) n += s.size();
  return n;
}

// ---- PersistenceCache --------------------------------------------------------

PersistenceCache::PersistenceCache(const CacheConfig& cfg) : cfg_(cfg) {
  cfg_.validate();
  sets_.resize(cfg_.num_sets());
}

bool PersistenceCache::persistent_line(uint32_t line) const {
  const auto& s = sets_[cfg_.set_of_line(line)];
  const auto it = s.find(cfg_.tag_of_line(line));
  return it != s.end() && it->second < cfg_.assoc;
}

void PersistenceCache::age_set(uint32_t set) {
  auto& s = sets_[set];
  for (auto& [tag, age] : s)
    age = static_cast<uint8_t>(
        std::min<uint32_t>(age + 1, cfg_.assoc)); // saturate at "evicted"
}

void PersistenceCache::access_line(uint32_t line) {
  const uint32_t set = cfg_.set_of_line(line);
  const uint32_t tag = cfg_.tag_of_line(line);
  auto& s = sets_[set];
  const auto hit = s.find(tag);
  if (hit != s.end() && hit->second < cfg_.assoc) {
    // Lines possibly younger than the accessed one may age.
    const uint8_t a = hit->second;
    for (auto& [t, age] : s)
      if (t != tag && age < a)
        age = static_cast<uint8_t>(std::min<uint32_t>(age + 1, cfg_.assoc));
    hit->second = 0;
  } else {
    // Miss (or possibly-evicted): everyone else may age. Crucially, the
    // "evicted" mark is sticky — persistence asks whether the line can
    // have been evicted at ANY point in the scope, so a reload must not
    // clear it.
    const bool was_evicted = hit != s.end() && hit->second >= cfg_.assoc;
    age_set(set);
    s[tag] = was_evicted ? static_cast<uint8_t>(cfg_.assoc) : 0;
  }
}

void PersistenceCache::access_line_range(uint32_t line_lo, uint32_t line_hi) {
  for_each_touched_set(cfg_, line_lo, line_hi,
                       [this](uint32_t set) { age_set(set); });
  // The accessed (unknown) line itself becomes possibly-present at unknown
  // age; recording nothing is sound (it will simply not be persistent).
}

void PersistenceCache::join_with(const PersistenceCache& other) {
  SPMWCET_CHECK(cfg_ == other.cfg_);
  for (uint32_t set = 0; set < sets_.size(); ++set) {
    auto& a = sets_[set];
    for (const auto& [tag, age] : other.sets_[set]) {
      const auto it = a.find(tag);
      if (it == a.end())
        a.emplace(tag, age);
      else
        it->second = std::max(it->second, age);
    }
  }
}

} // namespace spmwcet::cache
