// Map-based abstract cache domains for static WCET analysis, after
// Ferdinand & Wilhelm: MUST (underapproximation of cache contents —
// membership proves a hit) and PERSISTENCE (a line, once loaded, is never
// evicted within a scope — at most one miss). One std::map per cache set.
//
// Test oracle only: the production analysis (wcet/cache_analysis.h) runs
// the same transfer functions over flat states, and the reference map
// analysis (reference/map_cache_analysis.h) built on these domains is
// compared with it site for site.
//
// All domains work on memory line indices (addr / line_bytes) and support
// the unknown-address access (an interval of possible lines), which is how
// data accesses with annotated address ranges enter the analysis.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "cache/geometry.h"

namespace spmwcet::cache {

/// MUST abstract cache: per set, tags guaranteed resident with an upper
/// bound on their LRU age. Join is intersection with maximum age. The
/// initial (entry) state is empty: nothing is guaranteed.
class MustCache {
public:
  explicit MustCache(const CacheConfig& cfg);

  const CacheConfig& config() const { return cfg_; }

  /// True if the line is guaranteed in cache (access would surely hit).
  bool contains_line(uint32_t line) const;
  bool contains_addr(uint32_t addr) const {
    return contains_line(cfg_.line_of(addr));
  }

  /// Transfer function for an access to a known line.
  void access_line(uint32_t line);

  /// Transfer function for an access to exactly one unknown line within
  /// [line_lo, line_hi] (inclusive): every possibly-touched set ages.
  void access_line_range(uint32_t line_lo, uint32_t line_hi);

  /// Lattice join (control-flow merge): intersection, maximum age.
  void join_with(const MustCache& other);

  /// Number of guaranteed-resident lines (diagnostics).
  std::size_t resident_count() const;

  bool operator==(const MustCache& other) const {
    return sets_ == other.sets_;
  }

private:
  void age_set(uint32_t set);

  CacheConfig cfg_;
  /// sets_[s]: tag -> age upper bound in [0, assoc).
  std::vector<std::map<uint32_t, uint8_t>> sets_;
};

/// PERSISTENCE abstract cache: per set, tags with the maximum age they can
/// reach within the current scope; age == assoc means "may be evicted".
/// A line that stays below assoc suffers at most one miss in the scope.
class PersistenceCache {
public:
  explicit PersistenceCache(const CacheConfig& cfg);

  /// True if, once loaded, the line cannot have been evicted again.
  bool persistent_line(uint32_t line) const;
  bool persistent_addr(uint32_t addr) const {
    return persistent_line(cfg_.line_of(addr));
  }

  void access_line(uint32_t line);
  void access_line_range(uint32_t line_lo, uint32_t line_hi);
  void join_with(const PersistenceCache& other);

  bool operator==(const PersistenceCache& other) const {
    return sets_ == other.sets_;
  }

private:
  void age_set(uint32_t set);

  CacheConfig cfg_;
  /// sets_[s]: tag -> maximum age in [0, assoc]; assoc = possibly evicted.
  std::vector<std::map<uint32_t, uint8_t>> sets_;
};

} // namespace spmwcet::cache
