// Thread-safe get-or-compute memoizer with per-entry once semantics.
//
// The single concurrency pattern behind both the workload registry and the
// harness's ArtifactCache: a mutex-guarded key → entry map where each entry
// is computed exactly once (concurrent first callers block until the one
// compute finishes; a throwing compute leaves the entry uncomputed so the
// next caller retries) and then shared immutably via shared_ptr. clear()
// drops the index only — values already handed out stay valid.
//
// An optional capacity bounds the index for resident services: when a new
// entry would push the index past the cap, the least-recently-used
// *computed* entry is evicted (entries still being computed are never
// candidates). A recency list holds the computed entries, so an insert or
// a hit costs O(1) beyond the index lookup. Eviction only forgets —
// outstanding shared_ptrs stay valid, and a later request for the evicted
// key simply recomputes.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace spmwcet::support {

/// Hit/miss counters shared by every Memoizer instantiation.
struct MemoStats {
  uint64_t hits = 0;      ///< served an already-computed value
  uint64_t misses = 0;    ///< ran the compute function
  uint64_t evictions = 0; ///< dropped an entry to respect the capacity
};

template <typename Key, typename Value>
class Memoizer {
public:
  using Stats = MemoStats;

  Memoizer() = default;
  /// `capacity` = maximum number of resident entries; 0 = unbounded.
  explicit Memoizer(std::size_t capacity) : capacity_(capacity) {}

  /// Returns the value for `key`, running `make` on first use.
  std::shared_ptr<const Value> get(const Key& key,
                                   const std::function<Value()>& make) {
    const std::shared_ptr<Entry> entry = entry_for(key);
    bool computed = false;
    try {
      std::call_once(entry->once, [&] {
        entry->value = std::make_shared<const Value>(make());
        entry->ready.store(true, std::memory_order_release);
        computed = true;
      });
    } catch (...) {
      // Forget the failed entry: it would otherwise linger uncomputed —
      // invisible to LRU eviction — so a stream of throwing keys could
      // crowd out every useful entry and then grow the index unboundedly.
      // Concurrent waiters still holding the Entry retry through its
      // once_flag as before; a waiter that succeeds re-indexes the entry
      // on its way out (and one that already succeeded is left alone).
      const std::lock_guard<std::mutex> lk(mu_);
      const auto it = entries_.find(key);
      if (it != entries_.end() && it->second == entry &&
          !entry->ready.load(std::memory_order_acquire))
        entries_.erase(it);
      throw;
    }
    const std::lock_guard<std::mutex> lk(mu_);
    if (computed) {
      ++stats_.misses;
      // A sibling whose earlier attempt threw may have detached this entry
      // (see the catch above) while we were still computing it; re-index
      // the success so it is served, not recomputed. A newer entry that
      // already took the key wins — latest insertion is authoritative.
      auto it = entries_.find(key);
      if (it == entries_.end()) {
        evict_overflow(/*reserve=*/1);
        it = entries_.emplace(key, entry).first;
      }
      if (it->second == entry) {
        recency_.push_front(it);
        entry->pos = recency_.begin();
        entry->listed = true;
      }
    } else {
      ++stats_.hits;
      // Unlisted: evicted or superseded while we waited; nothing to touch.
      if (entry->listed)
        recency_.splice(recency_.begin(), recency_, entry->pos);
    }
    return entry->value;
  }

  Stats stats() const {
    const std::lock_guard<std::mutex> lk(mu_);
    return stats_;
  }

  std::size_t size() const {
    const std::lock_guard<std::mutex> lk(mu_);
    return entries_.size();
  }

  /// Calls `fn` on every resident computed value. The values are collected
  /// under the index lock and visited after it is released.
  template <typename Fn> void for_each(Fn&& fn) const {
    std::vector<std::shared_ptr<const Value>> values;
    {
      const std::lock_guard<std::mutex> lk(mu_);
      for (const auto& [key, entry] : entries_)
        if (entry->ready.load(std::memory_order_acquire))
          values.push_back(entry->value);
    }
    for (const auto& v : values) fn(*v);
  }

  std::size_t capacity() const { return capacity_; }

  void clear() {
    const std::lock_guard<std::mutex> lk(mu_);
    // Entries may outlive the index in a caller's hands; unlist them so a
    // late hit does not touch the dropped recency list.
    for (const auto it : recency_) it->second->listed = false;
    recency_.clear();
    entries_.clear();
    stats_ = {};
  }

private:
  struct Entry;
  using Index = std::map<Key, std::shared_ptr<Entry>>;
  /// Computed, indexed entries, most recently used first.
  using Recency = std::list<typename Index::iterator>;

  struct Entry {
    std::once_flag once;
    std::shared_ptr<const Value> value;
    /// Published after `value` is written inside call_once, so a failed
    /// compute can tell whether a sibling succeeded meanwhile.
    std::atomic<bool> ready{false};
    /// Position in recency_ while `listed` (guarded by mu_).
    typename Recency::iterator pos;
    bool listed = false;
  };

  std::shared_ptr<Entry> entry_for(const Key& key) {
    const std::lock_guard<std::mutex> lk(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) return it->second;
    // Make room before inserting so the fresh (still-computing) entry can
    // never be its own eviction victim.
    evict_overflow(/*reserve=*/1);
    std::shared_ptr<Entry>& slot = entries_[key];
    slot = std::make_shared<Entry>();
    return slot;
  }

  /// Drops least-recently-used computed entries until the index (plus
  /// `reserve` slots about to be filled) respects the capacity; entries in
  /// flight are never listed, so they are never victims. Requires mu_.
  void evict_overflow(std::size_t reserve) {
    if (capacity_ == 0) return;
    while (entries_.size() + reserve > capacity_ && !recency_.empty()) {
      const typename Index::iterator victim = recency_.back();
      recency_.pop_back();
      victim->second->listed = false;
      entries_.erase(victim);
      ++stats_.evictions;
    }
  }

  mutable std::mutex mu_;
  Index entries_;
  Recency recency_;
  Stats stats_;
  const std::size_t capacity_ = 0;
};

} // namespace spmwcet::support
