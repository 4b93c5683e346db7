// Thread-safe get-or-compute memoizer with per-entry once semantics.
//
// The single concurrency pattern behind both the workload registry and the
// harness's ArtifactCache: a mutex-guarded key → entry map where each entry
// is computed exactly once (concurrent first callers block until the one
// compute finishes; a throwing compute leaves the entry uncomputed so the
// next caller retries) and then shared immutably via shared_ptr. clear()
// drops the index only — values already handed out stay valid.
//
// The once semantics are a per-entry running flag and condition variable
// under the index lock, not std::call_once: a throwing compute must wake
// its waiters so one of them retries, and std::call_once's waiters hang
// after a throw under ThreadSanitizer's pthread_once.
//
// An optional capacity bounds the index for resident services: when a new
// entry would push the index past the cap, the least-recently-used
// *computed* entry is evicted (entries still being computed are never
// candidates). A recency list holds the computed entries, so an insert or
// a hit costs O(1) beyond the index lookup. Eviction only forgets —
// outstanding shared_ptrs stay valid, and a later request for the evicted
// key simply recomputes.
//
// A producer that computes another memo's value as a by-product hands it in
// with insert_if_absent(), which never waits: an entry already indexed
// (computed, or still being computed by another caller) wins and the
// offered value is dropped. So a producer running inside one memo's compute
// never blocks on a second memo, and no lock order between memos arises.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace spmwcet::support {

/// Hit/miss counters shared by every Memoizer instantiation.
struct MemoStats {
  uint64_t hits = 0;      ///< served an already-computed value
  uint64_t misses = 0;    ///< ran the compute function
  uint64_t evictions = 0; ///< dropped an entry to respect the capacity
  uint64_t inserted = 0;  ///< entries handed in by insert_if_absent
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
    std::unique_lock<std::mutex> lk(mu_);
    const std::shared_ptr<Entry> entry = entry_for(key);
    // Wait out a compute in flight; after a failed one, the first waiter to
    // wake computes in its place.
    entry->done.wait(lk, [&] { return !entry->running; });
    if (entry->value) {
      ++stats_.hits;
      // Unlisted: evicted or superseded while we waited; nothing to touch.
      if (entry->listed)
        recency_.splice(recency_.begin(), recency_, entry->pos);
      return entry->value;
    }
    entry->running = true;
    lk.unlock();
    std::shared_ptr<const Value> value;
    try {
      value = std::make_shared<const Value>(make());
    } catch (...) {
      lk.lock();
      entry->running = false;
      entry->done.notify_all();
      // Forget the failed entry: it would otherwise linger uncomputed —
      // invisible to LRU eviction — so a stream of throwing keys could
      // crowd out every useful entry and then grow the index unboundedly.
      // Waiters still holding the Entry retry on it; one that succeeds
      // re-indexes it on its way out.
      const auto it = entries_.find(key);
      if (it != entries_.end() && it->second == entry) entries_.erase(it);
      throw;
    }
    lk.lock();
    entry->value = value;
    entry->running = false;
    entry->done.notify_all();
    ++stats_.misses;
    // A sibling whose earlier attempt threw may have detached this entry
    // (see the catch above) while we were still computing it; re-index the
    // success so it is served, not recomputed. A newer entry that already
    // took the key wins — latest insertion is authoritative.
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      evict_overflow(/*reserve=*/1);
      it = entries_.emplace(key, entry).first;
    }
    if (it->second == entry) list_first(it);
    return value;
  }

  /// True if the index holds an entry for `key`, computed or in flight.
  bool contains(const Key& key) const {
    const std::lock_guard<std::mutex> lk(mu_);
    return entries_.count(key) != 0;
  }

  /// Indexes `value` as the computed entry of `key` unless the index
  /// already holds an entry for it; never waits on a compute in flight.
  /// Returns whether the value was taken (counted as inserted, not as a
  /// miss).
  bool insert_if_absent(const Key& key, Value value) {
    const auto entry = std::make_shared<Entry>();
    entry->value = std::make_shared<const Value>(std::move(value));
    const std::lock_guard<std::mutex> lk(mu_);
    if (entries_.count(key) != 0) return false;
    evict_overflow(/*reserve=*/1);
    list_first(entries_.emplace(key, entry).first);
    ++stats_.inserted;
    return true;
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
        if (entry->value) values.push_back(entry->value);
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

  /// Every field is guarded by mu_.
  struct Entry {
    std::shared_ptr<const Value> value; ///< null until a compute succeeds
    /// A caller is computing the value; `done` wakes the callers waiting
    /// on it when it succeeds or throws.
    bool running = false;
    std::condition_variable done;
    /// Position in recency_ while `listed`.
    typename Recency::iterator pos;
    bool listed = false;
  };

  /// The indexed entry of `key`, or a fresh one indexed for it. Requires
  /// mu_.
  std::shared_ptr<Entry> entry_for(const Key& key) {
    const auto it = entries_.find(key);
    if (it != entries_.end()) return it->second;
    // Make room before inserting so the fresh (still-computing) entry can
    // never be its own eviction victim.
    evict_overflow(/*reserve=*/1);
    std::shared_ptr<Entry>& slot = entries_[key];
    slot = std::make_shared<Entry>();
    return slot;
  }

  /// Lists the computed entry at `it` as the most recently used. Requires
  /// mu_.
  void list_first(typename Index::iterator it) {
    recency_.push_front(it);
    it->second->pos = recency_.begin();
    it->second->listed = true;
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
