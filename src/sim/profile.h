// Access profiling: per-memory-object access counts collected during
// simulation. This is the "detailed knowledge about execution and access
// frequencies" the paper's compiler uses to drive the knapsack allocation.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "link/image.h"

namespace spmwcet::sim {

/// Access counts for one memory object, bucketed by width (index = log2 of
/// the byte width: 0 -> byte, 1 -> halfword, 2 -> word).
struct AccessCounts {
  uint64_t fetch = 0; ///< 16-bit instruction fetches (functions only)
  uint64_t load[3] = {0, 0, 0};
  uint64_t store[3] = {0, 0, 0};

  uint64_t total() const {
    uint64_t n = fetch;
    for (int i = 0; i < 3; ++i) n += load[i] + store[i];
    return n;
  }
  void add_load(uint32_t bytes) { ++load[bytes == 4 ? 2 : (bytes == 2 ? 1 : 0)]; }
  void add_store(uint32_t bytes) {
    ++store[bytes == 4 ? 2 : (bytes == 2 ? 1 : 0)];
  }
  AccessCounts& operator+=(const AccessCounts& o) {
    fetch += o.fetch;
    for (int i = 0; i < 3; ++i) {
      load[i] += o.load[i];
      store[i] += o.store[i];
    }
    return *this;
  }
  friend bool operator==(const AccessCounts& a, const AccessCounts& b) {
    if (a.fetch != b.fetch) return false;
    for (int i = 0; i < 3; ++i)
      if (a.load[i] != b.load[i] || a.store[i] != b.store[i]) return false;
    return true;
  }
};

/// Profile of a whole run, keyed by symbol name. Accesses to the stack and
/// to anonymous addresses are accumulated separately; they are not
/// scratchpad-allocatable.
struct AccessProfile {
  std::map<std::string, AccessCounts> symbols;
  AccessCounts stack;
  AccessCounts other;

  const AccessCounts* find(const std::string& symbol) const {
    const auto it = symbols.find(symbol);
    return it == symbols.end() ? nullptr : &it->second;
  }

  friend bool operator==(const AccessProfile&, const AccessProfile&) = default;
};

/// Profile window below the initial stack pointer: a data access in
/// [initial_sp - kStackWindowBytes, initial_sp) that no symbol covers
/// counts as a stack access.
inline constexpr uint32_t kStackWindowBytes = 0x10000;

/// Sorted symbol-interval index for O(log n) address -> symbol resolution.
///
/// Every symbol owns a dense id in [0, size()); the simulator accumulates
/// AccessCounts in a vector indexed by id (plus stack/other slots) instead
/// of doing a string-map lookup per instruction, and folds the vector into
/// the name-keyed AccessProfile once at run() exit.
class SymbolIndex {
public:
  explicit SymbolIndex(const link::Image& img);

  /// Dense id of the symbol containing `addr`, or -1 if no symbol covers
  /// it (gaps between symbols, stack, unmapped space).
  int find_id(uint32_t addr) const;

  /// The symbol behind a dense id returned by find_id.
  const link::Symbol& symbol(int id) const { return *entries_[id].sym; }

  /// Number of indexed symbols (== one dense id per symbol).
  std::size_t size() const { return entries_.size(); }

  // Slot layout of the simulator's dense AccessCounts vector — the single
  // definition shared by its accumulation and the block table's
  // precomputed slots: one slot per symbol id, then the stack and "other"
  // slots (the stack slot takes symbol-free accesses in the
  // kStackWindowBytes window).
  uint32_t stack_slot() const { return static_cast<uint32_t>(size()); }
  uint32_t other_slot() const { return stack_slot() + 1; }
  uint32_t slot_count() const { return other_slot() + 1; }

  /// True iff any indexed symbol interval intersects [lo, hi). The block
  /// tier uses this to prove the profile stack window symbol-free, which
  /// lets stack accesses skip the find_id binary search exactly.
  bool intersects(uint32_t lo, uint32_t hi) const {
    for (const Entry& e : entries_)
      if (e.lo < hi && e.hi > lo) return true;
    return false;
  }

  /// Slot a fetch at `addr` accrues to: the containing function's id, or
  /// the shared "other" slot (non-function symbols and bare addresses).
  uint32_t fetch_slot(uint32_t addr) const {
    const int id = find_id(addr);
    return id >= 0 && entries_[id].sym->is_function
               ? static_cast<uint32_t>(id)
               : other_slot();
  }

  /// fetch_slot plus the half-open address range [lo, hi) over which that
  /// answer is constant — an ascending scan (the block compiler) does one
  /// binary search per symbol/gap run instead of one per instruction.
  uint32_t fetch_slot_span(uint32_t addr, uint32_t& lo, uint32_t& hi) const;

private:
  struct Entry {
    uint32_t lo;
    uint32_t hi;
    const link::Symbol* sym;
  };
  std::vector<Entry> entries_;
};

} // namespace spmwcet::sim
