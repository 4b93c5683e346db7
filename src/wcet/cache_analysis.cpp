#include "wcet/cache_analysis.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <vector>

#include "isa/timing.h"
#include "support/bitops.h"
#include "support/diag.h"

namespace spmwcet::wcet {

using isa::MemClass;

namespace {

std::atomic<uint64_t> g_flat_must_runs{0};
std::atomic<uint64_t> g_flat_persistence_runs{0};

/// The analyses read each instruction's MemFacts; a CFG that never went
/// through resolve_memory would silently look like code with no data
/// accesses and every fetch in main memory.
void require_resolved(const std::map<uint32_t, Cfg>& cfgs) {
  for (const auto& [faddr, cfg] : cfgs)
    SPMWCET_CHECK_MSG(cfg.mem_resolved,
                      "cache analysis: memory facts of " + cfg.name +
                          " were never resolved (resolve_memory)");
}

// ---- sparse MUST + dense persistence ---------------------------------------
//
// The abstract semantics of the map-based domains in the test reference
// (tests/reference/abstract_cache.h), but a program point's state costs
// what it holds instead of one std::map per cache set:
//  * MUST: one sorted vector of the live (set, tag, age) entries, packed as
//    uint64 — set in the top bits, then tag, age in the low 32 — so set
//    order, then tag order, is numeric order. Copy, join (a sorted
//    intersection with max age), equality and aging all cost the live
//    lines, not num_sets × assoc slots. Aging every set an access may touch
//    (a range, the stack window, an unknown address) is one pass over the
//    live entries: the touched sets form one cyclic window, and aging a
//    set k times is adding k to each age.
//  * persistence: the map domain's tag → age map is unbounded per set (ages
//    saturate at "may be evicted" instead of evicting), but only exact-line
//    accesses ever *insert* a tag, so the reachable tag universe is exactly
//    the program's exact-access lines and can be precomputed. The state is
//    then one byte per (set, tag) slot — 0 = absent, v in [1, assoc+1] =
//    present at age v-1 (assoc = "may be evicted") — a totally ordered
//    per-slot lattice whose union-with-max join is an elementwise max.
// Node identity is dense (per-function block-id offsets) instead of a
// std::map of (func, block) pairs, and classification runs fused with the
// transfer it observes (no per-instruction state copy), writing each
// outcome into its site byte. Both domains are finite and the transfer
// functions mirror the map ones operation for operation, so the worklist
// converges to the same unique fixpoint and the classification comes out
// identical.

class FlatCacheAnalyzer {
public:
  FlatCacheAnalyzer(const link::Image& img, const std::map<uint32_t, Cfg>& cfgs,
                    uint32_t root, const CacheAnalysisConfig& cfg)
      : img_(img), cfgs_(cfgs), root_(root), cfg_(cfg) {
    cfg_.cache.validate();
    require_resolved(cfgs_);
    stack_lo_ = img.initial_sp - cfg_.stack_window;
    nsets_ = cfg_.cache.num_sets();
    assoc_ = cfg_.cache.assoc;
    line_shift_ = log2_pow2(cfg_.cache.line_bytes);
    set_bits_ = log2_pow2(nsets_);
    // Lines of 32-bit addresses have 32 - line_shift bits: set_bits of set
    // and the rest tag, packed above the 32-bit age.
    set_shift_ = 32 + (32 - line_shift_ - set_bits_);
    build_nodes();
    if (cfg_.with_persistence) build_pers_slots();
  }

  SiteClassification run() {
    fixpoint();
    return classify();
  }

private:
  struct State {
    std::vector<uint64_t> must; // sorted live entries
    std::vector<uint8_t> pers;  // empty unless with_persistence
  };
  static constexpr uint64_t kAgeMask = 0xffffffffu;

  // ---- geometry (shifts and masks; every size is a power of two) ----------

  uint32_t line_of(uint32_t addr) const { return addr >> line_shift_; }
  uint32_t set_of_line(uint32_t line) const { return line & (nsets_ - 1); }
  uint32_t tag_of_line(uint32_t line) const { return line >> set_bits_; }
  /// The MUST entry of `line` at age 0.
  uint64_t entry_of(uint32_t line) const {
    return (static_cast<uint64_t>(set_of_line(line)) << set_shift_) |
           (static_cast<uint64_t>(tag_of_line(line)) << 32);
  }
  uint32_t set_of_entry(uint64_t e) const {
    return static_cast<uint32_t>(e >> set_shift_);
  }

  // ---- dense supergraph -----------------------------------------------------

  void build_nodes() {
    uint32_t site = 0;
    for (const auto& [faddr, cfg] : cfgs_) {
      func_base_[faddr] = static_cast<uint32_t>(node_block_.size());
      for (const auto& b : cfg.blocks) {
        node_block_.push_back(&b);
        node_site_.push_back(site);
        site += static_cast<uint32_t>(b.instrs.size());
      }
    }
    num_sites_ = site;
    succs_.resize(node_block_.size());
    std::map<uint32_t, std::vector<uint32_t>> returns_to;
    for (const auto& [faddr, cfg] : cfgs_) {
      const uint32_t base = func_base_.at(faddr);
      for (const auto& b : cfg.blocks) {
        auto& succ = succs_[base + static_cast<uint32_t>(b.id)];
        if (b.call_target) {
          SPMWCET_CHECK(cfgs_.count(*b.call_target) != 0);
          succ.push_back(func_base_.at(*b.call_target));
          int cont = -1;
          for (const int e : b.out_edges)
            if (cfg.edges[static_cast<std::size_t>(e)].kind ==
                EdgeKind::CallCont)
              cont = cfg.edges[static_cast<std::size_t>(e)].to;
          SPMWCET_CHECK(cont >= 0);
          returns_to[*b.call_target].push_back(base +
                                               static_cast<uint32_t>(cont));
        } else {
          for (const int e : b.out_edges)
            succ.push_back(base + static_cast<uint32_t>(
                                      cfg.edges[static_cast<std::size_t>(e)].to));
        }
      }
    }
    for (const auto& [faddr, cfg] : cfgs_) {
      const auto rt = returns_to.find(faddr);
      if (rt == returns_to.end()) continue;
      const uint32_t base = func_base_.at(faddr);
      for (const auto& b : cfg.blocks) {
        if (!b.is_exit) continue;
        auto& succ = succs_[base + static_cast<uint32_t>(b.id)];
        for (const uint32_t cont : rt->second) succ.push_back(cont);
      }
    }
  }

  // ---- flat persistence slot universe --------------------------------------

  /// Enumerates every line the transfer functions can pass to
  /// pers_access_line — non-SPM fetch lines plus exact non-SPM unified
  /// loads, exactly the access_line call sites in transfer_instr — and lays
  /// them out as one byte slot each, grouped by set and tag-sorted within a
  /// set so lookups are a binary search in the line's set segment.
  void build_pers_slots() {
    std::vector<uint64_t> keys; // (set << 32) | tag
    auto add_line = [&](uint32_t line) {
      keys.push_back((static_cast<uint64_t>(set_of_line(line)) << 32) |
                     tag_of_line(line));
    };
    for (const auto& [faddr, cfg] : cfgs_) {
      for (const auto& b : cfg.blocks) {
        for (const CfgInstr& ci : b.instrs) {
          if (!ci.mem.fetch_spm) {
            add_line(line_of(ci.addr));
            if (ci.size == 4) add_line(line_of(ci.addr + 2));
          }
          if (!ci.mem.has_access) continue;
          const AddrInfo& info = ci.mem.access;
          if (cfg_.cache.unified && !info.is_store &&
              info.kind == AddrInfo::Kind::Exact &&
              ci.mem.exact_class() != MemClass::Scratchpad)
            add_line(line_of(info.lo));
        }
      }
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    pers_tags_.reserve(keys.size());
    pers_set_start_.assign(nsets_ + 1, 0);
    for (const uint64_t key : keys) {
      pers_set_start_[static_cast<std::size_t>(key >> 32) + 1]++;
      pers_tags_.push_back(static_cast<uint32_t>(key));
    }
    for (uint32_t s = 0; s < nsets_; ++s)
      pers_set_start_[s + 1] += pers_set_start_[s];
    // Ages saturate at assoc ("may be evicted"), stored as 1 + age.
    SPMWCET_CHECK_MSG(assoc_ + 1 <= 0xff,
                      "flat persistence: associativity too large");
  }

  uint32_t pers_slot_of(uint32_t line) const {
    const uint32_t set = set_of_line(line);
    const uint32_t tag = tag_of_line(line);
    const auto first = pers_tags_.begin() + pers_set_start_[set];
    const auto last = pers_tags_.begin() + pers_set_start_[set + 1];
    const auto it = std::lower_bound(first, last, tag);
    SPMWCET_CHECK(it != last && *it == tag); // universe covers all call sites
    return static_cast<uint32_t>(it - pers_tags_.begin());
  }

  // ---- sparse MUST state operations ----------------------------------------

  bool contains_line(const State& st, uint32_t line) const {
    const uint64_t key = entry_of(line);
    const auto it = std::lower_bound(st.must.begin(), st.must.end(), key);
    return it != st.must.end() && (*it >> 32) == (key >> 32);
  }

  /// MUST transfer for an access to a known line: on a hit, strictly
  /// younger entries age by one and the accessed line rejuvenates; on a
  /// miss, every entry of the set ages (dropping at age >= assoc) and the
  /// line enters at age 0.
  void must_access_line(std::vector<uint64_t>& m, uint32_t line) const {
    const uint64_t key = entry_of(line);
    const uint64_t set_key = key >> set_shift_;
    std::size_t first =
        static_cast<std::size_t>(
            std::lower_bound(m.begin(), m.end(), set_key << set_shift_) -
            m.begin());
    std::size_t last = first;
    std::size_t found = m.size();
    for (; last < m.size() && (m[last] >> set_shift_) == set_key; ++last)
      if ((m[last] >> 32) == (key >> 32)) found = last;
    if (found < m.size()) {
      const uint64_t a = m[found] & kAgeMask;
      if (a == 0) return; // already the youngest: nothing is younger
      for (std::size_t i = first; i < last; ++i)
        if (i != found && (m[i] & kAgeMask) < a) ++m[i];
      m[found] = key;
      return;
    }
    // Miss: age the set in place, keeping the survivors' tag order, and
    // note where the new line sorts among them.
    std::size_t w = first;
    std::size_t pos = last;
    for (std::size_t i = first; i < last; ++i) {
      const uint64_t aged = m[i] + 1;
      if ((aged & kAgeMask) >= assoc_) continue; // evicted
      if (pos == last && aged > key) pos = w;
      m[w++] = aged;
    }
    if (pos == last) pos = w;
    SPMWCET_CHECK(w - first < assoc_); // MUST invariant: a full set evicts
    if (w < last) {
      std::move_backward(m.begin() + static_cast<std::ptrdiff_t>(pos),
                         m.begin() + static_cast<std::ptrdiff_t>(w),
                         m.begin() + static_cast<std::ptrdiff_t>(w + 1));
      m[pos] = key;
      m.erase(m.begin() + static_cast<std::ptrdiff_t>(w + 1),
              m.begin() + static_cast<std::ptrdiff_t>(last));
    } else {
      m.insert(m.begin() + static_cast<std::ptrdiff_t>(pos), key);
    }
  }

  /// Ages `times` times every entry whose set lies in the cyclic window of
  /// `n` sets starting at `set_lo` (n == nsets: every set).
  void must_age_window(std::vector<uint64_t>& m, uint32_t set_lo, uint32_t n,
                       uint32_t times) const {
    std::size_t w = 0;
    for (std::size_t i = 0; i < m.size(); ++i) {
      uint64_t e = m[i];
      if (((set_of_entry(e) - set_lo) & (nsets_ - 1)) < n) {
        if ((e & kAgeMask) + times >= assoc_) continue; // evicted
        e += times;
      }
      m[w++] = e;
    }
    m.resize(w);
  }

  // ---- flat persistence state operations -----------------------------------
  //
  // Slot encoding: 0 = tag absent from the map domain; v in [1, assoc+1]
  // = present at age v-1, where age == assoc means "may have been evicted"
  // (sticky: a reload never clears it).

  void pers_age_set(State& st, uint32_t set, uint32_t times) const {
    const uint32_t evicted = assoc_ + 1;
    uint8_t* p = st.pers.data();
    for (uint32_t i = pers_set_start_[set]; i < pers_set_start_[set + 1]; ++i)
      if (p[i] != 0) // saturate at "evicted"
        p[i] = static_cast<uint8_t>(std::min<uint32_t>(p[i] + times, evicted));
  }

  void pers_access_line(State& st, uint32_t line) const {
    const uint32_t set = set_of_line(line);
    const uint32_t slot = pers_slot_of(line);
    const uint8_t evicted = static_cast<uint8_t>(assoc_ + 1);
    uint8_t* p = st.pers.data();
    const uint8_t v = p[slot];
    if (v != 0 && v < evicted) {
      // Hit below "evicted": possibly-younger lines may age, self to age 0.
      for (uint32_t i = pers_set_start_[set]; i < pers_set_start_[set + 1];
           ++i)
        if (i != slot && p[i] != 0 && p[i] < v) ++p[i]; // p[i] < v < evicted
      p[slot] = 1;
    } else {
      // Miss (or possibly-evicted): everyone may age; the "evicted" mark is
      // sticky because persistence asks whether the line can have been
      // evicted at ANY point in the scope.
      pers_age_set(st, set, 1);
      p[slot] = v == evicted ? evicted : 1;
    }
  }

  bool pers_persistent_line(const State& st, uint32_t line) const {
    const uint8_t v = st.pers[pers_slot_of(line)];
    return v != 0 && v < static_cast<uint8_t>(assoc_ + 1);
  }

  // ---- combined transfers --------------------------------------------------

  void access_line(State& st, uint32_t line) const {
    must_access_line(st.must, line);
    if (!st.pers.empty()) pers_access_line(st, line);
  }

  /// `times` accesses, each to exactly one unknown line within [line_lo,
  /// line_hi]: every possibly-touched set ages per access — per touched
  /// line, exactly like the seed's for_each_touched_set. A range shorter
  /// than the set count names each set at most once; a longer one (or a
  /// wrapped one) ages every set once.
  void access_range(State& st, uint32_t line_lo, uint32_t line_hi,
                    uint32_t times = 1) const {
    const uint32_t n = line_hi - line_lo + 1;
    const bool all = n >= nsets_;
    if (!st.must.empty())
      must_age_window(st.must, all ? 0 : set_of_line(line_lo),
                      all ? nsets_ : n, times);
    if (st.pers.empty()) return;
    if (all) {
      for (uint32_t s = 0; s < nsets_; ++s) pers_age_set(st, s, times);
      return;
    }
    for (uint32_t line = line_lo; line <= line_hi; ++line)
      pers_age_set(st, set_of_line(line), times);
  }

  /// Lattice join of `src` into `dest`; returns whether `dest` changed.
  /// MUST (intersection, max age) is an in-place sorted merge: surviving
  /// entries are a subsequence of dest's, so the write cursor never passes
  /// the read cursor. Persistence (union, max age) is an elementwise max
  /// over the slot bytes — absent (0) sorts below every present age, so
  /// union-with-max and elementwise max coincide.
  bool join_into(State& dest, const State& src) const {
    bool changed = false;
    std::vector<uint64_t>& d = dest.must;
    const std::vector<uint64_t>& s = src.must;
    std::size_t w = 0, j = 0;
    for (std::size_t i = 0; i < d.size(); ++i) {
      const uint64_t line = d[i] >> 32;
      while (j < s.size() && (s[j] >> 32) < line) ++j;
      if (j == s.size()) break;
      if ((s[j] >> 32) != line) continue; // not in src: drop
      const uint64_t merged = std::max(d[i], s[j]); // same line: max age
      if (merged != d[i]) changed = true;
      d[w++] = merged;
    }
    if (w != d.size()) {
      changed = true;
      d.resize(w);
    }
    for (std::size_t i = 0; i < dest.pers.size(); ++i) {
      const uint8_t m = std::max(dest.pers[i], src.pers[i]);
      if (m != dest.pers[i]) {
        dest.pers[i] = m;
        changed = true;
      }
    }
    return changed;
  }

  // ---- transfer (mirrors CacheAnalyzer) -------------------------------------

  void data_access(State& st, const MemFacts& mem) const {
    const AddrInfo& info = mem.access;
    if (!cfg_.cache.unified) return;
    if (info.is_store) return;
    switch (info.kind) {
      case AddrInfo::Kind::Exact:
        if (mem.exact_class() == MemClass::Scratchpad) return;
        access_line(st, line_of(info.lo));
        return;
      case AddrInfo::Kind::Range:
        access_range(st, line_of(info.lo), line_of(info.hi));
        return;
      case AddrInfo::Kind::Stack:
        access_range(st, line_of(stack_lo_), line_of(img_.initial_sp - 1),
                     info.accesses);
        return;
      case AddrInfo::Kind::Unknown:
        access_range(st, 0,
                     cfg_.cache.num_sets() * cfg_.cache.line_bytes *
                         cfg_.cache.assoc);
        return;
    }
  }

  void transfer_instr(State& st, const CfgInstr& ci) const {
    if (!ci.mem.fetch_spm) {
      access_line(st, line_of(ci.addr));
      if (ci.size == 4) access_line(st, line_of(ci.addr + 2));
    }
    if (ci.mem.has_access) data_access(st, ci.mem);
  }

  // ---- fixpoint -------------------------------------------------------------

  void fixpoint() {
    in_.assign(node_block_.size(), State());
    present_.assign(node_block_.size(), 0);
    const uint32_t entry = func_base_.at(root_);
    if (cfg_.with_persistence) in_[entry].pers.assign(pers_tags_.size(), 0);
    present_[entry] = 1;
    std::vector<uint32_t> work{entry};
    State s;
    while (!work.empty()) {
      const uint32_t node = work.back();
      work.pop_back();
      s = in_[node];
      for (const CfgInstr& ci : node_block_[node]->instrs)
        transfer_instr(s, ci);
      for (const uint32_t succ : succs_[node]) {
        if (!present_[succ]) {
          in_[succ] = s;
          present_[succ] = 1;
          work.push_back(succ);
        } else if (join_into(in_[succ], s)) {
          work.push_back(succ);
        }
      }
    }
  }

  // ---- classification (fused with the transfer it observes) ----------------

  SiteClassification classify() const {
    SiteClassification out;
    out.sites.assign(num_sites_, 0);
    State s;
    for (std::size_t node = 0; node < node_block_.size(); ++node) {
      if (!present_[node]) continue; // unreachable
      s = in_[node];
      uint32_t site = node_site_[node];
      for (const CfgInstr& ci : node_block_[node]->instrs) {
        // Each access is classified against the state just before it.
        if (!ci.mem.fetch_spm) {
          classify(s, line_of(ci.addr), out, site,
                   SiteClassification::kFetch0);
          access_line(s, line_of(ci.addr));
          if (ci.size == 4) {
            classify(s, line_of(ci.addr + 2), out, site,
                     SiteClassification::kFetch1);
            access_line(s, line_of(ci.addr + 2));
          }
        }
        if (ci.mem.has_access) {
          classify_load(s, ci, out, site);
          data_access(s, ci.mem);
        }
        ++site;
      }
    }
    auto& lines = out.persistent_penalty_lines;
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    return out;
  }

  void classify(const State& state, uint32_t line, SiteClassification& out,
                uint32_t site, SiteClassification::Field field) const {
    if (contains_line(state, line)) {
      out.set(site, field, Outcome::Hit);
    } else if (!state.pers.empty() && pers_persistent_line(state, line)) {
      out.set(site, field, Outcome::Persistent);
      out.persistent_penalty_lines.push_back(line);
    }
  }

  void classify_load(const State& state, const CfgInstr& ci,
                     SiteClassification& out, uint32_t site) const {
    const AddrInfo& info = ci.mem.access;
    if (!cfg_.cache.unified || info.is_store) return;
    if (info.kind != AddrInfo::Kind::Exact ||
        ci.mem.exact_class() == MemClass::Scratchpad)
      return;
    classify(state, line_of(info.lo), out, site, SiteClassification::kLoad);
  }

  const link::Image& img_;
  const std::map<uint32_t, Cfg>& cfgs_;
  uint32_t root_;
  CacheAnalysisConfig cfg_;
  uint32_t stack_lo_ = 0;
  uint32_t nsets_ = 0;
  uint32_t assoc_ = 0;
  unsigned line_shift_ = 0;
  unsigned set_bits_ = 0;
  unsigned set_shift_ = 0; ///< bit position of the set in a MUST entry

  std::map<uint32_t, uint32_t> func_base_; ///< func addr -> first node id
  std::vector<const BasicBlock*> node_block_;
  std::vector<uint32_t> node_site_; ///< node -> site of its first instr
  uint32_t num_sites_ = 0;
  std::vector<std::vector<uint32_t>> succs_;
  std::vector<State> in_;
  std::vector<uint8_t> present_;

  // Persistence slot universe (empty unless with_persistence): tags sorted
  // within each set's contiguous [pers_set_start_[s], pers_set_start_[s+1])
  // segment of the slot array.
  std::vector<uint32_t> pers_tags_;
  std::vector<uint32_t> pers_set_start_;
};

} // namespace

SiteClassification analyze_cache_flat(const link::Image& img,
                                      const std::map<uint32_t, Cfg>& cfgs,
                                      uint32_t root,
                                      const CacheAnalysisConfig& cfg) {
  (cfg.with_persistence ? g_flat_persistence_runs : g_flat_must_runs)
      .fetch_add(1, std::memory_order_relaxed);
  return FlatCacheAnalyzer(img, cfgs, root, cfg).run();
}

CacheAnalysisCounters cache_analysis_counters() {
  CacheAnalysisCounters c;
  c.flat_must_runs = g_flat_must_runs.load(std::memory_order_relaxed);
  c.flat_persistence_runs =
      g_flat_persistence_runs.load(std::memory_order_relaxed);
  return c;
}

void reset_cache_analysis_counters() {
  g_flat_must_runs.store(0, std::memory_order_relaxed);
  g_flat_persistence_runs.store(0, std::memory_order_relaxed);
}

} // namespace spmwcet::wcet
