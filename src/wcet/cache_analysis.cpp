#include "wcet/cache_analysis.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "isa/timing.h"
#include "support/bitops.h"
#include "support/diag.h"

namespace spmwcet::wcet {

namespace {

std::atomic<uint64_t> g_flat_must_runs{0};
std::atomic<uint64_t> g_flat_persistence_runs{0};

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
// Node identity is dense (the view's CacheSupergraph), the transfer reads
// each site's accesses from the view's SiteTable, and each transfer returns
// the outcome it observed, so the fixpoint's own visits write the site
// bytes and no second transfer pass runs. Node in-states live in one
// per-analysis arena: a node's MUST entries take a slice sized by its first
// assignment, which joins only shrink (intersection), and its persistence
// bytes a fixed-size slice. The transfer functions mirror the map ones
// operation for operation, and the worklist visits nodes in the same
// order, so the classification comes out identical.

class FlatCacheAnalyzer {
public:
  FlatCacheAnalyzer(const link::Image& img, const CacheSupergraph& graph,
                    const SiteTable& table, const CacheAnalysisConfig& cfg)
      : img_(img), graph_(graph), table_(table), cfg_(cfg) {
    cfg_.cache.validate();
    // The supergraph and the site table number blocks and sites alike; they
    // must have been built over the same CFGs.
    SPMWCET_CHECK_MSG(graph_.num_nodes() == table_.blocks.size() &&
                          graph_.func_addr.size() == table_.functions.size(),
                      "cache analysis: supergraph built for other CFGs");
    stack_lo_ = img.initial_sp - kAnalysisStackBytes;
    nsets_ = cfg_.cache.num_sets();
    assoc_ = cfg_.cache.assoc;
    line_shift_ = log2_pow2(cfg_.cache.line_bytes);
    set_bits_ = log2_pow2(nsets_);
    // Lines of 32-bit addresses have 32 - line_shift bits: set_bits of set
    // and the rest tag, packed above the 32-bit age.
    set_shift_ = 32 + (32 - line_shift_ - set_bits_);
    if (cfg_.with_persistence) build_pers_slots();
  }

  SiteClassification run() {
    fixpoint();
    if (cfg_.with_persistence) collect_persistent_lines();
    return std::move(out_);
  }

private:
  struct State {
    std::vector<uint64_t> must; // sorted live entries
    std::vector<uint8_t> pers;  // empty unless with_persistence
  };
  /// A node's in-state: slices of the per-analysis arena.
  struct InState {
    std::size_t must_off = 0;
    std::size_t pers_off = 0;
    uint32_t must_len = 0;
    bool present = false;
  };
  static constexpr uint64_t kAgeMask = 0xffffffffu;
  /// No line: lines are addresses shifted right by at least two bits.
  static constexpr uint32_t kNoLine = 0xffffffffu;

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

  // ---- flat persistence slot universe --------------------------------------

  /// Enumerates every line the transfer functions can pass to
  /// pers_access_line — main-memory fetch lines plus, in a unified cache,
  /// exact main-memory loads, exactly the access_line call sites of
  /// transfer_site — and lays them out as one byte slot each, grouped by
  /// set and tag-sorted within a set so lookups are a binary search in the
  /// line's set segment.
  void build_pers_slots() {
    std::vector<uint64_t> keys; // (set << 32) | tag
    auto add_line = [&](uint32_t line) {
      keys.push_back((static_cast<uint64_t>(set_of_line(line)) << 32) |
                     tag_of_line(line));
    };
    for (const SiteTable::Site& s : table_.sites) {
      if (s.main_fetches != 0) add_line(line_of(s.addr));
      if (s.main_fetches == 2) add_line(line_of(s.addr + 2));
      if (!cfg_.cache.unified) continue;
      if (s.load == SiteTable::Load::Exact) add_line(line_of(s.lo));
      if (s.load == SiteTable::Load::Unmapped) throw_unmapped(s.lo);
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

  /// MUST transfer for an access to a known line: on a hit, strictly
  /// younger entries age by one and the accessed line rejuvenates; on a
  /// miss, every entry of the set ages (dropping at age >= assoc) and the
  /// line enters at age 0. Returns whether the line was in the state
  /// before the access, i.e. whether MUST proves the access a hit.
  bool must_access_line(std::vector<uint64_t>& m, uint32_t line) const {
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
      if (a == 0) return true; // already the youngest: nothing is younger
      for (std::size_t i = first; i < last; ++i)
        if (i != found && (m[i] & kAgeMask) < a) ++m[i];
      m[found] = key;
      return true;
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
    return false;
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

  /// Persistence transfer for an access to `line`; returns whether the
  /// state before the access proves it persistent (present, not evicted).
  bool pers_access_line(State& st, uint32_t line) const {
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
    return v != 0 && v < evicted;
  }

  // ---- combined transfers --------------------------------------------------

  /// Accesses `line`; returns the outcome the state just before the
  /// access proves for it (a MUST hit outranks persistence). Every access
  /// leaves its line youngest in the MUST state, so re-accessing the line
  /// touched last is a hit that changes nothing there: the MUST search is
  /// skipped. The persistence transfer still runs, because a re-access can
  /// age the set of a line that may have been evicted.
  Outcome access_line(State& st, uint32_t line) {
    const bool hit = line == last_line_ || must_access_line(st.must, line);
    last_line_ = line;
    const bool persistent = !st.pers.empty() && pers_access_line(st, line);
    return hit ? Outcome::Hit
               : persistent ? Outcome::Persistent : Outcome::Miss;
  }

  /// `times` accesses, each to one line nobody knows: every set may age.
  void age_every_set(State& st, uint32_t times) {
    last_line_ = kNoLine;
    if (!st.must.empty()) must_age_window(st.must, 0, nsets_, times);
    if (st.pers.empty()) return;
    for (uint32_t s = 0; s < nsets_; ++s) pers_age_set(st, s, times);
  }

  /// `times` accesses, each to exactly one unknown line within [line_lo,
  /// line_hi]: every possibly-touched set ages per access — per touched
  /// line, exactly like the seed's for_each_touched_set. A range shorter
  /// than the set count names each set at most once; a longer one (or a
  /// wrapped one) ages every set once.
  void access_range(State& st, uint32_t line_lo, uint32_t line_hi,
                    uint32_t times = 1) {
    const uint32_t n = line_hi - line_lo + 1;
    if (n >= nsets_) {
      age_every_set(st, times);
      return;
    }
    last_line_ = kNoLine;
    if (!st.must.empty())
      must_age_window(st.must, set_of_line(line_lo), n, times);
    if (st.pers.empty()) return;
    for (uint32_t line = line_lo; line <= line_hi; ++line)
      pers_age_set(st, set_of_line(line), times);
  }

  /// Lattice join of the working state `src` into the in-state of `node`;
  /// returns whether that in-state changed. MUST (intersection, max age)
  /// is an in-place sorted merge over the node's arena slice: surviving
  /// entries are a subsequence of its entries, so the write cursor never
  /// passes the read cursor and the slice only shrinks. Persistence (union,
  /// max age) is an elementwise max over the slot bytes — absent (0) sorts
  /// below every present age, so union-with-max and elementwise max
  /// coincide.
  bool join_into(uint32_t node, const State& src) {
    bool changed = false;
    InState& in = in_[node];
    uint64_t* d = must_pool_.data() + in.must_off;
    const std::vector<uint64_t>& s = src.must;
    uint32_t w = 0;
    std::size_t j = 0;
    for (uint32_t i = 0; i < in.must_len; ++i) {
      const uint64_t line = d[i] >> 32;
      while (j < s.size() && (s[j] >> 32) < line) ++j;
      if (j == s.size()) break;
      if ((s[j] >> 32) != line) continue; // not in src: drop
      const uint64_t merged = std::max(d[i], s[j]); // same line: max age
      if (merged != d[i]) changed = true;
      d[w++] = merged;
    }
    if (w != in.must_len) {
      changed = true;
      in.must_len = w;
    }
    uint8_t* p = pers_pool_.data() + in.pers_off;
    for (std::size_t i = 0; i < src.pers.size(); ++i) {
      const uint8_t m = std::max(p[i], src.pers[i]);
      if (m != p[i]) {
        p[i] = m;
        changed = true;
      }
    }
    return changed;
  }

  /// First assignment of the in-state of `node`: takes its arena slices.
  void assign_in(uint32_t node, const State& src) {
    InState& in = in_[node];
    in.must_off = must_pool_.size();
    in.must_len = static_cast<uint32_t>(src.must.size());
    must_pool_.insert(must_pool_.end(), src.must.begin(), src.must.end());
    in.pers_off = pers_pool_.size();
    pers_pool_.insert(pers_pool_.end(), src.pers.begin(), src.pers.end());
    in.present = true;
  }

  /// Loads the in-state of `node` into the working state.
  void load_in(uint32_t node, State& st) const {
    const InState& in = in_[node];
    const uint64_t* m = must_pool_.data() + in.must_off;
    st.must.assign(m, m + in.must_len);
    const uint8_t* p = pers_pool_.data() + in.pers_off;
    st.pers.assign(p, p + pers_tags_.size());
  }

  // ---- transfer (mirrors CacheAnalyzer), classifying as it goes ------------

  /// The data access of one site under a unified cache; returns the load's
  /// outcome (Miss unless it is an exact main-memory load the state
  /// classifies).
  Outcome data_access(State& st, const SiteTable::Site& s) {
    switch (s.load) {
      case SiteTable::Load::None:
        break;
      case SiteTable::Load::Exact:
        return access_line(st, line_of(s.lo));
      case SiteTable::Load::Unmapped:
        throw_unmapped(s.lo);
      case SiteTable::Load::Range:
        access_range(st, line_of(s.lo), line_of(s.hi));
        break;
      case SiteTable::Load::Stack:
        access_range(st, line_of(stack_lo_), line_of(img_.initial_sp - 1),
                     s.accesses);
        break;
      case SiteTable::Load::Unknown:
        age_every_set(st, 1);
        break;
    }
    return Outcome::Miss;
  }

  /// Transfers `st` over one site and returns its site byte: each access
  /// is classified against the state just before it.
  uint8_t transfer_site(State& st, const SiteTable::Site& s) {
    unsigned site = 0;
    if (s.main_fetches != 0) {
      site |= static_cast<unsigned>(access_line(st, line_of(s.addr)))
              << SiteClassification::kFetch0;
      if (s.main_fetches == 2)
        site |= static_cast<unsigned>(access_line(st, line_of(s.addr + 2)))
                << SiteClassification::kFetch1;
    }
    if (cfg_.cache.unified)
      site |= static_cast<unsigned>(data_access(st, s))
              << SiteClassification::kLoad;
    return static_cast<uint8_t>(site);
  }

  // ---- fixpoint, classification included ------------------------------------
  //
  // Every visit of a node rewrites its site bytes from the in-state it
  // transfers. A node's last visit sees its final in-state: any later
  // change to that state would have queued the node again. So once the
  // worklist drains, every reachable site holds the classification of the
  // fixpoint, and unreachable sites stay Miss. The worklist is LIFO; with
  // persistence the classification depends on that order (see
  // analyze_cache_flat).

  void fixpoint() {
    out_.sites.assign(table_.sites.size(), 0);
    in_.assign(graph_.num_nodes(), InState());
    const uint32_t entry = graph_.root_node;
    State s;
    if (cfg_.with_persistence) s.pers.assign(pers_tags_.size(), 0);
    assign_in(entry, s);
    std::vector<uint32_t> work{entry};
    while (!work.empty()) {
      const uint32_t node = work.back();
      work.pop_back();
      load_in(node, s);
      last_line_ = kNoLine; // the joined in-state may hold any line at any age
      const SiteTable::Block& b = table_.blocks[node];
      uint8_t* site = out_.sites.data() + b.first_site;
      for (uint32_t k = b.first_site; k < b.end_site; ++k)
        *site++ = transfer_site(s, table_.sites[k]);
      for (uint32_t k = graph_.succ_start[node];
           k < graph_.succ_start[node + 1]; ++k) {
        const uint32_t succ = graph_.succs[k];
        if (!in_[succ].present) {
          assign_in(succ, s);
          work.push_back(succ);
        } else if (join_into(succ, s)) {
          work.push_back(succ);
        }
      }
    }
  }

  /// The distinct lines behind the persistent accesses, read back from the
  /// final site bytes.
  void collect_persistent_lines() {
    auto& lines = out_.persistent_penalty_lines;
    for (uint32_t k = 0; k < table_.sites.size(); ++k) {
      const SiteTable::Site& s = table_.sites[k];
      if (out_.fetch(k, 0) == Outcome::Persistent)
        lines.push_back(line_of(s.addr));
      if (out_.fetch(k, 1) == Outcome::Persistent)
        lines.push_back(line_of(s.addr + 2));
      if (out_.load(k) == Outcome::Persistent) lines.push_back(line_of(s.lo));
    }
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
  }

  const link::Image& img_;
  const CacheSupergraph& graph_;
  const SiteTable& table_;
  CacheAnalysisConfig cfg_;
  uint32_t stack_lo_ = 0;
  uint32_t nsets_ = 0;
  uint32_t assoc_ = 0;
  unsigned line_shift_ = 0;
  unsigned set_bits_ = 0;
  unsigned set_shift_ = 0; ///< bit position of the set in a MUST entry
  /// The line the transfer accessed last in the current node, if no aging
  /// came after it: it is youngest in the MUST state.
  uint32_t last_line_ = kNoLine;

  std::vector<InState> in_;
  std::vector<uint64_t> must_pool_;
  std::vector<uint8_t> pers_pool_;
  SiteClassification out_;

  // Persistence slot universe (empty unless with_persistence): tags sorted
  // within each set's contiguous [pers_set_start_[s], pers_set_start_[s+1])
  // segment of the slot array.
  std::vector<uint32_t> pers_tags_;
  std::vector<uint32_t> pers_set_start_;
};

} // namespace

uint32_t CacheSupergraph::func_of(uint32_t addr) const {
  const auto it = std::lower_bound(func_addr.begin(), func_addr.end(), addr);
  SPMWCET_CHECK_MSG(it != func_addr.end() && *it == addr,
                    "cache supergraph: no function at " +
                        std::to_string(addr));
  return static_cast<uint32_t>(it - func_addr.begin());
}

CacheSupergraph build_supergraph(const std::map<uint32_t, Cfg>& cfgs,
                                 uint32_t root) {
  CacheSupergraph g;
  std::vector<uint32_t> func_node; // function ordinal -> entry node
  func_node.reserve(cfgs.size());
  g.func_addr.reserve(cfgs.size());
  uint32_t nodes = 0;
  for (const auto& [faddr, cfg] : cfgs) {
    func_node.push_back(nodes);
    g.func_addr.push_back(faddr);
    nodes += static_cast<uint32_t>(cfg.blocks.size());
  }
  g.root_node = func_node[g.func_of(root)];

  // Successors: a call block feeds its callee's entry, any other block its
  // CFG successors, and an exit block every continuation of a call to its
  // function, callers in node order. First the call continuations, grouped
  // by callee.
  struct Call {
    uint32_t callee; ///< function ordinal
    uint32_t cont;   ///< continuation node
  };
  std::vector<Call> calls;
  for (const auto& [faddr, cfg] : cfgs) {
    const uint32_t base = func_node[g.func_of(faddr)];
    for (const auto& b : cfg.blocks) {
      if (!b.call_target) continue;
      int cont = -1;
      for (const int e : b.out_edges)
        if (cfg.edges[static_cast<std::size_t>(e)].kind == EdgeKind::CallCont)
          cont = cfg.edges[static_cast<std::size_t>(e)].to;
      SPMWCET_CHECK(cont >= 0);
      calls.push_back({g.func_of(*b.call_target),
                       base + static_cast<uint32_t>(cont)});
    }
  }
  std::stable_sort(calls.begin(), calls.end(),
                   [](const Call& a, const Call& b) { return a.callee < b.callee; });
  std::vector<uint32_t> calls_start(g.func_addr.size() + 1, 0);
  for (const Call& c : calls) ++calls_start[c.callee + 1];
  for (std::size_t f = 0; f < g.func_addr.size(); ++f)
    calls_start[f + 1] += calls_start[f];

  // Then the successor lists themselves, in node order.
  g.succ_start.reserve(nodes + 1);
  g.succ_start.push_back(0);
  for (const auto& [faddr, cfg] : cfgs) {
    const uint32_t func = g.func_of(faddr);
    const uint32_t base = func_node[func];
    for (const auto& b : cfg.blocks) {
      SPMWCET_CHECK(base + static_cast<uint32_t>(b.id) + 1 ==
                    g.succ_start.size());
      if (b.call_target) {
        g.succs.push_back(func_node[g.func_of(*b.call_target)]);
      } else {
        for (const int e : b.out_edges)
          g.succs.push_back(base + static_cast<uint32_t>(
                                       cfg.edges[static_cast<std::size_t>(e)].to));
      }
      if (b.is_exit)
        for (uint32_t k = calls_start[func]; k < calls_start[func + 1]; ++k)
          g.succs.push_back(calls[k].cont);
      g.succ_start.push_back(static_cast<uint32_t>(g.succs.size()));
    }
  }
  return g;
}

SiteClassification analyze_cache_flat(const link::Image& img,
                                      const CacheSupergraph& graph,
                                      const SiteTable& sites,
                                      const CacheAnalysisConfig& cfg) {
  (cfg.with_persistence ? g_flat_persistence_runs : g_flat_must_runs)
      .fetch_add(1, std::memory_order_relaxed);
  return FlatCacheAnalyzer(img, graph, sites, cfg).run();
}

SiteClassification analyze_cache_flat(const link::Image& img,
                                      const std::map<uint32_t, Cfg>& cfgs,
                                      uint32_t root,
                                      const CacheAnalysisConfig& cfg) {
  const SiteTable sites = build_site_table(cfgs);
  return analyze_cache_flat(img, build_supergraph(cfgs, root), sites, cfg);
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
