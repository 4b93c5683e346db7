#include "reference/map_cache_analysis.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <span>
#include <vector>

#include "reference/abstract_cache.h"
#include "support/diag.h"

namespace spmwcet::reference {

using cache::MustCache;
using cache::PersistenceCache;
using isa::MemClass;
using wcet::AddrInfo;
using wcet::BasicBlock;
using wcet::CacheAnalysisConfig;
using wcet::Cfg;
using wcet::CfgInstr;
using wcet::EdgeKind;
using wcet::MemFacts;
using wcet::Outcome;
using wcet::SiteClassification;

namespace {

std::atomic<uint64_t> g_map_runs{0};

/// Number of instruction sites of `cfgs` (the size of a classification).
uint32_t count_sites(const std::map<uint32_t, Cfg>& cfgs) {
  uint32_t n = 0;
  for (const auto& [faddr, cfg] : cfgs)
    for (const auto& b : cfg.blocks)
      n += static_cast<uint32_t>(b.instrs.size());
  return n;
}

/// Combined abstract state (MUST always, persistence optionally).
struct AbsCacheState {
  MustCache must;
  std::optional<PersistenceCache> pers;

  static AbsCacheState initial(const CacheAnalysisConfig& cfg) {
    AbsCacheState s{MustCache(cfg.cache), std::nullopt};
    if (cfg.with_persistence) s.pers.emplace(cfg.cache);
    return s;
  }

  void access_line(uint32_t line) {
    must.access_line(line);
    if (pers) pers->access_line(line);
  }
  void access_range(uint32_t line_lo, uint32_t line_hi) {
    must.access_line_range(line_lo, line_hi);
    if (pers) pers->access_line_range(line_lo, line_hi);
  }
  void join_with(const AbsCacheState& o) {
    must.join_with(o.must);
    if (pers && o.pers) pers->join_with(*o.pers);
  }
  bool operator==(const AbsCacheState& o) const {
    return must == o.must && pers == o.pers;
  }
};

/// Global block reference.
struct Node {
  uint32_t func = 0;
  int block = -1;
  auto operator<=>(const Node&) const = default;
};

class CacheAnalyzer {
public:
  CacheAnalyzer(const link::Image& img, const std::map<uint32_t, Cfg>& cfgs,
                std::span<const MemFacts> facts, uint32_t root,
                const CacheAnalysisConfig& cfg)
      : img_(img), cfgs_(cfgs), facts_(facts), root_(root), cfg_(cfg) {
    cfg_.cache.validate();
    // The analyses read each instruction's MemFacts; facts missing for a
    // CFG would silently look like code with no data accesses and every
    // fetch in main memory.
    SPMWCET_CHECK_MSG(facts_.size() == count_sites(cfgs_),
                      "cache analysis: memory facts were never resolved "
                      "(resolve_memory)");
    uint32_t site = 0;
    for (const auto& [faddr, fcfg] : cfgs_)
      for (const auto& b : fcfg.blocks)
        for (const CfgInstr& ci : b.instrs) site_of_.emplace(ci.addr, site++);
    stack_lo_ = img.initial_sp - wcet::kAnalysisStackBytes;
    build_edges();
  }

  CacheClassification run() {
    fixpoint();
    CacheClassification out = classify();
    out.normalize();
    return out;
  }

private:
  // ---- supergraph -----------------------------------------------------------

  void build_edges() {
    // Successor lists; CallCont edges are replaced by call/return splicing.
    for (const auto& [faddr, cfg] : cfgs_) {
      for (const auto& b : cfg.blocks) {
        const Node node{faddr, b.id};
        auto& succ = succs_[node];
        if (b.call_target) {
          SPMWCET_CHECK(cfgs_.count(*b.call_target) != 0);
          succ.push_back(Node{*b.call_target, 0});
          // Record the continuation for the callee's return blocks.
          int cont = -1;
          for (const int e : b.out_edges)
            if (cfg.edges[static_cast<std::size_t>(e)].kind ==
                EdgeKind::CallCont)
              cont = cfg.edges[static_cast<std::size_t>(e)].to;
          SPMWCET_CHECK(cont >= 0);
          returns_to_[*b.call_target].push_back(Node{faddr, cont});
        } else {
          for (const int e : b.out_edges)
            succ.push_back(
                Node{faddr, cfg.edges[static_cast<std::size_t>(e)].to});
        }
      }
    }
    // Splice return edges: callee exit -> every continuation.
    for (const auto& [faddr, cfg] : cfgs_) {
      const auto rt = returns_to_.find(faddr);
      if (rt == returns_to_.end()) continue;
      for (const auto& b : cfg.blocks) {
        if (!b.is_exit) continue;
        auto& succ = succs_[Node{faddr, b.id}];
        for (const Node& cont : rt->second) succ.push_back(cont);
      }
    }
  }

  // ---- transfer -------------------------------------------------------------

  void line_access(AbsCacheState& s, uint32_t addr) const {
    s.access_line(cfg_.cache.line_of(addr));
  }

  /// Applies one data access with facts `mem` (loads only affect tag
  /// state; stores are write-through/no-allocate).
  void data_access(AbsCacheState& s, const MemFacts& mem) const {
    const AddrInfo& info = mem.access;
    if (!cfg_.cache.unified) return;
    if (info.is_store) return;
    switch (info.kind) {
      case AddrInfo::Kind::Exact:
        if (mem.exact_class() == MemClass::Scratchpad) return;
        s.access_line(cfg_.cache.line_of(info.lo));
        return;
      case AddrInfo::Kind::Range: {
        // Conservative: if any byte of the range lies in main memory the
        // access may touch the cache anywhere within the range.
        s.access_range(cfg_.cache.line_of(info.lo),
                       cfg_.cache.line_of(info.hi));
        return;
      }
      case AddrInfo::Kind::Stack:
        for (uint32_t i = 0; i < info.accesses; ++i)
          s.access_range(cfg_.cache.line_of(stack_lo_),
                         cfg_.cache.line_of(img_.initial_sp - 1));
        return;
      case AddrInfo::Kind::Unknown:
        // One access anywhere: every set may age.
        s.access_range(0, cfg_.cache.num_sets() * cfg_.cache.line_bytes *
                              cfg_.cache.assoc);
        return;
    }
  }

  /// The memory facts of instruction `ci`.
  const MemFacts& mem_of(const CfgInstr& ci) const {
    return facts_[site_of_.at(ci.addr)];
  }

  void transfer_instr(AbsCacheState& s, const CfgInstr& ci) const {
    const MemFacts& mem = mem_of(ci);
    // Instruction fetches (SPM code bypasses the cache).
    if (!mem.fetch_spm) {
      line_access(s, ci.addr);
      if (ci.size == 4) line_access(s, ci.addr + 2);
    }
    if (mem.has_access) data_access(s, mem);
  }

  void transfer_block(AbsCacheState& s, const BasicBlock& b) const {
    for (const CfgInstr& ci : b.instrs) transfer_instr(s, ci);
  }

  // ---- fixpoint -------------------------------------------------------------

  void fixpoint() {
    std::vector<Node> work;
    in_.emplace(Node{root_, 0}, AbsCacheState::initial(cfg_));
    work.push_back(Node{root_, 0});
    while (!work.empty()) {
      const Node node = work.back();
      work.pop_back();
      const Cfg& cfg = cfgs_.at(node.func);
      AbsCacheState s = in_.at(node);
      transfer_block(s, cfg.blocks[static_cast<std::size_t>(node.block)]);
      for (const Node& succ : succs_[node]) {
        const auto it = in_.find(succ);
        if (it == in_.end()) {
          in_.emplace(succ, s);
          work.push_back(succ);
        } else {
          AbsCacheState joined = it->second;
          joined.join_with(s);
          if (!(joined == it->second)) {
            it->second = joined;
            work.push_back(succ);
          }
        }
      }
    }
  }

  // ---- classification --------------------------------------------------------

  CacheClassification classify() const {
    CacheClassification out;
    for (const auto& [faddr, cfg] : cfgs_) {
      for (const auto& b : cfg.blocks) {
        const auto it = in_.find(Node{faddr, b.id});
        if (it == in_.end()) continue; // unreachable
        AbsCacheState s = it->second;
        for (const CfgInstr& ci : b.instrs) {
          classify_instr(s, ci, out);
          transfer_instr(s, ci);
        }
      }
    }
    return out;
  }

  void classify_fetch(const AbsCacheState& s, uint32_t addr,
                      CacheClassification& out) const {
    const uint32_t line = cfg_.cache.line_of(addr);
    if (s.must.contains_line(line)) {
      out.fetch_always_hit.push_back(addr);
    } else if (s.pers && s.pers->persistent_line(line)) {
      out.fetch_persistent.push_back(addr);
      out.persistent_penalty_lines.push_back(line);
    }
  }

  void classify_instr(const AbsCacheState& s, const CfgInstr& ci,
                      CacheClassification& out) const {
    AbsCacheState state = s; // local copy: fetch precedes the data access
    const MemFacts& mem = mem_of(ci);
    if (!mem.fetch_spm) {
      classify_fetch(state, ci.addr, out);
      state.access_line(cfg_.cache.line_of(ci.addr));
      if (ci.size == 4) {
        classify_fetch(state, ci.addr + 2, out);
        state.access_line(cfg_.cache.line_of(ci.addr + 2));
      }
    }
    if (!mem.has_access) return;
    const AddrInfo& info = mem.access;
    if (!cfg_.cache.unified || info.is_store) return;
    if (info.kind == AddrInfo::Kind::Exact &&
        mem.exact_class() != MemClass::Scratchpad) {
      const uint32_t line = cfg_.cache.line_of(info.lo);
      if (state.must.contains_line(line)) {
        out.load_always_hit.push_back(ci.addr);
      } else if (state.pers && state.pers->persistent_line(line)) {
        out.load_persistent.push_back(ci.addr);
        out.persistent_penalty_lines.push_back(line);
      }
    }
  }

  const link::Image& img_;
  const std::map<uint32_t, Cfg>& cfgs_;
  std::span<const MemFacts> facts_;
  std::map<uint32_t, uint32_t> site_of_; ///< instruction address -> site
  uint32_t root_;
  CacheAnalysisConfig cfg_;
  uint32_t stack_lo_ = 0;

  std::map<Node, std::vector<Node>> succs_;
  std::map<uint32_t, std::vector<Node>> returns_to_;
  std::map<Node, AbsCacheState> in_;
};

} // namespace

void CacheClassification::normalize() {
  for (AddrSet* s : {&fetch_always_hit, &load_always_hit, &fetch_persistent,
                     &load_persistent, &persistent_penalty_lines}) {
    std::sort(s->begin(), s->end());
    s->erase(std::unique(s->begin(), s->end()), s->end());
  }
}

SiteClassification to_sites(const std::map<uint32_t, Cfg>& cfgs,
                            const CacheClassification& sets) {
  // One cursor per set; sites come in ascending address order, so each
  // set is consumed front to back. An entry left over names no site.
  struct Cursor {
    const AddrSet& set;
    std::size_t at = 0;
    bool take(uint32_t addr) {
      if (at == set.size() || set[at] != addr) return false;
      ++at;
      return true;
    }
  };
  Cursor fetch_hit{sets.fetch_always_hit}, fetch_pers{sets.fetch_persistent};
  Cursor load_hit{sets.load_always_hit}, load_pers{sets.load_persistent};
  auto outcome = [](Cursor& hit, Cursor& pers, uint32_t addr) {
    if (hit.take(addr)) return Outcome::Hit;
    return pers.take(addr) ? Outcome::Persistent : Outcome::Miss;
  };

  SiteClassification out;
  out.sites.assign(count_sites(cfgs), 0);
  uint32_t site = 0;
  for (const auto& [faddr, cfg] : cfgs) {
    for (const auto& b : cfg.blocks) {
      for (const CfgInstr& ci : b.instrs) {
        out.set(site, SiteClassification::kFetch0,
                outcome(fetch_hit, fetch_pers, ci.addr));
        if (ci.size == 4)
          out.set(site, SiteClassification::kFetch1,
                  outcome(fetch_hit, fetch_pers, ci.addr + 2));
        out.set(site, SiteClassification::kLoad,
                outcome(load_hit, load_pers, ci.addr));
        ++site;
      }
    }
  }
  for (const Cursor* c : {&fetch_hit, &fetch_pers, &load_hit, &load_pers})
    SPMWCET_CHECK_MSG(c->at == c->set.size(),
                      "to_sites: classified address is not an instruction "
                      "site of these CFGs");
  out.persistent_penalty_lines = sets.persistent_penalty_lines;
  return out;
}

CacheClassification analyze_cache(const link::Image& img,
                                  const std::map<uint32_t, Cfg>& cfgs,
                                  std::span<const MemFacts> facts,
                                  uint32_t root,
                                  const CacheAnalysisConfig& cfg) {
  g_map_runs.fetch_add(1, std::memory_order_relaxed);
  return CacheAnalyzer(img, cfgs, facts, root, cfg).run();
}

uint64_t map_analysis_runs() {
  return g_map_runs.load(std::memory_order_relaxed);
}

} // namespace spmwcet::reference
