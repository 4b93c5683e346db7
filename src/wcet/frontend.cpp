#include "wcet/frontend.h"

#include <algorithm>
#include <span>
#include <string_view>
#include <unordered_map>

#include "isa/encode.h"

#include "support/diag.h"
#include "wcet/loop_bounds.h"

namespace spmwcet::wcet {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void fnv(uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

/// One FNV step per 32-bit word rather than per byte: the instruction
/// stream hashes three words per instruction, and a bind re-hashes it.
void fnv_u32(uint64_t& h, uint32_t v) {
  h ^= v;
  h *= kFnvPrime;
}

void fnv_str(uint64_t& h, const std::string& s) {
  fnv_u32(h, static_cast<uint32_t>(s.size())); // length-prefixed
  fnv(h, s.data(), s.size());
}

} // namespace

uint64_t module_fingerprint(const link::Image& img,
                            const program::DecodedImage& dec) {
  // Symbol metadata: everything about the table that survives relinking
  // (names, sizes, kinds — never addresses), in name order so a placement
  // that reorders the symbol vector cannot change the hash.
  std::vector<const link::Symbol*> symbols;
  symbols.reserve(img.symbols.size());
  for (const link::Symbol& sym : img.symbols) symbols.push_back(&sym);
  std::sort(symbols.begin(), symbols.end(),
            [](const link::Symbol* a, const link::Symbol* b) {
              return a->name < b->name;
            });
  uint64_t h = kFnvOffset;
  for (const link::Symbol* sym : symbols) {
    fnv_str(h, sym->name);
    fnv_u32(h, sym->size);
    fnv_u32(h, sym->is_function ? 1u : 0u);
    fnv_u32(h, sym->elem_bytes);
    fnv_u32(h, sym->count);
  }
  const link::Symbol* entry = img.symbol_at(img.entry);
  fnv_str(h, entry != nullptr ? entry->name : std::string());

  // Code content: the decoded instruction stream of every function, minus
  // the only fields a relink rewrites — BL pair immediates (inter-function
  // pc-relative call offsets). Everything else is function-internal and
  // layout-invariant: intra-function branch offsets, literal-pool slot
  // indices (the pool *contents* hold link-time addresses, so they are
  // deliberately NOT hashed), register fields, data immediates. A shape
  // therefore refuses to bind against an image whose code differs even by
  // one same-size instruction.
  for (const link::Symbol* sym : symbols) {
    if (!sym->is_function) continue;
    const link::Region* region = img.regions.find(sym->addr);
    if (region == nullptr) continue;
    for (uint32_t addr = region->lo; addr + 2 <= region->hi; addr += 2) {
      const isa::Instr* ins = dec.find(addr);
      if (ins == nullptr) continue;
      fnv_u32(h, static_cast<uint32_t>(ins->op));
      fnv_u32(h, (static_cast<uint32_t>(ins->sub) << 24) |
                     (static_cast<uint32_t>(ins->rd) << 16) |
                     (static_cast<uint32_t>(ins->rn) << 8) |
                     static_cast<uint32_t>(ins->rm));
      if (ins->op != isa::Op::BL_HI && ins->op != isa::Op::BL_LO)
        fnv_u32(h, static_cast<uint32_t>(ins->imm));
    }
  }
  return h;
}

ProgramShape build_shape(const link::Image& img,
                         const program::DecodedImage& dec) {
  std::vector<uint32_t> discovery;
  const std::map<uint32_t, Cfg> cfgs =
      build_all_cfgs(img, dec, img.entry, &discovery);

  std::map<uint32_t, int> index_of;
  for (std::size_t i = 0; i < discovery.size(); ++i)
    index_of[discovery[i]] = static_cast<int>(i);

  ProgramShape shape;
  shape.module_key = module_fingerprint(img, dec);
  shape.root = 0; // discovery starts at the entry
  shape.funcs.reserve(discovery.size());
  for (const uint32_t faddr : discovery) {
    const Cfg& cfg = cfgs.at(faddr);
    FuncShape fs;
    fs.name = cfg.name;
    const link::Region* region = img.regions.find(faddr);
    SPMWCET_CHECK(region != nullptr);
    fs.code_bytes = region->hi - region->lo;
    fs.edges = cfg.edges;
    fs.blocks.reserve(cfg.blocks.size());
    for (const BasicBlock& b : cfg.blocks) {
      FuncShape::Block sb;
      sb.first_off = b.first_addr - faddr;
      sb.end_off = b.end_addr - faddr;
      sb.ninstrs = static_cast<uint32_t>(b.instrs.size());
      sb.callee = b.call_target ? index_of.at(*b.call_target) : -1;
      sb.is_exit = b.is_exit;
      sb.out_edges = b.out_edges;
      sb.in_edges = b.in_edges;
      fs.blocks.push_back(std::move(sb));
    }
    fs.loops = find_loops(cfg);
    shape.funcs.push_back(std::move(fs));
  }
  return shape;
}

namespace {

/// Materializes one function's CFG at this image's layout: addresses are
/// base + shape offsets, instructions come from the image's own decode (so
/// link-time immediates — BL offsets, pool contents — are this layout's).
Cfg bind_cfg(const FuncShape& fs, uint32_t base,
             const std::vector<uint32_t>& func_addrs,
             const program::DecodedImage& dec) {
  Cfg cfg;
  cfg.name = fs.name;
  cfg.func_addr = base;
  cfg.edges = fs.edges;
  cfg.blocks.reserve(fs.blocks.size());
  for (std::size_t bi = 0; bi < fs.blocks.size(); ++bi) {
    const FuncShape::Block& sb = fs.blocks[bi];
    BasicBlock b;
    b.id = static_cast<int>(bi);
    b.first_addr = base + sb.first_off;
    b.end_addr = base + sb.end_off;
    b.instrs.reserve(sb.ninstrs);
    uint32_t addr = b.first_addr;
    for (uint32_t k = 0; k < sb.ninstrs; ++k) {
      CfgInstr ci;
      ci.addr = addr;
      ci.ins = dec.instr_at(addr);
      if (ci.ins.op == isa::Op::BL_HI) {
        ci.bl_lo = dec.instr_at(addr + 2);
        ci.size = 4;
      } else {
        ci.size = 2;
      }
      addr += ci.size;
      b.instrs.push_back(ci);
    }
    SPMWCET_CHECK_MSG(addr == b.end_addr,
                      "bind: instruction stream diverged from shape in " +
                          cfg.name);
    if (sb.callee >= 0)
      b.call_target = func_addrs[static_cast<std::size_t>(sb.callee)];
    b.is_exit = sb.is_exit;
    b.out_edges = sb.out_edges;
    b.in_edges = sb.in_edges;
    cfg.blocks.push_back(std::move(b));
  }
  return cfg;
}

/// Binds the shape's CFGs, loops and function indices to `img` with its
/// annotations (`overrides` replaces the image-derived set); the memory
/// facts and the scaffold are the caller's.
ProgramView bind_cfgs(std::shared_ptr<const ProgramShape> shape,
                      const link::Image& img, const program::DecodedImage& dec,
                      const Annotations* overrides) {
  SPMWCET_CHECK(shape != nullptr);
  if (module_fingerprint(img, dec) != shape->module_key)
    throw ProgramError(
        "wcet: program shape does not match the image's module");

  ProgramView view;
  view.shape = std::move(shape);
  view.img = &img;
  view.root = img.entry;
  view.ann = overrides != nullptr ? *overrides : Annotations::from_image(img);

  // Resolve every function's base address in this layout first (bind needs
  // callee addresses), with the cheap structural sanity checks the seed
  // front end performed through code_extent.
  std::vector<uint32_t> func_addrs(view.shape->funcs.size());
  for (std::size_t i = 0; i < view.shape->funcs.size(); ++i) {
    const FuncShape& fs = view.shape->funcs[i];
    const link::Symbol* sym = img.find_symbol(fs.name);
    if (sym == nullptr || !sym->is_function)
      throw ProgramError("bind: no function symbol " + fs.name +
                         " in the image");
    const link::Region* region = img.regions.find(sym->addr);
    if (region == nullptr || region->hi - region->lo != fs.code_bytes)
      throw ProgramError("bind: code extent of " + fs.name +
                         " differs from the program shape");
    func_addrs[i] = sym->addr;
  }
  SPMWCET_CHECK_MSG(func_addrs[view.shape->root] == img.entry,
                    "bind: image entry is not the shape's root function");

  for (std::size_t i = 0; i < view.shape->funcs.size(); ++i) {
    const FuncShape& fs = view.shape->funcs[i];
    view.cfgs.emplace(func_addrs[i], bind_cfg(fs, func_addrs[i], func_addrs,
                                              dec));
    view.loops.emplace(func_addrs[i], &fs.loops);
    view.func_index.emplace(func_addrs[i], i);
  }
  return view;
}

} // namespace

ProgramView bind_view(std::shared_ptr<const ProgramShape> shape,
                      const link::Image& img,
                      const program::DecodedImage& dec,
                      bool auto_loop_bounds, const Annotations* overrides) {
  ProgramView view = bind_cfgs(std::move(shape), img, dec, overrides);

  // Optional aiT-style automatic bounds, re-detected against THIS image
  // (the pattern matching reads literal pools, which are per-link); the
  // structure walk reuses the bound CFGs, so only the matching re-runs.
  if (auto_loop_bounds) {
    for (const auto& [f, fcfg] : view.cfgs)
      for (const auto& [header, detected] :
           detect_loop_bounds(img, fcfg, *view.loops.at(f)))
        if (!view.ann.loop_bound(header).has_value())
          view.ann.set_loop_bound(header, detected.bound);
  }

  // This image's memory facts, resolved once into the bound CFGs: every
  // analysis of the view reads them instead of the region map.
  for (auto& [f, fcfg] : view.cfgs) resolve_memory(img, fcfg, view.ann);

  view.scaffold = build_scaffold(view.cfgs, view.root);
  return view;
}

namespace {

/// Symbol id -> address under `addrs`: functions, then globals.
std::vector<uint32_t> symbol_addresses(const link::AddressMap& addrs) {
  std::vector<uint32_t> out(addrs.function_base);
  out.insert(out.end(), addrs.global_addr.begin(), addrs.global_addr.end());
  return out;
}

/// One function of the canonical image read through the link's relocations,
/// with its symbols at `symbol_addr`. Symbolic: literal-pool words that hold
/// a symbol's address are that symbol, code addresses are offsets from the
/// function's own symbol, access hints name their symbol's extent. Concrete:
/// each is the constant the placement's linked image holds, the function
/// sitting `delta` bytes from its canonical base.
class RelocationSource final : public AddressSource {
public:
  RelocationSource(const RelocatableProgram& rp,
                   const RelocatableProgram::Function& fn, uint32_t base,
                   std::span<const uint32_t> symbol_addr, bool concrete,
                   uint32_t delta = 0)
      : rp_(rp), fn_(fn), base_(base), symbol_addr_(symbol_addr),
        concrete_(concrete), delta_(delta) {}

  std::optional<AbsVal> pool_word(uint32_t addr) const override {
    const link::FunctionExtent& extent = fn_.extent;
    const uint32_t off = addr - base_;
    if (off < extent.pool_off || off >= extent.total_bytes ||
        (off - extent.pool_off) % 4)
      return std::nullopt; // not one of this function's pool words
    const RelocatableProgram::PoolWord& word =
        fn_.pool[(off - extent.pool_off) / 4];
    if (word.sym == kAbsolute)
      return AbsVal::point(static_cast<int32_t>(word.value));
    if (concrete_)
      return AbsVal::point(
          static_cast<int32_t>(symbol_addr_[word.sym] + word.value));
    // An addend large enough to wrap a 32-bit address has no offset form.
    if (word.value >= (1u << 24)) return std::nullopt;
    return AbsVal::symbol(word.sym, Interval::point(word.value));
  }

  std::optional<AbsVal> code_address(uint32_t addr) const override {
    if (concrete_) return AbsVal::point(addr + delta_);
    const uint32_t off = addr - base_;
    if (fn_.module_function < 0 || off >= fn_.extent.total_bytes)
      return std::nullopt;
    return AbsVal::symbol(static_cast<uint32_t>(fn_.module_function),
                          Interval::point(off));
  }

  std::optional<SymbolRange> hint(uint32_t addr) const override {
    const auto it = rp_.hints.find(addr);
    if (it == rp_.hints.end()) return std::nullopt;
    const uint32_t sym = it->second;
    const uint32_t last = rp_.symbol_bytes[sym] - 1;
    if (concrete_)
      return SymbolRange{kAbsolute, symbol_addr_[sym],
                         symbol_addr_[sym] + last};
    return SymbolRange{sym, 0, last};
  }

  uint32_t symbol_size(uint32_t sym) const override {
    return rp_.symbol_bytes[sym];
  }

  uint32_t symbol_address(uint32_t sym) const override {
    return symbol_addr_[sym];
  }

private:
  const RelocatableProgram& rp_;
  const RelocatableProgram::Function& fn_;
  uint32_t base_;
  std::span<const uint32_t> symbol_addr_;
  bool concrete_;
  uint32_t delta_;
};

/// The accesses of `cfg` (function `fn` at canonical base `base`) placed
/// `delta` bytes away with its symbols at `symbol_addr`, as the analysis of
/// the placement's linked image (resolve_memory) finds them.
std::vector<SymbolicAccess>
analyze_at(const Cfg& cfg, const RelocatableProgram& rp,
           const RelocatableProgram::Function& fn, uint32_t base,
           uint32_t delta, std::span<const uint32_t> symbol_addr) {
  auto facts = analyze_accesses(
      cfg, RelocationSource(rp, fn, base, symbol_addr, /*concrete=*/true,
                            delta));
  SPMWCET_CHECK_MSG(facts.has_value(),
                    "wcet: a literal load outside its pool in " + cfg.name);
  return std::move(facts->accesses);
}

} // namespace

RelocatableProgram build_relocatable(
    std::shared_ptr<const ProgramShape> shape,
    std::shared_ptr<const link::Image> img, const program::DecodedImage& dec,
    const minic::ObjModule& mod,
    std::span<const link::FunctionExtent> extents) {
  SPMWCET_CHECK(img != nullptr);
  SPMWCET_CHECK(extents.size() == mod.functions.size());
  auto view = std::make_shared<ProgramView>(
      bind_cfgs(std::move(shape), *img, dec, nullptr));
  view->pinned_image = img;

  // Symbol names resolve once: the link resolves a literal to a global
  // first, Annotations::from_image a hint to a function first.
  std::unordered_map<std::string_view, uint32_t> functions, globals;
  for (std::size_t i = 0; i < mod.functions.size(); ++i)
    functions.emplace(mod.functions[i].name, static_cast<uint32_t>(i));
  for (std::size_t i = 0; i < mod.globals.size(); ++i)
    globals.emplace(mod.globals[i].name,
                    static_cast<uint32_t>(mod.functions.size() + i));
  RelocatableProgram rp;
  for (const link::FunctionExtent& extent : extents)
    rp.symbol_bytes.push_back(extent.total_bytes);
  for (const auto& g : mod.globals)
    rp.symbol_bytes.push_back(g.size_bytes());
  for (const auto& [addr, name] : img->access_hints) {
    auto id = functions.find(name);
    if (id == functions.end()) id = globals.find(name);
    SPMWCET_CHECK(id != globals.end());
    rp.hints.emplace(addr, id->second);
  }

  const link::AddressMap canonical_addrs =
      link::assign_addresses(mod, extents, {}, {});
  const std::vector<uint32_t> symbol_addr = symbol_addresses(canonical_addrs);
  rp.functions.reserve(view->cfgs.size());
  for (auto& [faddr, cfg] : view->cfgs) {
    RelocatableProgram::Function& fn = rp.functions.emplace_back();
    if (const auto it = functions.find(cfg.name); it != functions.end()) {
      const std::size_t i = it->second;
      SPMWCET_CHECK(canonical_addrs.function_base[i] == faddr);
      fn.module_function = static_cast<int32_t>(i);
      fn.extent = extents[i];
      for (const minic::Literal& lit : mod.functions[i].literals) {
        if (!lit.is_symbol) {
          fn.pool.push_back({kAbsolute, static_cast<uint32_t>(lit.value)});
          continue;
        }
        auto id = globals.find(lit.symbol);
        if (id == globals.end()) id = functions.find(lit.symbol);
        SPMWCET_CHECK(id != functions.end());
        fn.pool.push_back({id->second, lit.addend});
      }
    }
    fn.facts = analyze_accesses(
        cfg, RelocationSource(rp, fn, faddr, symbol_addr, /*concrete=*/false));
    if (fn.facts)
      place_memory(cfg, fn.facts->accesses, symbol_addr, img->regions);
    else
      place_memory(cfg, analyze_at(cfg, rp, fn, faddr, 0, symbol_addr), {},
                   img->regions);
  }
  view->scaffold = build_scaffold(view->cfgs, view->root);
  rp.canonical = std::move(view);
  return rp;
}

PlacementBinding bind_placement(const RelocatableProgram& rp,
                                const minic::ObjModule& mod,
                                std::span<const link::FunctionExtent> extents,
                                const link::LinkOptions& opts,
                                const link::AddressMap& addrs) {
  const ProgramView& canon = *rp.canonical;
  const std::vector<uint32_t> symbol_addr = symbol_addresses(addrs);
  const link::RegionMap regions =
      link::build_region_map(mod, extents, opts, addrs);

  // Each canonical function's placed base, in canonical key order (the
  // start stub sits at the code base in every link).
  std::vector<uint32_t> canon_addr, placed_addr;
  canon_addr.reserve(canon.cfgs.size());
  placed_addr.reserve(canon.cfgs.size());
  for (std::size_t j = 0; const auto& [faddr, cfg] : canon.cfgs) {
    const int32_t fn = rp.functions[j++].module_function;
    canon_addr.push_back(faddr);
    placed_addr.push_back(
        fn < 0 ? opts.code_base
               : addrs.function_base[static_cast<std::size_t>(fn)]);
  }
  const auto placed_of = [&](uint32_t canonical) {
    const auto it =
        std::lower_bound(canon_addr.begin(), canon_addr.end(), canonical);
    SPMWCET_CHECK(it != canon_addr.end() && *it == canonical);
    return placed_addr[static_cast<std::size_t>(it - canon_addr.begin())];
  };

  PlacementBinding out;
  ProgramView& view = out.view;
  view.shape = canon.shape;
  view.root = placed_of(canon.root);
  for (std::size_t ordinal = 0; const auto& [faddr, canon_cfg] : canon.cfgs) {
    const RelocatableProgram::Function& fn = rp.functions[ordinal];
    const uint32_t base = placed_addr[ordinal++];
    const uint32_t delta = base - faddr;
    Cfg cfg = canon_cfg;
    cfg.func_addr = base;
    for (BasicBlock& b : cfg.blocks) {
      b.first_addr += delta;
      b.end_addr += delta;
      if (b.call_target) b.call_target = placed_of(*b.call_target);
      for (CfgInstr& ci : b.instrs) {
        ci.addr += delta;
        // The only link-time field of the stream: a call's offset.
        if (ci.ins.op == isa::Op::BL_HI) {
          SPMWCET_CHECK(b.call_target.has_value());
          isa::encode_bl(isa::branch_offset(ci.addr, *b.call_target), ci.ins,
                         ci.bl_lo);
        }
      }
    }
    // The facts hold wherever the placement orders every symbol pair they
    // rely on alike; elsewhere the function is analyzed at the placement.
    const bool holds =
        fn.facts &&
        std::all_of(fn.facts->order.begin(), fn.facts->order.end(),
                    [&](const auto& p) {
                      return symbol_addr[p.first] < symbol_addr[p.second];
                    });
    if (holds) {
      place_memory(cfg, fn.facts->accesses, symbol_addr, regions);
    } else {
      ++out.reanalyzed;
      place_memory(cfg,
                   analyze_at(canon_cfg, rp, fn, faddr, delta, symbol_addr),
                   {}, regions);
    }
    const std::size_t index = canon.func_index.at(faddr);
    canon.ann.copy_loop_facts(faddr,
                              faddr + canon.shape->funcs[index].code_bytes,
                              delta, view.ann);
    view.loops.emplace(base, canon.loops.at(faddr));
    view.func_index.emplace(base, index);
    view.cfgs.emplace(base, std::move(cfg));
  }
  view.scaffold = build_scaffold(view.cfgs, view.root);
  return out;
}

ViewScaffold build_scaffold(const std::map<uint32_t, Cfg>& cfgs,
                            uint32_t root) {
  ViewScaffold sc;
  sc.sites = build_site_table(cfgs);
  sc.supergraph = build_supergraph(cfgs, root);
  const CacheSupergraph& g = sc.supergraph;

  // Topological order of the call graph, callees before callers: an
  // iterative DFS with an explicit visit state to detect cycles.
  std::vector<uint8_t> done(g.func_addr.size(), 0);
  std::vector<uint8_t> on_path(g.func_addr.size(), 0);
  struct Frame {
    uint32_t func;
    std::vector<uint32_t> callees;
    std::size_t next = 0;
  };
  std::vector<Frame> stack;
  auto push = [&](uint32_t f) {
    Frame fr;
    fr.func = g.func_of(f);
    for (const auto& b : cfgs.at(f).blocks)
      if (b.call_target) fr.callees.push_back(*b.call_target);
    on_path[fr.func] = 1;
    stack.push_back(std::move(fr));
  };
  push(root);
  while (!stack.empty()) {
    Frame& fr = stack.back();
    if (fr.next < fr.callees.size()) {
      const uint32_t callee = fr.callees[fr.next++];
      const uint32_t c = g.func_of(callee);
      if (done[c]) continue;
      if (on_path[c]) {
        sc.bottom_up.clear();
        sc.recursive = callee;
        return sc;
      }
      push(callee);
    } else {
      sc.bottom_up.push_back(fr.func);
      done[fr.func] = 1;
      on_path[fr.func] = 0;
      stack.pop_back();
    }
  }
  return sc;
}

} // namespace spmwcet::wcet
