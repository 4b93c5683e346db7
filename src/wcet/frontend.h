// The analyzer's two-phase front end: layout-invariant program structure
// split from layout-bound per-image state.
//
// Relinking a workload with a different scratchpad placement moves
// functions and globals around, but it never changes what the program *is*:
// the function set, every function's instruction stream (up to link-time
// immediates), basic-block structure, dominators, loops, and the bound
// annotations are all identical across every point of a sweep. The seed
// analyzer recomputed all of it per point; here it is computed once as a
// ProgramShape and bound to a concrete image:
//
//   ProgramShape   (one per workload)  function skeletons in offset space:
//                                      blocks, edges, call graph, loops.
//   ViewStructure  (one per bound      the shape bound to one link: CFGs at
//                   image)             its addresses, annotations, and what
//                                      the back end derives from the CFGs
//                                      alone (cache supergraph, bottom-up
//                                      function order).
//   ProgramView    (one per image or   a structure plus what a layout
//                   placement)         decides: each instruction site's
//                                      memory facts, the site table priced
//                                      from them, each function's base
//                                      address and the stack top.
//
// analyze_wcet(view, cfg) then runs only the genuinely layout-dependent
// passes (cache analysis, block timing, IPET). The cache branch of a sweep
// shares one image across all sizes, so it shares one ProgramView — CFG
// reconstruction, loop detection and value analysis run once per workload
// instead of once per point, and a cache point does only the work that
// depends on the geometry.
//
// Every view the harness analyzes comes from one RelocatableProgram per
// workload: the value analysis runs once over symbol-relative values, and
// the canonical view's facts are those facts placed at the canonical
// addresses. A placement changes only where objects land and which memory
// class each one is in, so bind_placement shares the canonical view's
// structure and builds only a facts vector — every site's facts relocated to
// the placement's addresses and classified against its region map — and
// the site table priced from it: no link, no decode, no CFG copy. IPET reads
// loop bounds at the canonical headers and skeletons by function index,
// both the same at every placement, and the report moves each block to its
// placed address. A function whose facts do not hold at a placement (the
// symbolic domain could not express a value of it, or the placement flips a
// symbol order they rely on) is analyzed at that placement's addresses,
// which the linked image would hold. bind_view on a linked image stays the
// API for an image the caller supplies, and the test oracle of both.
//
// Field-exactness: a view bound to image I produces byte-identical
// intermediate structures to the seed front end run on I (pinned by the
// parity suites in tests/test_wcet_frontend.cpp), so the shared back end
// yields field-identical WcetReports by construction.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "link/image.h"
#include "link/layout.h"
#include "program/decoded_image.h"
#include "wcet/annotations.h"
#include "wcet/cache_analysis.h"
#include "wcet/cfg.h"
#include "wcet/loops.h"
#include "wcet/mem_facts.h"
#include "wcet/site_table.h"
#include "wcet/value_analysis.h"

namespace spmwcet::wcet {

/// Layout-invariant skeleton of one function, in offset space (all
/// positions relative to the function's entry address).
struct FuncShape {
  std::string name;
  uint32_t code_bytes = 0; ///< extent of the function's code region

  struct Block {
    uint32_t first_off = 0; ///< offset of the first instruction
    uint32_t end_off = 0;   ///< one past the last instruction byte
    uint32_t ninstrs = 0;
    int callee = -1; ///< index into ProgramShape::funcs, -1 = no call
    bool is_exit = false;
    std::vector<int> out_edges; ///< indices into `edges`
    std::vector<int> in_edges;
  };
  std::vector<Block> blocks;
  std::vector<CfgEdge> edges;
  LoopInfo loops; ///< block ids are layout-free already
};

/// Layout-invariant skeleton of a whole program: every function reachable
/// from the entry, plus a content key tying the shape to its module.
struct ProgramShape {
  std::vector<FuncShape> funcs; ///< depth-first discovery order
  std::size_t root = 0;         ///< index of the entry function
  /// Layout-invariant module fingerprint (symbol names/sizes/kinds); a
  /// bind against an image of a different module is refused.
  uint64_t module_key = 0;
};

/// Hash of everything about an image that survives relinking: symbol
/// metadata (names, sizes, kinds — never addresses) plus the decoded
/// instruction stream of every function with the link-time-rewritten
/// fields (BL pair immediates, pool contents) masked out. Two links of
/// the same module agree; an image whose code differs even by one
/// same-size instruction does not, so a stale shape can never bind.
uint64_t module_fingerprint(const link::Image& img,
                            const program::DecodedImage& dec);

/// Builds the layout-invariant skeleton from any link of the module (the
/// canonical no-assignment image and every placed image yield the same
/// shape). Throws ProgramError on malformed code, like the seed front end.
ProgramShape build_shape(const link::Image& img,
                         const program::DecodedImage& dec);

/// The part of a view no placement changes: the shape bound to one link's
/// addresses, and what the back end derives from its CFGs alone, so no
/// analysis rebuilds them — every cache size walks the same supergraph,
/// and IPET visits functions in the same bottom-up order. Immutable once
/// built; the canonical view and every placement of a relocatable program
/// share one.
struct ViewStructure {
  std::shared_ptr<const ProgramShape> shape;
  uint32_t root = 0; ///< entry function address in this link
  Annotations ann;
  std::map<uint32_t, Cfg> cfgs; ///< keyed by function address
  std::map<uint32_t, const LoopInfo*> loops; ///< borrowed from the shape
  /// This link's address of each function -> its ProgramShape::funcs index.
  /// Stable across placements of one shape; keys the per-workload IPET
  /// skeleton cache.
  std::map<uint32_t, std::size_t> func_index;
  CacheSupergraph supergraph;
  /// Functions callees before callers, as ordinals into
  /// supergraph.func_addr; empty when the call graph recurses.
  std::vector<uint32_t> bottom_up;
  /// Address of the function at which recursion was found, if any;
  /// analyze_wcet refuses such a view (unbounded WCET).
  std::optional<uint32_t> recursive;
};

/// Builds `s`'s supergraph and bottom-up order (or finds its recursion)
/// from its CFGs and root.
void build_scaffold(ViewStructure& s);

/// A structure at one layout: the memory facts of every instruction site
/// (resolve_memory, place_memory), the site table priced from them, and
/// where each function and the stack sit. Immutable after binding; safe to
/// share across threads and analyses.
struct ProgramView {
  std::shared_ptr<const ViewStructure> structure;
  /// Per instruction site, in site order (wcet/site_table.h).
  std::vector<MemFacts> facts;
  /// Priced from `facts` over the structure's CFGs; its sites sit at
  /// `func_base`.
  SiteTable sites;
  /// Each function's base address at this layout, by ordinal (structure
  /// key order); the report moves every block by its function's base.
  std::vector<uint32_t> func_base;
  uint32_t stack_top = 0; ///< initial stack pointer
  /// Unused by the analysis; perfbench's replica still assigns it. It goes
  /// with the traced replica (ROADMAP item 1's benchmark change).
  std::shared_ptr<const link::Image> pinned_image;
};

/// The view of `structure` with `facts` (one per site), each function at
/// `func_base` (empty: at its CFG's address) and the stack at `stack_top`;
/// prices the site table.
ProgramView make_view(std::shared_ptr<const ViewStructure> structure,
                      std::vector<MemFacts> facts, uint32_t stack_top,
                      std::vector<uint32_t> func_base = {});

/// Binds `shape` to `img` (with `dec` the shared decode of the same image):
/// materializes per-function CFGs at this layout's addresses, applies
/// annotations (`overrides` replaces the image-derived set; with
/// `auto_loop_bounds`, detected counted-loop bounds fill unannotated
/// headers), builds the structure's scaffold, and runs the value analysis,
/// which resolves every instruction's memory facts into the view. Throws
/// ProgramError when the image does not belong to the shape's module.
ProgramView bind_view(std::shared_ptr<const ProgramShape> shape,
                      const link::Image& img,
                      const program::DecodedImage& dec,
                      bool auto_loop_bounds = false,
                      const Annotations* overrides = nullptr);

/// A workload's front end in placement-independent form: the canonical CFGs
/// bound from the shape, and every instruction's data access from one value
/// analysis over symbol-relative values, in which literal-pool words and
/// access hints are references to the symbols the link's relocations name.
/// Symbol ids are the module's functions in module order, then its globals.
/// Immutable; shared by every placement.
struct RelocatableProgram {
  /// The view bound to the canonical (no-scratchpad) image: every function's
  /// facts placed at the canonical addresses. Its structure is every
  /// placement's.
  std::shared_ptr<const ProgramView> canonical;

  /// A literal-pool word as the link writes it: `value` (sym kAbsolute), or
  /// symbol `sym`'s address plus `value`.
  struct PoolWord {
    uint32_t sym = kAbsolute;
    uint32_t value = 0;
  };
  struct Function {
    /// Index among the module's functions, -1 for the start stub.
    int32_t module_function = -1;
    link::FunctionExtent extent; ///< zero for the start stub
    std::vector<PoolWord> pool;  ///< in slot order
    /// The analysis under the canonical placement's symbol order; nullopt
    /// when the symbolic domain cannot express a value of it, so every
    /// placement analyzes the function at its own addresses.
    std::optional<SymbolicFacts> facts;
  };
  /// Per function of the canonical view, in its cfgs key order.
  std::vector<Function> functions;
  /// Bytes of each symbol's object (a function's code and pool), by id.
  std::vector<uint32_t> symbol_bytes;
  /// The symbol id each access hint names, by the hinted instruction's
  /// canonical address; a hint covers the whole object.
  std::unordered_map<uint32_t, uint32_t> hints;
};

/// Binds `shape` to the canonical image `img` of `mod` (decoded as `dec`,
/// its functions laid out with `extents`) and runs the symbolic value
/// analysis once per function; the canonical view's facts are those facts
/// at the canonical addresses. Throws like bind_view.
RelocatableProgram build_relocatable(std::shared_ptr<const ProgramShape> shape,
                                     const link::Image& img,
                                     const program::DecodedImage& dec,
                                     const minic::ObjModule& mod,
                                     std::span<const link::FunctionExtent> extents);

/// A placement bound from the relocatable program, and how many of its
/// functions were analyzed at the placement's addresses because their facts
/// do not hold there.
struct PlacementBinding {
  ProgramView view;
  uint32_t reanalyzed = 0;
};

/// Binds one placement: assigns every function its base from `addrs`
/// (link::assign_addresses under `opts`), relocates each site's facts,
/// classifies them against the placement's region map, and prices the site
/// table. The view shares the canonical view's structure; function by
/// function it equals bind_view on the linked placement in every memory
/// fact, site and report field (SpmSoundness in
/// tests/test_spm_soundness.cpp).
PlacementBinding bind_placement(const RelocatableProgram& rp,
                                const minic::ObjModule& mod,
                                std::span<const link::FunctionExtent> extents,
                                const link::LinkOptions& opts,
                                const link::AddressMap& addrs);

} // namespace spmwcet::wcet
