// The analyzer's two-phase front end: layout-invariant program structure
// split from layout-bound per-image state.
//
// Relinking a workload with a different scratchpad placement moves
// functions and globals around, but it never changes what the program *is*:
// the function set, every function's instruction stream (up to link-time
// immediates), basic-block structure, dominators, loops, and the bound
// annotations are all identical across every point of a sweep. The seed
// analyzer recomputed all of it per point; here it is computed once as a
// ProgramShape and re-bound to each concrete image:
//
//   ProgramShape  (one per workload)   function skeletons in offset space:
//                                      blocks, edges, call graph, loops.
//   ProgramView   (one per image)      the shape bound to a layout: CFGs
//                                      with real addresses and this link's
//                                      immediates, annotations, and each
//                                      instruction's memory facts from the
//                                      value analysis.
//
// analyze_wcet(view, cfg) then runs only the genuinely layout-dependent
// passes (cache analysis, block timing, IPET). The cache branch of a sweep
// shares one image across all sizes, so it shares one ProgramView — CFG
// reconstruction, loop detection and value analysis run once per workload
// instead of once per point. The view's scaffold also fixes what no cache
// geometry changes — the cache supergraph, the site table that prices
// every access the cache does not classify, and the bottom-up function
// order — so a cache point analyzed on it does only the work that depends
// on the geometry.
//
// Every view the harness analyzes comes from one RelocatableProgram per
// workload: the value analysis runs once over symbol-relative values, and
// the canonical view's facts are those facts placed at the canonical
// addresses. A placement changes only where objects land and which memory
// class each one is in, so bind_placement relocates every site's facts to
// the placement's addresses and classifies them against its region map —
// no link, no decode. A function whose facts do not hold at a placement (the
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

/// What the back end derives from a view's CFGs alone, built once per view
/// so no analysis of it rebuilds them: every cache size analyzed on the
/// view walks the same cache supergraph, reads the same site table, and
/// IPET visits functions in the same bottom-up order.
struct ViewScaffold {
  CacheSupergraph supergraph;
  /// Per-site accesses, per-block base cycles and per-function edge
  /// penalties (wcet/site_table.h): the cache transfer and block timing
  /// read it, so a cache point does only the geometry-dependent work.
  SiteTable sites;
  /// Functions callees before callers, as ordinals into
  /// supergraph.func_addr; empty when the call graph recurses.
  std::vector<uint32_t> bottom_up;
  /// Address of the function at which recursion was found, if any;
  /// analyze_wcet refuses such a view (unbounded WCET).
  std::optional<uint32_t> recursive;
};

/// Builds the scaffold of the program rooted at `root` over `cfgs`, whose
/// memory facts must have been resolved (resolve_memory).
ViewScaffold build_scaffold(const std::map<uint32_t, Cfg>& cfgs,
                            uint32_t root);

/// The shape bound to one concrete image: real addresses, this link's
/// literal pools and immediates, annotations, and value-analysis results
/// (CfgInstr::mem of every bound CFG). Immutable after bind_view; safe to
/// share across threads and analyses.
struct ProgramView {
  std::shared_ptr<const ProgramShape> shape;
  /// Optional lifetime pins for cached views (the borrowed pointers below
  /// must outlive the view; harness caches hand in shared ownership).
  std::shared_ptr<const link::Image> pinned_image;

  /// The bound image; null for a placement's view (bind_placement), which
  /// only an uncached analysis may read.
  const link::Image* img = nullptr;
  uint32_t root = 0; ///< entry function address in this image
  /// From bind_placement: the loop bounds and totals of the view's
  /// functions only (its memory facts are resolved already).
  Annotations ann;
  std::map<uint32_t, Cfg> cfgs; ///< keyed by function address; facts resolved
  std::map<uint32_t, const LoopInfo*> loops;    ///< borrowed from the shape
  /// This image's address of each function -> its ProgramShape::funcs index.
  /// Stable across placements of one shape; keys the per-workload IPET
  /// skeleton cache.
  std::map<uint32_t, std::size_t> func_index;
  /// Built from `cfgs` and `root` by bind_view (build_scaffold); shared by
  /// every analysis of the view. It names CFGs by key order, not by
  /// address of the map nodes, so copies of the view stay valid.
  ViewScaffold scaffold;
};

/// Binds `shape` to `img` (with `dec` the shared decode of the same image):
/// materializes per-function CFGs at this layout's addresses, applies
/// annotations (`overrides` replaces the image-derived set; with
/// `auto_loop_bounds`, detected counted-loop bounds fill unannotated
/// headers), and runs the value analysis, which resolves every
/// instruction's memory facts into the bound CFGs, then builds the view's
/// scaffold. Throws ProgramError when the image does not belong to the
/// shape's module.
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
  /// facts placed at the canonical addresses. Pins the image.
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
                                     std::shared_ptr<const link::Image> img,
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

/// Binds one placement: assigns every function its address from `addrs`
/// (link::assign_addresses under `opts`), relocates the CFGs and each site's
/// facts, classifies them against the placement's region map, and builds
/// the scaffold. The view equals bind_view on the linked placement in every
/// memory fact, site and report field (SpmSoundness in
/// tests/test_spm_soundness.cpp); it carries no image.
PlacementBinding bind_placement(const RelocatableProgram& rp,
                                const minic::ObjModule& mod,
                                std::span<const link::FunctionExtent> extents,
                                const link::LinkOptions& opts,
                                const link::AddressMap& addrs);

} // namespace spmwcet::wcet
