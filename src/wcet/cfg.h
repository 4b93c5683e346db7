// Control-flow-graph reconstruction from the linked binary, the first stage
// of the aiT-style analyzer: instructions are decoded straight from the
// image (region map gives each function's code extent), leaders are branch
// targets and post-branch instructions, and calls terminate blocks so the
// interprocedural cache analysis can splice callee effects in.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "isa/instruction.h"
#include "link/image.h"
#include "program/decoded_image.h"
#include "wcet/mem_facts.h"

namespace spmwcet::wcet {

/// A decoded instruction with its address; BL pairs occupy one entry.
struct CfgInstr {
  uint32_t addr = 0;
  uint32_t size = 2;
  isa::Instr ins;
  isa::Instr bl_lo; ///< valid when ins.op == BL_HI
  MemFacts mem;     ///< layout facts, filled in by resolve_memory
};

enum class EdgeKind : uint8_t {
  Fallthrough, ///< sequential or not-taken conditional
  Taken,       ///< taken branch (pays the pipeline refill penalty)
  CallCont,    ///< from a call block to its continuation
};

struct CfgEdge {
  int from = -1;
  int to = -1;
  EdgeKind kind = EdgeKind::Fallthrough;
};

struct BasicBlock {
  int id = -1;
  uint32_t first_addr = 0;
  uint32_t end_addr = 0; ///< one past the last instruction byte
  std::vector<CfgInstr> instrs;
  /// Callee entry address when the block is terminated by a BL.
  std::optional<uint32_t> call_target;
  bool is_exit = false; ///< ends in a return (POP pc) or HALT
  std::vector<int> out_edges; ///< indices into Cfg::edges
  std::vector<int> in_edges;
};

/// Per-function CFG.
struct Cfg {
  std::string name;
  uint32_t func_addr = 0;
  std::vector<BasicBlock> blocks; ///< blocks[0] is the entry block
  std::vector<CfgEdge> edges;
  /// Set by resolve_memory once every CfgInstr::mem holds this image's
  /// facts; the back end refuses a CFG without them.
  bool mem_resolved = false;

  const BasicBlock& entry() const { return blocks.front(); }

  /// Block whose first_addr equals `addr`, or -1.
  int block_at(uint32_t addr) const;
};

/// Reconstructs the CFG of the function whose code region starts at
/// `func_addr` (must match a function symbol). Throws ProgramError on
/// undecodable code or control flow escaping the function's code region
/// (other than via calls and returns).
Cfg build_cfg(const link::Image& img, uint32_t func_addr);

/// Same reconstruction, reading instructions from the shared predecode
/// table instead of re-decoding image bytes (`dec` must describe `img`).
Cfg build_cfg(const link::Image& img, const program::DecodedImage& dec,
              uint32_t func_addr);

/// All function entry addresses reachable from `root` through BL calls
/// (including `root`), in depth-first discovery order.
std::vector<uint32_t> reachable_functions(const link::Image& img,
                                          uint32_t root);

/// One-pass variant of reachable_functions + build_cfg: discovers every
/// function reachable from `root` and builds each CFG exactly once from
/// the shared predecode table. `discovery`, when non-null, receives the
/// entry addresses in depth-first discovery order.
std::map<uint32_t, Cfg> build_all_cfgs(const link::Image& img,
                                       const program::DecodedImage& dec,
                                       uint32_t root,
                                       std::vector<uint32_t>* discovery = nullptr);

} // namespace spmwcet::wcet
