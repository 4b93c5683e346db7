// The memory and execution timing model — the single source of truth shared
// by the simulator and the WCET analyzer.
//
// This reproduces Table 1 of the paper (ATMEL AT91EB01-like board):
//
//   Access width        Main memory   Scratchpad
//   byte  (8 bit)            2            1
//   half (16 bit)            2            1
//   word (32 bit)            4            1
//
// i.e. one cycle for the access itself plus 1 waitstate for 8/16-bit main
// memory accesses and 3 waitstates for 32-bit ones; the scratchpad always
// answers in a single cycle. A unified cache (16-byte lines of four 32-bit
// words) answers hits in 1 cycle; a miss triggers a line fill of four
// 32-bit main-memory reads (4 * 4 = 16 cycles, no burst support) plus the
// delivery cycle, 17 cycles total. Stores are write-through/no-allocate and
// always pay the main-memory cost for their width.
//
// Because simulator and analyzer use exactly these constants, the WCET of a
// scratchpad configuration is exact up to path overestimation — mirroring
// the paper, where the only WCET/ACET gap in the scratchpad case stems from
// typical-versus-worst-case input data.
#pragma once

#include <cstdint>

#include "isa/instruction.h"

namespace spmwcet::isa {

/// Memory class of an address, as assigned by the linker's region map.
enum class MemClass : uint8_t {
  MainMemory, ///< external memory with width-dependent waitstates
  Scratchpad, ///< on-chip SPM, single-cycle, never cached
};

/// Cycle counts of the memory hierarchy (paper Table 1).
struct MemTiming {
  /// Cycles for an uncached access of `bytes` in {1,2,4} to main memory.
  static constexpr uint32_t main_memory(uint32_t bytes) {
    return bytes == 4 ? 4 : 2;
  }
  /// Cycles for any scratchpad access.
  static constexpr uint32_t scratchpad() { return 1; }
  /// Cycles for a cache hit.
  static constexpr uint32_t cache_hit() { return 1; }
  /// Cycles for a cache miss: delivery + line fill (4 words, no burst).
  static constexpr uint32_t cache_miss(uint32_t line_bytes = 16) {
    return 1 + (line_bytes / 4) * main_memory(4);
  }
  /// Cycles for an uncached access by memory class.
  static constexpr uint32_t uncached(MemClass cls, uint32_t bytes) {
    return cls == MemClass::Scratchpad ? scratchpad() : main_memory(bytes);
  }
};

/// Extra execution cycles beyond memory accesses, modelled after ARM7TDMI
/// behaviour (pipeline refill on taken branches, iterative multiply/divide).
struct ExecTiming {
  static constexpr uint32_t taken_branch_penalty = 2; // B, taken BCC
  static constexpr uint32_t call_penalty = 2;         // BL (after both fetches)
  static constexpr uint32_t return_penalty = 2;       // POP {...,pc}
  static constexpr uint32_t mul_extra = 3;
  static constexpr uint32_t div_extra = 18;

  /// Non-memory extra cycles of one instruction, excluding branch penalties
  /// (the penalty applies only on the taken edge and is attributed to edges
  /// by both the simulator and the analyzer).
  static constexpr uint32_t compute_extra(const Instr& ins) {
    if (ins.op != Op::ALU) return 0;
    switch (static_cast<AluOp>(ins.sub)) {
      case AluOp::MUL: return mul_extra;
      case AluOp::SDIV:
      case AluOp::UDIV: return div_extra;
      default: return 0;
    }
  }
};

} // namespace spmwcet::isa
