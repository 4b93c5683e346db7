// T16: a THUMB-like 16-bit instruction set.
//
// T16 preserves the properties of ARM7 THUMB that the paper's memory-timing
// study depends on:
//   * all instructions are 16-bit (one halfword fetch each), except BL,
//     which is a pair of halfwords as in THUMB;
//   * 32-bit constants and symbol addresses are loaded from literal pools
//     placed in the code region (LDR_LIT), so the code region contains both
//     16-bit instruction fetches and 32-bit data reads;
//   * eight general-purpose registers r0..r7 plus sp, lr and pc;
//   * CMP/CMPI set the NZCV flags; conditional branches test them.
//
// The in-memory representation is a decoded `Instr` struct. The instruction
// set is described once, in `ops.def`: each major opcode's field layout
// (format), names, memory access and sub-field table, and the rows of the
// sub tables. The enums and operand properties below are generated from
// it, and decode.h, encode.h and disasm.h read it. Register fields are 3
// bits wide and only name r0..r7; sp/lr/pc are reachable only through
// dedicated opcodes (LDR_SP, PUSH/POP, ...), as in the THUMB subset the
// paper's compiler emits.
#pragma once

#include <bit>
#include <cstdint>
#include <span>

#include "support/diag.h"

namespace spmwcet::isa {

/// General-purpose register index r0..r7.
using Reg = uint8_t;
inline constexpr Reg kNumRegs = 8;

// Major opcodes (value == encoding bits [15:11]) and the sub-field values.
enum class Op : uint8_t {
#define T16_OP(op, ...) op,
#include "isa/ops.def"
};
enum class AluOp : uint8_t {
#define T16_ALU(op, ...) op,
#include "isa/ops.def"
};
enum class ShiftOp : uint8_t {
#define T16_SHIFT(op, ...) op,
#include "isa/ops.def"
};
enum class LdxOp : uint8_t {
#define T16_LDX(op, ...) op,
#include "isa/ops.def"
};
enum class StxOp : uint8_t {
#define T16_STX(op, ...) op,
#include "isa/ops.def"
};
enum class Cond : uint8_t {
#define T16_COND(cond, ...) cond,
#include "isa/ops.def"
};
enum class SysFn : uint8_t {
#define T16_SYS(fn, ...) fn,
#include "isa/ops.def"
};
enum class Format : uint8_t {
#define T16_FORMAT(format, fields) format,
#include "isa/ops.def"
};

/// The Instr member an encoding field fills, and its signedness.
enum class Field : uint8_t { Rd, Rn, Rm, Sub, Imm };
enum class Sign : uint8_t { U, S };
/// Data access of an op; PUSH/POP transfers are described by
/// transfer_count instead.
enum class Access : uint8_t { None, Load, LoadS, Store };
/// The address an op computes (see ops.def).
enum class Addr : uint8_t { None, Reg, Sp, Lit, Idx };

/// One row of a sub table (only the memory rows carry access and width).
struct SubRow {
  const char* mnemonic;
  Access access = Access::None;
  uint8_t bytes = 0;
  bool reads_rd = false; ///< SYS: the function takes rd (OUT)
};

// Sub tables, indexed by the Sub field. An op without a sub field has one
// row (Sub is 0), a flag bit two; both add nothing to the mnemonic.
inline constexpr SubRow kNoneRows[] = {{""}};
inline constexpr SubRow kFlagRows[] = {{""}, {""}};
inline constexpr SubRow kAluRows[] = {
#define T16_ALU(op, mnemonic) {mnemonic},
#include "isa/ops.def"
};
inline constexpr SubRow kShiftRows[] = {
#define T16_SHIFT(op, mnemonic) {mnemonic},
#include "isa/ops.def"
};
inline constexpr SubRow kLdxRows[] = {
#define T16_LDX(op, mnemonic, access, bytes) {mnemonic, Access::access, bytes},
#include "isa/ops.def"
};
inline constexpr SubRow kStxRows[] = {
#define T16_STX(op, mnemonic, access, bytes) {mnemonic, Access::access, bytes},
#include "isa/ops.def"
};
inline constexpr SubRow kCondRows[] = {
#define T16_COND(cond, mnemonic) {mnemonic},
#include "isa/ops.def"
};
inline constexpr SubRow kSysRows[] = {
#define T16_SYS(fn, mnemonic, reads_rd) {mnemonic, Access::None, 0, reads_rd},
#include "isa/ops.def"
};
inline constexpr uint8_t kNumAluOps = std::size(kAluRows);
inline constexpr uint8_t kNumConds = std::size(kCondRows);

/// One ops.def T16_OP row (its format is in kFormatOf).
struct OpInfo {
  const char* name;     ///< the op's name in errors
  const char* mnemonic; ///< disassembly, before the sub row's mnemonic
  Access access;
  uint8_t bytes; ///< access width; 0 on a memory op: the sub row's
  Addr addr;
  uint8_t scale;                ///< byte offset = imm * scale
  std::span<const SubRow> subs; ///< legal Sub values = subs.size()
};

inline constexpr OpInfo kOps[] = {
#define T16_OP(op, format, name, mnemonic, access, bytes, addr, scale, sub) \
  {name, mnemonic, Access::access, bytes, Addr::addr, scale, k##sub##Rows},
#include "isa/ops.def"
};
static_assert(std::size(kOps) == 32, "one row per 5-bit major opcode");
/// Each opcode's format, apart from kOps so the decode and encode dispatch
/// reads one byte.
inline constexpr Format kFormatOf[] = {
#define T16_OP(op, format, ...) Format::format,
#include "isa/ops.def"
};

/// Bits a format decodes: the major opcode plus its fields. Decode ignores
/// the rest and encode leaves them zero.
inline constexpr uint16_t kFormatBits[] = {
#define T16_FIELD(kind, hi, lo, sign, name) |(((1u << (hi - lo + 1)) - 1) << lo)
#define T16_FORMAT(format, fields) static_cast<uint16_t>(0xf800u fields),
#include "isa/ops.def"
};

/// A decoded instruction. Fields not used by an opcode are zero.
///
/// `imm` holds the unscaled immediate field (e.g. the word index for LDR,
/// the signed halfword offset for branches, the register list for PUSH/POP).
struct Instr {
  Op op = Op::SYS;
  uint8_t sub = 0; // AluOp/ShiftOp/LdxOp/StxOp/Cond/SysFn/flag bit, per op
  Reg rd = 0;
  Reg rn = 0;
  Reg rm = 0;
  int32_t imm = 0;

  friend bool operator==(const Instr&, const Instr&) = default;
};

constexpr const OpInfo& info(Op op) { return kOps[static_cast<uint8_t>(op)]; }
constexpr Format format(Op op) { return kFormatOf[static_cast<uint8_t>(op)]; }

/// The sub-table row `ins.sub` selects; nullptr when out of range.
constexpr const SubRow* sub_row(const Instr& ins) {
  const std::span<const SubRow> rows = info(ins.op).subs;
  return ins.sub < rows.size() ? &rows[ins.sub] : nullptr;
}

/// Literal-pool base for a pc-relative LDR_LIT/ADR at address `iaddr`:
/// the word-aligned address at or after the next instruction.
constexpr uint32_t lit_base(uint32_t iaddr) { return (iaddr + 2 + 3) & ~3u; }

/// Branch target of a BCC/B whose signed halfword offset is `soff`.
constexpr uint32_t branch_target(uint32_t iaddr, int32_t soff) {
  return iaddr + 4 + static_cast<uint32_t>(soff * 2);
}

/// Inverse of branch_target: halfword offset to reach `target` from `iaddr`.
constexpr int32_t branch_offset(uint32_t iaddr, uint32_t target) {
  return (static_cast<int32_t>(target) - static_cast<int32_t>(iaddr) - 4) / 2;
}

/// Condition negation (used for branch relaxation): the encoding pairs
/// EQ/NE, LT/GE, LE/GT and LO/HS.
constexpr Cond negate(Cond c) {
  return static_cast<Cond>(static_cast<uint8_t>(c) ^ 1u);
}

/// Byte offset the immediate encodes (imm * the op's scale): the
/// displacement of a Reg/Sp/Lit address, the ADJSP adjustment.
constexpr int32_t scaled_imm(const Instr& ins) {
  return ins.imm * info(ins.op).scale;
}

/// The literal-pool address a LDR_LIT/ADR at `iaddr` reads or yields.
constexpr uint32_t lit_address(uint32_t iaddr, const Instr& ins) {
  return lit_base(iaddr) + static_cast<uint32_t>(scaled_imm(ins));
}

/// Data-access classification (PUSH/POP are neither).
constexpr bool is_load(const Instr& ins) {
  return info(ins.op).access == Access::Load ||
         info(ins.op).access == Access::LoadS;
}
constexpr bool is_store(const Instr& ins) {
  return info(ins.op).access == Access::Store;
}

/// Memory access width in bytes for load/store opcodes; 0 for non-memory.
/// PUSH/POP/ADJSP are handled separately (word accesses).
constexpr uint32_t mem_access_bytes(const Instr& ins) {
  const SubRow* row = sub_row(ins);
  return info(ins.op).bytes != 0 ? info(ins.op).bytes
         : row != nullptr        ? row->bytes
                                 : 0;
}

/// True for a load that sign-extends its value into rd.
constexpr bool sign_extends(const Instr& ins) {
  return info(ins.op).access == Access::LoadS ||
         (sub_row(ins) != nullptr && sub_row(ins)->access == Access::LoadS);
}

/// Control-flow classification used by the CFG reconstructor.
constexpr bool is_return(const Instr& ins) { // POP with the pc bit
  return ins.op == Op::POP && ins.sub != 0;
}
constexpr bool is_halt(const Instr& ins) {
  return ins.op == Op::SYS && ins.sub == static_cast<uint8_t>(SysFn::HALT);
}

/// Number of registers transferred by a PUSH/POP: the list, plus lr (PUSH)
/// or pc (POP) when the flag bit is set.
constexpr uint32_t transfer_count(const Instr& ins) {
  SPMWCET_CHECK(ins.op == Op::PUSH || ins.op == Op::POP);
  return (ins.sub != 0 ? 1u : 0u) +
         std::popcount(static_cast<uint32_t>(ins.imm) & 0xffu);
}

} // namespace spmwcet::isa
