#include "reference/decode.h"

#include "support/bitops.h"
#include "support/diag.h"

namespace spmwcet::reference {

using namespace isa;

Instr decode(uint16_t word) {
  const uint32_t w = word;
  const Op op = static_cast<Op>(bits(w, 15, 11));
  Instr ins;
  ins.op = op;
  switch (op) {
    case Op::MOVI:
    case Op::ADDI:
    case Op::SUBI:
    case Op::CMPI:
      ins.rd = static_cast<Reg>(bits(w, 10, 8));
      ins.imm = static_cast<int32_t>(bits(w, 7, 0));
      break;
    case Op::ALU:
      ins.sub = static_cast<uint8_t>(bits(w, 10, 7));
      ins.rm = static_cast<Reg>(bits(w, 5, 3));
      ins.rd = static_cast<Reg>(bits(w, 2, 0));
      SPMWCET_CHECK_MSG(ins.sub < kNumAluOps, "invalid ALU sub-opcode");
      break;
    case Op::ADD3:
    case Op::SUB3:
      ins.rm = static_cast<Reg>(bits(w, 8, 6));
      ins.rn = static_cast<Reg>(bits(w, 5, 3));
      ins.rd = static_cast<Reg>(bits(w, 2, 0));
      break;
    case Op::ADDI3:
    case Op::SUBI3:
      ins.imm = static_cast<int32_t>(bits(w, 8, 6));
      ins.rn = static_cast<Reg>(bits(w, 5, 3));
      ins.rd = static_cast<Reg>(bits(w, 2, 0));
      break;
    case Op::SHIFTI:
      ins.sub = static_cast<uint8_t>(bits(w, 10, 9));
      ins.imm = static_cast<int32_t>(bits(w, 8, 4));
      ins.rd = static_cast<Reg>(bits(w, 2, 0));
      SPMWCET_CHECK_MSG(ins.sub <= 2, "invalid SHIFTI sub-opcode");
      break;
    case Op::LDR:
    case Op::STR:
    case Op::LDRH:
    case Op::STRH:
    case Op::LDRB:
    case Op::STRB:
    case Op::LDRSH:
    case Op::LDRSB:
      ins.imm = static_cast<int32_t>(bits(w, 10, 6));
      ins.rn = static_cast<Reg>(bits(w, 5, 3));
      ins.rd = static_cast<Reg>(bits(w, 2, 0));
      break;
    case Op::LDR_LIT:
    case Op::ADR:
    case Op::LDR_SP:
    case Op::STR_SP:
      ins.rd = static_cast<Reg>(bits(w, 10, 8));
      ins.imm = static_cast<int32_t>(bits(w, 7, 0));
      break;
    case Op::ADJSP:
      ins.sub = static_cast<uint8_t>(bits(w, 10, 10));
      ins.imm = static_cast<int32_t>(bits(w, 6, 0));
      break;
    case Op::PUSH:
    case Op::POP:
      ins.sub = static_cast<uint8_t>(bits(w, 8, 8));
      ins.imm = static_cast<int32_t>(bits(w, 7, 0));
      break;
    case Op::BCC:
      ins.sub = static_cast<uint8_t>(bits(w, 10, 8));
      ins.imm = sign_extend(bits(w, 7, 0), 8);
      break;
    case Op::B:
      ins.imm = sign_extend(bits(w, 10, 0), 11);
      break;
    case Op::BL_HI:
    case Op::BL_LO:
      ins.imm = static_cast<int32_t>(bits(w, 10, 0));
      break;
    case Op::LDX:
      ins.sub = static_cast<uint8_t>(bits(w, 10, 9));
      ins.rm = static_cast<Reg>(bits(w, 8, 6));
      ins.rn = static_cast<Reg>(bits(w, 5, 3));
      ins.rd = static_cast<Reg>(bits(w, 2, 0));
      SPMWCET_CHECK_MSG(ins.sub <= 3, "invalid LDX sub-opcode");
      break;
    case Op::STX:
      ins.sub = static_cast<uint8_t>(bits(w, 10, 9));
      ins.rm = static_cast<Reg>(bits(w, 8, 6));
      ins.rn = static_cast<Reg>(bits(w, 5, 3));
      ins.rd = static_cast<Reg>(bits(w, 2, 0));
      SPMWCET_CHECK_MSG(ins.sub <= 2, "invalid STX sub-opcode");
      break;
    case Op::SYS:
      ins.sub = static_cast<uint8_t>(bits(w, 10, 8));
      ins.rd = static_cast<Reg>(bits(w, 2, 0));
      SPMWCET_CHECK_MSG(ins.sub <= 2, "invalid SYS function");
      break;
  }
  return ins;
}

} // namespace spmwcet::reference
