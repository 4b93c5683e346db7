#include "isa/disasm.h"

#include <sstream>

#include "isa/decode.h"

namespace spmwcet::isa {

namespace {
std::string reg(Reg r) { return "r" + std::to_string(r); }
std::string hex(uint32_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}
std::string reglist(uint32_t list, const char* extra) {
  std::string s;
  for (unsigned r = 0; r < 8; ++r)
    if (list & (1u << r)) s += "," + reg(static_cast<Reg>(r));
  if (extra[0] != '\0') s += std::string(",") + extra;
  return "{" + (s.empty() ? s : s.substr(1)) + "}";
}
} // namespace

std::string disassemble(const Instr& ins, uint32_t addr, const Instr* bl_lo) {
  const OpInfo& o = info(ins.op);
  const SubRow* row = sub_row(ins);
  std::ostringstream os;
  // The op's mnemonic, then its sub row's (alu/shift/ldx/stx/cond/sys).
  os << o.mnemonic << (row != nullptr ? row->mnemonic : "");
  switch (format(ins.op)) {
    case Format::RdImm8:
      os << " " << reg(ins.rd) << ", ";
      if (o.addr == Addr::Sp)
        os << "[sp, #" << scaled_imm(ins) << "]";
      else if (o.addr == Addr::Lit)
        os << (is_load(ins) ? "=" : "")
           << hex(lit_address(addr, ins));
      else
        os << "#" << ins.imm;
      break;
    case Format::Alu: os << " " << reg(ins.rd) << ", " << reg(ins.rm); break;
    case Format::R3:
      os << " " << reg(ins.rd) << ", " << reg(ins.rn) << ", " << reg(ins.rm);
      break;
    case Format::RI3:
      os << " " << reg(ins.rd) << ", " << reg(ins.rn) << ", #" << ins.imm;
      break;
    case Format::Shift: os << " " << reg(ins.rd) << ", #" << ins.imm; break;
    case Format::Mem5:
      os << " " << reg(ins.rd) << ", [" << reg(ins.rn) << ", #"
         << scaled_imm(ins) << "]";
      break;
    case Format::AdjSp:
      os << (ins.sub ? "sub" : "add") << " sp, #" << scaled_imm(ins);
      break;
    case Format::RList: // the flag adds lr to a push, pc to a pop
      os << " " << reglist(static_cast<uint32_t>(ins.imm),
                           !ins.sub ? "" : ins.op == Op::PUSH ? "lr" : "pc");
      break;
    case Format::Bcc:
    case Format::B: os << " " << hex(branch_target(addr, ins.imm)); break;
    case Format::BlHalf:
      if (ins.op == Op::BL_HI && bl_lo != nullptr) // the whole pair
        return "bl " + hex(branch_target(addr, decode_bl(ins, *bl_lo)));
      os << " #" << ins.imm;
      break;
    case Format::Rx:
      os << " " << reg(ins.rd) << ", [" << reg(ins.rn) << ", " << reg(ins.rm)
         << "]";
      break;
    case Format::Sys:
      if (row != nullptr && row->reads_rd) os << " " << reg(ins.rd);
      break;
  }
  return os.str();
}

} // namespace spmwcet::isa
