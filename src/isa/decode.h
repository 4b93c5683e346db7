// Binary decoder for T16 instructions (16-bit halfword -> Instr).
#pragma once

#include "isa/instruction.h"

namespace spmwcet::isa {

/// Decodes one halfword by its format's ops.def field list. Signed
/// immediates are sign-extended; BL halves are returned individually (use
/// decode_bl to combine a pair). A sub field outside its table throws
/// ProgramError naming the field and the halfword.
Instr decode(uint16_t word);

/// Combines a BL_HI/BL_LO pair into the signed 22-bit halfword offset
/// relative to the BL_HI address (branch_target semantics).
int32_t decode_bl(const Instr& hi, const Instr& lo);

} // namespace spmwcet::isa
