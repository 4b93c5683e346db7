// Binary encoder for T16 instructions (Instr -> 16-bit halfword).
#pragma once

#include "isa/instruction.h"

namespace spmwcet::isa {

/// Encodes a single decoded instruction into its 16-bit binary form.
/// Throws ProgramError if a field is out of range (e.g. an immediate that
/// does not fit); the linker relies on this to detect missed relaxations.
/// A BL pair must be encoded as two Instr values (BL_HI then BL_LO).
uint16_t encode(const Instr& ins);

/// Splits a 22-bit signed halfword offset into the BL_HI/BL_LO pair.
/// `soff22` is relative to the BL_HI address per branch_target semantics.
void encode_bl(int32_t soff22, Instr& hi, Instr& lo);

} // namespace spmwcet::isa
