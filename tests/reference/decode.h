// The seed T16 decoder, kept as the test oracle of isa::decode: one case
// per major opcode with every field layout written out by hand, so it
// shares nothing with ops.def. reference::simulate decodes with it, and
// the exhaustive test in test_isa holds isa::decode field-exact against it
// on all 65,536 halfwords.
#pragma once

#include <cstdint>

#include "isa/instruction.h"

namespace spmwcet::reference {

/// Decodes one halfword like the seed decoder: signed immediates are
/// sign-extended, BL halves are returned individually. A sub field outside
/// its table throws Error.
isa::Instr decode(uint16_t word);

} // namespace spmwcet::reference
