#include "isa/encode.h"

#include <string>

#include "support/bitops.h"
#include "support/diag.h"

namespace spmwcet::isa {

namespace {

[[noreturn, gnu::noinline, gnu::cold]] void field_error(const Instr& ins,
                                                     const char* what) {
  throw ProgramError(std::string("encode: ") + what + " out of range for " +
                     info(ins.op).name + " (imm=" + std::to_string(ins.imm) +
                     ")");
}

/// An Instr that breaks an internal invariant (a register index or a Sub
/// value out of range). Out of line, so encode's fast path stays small.
[[noreturn, gnu::noinline, gnu::cold]] void invariant_failed(
    const char* what) {
  detail::check_failed(what, __FILE__, __LINE__, "");
}

/// Places one ops.def field of `ins`. Registers and the Sub value are
/// internal invariants, checked at once; an immediate that does not fit is
/// the caller's error, recorded in `bad` and raised after every invariant
/// held.
template <Field F, unsigned Hi, unsigned Lo, Sign S>
inline uint32_t encode_field(const Instr& ins, const char* name,
                             const char*& bad) {
  uint32_t v = static_cast<uint32_t>(ins.imm);
  if constexpr (F == Field::Rd || F == Field::Rn || F == Field::Rm) {
    v = F == Field::Rd ? ins.rd : F == Field::Rn ? ins.rn : ins.rm;
    if (v >= kNumRegs) invariant_failed("register index < kNumRegs");
  } else if constexpr (F == Field::Sub) {
    v = ins.sub;
    if (v >= info(ins.op).subs.size()) invariant_failed("sub in its table");
  } else if (S == Sign::S ? !fits_signed(ins.imm, Hi - Lo + 1)
                          : ins.imm < 0 || !fits_unsigned(v, Hi - Lo + 1)) {
    bad = name;
  }
  return place(v, Hi, Lo);
}

} // namespace

uint16_t encode(const Instr& ins) {
  if (static_cast<uint8_t>(ins.op) >= std::size(kOps))
    invariant_failed("op < 32");
  uint32_t w = place(static_cast<uint32_t>(ins.op), 15, 11);
  const char* bad = nullptr;
  switch (format(ins.op)) {
#define T16_FIELD(kind, hi, lo, sign, name) \
  w |= encode_field<Field::kind, hi, lo, Sign::sign>(ins, name, bad);
#define T16_FORMAT(format, fields) \
  case Format::format:             \
    fields break;
#include "isa/ops.def"
    default: __builtin_unreachable(); // every format has its case
  }
  if (bad != nullptr) field_error(ins, bad);
  return static_cast<uint16_t>(w);
}

void encode_bl(int32_t soff22, Instr& hi, Instr& lo) {
  if (!fits_signed(soff22, 22))
    throw ProgramError("encode: BL offset out of 22-bit range: " +
                       std::to_string(soff22));
  const uint32_t u = static_cast<uint32_t>(soff22) & 0x3fffffu;
  hi = Instr{.op = Op::BL_HI, .imm = static_cast<int32_t>(u >> 11)};
  lo = Instr{.op = Op::BL_LO, .imm = static_cast<int32_t>(u & 0x7ffu)};
}

} // namespace spmwcet::isa
