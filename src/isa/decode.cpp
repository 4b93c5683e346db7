#include "isa/decode.h"

#include <cstdio>
#include <string>

#include "support/bitops.h"
#include "support/diag.h"

namespace spmwcet::isa {

namespace {

[[noreturn, gnu::noinline, gnu::cold]] void reject(uint32_t word, Op op,
                                                   const char* field,
                                                   uint32_t value) {
  char hw[8];
  std::snprintf(hw, sizeof hw, "0x%04x", word);
  throw ProgramError(std::string("decode: ") + field + " " +
                     std::to_string(value) + " out of range for " +
                     info(op).name + " in halfword " + hw);
}

/// Extracts one ops.def field of `w` into its Instr member. A Sub value
/// outside the op's table rejects the word.
template <Field F, unsigned Hi, unsigned Lo, Sign S>
inline void decode_field(uint32_t w, Instr& ins, const char* name) {
  const uint32_t v = bits(w, Hi, Lo);
  if constexpr (F == Field::Rd) ins.rd = static_cast<Reg>(v);
  if constexpr (F == Field::Rn) ins.rn = static_cast<Reg>(v);
  if constexpr (F == Field::Rm) ins.rm = static_cast<Reg>(v);
  if constexpr (F == Field::Imm)
    ins.imm = S == Sign::S ? sign_extend(v, Hi - Lo + 1)
                           : static_cast<int32_t>(v);
  if constexpr (F == Field::Sub) {
    if (v >= info(ins.op).subs.size()) [[unlikely]]
      reject(w, ins.op, name, v);
    ins.sub = static_cast<uint8_t>(v);
  }
}

} // namespace

Instr decode(uint16_t word) {
  Instr ins;
  ins.op = static_cast<Op>(bits(word, 15, 11));
  switch (format(ins.op)) {
#define T16_FIELD(kind, hi, lo, sign, name) \
  decode_field<Field::kind, hi, lo, Sign::sign>(word, ins, name);
#define T16_FORMAT(format, fields) \
  case Format::format:             \
    fields break;
#include "isa/ops.def"
    default: __builtin_unreachable(); // every format has its case
  }
  return ins;
}

int32_t decode_bl(const Instr& hi, const Instr& lo) {
  SPMWCET_CHECK(hi.op == Op::BL_HI && lo.op == Op::BL_LO);
  const uint32_t u = (static_cast<uint32_t>(hi.imm) << 11) |
                     (static_cast<uint32_t>(lo.imm) & 0x7ffu);
  return sign_extend(u, 22);
}

} // namespace spmwcet::isa
