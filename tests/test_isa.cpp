// Unit tests for the T16 ISA: encode/decode round trips, field limits, the
// table-driven decoder, encoder and disassembler held exhaustively against
// the seed decoder, classification helpers, and the timing model constants
// (paper Table 1).
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <utility>

#include "isa/decode.h"
#include "isa/disasm.h"
#include "isa/encode.h"
#include "isa/timing.h"
#include "reference/decode.h"
#include "support/diag.h"

namespace spmwcet::isa {
namespace {

TEST(Encoding, RoundTripImmediate) {
  for (const Op op : {Op::MOVI, Op::ADDI, Op::SUBI, Op::CMPI}) {
    for (int imm : {0, 1, 127, 255}) {
      for (Reg rd = 0; rd < kNumRegs; ++rd) {
        const Instr ins{.op = op, .rd = rd, .imm = imm};
        EXPECT_EQ(decode(encode(ins)), ins);
      }
    }
  }
}

TEST(Encoding, RoundTripAlu) {
  for (uint8_t sub = 0; sub < kNumAluOps; ++sub) {
    const Instr ins{.op = Op::ALU, .sub = sub, .rd = 3, .rm = 5};
    EXPECT_EQ(decode(encode(ins)), ins);
  }
}

TEST(Encoding, RoundTripThreeOperand) {
  for (const Op op : {Op::ADD3, Op::SUB3}) {
    const Instr ins{.op = op, .rd = 1, .rn = 2, .rm = 7};
    EXPECT_EQ(decode(encode(ins)), ins);
  }
  for (const Op op : {Op::ADDI3, Op::SUBI3}) {
    const Instr ins{.op = op, .rd = 1, .rn = 2, .imm = 7};
    EXPECT_EQ(decode(encode(ins)), ins);
  }
}

TEST(Encoding, RoundTripShiftImmediate) {
  for (uint8_t sub = 0; sub <= 2; ++sub) {
    const Instr ins{.op = Op::SHIFTI, .sub = sub, .rd = 6, .imm = 31};
    EXPECT_EQ(decode(encode(ins)), ins);
  }
}

TEST(Encoding, RoundTripLoadStore) {
  for (const Op op : {Op::LDR, Op::STR, Op::LDRH, Op::STRH, Op::LDRB, Op::STRB,
                      Op::LDRSH, Op::LDRSB}) {
    const Instr ins{.op = op, .rd = 2, .rn = 4, .imm = 31};
    EXPECT_EQ(decode(encode(ins)), ins);
  }
  for (uint8_t sub = 0; sub <= 3; ++sub) {
    const Instr ins{.op = Op::LDX, .sub = sub, .rd = 1, .rn = 2, .rm = 3};
    EXPECT_EQ(decode(encode(ins)), ins);
  }
  for (uint8_t sub = 0; sub <= 2; ++sub) {
    const Instr ins{.op = Op::STX, .sub = sub, .rd = 1, .rn = 2, .rm = 3};
    EXPECT_EQ(decode(encode(ins)), ins);
  }
}

TEST(Encoding, RoundTripSpAndPool) {
  for (const Op op : {Op::LDR_LIT, Op::ADR, Op::LDR_SP, Op::STR_SP}) {
    const Instr ins{.op = op, .rd = 7, .imm = 255};
    EXPECT_EQ(decode(encode(ins)), ins);
  }
  const Instr up{.op = Op::ADJSP, .sub = 0, .imm = 127};
  const Instr down{.op = Op::ADJSP, .sub = 1, .imm = 127};
  EXPECT_EQ(decode(encode(up)), up);
  EXPECT_EQ(decode(encode(down)), down);
}

TEST(Encoding, RoundTripPushPop) {
  const Instr push{.op = Op::PUSH, .sub = 1, .imm = 0xF0};
  const Instr pop{.op = Op::POP, .sub = 1, .imm = 0xF0};
  EXPECT_EQ(decode(encode(push)), push);
  EXPECT_EQ(decode(encode(pop)), pop);
  EXPECT_EQ(transfer_count(push), 5u);
  EXPECT_EQ(transfer_count(Instr{.op = Op::POP, .sub = 0, .imm = 0x0F}), 4u);
}

TEST(Encoding, RoundTripBranches) {
  for (uint8_t c = 0; c < kNumConds; ++c) {
    for (int imm : {-128, -1, 0, 127}) {
      const Instr ins{.op = Op::BCC, .sub = c, .imm = imm};
      EXPECT_EQ(decode(encode(ins)), ins);
    }
  }
  for (int imm : {-1024, -1, 0, 1023}) {
    const Instr ins{.op = Op::B, .imm = imm};
    EXPECT_EQ(decode(encode(ins)), ins);
  }
}

TEST(Encoding, BlPairRoundTrip) {
  for (int32_t off : {-2000000, -1, 0, 1, 2000000}) {
    Instr hi, lo;
    encode_bl(off, hi, lo);
    const Instr hi2 = decode(encode(hi));
    const Instr lo2 = decode(encode(lo));
    EXPECT_EQ(decode_bl(hi2, lo2), off);
  }
}

TEST(Encoding, RejectsOutOfRangeFields) {
  // Each format's immediate, named as the linker's relaxation errors
  // report it.
  const std::pair<Instr, const char*> cases[] = {
      {{.op = Op::MOVI, .imm = 256},
       "encode: imm8 out of range for movi (imm=256)"},
      {{.op = Op::CMPI, .imm = -1},
       "encode: imm8 out of range for cmpi (imm=-1)"},
      {{.op = Op::ADDI3, .imm = 8},
       "encode: imm3 out of range for addi3 (imm=8)"},
      {{.op = Op::SHIFTI, .imm = 32},
       "encode: imm5 out of range for shifti (imm=32)"},
      {{.op = Op::LDR, .imm = 32},
       "encode: imm5 out of range for ldr (imm=32)"},
      {{.op = Op::LDR_LIT, .imm = 256},
       "encode: imm8 out of range for ldr.lit (imm=256)"},
      {{.op = Op::ADJSP, .imm = 128},
       "encode: imm7 out of range for adjsp (imm=128)"},
      {{.op = Op::PUSH, .imm = 256},
       "encode: register list out of range for push (imm=256)"},
      {{.op = Op::BCC, .imm = 128},
       "encode: soff8 out of range for bcc (imm=128)"},
      {{.op = Op::BCC, .imm = -129},
       "encode: soff8 out of range for bcc (imm=-129)"},
      {{.op = Op::B, .imm = 1024},
       "encode: soff11 out of range for b (imm=1024)"},
      {{.op = Op::BL_LO, .imm = -1},
       "encode: bl half out of range for bl.lo (imm=-1)"},
  };
  for (const auto& [ins, message] : cases) {
    try {
      (void)encode(ins);
      ADD_FAILURE() << message << ": no throw";
    } catch (const ProgramError& e) {
      EXPECT_STREQ(e.what(), message);
    }
  }
  Instr hi, lo;
  EXPECT_THROW(encode_bl(1 << 22, hi, lo), ProgramError);
}

// Every halfword against the seed decoder: the same words rejected (with a
// typed error naming the field and the halfword), the same fields decoded,
// encode inverting decode up to the format's ignored bits, and the
// disassembly of every accepted word (at 0x100, ascending) unchanged.
TEST(Encoding, ExhaustiveAgainstSeedDecoder) {
  uint32_t accepted = 0, exact = 0;
  std::map<Op, uint32_t> rejected;
  uint64_t fnv = 0xcbf29ce484222325ull; // FNV-1a 64
  for (uint32_t w = 0; w <= 0xffff; ++w) {
    const auto word = static_cast<uint16_t>(w);
    std::optional<Instr> want;
    try {
      want = reference::decode(word);
    } catch (const Error&) {
    }
    Instr got;
    try {
      got = decode(word);
    } catch (const ProgramError& e) {
      ASSERT_FALSE(want) << "word " << w << ": " << e.what();
      ++rejected[static_cast<Op>(w >> 11)];
      continue;
    }
    ASSERT_TRUE(want) << "word " << w;
    ASSERT_EQ(got, *want) << "word " << w;
    ++accepted;
    const uint16_t again = encode(got);
    EXPECT_EQ(again, w & kFormatBits[static_cast<uint8_t>(format(got.op))])
        << "word " << w;
    exact += again == w;
    for (const char c : disassemble(got, 0x100) + "\n") {
      fnv ^= static_cast<unsigned char>(c);
      fnv *= 0x100000001b3ull;
    }
  }
  EXPECT_EQ(accepted, 63104u);
  EXPECT_EQ(exact, 49624u);
  EXPECT_EQ(rejected, (std::map<Op, uint32_t>{{Op::ALU, 128},
                                              {Op::SHIFTI, 512},
                                              {Op::STX, 512},
                                              {Op::SYS, 1280}}));
  EXPECT_EQ(fnv, 0x5fe3cf2866b91d9dull);
  try {
    (void)decode(0xffff);
    ADD_FAILURE() << "SYS function 7 decoded";
  } catch (const ProgramError& e) {
    EXPECT_STREQ(e.what(),
                 "decode: function 7 out of range for sys in halfword 0xffff");
  }
}

TEST(Classify, BranchAndMemoryPredicates) {
  EXPECT_TRUE(is_return(Instr{.op = Op::POP, .sub = 1}));
  EXPECT_FALSE(is_return(Instr{.op = Op::POP, .sub = 0}));
  EXPECT_TRUE(is_halt(
      Instr{.op = Op::SYS, .sub = static_cast<uint8_t>(SysFn::HALT)}));
  EXPECT_EQ(mem_access_bytes(Instr{.op = Op::LDR}), 4u);
  EXPECT_EQ(mem_access_bytes(Instr{.op = Op::LDRSH}), 2u);
  EXPECT_EQ(mem_access_bytes(Instr{.op = Op::STRB}), 1u);
  EXPECT_EQ(mem_access_bytes(Instr{.op = Op::MOVI}), 0u);
  EXPECT_TRUE(is_load(Instr{.op = Op::LDR_LIT}));
  EXPECT_TRUE(is_store(Instr{.op = Op::STR_SP}));
  const Instr ldx_sh{.op = Op::LDX, .sub = static_cast<uint8_t>(LdxOp::SH)};
  EXPECT_EQ(mem_access_bytes(ldx_sh), 2u);
  EXPECT_TRUE(sign_extends(ldx_sh));
  EXPECT_FALSE(sign_extends(Instr{.op = Op::LDRH}));
  EXPECT_EQ(mem_access_bytes(
                Instr{.op = Op::STX, .sub = static_cast<uint8_t>(StxOp::B)}),
            1u);
  EXPECT_EQ(scaled_imm(Instr{.op = Op::LDRH, .imm = 3}), 6);
  EXPECT_EQ(scaled_imm(Instr{.op = Op::ADJSP, .imm = 3}), 12);
}

TEST(Classify, CondNegation) {
  for (uint8_t c = 0; c < kNumConds; ++c) {
    const Cond cc = static_cast<Cond>(c);
    EXPECT_EQ(negate(negate(cc)), cc);
    EXPECT_NE(negate(cc), cc);
  }
  EXPECT_EQ(negate(Cond::EQ), Cond::NE);
  EXPECT_EQ(negate(Cond::GE), Cond::LT);
  EXPECT_EQ(negate(Cond::LE), Cond::GT);
  EXPECT_EQ(negate(Cond::HS), Cond::LO);
}

TEST(Timing, PaperTableOne) {
  // Main memory: byte/half 2 cycles, word 4 cycles. Scratchpad: 1 cycle.
  EXPECT_EQ(MemTiming::main_memory(1), 2u);
  EXPECT_EQ(MemTiming::main_memory(2), 2u);
  EXPECT_EQ(MemTiming::main_memory(4), 4u);
  EXPECT_EQ(MemTiming::scratchpad(), 1u);
  // Cache: hit 1; miss = 1 + 4 words * 4 cycles = 17 (12 extra waitstates
  // over the four raw accesses, as in the paper).
  EXPECT_EQ(MemTiming::cache_hit(), 1u);
  EXPECT_EQ(MemTiming::cache_miss(16), 17u);
}

TEST(Timing, BranchTargetArithmetic) {
  const uint32_t addr = 0x100;
  EXPECT_EQ(branch_target(addr, 0), addr + 4);
  EXPECT_EQ(branch_target(addr, -2), addr);
  EXPECT_EQ(branch_offset(addr, branch_target(addr, 17)), 17);
  EXPECT_EQ(lit_base(0x100), 0x104u);
  EXPECT_EQ(lit_base(0x102), 0x104u);
}

TEST(Disasm, RendersCoreForms) {
  EXPECT_EQ(disassemble(Instr{.op = Op::MOVI, .rd = 1, .imm = 5}, 0),
            "mov r1, #5");
  EXPECT_EQ(disassemble(Instr{.op = Op::LDR, .rd = 2, .rn = 3, .imm = 1}, 0),
            "ldr r2, [r3, #4]");
  EXPECT_EQ(disassemble(Instr{.op = Op::PUSH, .sub = 1, .imm = 0x30}, 0),
            "push {r4,r5,lr}");
  const Instr b{.op = Op::B, .imm = 4};
  EXPECT_EQ(disassemble(b, 0x100), "b 0x10c");
}

} // namespace
} // namespace spmwcet::isa
