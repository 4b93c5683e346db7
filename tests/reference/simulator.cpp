#include "reference/simulator.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iomanip>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "cache/functional_cache.h"
#include "isa/decode.h"
#include "isa/disasm.h"
#include "reference/decode.h"
#include "isa/timing.h"
#include "sim/block_table.h"
#include "support/diag.h"

namespace spmwcet::reference {

namespace {

using isa::AluOp;
using isa::Cond;
using isa::ExecTiming;
using isa::Instr;
using isa::MemClass;
using isa::MemTiming;
using isa::Op;

std::atomic<uint64_t> g_runs{0};

/// The seed memory system: one backing block per merged run of adjacent
/// regions, found by binary search; every access classified through the
/// region map; a functional cache in front of main memory, or a reuse
/// recorder fed one halfword fetch and one main-memory load at a time.
class SeedMemory {
public:
  SeedMemory(const link::Image& img, std::optional<cache::CacheConfig> ccfg,
             cache::ReuseTable::Builder* reuse)
      : image_(img), reuse_(reuse) {
    SPMWCET_CHECK_MSG(!(ccfg && reuse),
                      "reuse observation runs without a cache");
    for (const auto& r : img.regions.regions()) {
      if (!blocks_.empty() && blocks_.back().hi == r.lo) {
        blocks_.back().hi = r.hi;
        blocks_.back().bytes.resize(blocks_.back().hi - blocks_.back().lo, 0);
      } else {
        blocks_.push_back(
            Block{r.lo, r.hi, std::vector<uint8_t>(r.hi - r.lo, 0)});
      }
    }
    for (const auto& seg : img.segments)
      for (std::size_t i = 0; i < seg.bytes.size(); ++i) {
        uint8_t* p = locate(seg.base + static_cast<uint32_t>(i), 1);
        if (p == nullptr) {
          SPMWCET_CHECK_MSG(seg.bytes[i] == 0,
                            "non-zero segment byte outside mapped regions");
          continue;
        }
        *p = seg.bytes[i];
      }
    if (ccfg) {
      cache_.emplace(*ccfg);
      unified_ = ccfg->unified;
      miss_cost_ = MemTiming::cache_miss(ccfg->line_bytes);
    }
  }

  uint16_t fetch(uint32_t addr) {
    if (addr % 2 != 0)
      throw SimulationError("misaligned fetch at " + std::to_string(addr));
    cycles_ += read_cost(addr, 2, /*is_fetch=*/true);
    const uint8_t* p = locate(addr, 2);
    if (p == nullptr)
      throw SimulationError("fetch from unmapped address " +
                            std::to_string(addr));
    return static_cast<uint16_t>(p[0] | (static_cast<uint16_t>(p[1]) << 8));
  }

  uint32_t load(uint32_t addr, uint32_t bytes) {
    if (addr % bytes != 0)
      throw SimulationError("misaligned load of " + std::to_string(bytes) +
                            " bytes at " + std::to_string(addr));
    cycles_ += read_cost(addr, bytes, /*is_fetch=*/false);
    const uint8_t* p = locate(addr, bytes);
    if (p == nullptr)
      throw SimulationError("load from unmapped address " +
                            std::to_string(addr));
    uint32_t v = 0;
    for (uint32_t i = 0; i < bytes; ++i)
      v |= static_cast<uint32_t>(p[i]) << (8 * i);
    return v;
  }

  /// Write-through, no write-allocate: always the uncached cost, and the
  /// cache's tag state is untouched.
  void store(uint32_t addr, uint32_t bytes, uint32_t value) {
    if (addr % bytes != 0)
      throw SimulationError("misaligned store of " + std::to_string(bytes) +
                            " bytes at " + std::to_string(addr));
    cycles_ += MemTiming::uncached(image_.regions.classify(addr), bytes);
    uint8_t* p = locate(addr, bytes);
    if (p == nullptr)
      throw SimulationError("store to unmapped address " +
                            std::to_string(addr));
    for (uint32_t i = 0; i < bytes; ++i)
      p[i] = static_cast<uint8_t>(value >> (8 * i));
  }

  void add_cycles(uint32_t n) { cycles_ += n; }
  uint64_t cycles() const { return cycles_; }
  uint64_t hits() const { return cache_ ? cache_->hits() : 0; }
  uint64_t misses() const { return cache_ ? cache_->misses() : 0; }

private:
  struct Block {
    uint32_t lo;
    uint32_t hi;
    std::vector<uint8_t> bytes;
  };

  uint8_t* locate(uint32_t addr, uint32_t bytes) {
    auto it = std::upper_bound(
        blocks_.begin(), blocks_.end(), addr,
        [](uint32_t a, const Block& b) { return a < b.lo; });
    if (it == blocks_.begin()) return nullptr;
    --it;
    if (addr < it->lo || addr + bytes > it->hi) return nullptr;
    return it->bytes.data() + (addr - it->lo);
  }

  uint32_t read_cost(uint32_t addr, uint32_t bytes, bool is_fetch) {
    if (image_.regions.classify(addr) == MemClass::Scratchpad)
      return MemTiming::scratchpad();
    if (cache_ && (is_fetch || unified_))
      return cache_->access(addr) ? MemTiming::cache_hit() : miss_cost_;
    if (reuse_ != nullptr) {
      if (is_fetch)
        reuse_->fetch_run(addr / cache::ReuseTable::kLineBytes, 1);
      else
        reuse_->load(addr, bytes);
    }
    return MemTiming::main_memory(bytes);
  }

  const link::Image& image_;
  std::vector<Block> blocks_; ///< sorted by lo
  std::optional<cache::FunctionalCache> cache_;
  cache::ReuseTable::Builder* reuse_ = nullptr;
  bool unified_ = false;
  uint32_t miss_cost_ = 0;
  uint64_t cycles_ = 0;
};

/// The seed interpreter: fetch, decode and execute one instruction per
/// step, profiling into the name-keyed map on every access.
class SeedInterpreter {
public:
  SeedInterpreter(const link::Image& img, const sim::SimConfig& cfg)
      : img_(img), cfg_(cfg), mem_(img, cfg.cache, cfg.reuse),
        symbols_(img) {
    sp_ = img.initial_sp;
    pc_ = img.entry;
  }

  sim::SimResult run() {
    sim::SimResult result;
    while (!halted_) {
      if (result.instructions >= cfg_.max_instructions)
        throw SimulationError(
            "instruction budget exceeded (runaway program?)");
      step(result);
      ++result.instructions;
    }
    result.cycles = mem_.cycles();
    result.cache_hits = mem_.hits();
    result.cache_misses = mem_.misses();
    result.profile = std::move(profile_);
    return result;
  }

private:
  const link::Symbol* symbol_at(uint32_t addr) const {
    const int id = symbols_.find_id(addr);
    return id < 0 ? nullptr : &symbols_.symbol(id);
  }

  Instr fetch_decoded(uint32_t addr) {
    if (cfg_.collect_profile) {
      const link::Symbol* sym = symbol_at(addr);
      if (sym != nullptr && sym->is_function)
        ++profile_.symbols[sym->name].fetch;
      else
        ++profile_.other.fetch;
    }
    const uint16_t word = mem_.fetch(addr);
    try {
      return reference::decode(word);
    } catch (const Error&) {
      char hw[8];
      std::snprintf(hw, sizeof hw, "0x%04x", word);
      throw SimulationError(std::string("invalid instruction ") + hw +
                            " at " + std::to_string(addr));
    }
  }

  void profile_data(uint32_t addr, uint32_t bytes, bool is_store) {
    if (!cfg_.collect_profile) return;
    sim::AccessCounts* counts = nullptr;
    if (const link::Symbol* sym = symbol_at(addr)) {
      counts = &profile_.symbols[sym->name];
    } else if (addr >= img_.initial_sp - sim::kStackWindowBytes &&
               addr < img_.initial_sp) {
      counts = &profile_.stack;
    } else {
      counts = &profile_.other;
    }
    if (is_store)
      counts->add_store(bytes);
    else
      counts->add_load(bytes);
  }

  uint32_t load(uint32_t addr, uint32_t bytes, bool sign) {
    profile_data(addr, bytes, /*is_store=*/false);
    uint32_t v = mem_.load(addr, bytes);
    if (sign && bytes < 4) {
      const uint32_t shift = 32 - 8 * bytes;
      v = static_cast<uint32_t>(static_cast<int32_t>(v << shift) >>
                                static_cast<int32_t>(shift));
    }
    return v;
  }

  void store(uint32_t addr, uint32_t bytes, uint32_t v) {
    profile_data(addr, bytes, /*is_store=*/true);
    mem_.store(addr, bytes, v);
  }

  void step(sim::SimResult& result) {
    const uint32_t iaddr = pc_;
    const Instr ins = fetch_decoded(iaddr);
    uint32_t next = iaddr + 2;

    if (cfg_.trace != nullptr) {
      *cfg_.trace << std::setw(10) << mem_.cycles() << "  0x" << std::hex
                  << std::setw(6) << std::setfill('0') << iaddr << std::dec
                  << std::setfill(' ') << "  " << isa::disassemble(ins, iaddr)
                  << "\n";
    }

    uint32_t* r = regs_;
    switch (ins.op) {
      case Op::MOVI: r[ins.rd] = static_cast<uint32_t>(ins.imm); break;
      case Op::ADDI: r[ins.rd] += static_cast<uint32_t>(ins.imm); break;
      case Op::SUBI: r[ins.rd] -= static_cast<uint32_t>(ins.imm); break;
      case Op::CMPI:
        sim::flags_set_sub(flags_, r[ins.rd], static_cast<uint32_t>(ins.imm));
        break;
      case Op::ALU: {
        const uint32_t a = r[ins.rd];
        const uint32_t b = r[ins.rm];
        mem_.add_cycles(ExecTiming::compute_extra(ins));
        switch (static_cast<AluOp>(ins.sub)) {
          case AluOp::ADD: r[ins.rd] = a + b; break;
          case AluOp::SUB: r[ins.rd] = a - b; break;
          case AluOp::AND: r[ins.rd] = a & b; break;
          case AluOp::ORR: r[ins.rd] = a | b; break;
          case AluOp::EOR: r[ins.rd] = a ^ b; break;
          case AluOp::LSL: r[ins.rd] = (b & 31u) == b ? (a << b) : 0; break;
          case AluOp::LSR: r[ins.rd] = (b & 31u) == b ? (a >> b) : 0; break;
          case AluOp::ASR:
            r[ins.rd] = static_cast<uint32_t>(static_cast<int32_t>(a) >>
                                              static_cast<int32_t>(
                                                  b > 31 ? 31 : b));
            break;
          case AluOp::MUL: r[ins.rd] = a * b; break;
          case AluOp::CMP: sim::flags_set_sub(flags_, a, b); break;
          case AluOp::MOV: r[ins.rd] = b; break;
          case AluOp::NEG: r[ins.rd] = 0u - b; break;
          case AluOp::MVN: r[ins.rd] = ~b; break;
          case AluOp::SDIV:
            if (b == 0) throw SimulationError("division by zero");
            r[ins.rd] = static_cast<uint32_t>(static_cast<int32_t>(a) /
                                              static_cast<int32_t>(b));
            break;
          case AluOp::UDIV:
            if (b == 0) throw SimulationError("division by zero");
            r[ins.rd] = a / b;
            break;
        }
        break;
      }
      case Op::ADD3: r[ins.rd] = r[ins.rn] + r[ins.rm]; break;
      case Op::SUB3: r[ins.rd] = r[ins.rn] - r[ins.rm]; break;
      case Op::ADDI3:
        r[ins.rd] = r[ins.rn] + static_cast<uint32_t>(ins.imm);
        break;
      case Op::SUBI3:
        r[ins.rd] = r[ins.rn] - static_cast<uint32_t>(ins.imm);
        break;
      case Op::SHIFTI: {
        const uint32_t a = r[ins.rd];
        const auto s = static_cast<uint32_t>(ins.imm);
        switch (static_cast<isa::ShiftOp>(ins.sub)) {
          case isa::ShiftOp::LSL: r[ins.rd] = a << s; break;
          case isa::ShiftOp::LSR: r[ins.rd] = a >> s; break;
          case isa::ShiftOp::ASR:
            r[ins.rd] = static_cast<uint32_t>(static_cast<int32_t>(a) >>
                                              static_cast<int32_t>(s));
            break;
        }
        break;
      }
      case Op::LDR:
        r[ins.rd] = load(r[ins.rn] + static_cast<uint32_t>(ins.imm) * 4, 4,
                         false);
        break;
      case Op::STR:
        store(r[ins.rn] + static_cast<uint32_t>(ins.imm) * 4, 4, r[ins.rd]);
        break;
      case Op::LDRH:
        r[ins.rd] = load(r[ins.rn] + static_cast<uint32_t>(ins.imm) * 2, 2,
                         false);
        break;
      case Op::STRH:
        store(r[ins.rn] + static_cast<uint32_t>(ins.imm) * 2, 2, r[ins.rd]);
        break;
      case Op::LDRB:
        r[ins.rd] = load(r[ins.rn] + static_cast<uint32_t>(ins.imm), 1, false);
        break;
      case Op::STRB:
        store(r[ins.rn] + static_cast<uint32_t>(ins.imm), 1, r[ins.rd]);
        break;
      case Op::LDRSH:
        r[ins.rd] = load(r[ins.rn] + static_cast<uint32_t>(ins.imm) * 2, 2,
                         true);
        break;
      case Op::LDRSB:
        r[ins.rd] = load(r[ins.rn] + static_cast<uint32_t>(ins.imm), 1, true);
        break;
      case Op::LDR_LIT:
        r[ins.rd] = load(
            isa::lit_base(iaddr) + static_cast<uint32_t>(ins.imm) * 4, 4,
            false);
        break;
      case Op::ADR:
        r[ins.rd] = isa::lit_base(iaddr) + static_cast<uint32_t>(ins.imm) * 4;
        break;
      case Op::LDR_SP:
        r[ins.rd] = load(sp_ + static_cast<uint32_t>(ins.imm) * 4, 4, false);
        break;
      case Op::STR_SP:
        store(sp_ + static_cast<uint32_t>(ins.imm) * 4, 4, r[ins.rd]);
        break;
      case Op::ADJSP:
        if (ins.sub)
          sp_ -= static_cast<uint32_t>(ins.imm) * 4;
        else
          sp_ += static_cast<uint32_t>(ins.imm) * 4;
        break;
      case Op::PUSH: {
        sp_ -= 4 * isa::transfer_count(ins);
        uint32_t addr = sp_;
        for (unsigned i = 0; i < 8; ++i)
          if (ins.imm & (1 << i)) {
            store(addr, 4, r[i]);
            addr += 4;
          }
        if (ins.sub) store(addr, 4, lr_);
        break;
      }
      case Op::POP: {
        uint32_t addr = sp_;
        for (unsigned i = 0; i < 8; ++i)
          if (ins.imm & (1 << i)) {
            r[i] = load(addr, 4, false);
            addr += 4;
          }
        if (ins.sub) {
          next = load(addr, 4, false);
          addr += 4;
          mem_.add_cycles(ExecTiming::return_penalty);
        }
        sp_ = addr;
        break;
      }
      case Op::BCC:
        if (sim::flags_cond_holds(flags_, static_cast<Cond>(ins.sub))) {
          next = isa::branch_target(iaddr, ins.imm);
          mem_.add_cycles(ExecTiming::taken_branch_penalty);
        }
        break;
      case Op::B:
        next = isa::branch_target(iaddr, ins.imm);
        mem_.add_cycles(ExecTiming::taken_branch_penalty);
        break;
      case Op::BL_HI: {
        const Instr lo = fetch_decoded(iaddr + 2);
        if (lo.op != Op::BL_LO)
          throw SimulationError("BL_HI not followed by BL_LO");
        lr_ = iaddr + 4;
        next = isa::branch_target(iaddr, isa::decode_bl(ins, lo));
        mem_.add_cycles(ExecTiming::call_penalty);
        ++result.instructions; // the pair counts as one extra halfword
        break;
      }
      case Op::BL_LO:
        throw SimulationError("stray BL_LO executed");
      case Op::LDX: {
        const uint32_t addr = r[ins.rn] + r[ins.rm];
        switch (static_cast<isa::LdxOp>(ins.sub)) {
          case isa::LdxOp::W: r[ins.rd] = load(addr, 4, false); break;
          case isa::LdxOp::H: r[ins.rd] = load(addr, 2, false); break;
          case isa::LdxOp::B: r[ins.rd] = load(addr, 1, false); break;
          case isa::LdxOp::SH: r[ins.rd] = load(addr, 2, true); break;
        }
        break;
      }
      case Op::STX: {
        const uint32_t addr = r[ins.rn] + r[ins.rm];
        switch (static_cast<isa::StxOp>(ins.sub)) {
          case isa::StxOp::W: store(addr, 4, r[ins.rd]); break;
          case isa::StxOp::H: store(addr, 2, r[ins.rd]); break;
          case isa::StxOp::B: store(addr, 1, r[ins.rd]); break;
        }
        break;
      }
      case Op::SYS:
        switch (static_cast<isa::SysFn>(ins.sub)) {
          case isa::SysFn::NOP: break;
          case isa::SysFn::HALT: halted_ = true; break;
          case isa::SysFn::OUT:
            result.output.push_back(static_cast<int32_t>(r[ins.rd]));
            break;
        }
        break;
    }
    pc_ = next;
  }

  const link::Image& img_;
  const sim::SimConfig& cfg_;
  SeedMemory mem_;
  sim::SymbolIndex symbols_;
  uint32_t regs_[isa::kNumRegs] = {};
  uint32_t sp_ = 0;
  uint32_t lr_ = 0;
  uint32_t pc_ = 0;
  sim::Flags flags_;
  bool halted_ = false;
  sim::AccessProfile profile_;
};

} // namespace

sim::SimResult simulate(const link::Image& img, const sim::SimConfig& cfg) {
  g_runs.fetch_add(1, std::memory_order_relaxed);
  return SeedInterpreter(img, cfg).run();
}

uint64_t simulator_runs() { return g_runs.load(std::memory_order_relaxed); }

} // namespace spmwcet::reference
