#include "link/layout.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>

#include "isa/encode.h"
#include "support/bitops.h"
#include "support/diag.h"

namespace spmwcet::link {

using isa::Cond;
using isa::Instr;
using isa::Op;
using minic::ObjFunction;
using minic::ObjInstr;

namespace {

uint32_t item_bytes(const ObjInstr& it) {
  return it.ins.op == Op::BL_HI ? 4 : 2;
}

void recompute_offsets(LaidOutFunction& lf) {
  lf.item_off.assign(lf.fn.code.size() + 1, 0);
  uint32_t off = 0;
  for (std::size_t i = 0; i < lf.fn.code.size(); ++i) {
    lf.item_off[i] = off;
    off += item_bytes(lf.fn.code[i]);
  }
  lf.item_off[lf.fn.code.size()] = off;
  lf.extent.code_bytes = off;
  lf.extent.pool_off = align_up(off, 4);
  lf.extent.total_bytes =
      lf.extent.pool_off + 4 * static_cast<uint32_t>(lf.fn.literals.size());
}

uint32_t label_offset(const LaidOutFunction& lf, int label) {
  const uint32_t pos = lf.fn.label_pos.at(static_cast<std::size_t>(label));
  SPMWCET_CHECK_MSG(pos != UINT32_MAX, "unbound label in " + lf.fn.name);
  return lf.item_off[pos];
}

/// Replaces out-of-range BCCs with a BCC(!cond) over an unconditional B
/// until every branch encodes. Iterates because insertions move code.
void relax(LaidOutFunction& lf) {
  bool changed = true;
  while (changed) {
    changed = false;
    recompute_offsets(lf);
    for (std::size_t i = 0; i < lf.fn.code.size(); ++i) {
      ObjInstr& it = lf.fn.code[i];
      if (it.ins.op != Op::BCC) continue;
      const int32_t soff =
          isa::branch_offset(lf.item_off[i], label_offset(lf, it.label));
      if (fits_signed(soff, 8)) continue;

      // Rewrite: bcc cond, L  =>  bcc !cond, skip ; b L ; skip:
      const int target = it.label;
      const int skip = lf.fn.new_label();
      it.ins.sub =
          static_cast<uint8_t>(isa::negate(static_cast<Cond>(it.ins.sub)));
      it.label = skip;

      ObjInstr uncond;
      uncond.ins = Instr{.op = Op::B};
      uncond.label = target;
      lf.fn.code.insert(lf.fn.code.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                        uncond);

      // Shift every positional reference beyond the insertion point.
      for (auto& pos : lf.fn.label_pos)
        if (pos != UINT32_MAX && pos > i) ++pos;
      lf.fn.label_pos[static_cast<std::size_t>(skip)] =
          static_cast<uint32_t>(i) + 2;
      for (auto& lm : lf.fn.loops)
        if (lm.header > i) ++lm.header;

      changed = true;
      break; // offsets are stale; restart the scan
    }
  }
  // Unconditional branches cannot be relaxed further; verify they encode.
  for (std::size_t i = 0; i < lf.fn.code.size(); ++i) {
    const ObjInstr& it = lf.fn.code[i];
    if (it.ins.op == Op::B && it.label >= 0) {
      const int32_t soff =
          isa::branch_offset(lf.item_off[i], label_offset(lf, it.label));
      if (!fits_signed(soff, 11))
        throw ProgramError("link: function " + lf.fn.name +
                           " too large: B out of 11-bit range");
    }
  }
}

LaidOutFunction lay_out_function(const ObjFunction& fn) {
  LaidOutFunction lf;
  lf.fn = fn;
  relax(lf);
  recompute_offsets(lf);
  return lf;
}

constexpr uint32_t kStubBytes = 6; // the start stub: bl entry ; halt

/// The assignment's names must exist in the module and the entry must be
/// defined; the first unknown name (in set order) is the error.
void check_assignment(const minic::ObjModule& mod, const SpmAssignment& spm) {
  std::size_t found = 0;
  for (const auto& fn : mod.functions) found += spm.functions.count(fn.name);
  if (found != spm.functions.size())
    for (const auto& name : spm.functions)
      if (mod.find_function(name) == nullptr)
        throw ProgramError("link: SPM assignment names unknown function " +
                           name);
  found = 0;
  for (const auto& g : mod.globals) found += spm.globals.count(g.name);
  if (found != spm.globals.size())
    for (const auto& name : spm.globals) {
      bool known = false;
      for (const auto& g : mod.globals) known = known || g.name == name;
      if (!known)
        throw ProgramError("link: SPM assignment names unknown global " +
                           name);
    }
  if (mod.find_function(mod.entry) == nullptr)
    throw ProgramError("link: entry function '" + mod.entry + "' not defined");
}

void append16(std::vector<uint8_t>& bytes, uint16_t v) {
  bytes.push_back(static_cast<uint8_t>(v & 0xff));
  bytes.push_back(static_cast<uint8_t>(v >> 8));
}

void append32(std::vector<uint8_t>& bytes, uint32_t v) {
  append16(bytes, static_cast<uint16_t>(v & 0xffff));
  append16(bytes, static_cast<uint16_t>(v >> 16));
}

} // namespace

void check_spm_capacity(uint32_t extent, uint32_t spm_size) {
  if (extent > spm_size)
    throw ProgramError("link: scratchpad capacity exceeded (" +
                       std::to_string(extent) + " > " +
                       std::to_string(spm_size) + " bytes)");
}

ModuleLayout lay_out(const minic::ObjModule& mod) {
  ModuleLayout layout;
  layout.functions.reserve(mod.functions.size());
  for (const auto& fn : mod.functions)
    layout.functions.push_back(lay_out_function(fn));
  return layout;
}

std::vector<FunctionExtent> ModuleLayout::extents() const {
  std::vector<FunctionExtent> out;
  out.reserve(functions.size());
  for (const LaidOutFunction& lf : functions) out.push_back(lf.extent);
  return out;
}

AddressMap assign_addresses(const minic::ObjModule& mod,
                            std::span<const FunctionExtent> extents,
                            const LinkOptions& opts, const SpmAssignment& spm) {
  SPMWCET_CHECK(extents.size() == mod.functions.size());
  check_assignment(mod, spm);
  AddressMap addrs;
  uint32_t main_cursor = opts.code_base + kStubBytes;
  uint32_t spm_cursor = opts.spm_base;

  addrs.function_base.reserve(extents.size());
  addrs.function_spm.reserve(extents.size());
  for (std::size_t i = 0; i < extents.size(); ++i) {
    const bool on_spm = spm.functions.count(mod.functions[i].name) != 0;
    uint32_t& cursor = on_spm ? spm_cursor : main_cursor;
    cursor = align_up(cursor, 4);
    addrs.function_base.push_back(cursor);
    addrs.function_spm.push_back(on_spm ? 1 : 0);
    cursor += extents[i].total_bytes;
  }

  uint32_t data_cursor = opts.data_base;
  addrs.global_addr.reserve(mod.globals.size());
  addrs.global_spm.reserve(mod.globals.size());
  for (const auto& g : mod.globals) {
    const bool on_spm = spm.globals.count(g.name) != 0;
    uint32_t& cursor = on_spm ? spm_cursor : data_cursor;
    cursor = align_up(cursor, std::max(4u, 1u));
    addrs.global_addr.push_back(cursor);
    addrs.global_spm.push_back(on_spm ? 1 : 0);
    cursor += g.size_bytes();
  }

  if (main_cursor > opts.data_base)
    throw ProgramError("link: code overflows into the data base");
  if (data_cursor > opts.stack_top - opts.stack_reserve)
    throw ProgramError("link: data overflows into the stack region");
  addrs.spm_extent = spm_cursor - opts.spm_base;
  check_spm_capacity(addrs.spm_extent, opts.spm_size);
  return addrs;
}

RegionMap build_region_map(const minic::ObjModule& mod,
                           std::span<const FunctionExtent> extents,
                           const LinkOptions& opts, const AddressMap& addrs) {
  RegionMap regions;
  regions.add(Region{.lo = opts.code_base,
                     .hi = opts.code_base + kStubBytes,
                     .kind = RegionKind::MainCode,
                     .symbol = "_start",
                     .elem_bytes = 2});
  for (std::size_t i = 0; i < extents.size(); ++i) {
    const FunctionExtent& extent = extents[i];
    const std::string& name = mod.functions[i].name;
    const uint32_t base = addrs.function_base[i];
    const bool on_spm = addrs.function_spm[i] != 0;
    // The code region ends at the last instruction; alignment padding
    // before the literal pool belongs to neither (it is never accessed).
    regions.add(Region{
        .lo = base,
        .hi = base + extent.code_bytes,
        .kind = on_spm ? RegionKind::SpmCode : RegionKind::MainCode,
        .symbol = name,
        .elem_bytes = 2});
    if (extent.total_bytes > extent.pool_off) // a non-empty literal pool
      regions.add(Region{
          .lo = base + extent.pool_off,
          .hi = base + extent.total_bytes,
          .kind = on_spm ? RegionKind::SpmData : RegionKind::LiteralPool,
          .symbol = name + ".pool",
          .elem_bytes = 4});
  }
  for (std::size_t i = 0; i < mod.globals.size(); ++i) {
    const minic::Global& g = mod.globals[i];
    regions.add(Region{.lo = addrs.global_addr[i],
                       .hi = addrs.global_addr[i] + g.size_bytes(),
                       .kind = addrs.global_spm[i] != 0 ? RegionKind::SpmData
                                                        : RegionKind::MainData,
                       .symbol = g.name,
                       .elem_bytes = minic::elem_size(g.type)});
  }
  regions.add(Region{.lo = opts.stack_top - opts.stack_reserve,
                     .hi = opts.stack_top,
                     .kind = RegionKind::Stack,
                     .symbol = "stack",
                     .elem_bytes = 4});
  regions.finalize();
  return regions;
}

Image link_program(const minic::ObjModule& mod, const LinkOptions& opts,
                   const SpmAssignment& spm) {
  // The assignment is checked before any function is laid out, so a bad
  // name is the error even in a module that would not lay out.
  SPMWCET_CHECK(opts.code_base % 4 == 0 && opts.data_base % 4 == 0 &&
                opts.spm_base % 4 == 0);
  check_assignment(mod, spm);
  return link_program(mod, lay_out(mod), opts, spm);
}

Image link_program(const minic::ObjModule& mod, const ModuleLayout& layout,
                   const LinkOptions& opts, const SpmAssignment& spm) {
  SPMWCET_CHECK(opts.code_base % 4 == 0 && opts.data_base % 4 == 0 &&
                opts.spm_base % 4 == 0);
  const std::vector<FunctionExtent> extents = layout.extents();
  const AddressMap addrs = assign_addresses(mod, extents, opts, spm);
  const std::vector<LaidOutFunction>& funcs = layout.functions;

  Image img;
  img.spm_extent = addrs.spm_extent;
  std::unordered_map<std::string_view, uint32_t> base_of;
  base_of.reserve(funcs.size());
  for (std::size_t i = 0; i < funcs.size(); ++i)
    base_of.emplace(funcs[i].fn.name, addrs.function_base[i]);
  std::unordered_map<std::string_view, uint32_t> global_addr;
  global_addr.reserve(mod.globals.size());
  for (std::size_t i = 0; i < mod.globals.size(); ++i)
    global_addr.emplace(mod.globals[i].name, addrs.global_addr[i]);

  auto func_addr = [&](const std::string& name) -> uint32_t {
    const auto it = base_of.find(name);
    if (it != base_of.end()) return it->second;
    throw ProgramError("link: call to undefined function " + name);
  };

  // ---- encode -------------------------------------------------------------
  // One segment per contiguous area: main code, main data, spm.
  Segment main_code{opts.code_base, {}};
  {
    // start stub: bl <entry> ; halt
    Instr hi, lo;
    isa::encode_bl(
        isa::branch_offset(opts.code_base, func_addr(mod.entry)), hi, lo);
    append16(main_code.bytes, isa::encode(hi));
    append16(main_code.bytes, isa::encode(lo));
    append16(main_code.bytes,
             isa::encode(Instr{.op = Op::SYS,
                               .sub = static_cast<uint8_t>(isa::SysFn::HALT)}));
  }

  Segment spm_seg{opts.spm_base, {}};

  auto encode_function = [&](const LaidOutFunction& lf, uint32_t fbase,
                             Segment& seg) {
    // padding up to the function base
    const uint32_t start_off = fbase - seg.base;
    SPMWCET_CHECK(seg.bytes.size() <= start_off);
    seg.bytes.resize(start_off, 0);

    for (std::size_t i = 0; i < lf.fn.code.size(); ++i) {
      const ObjInstr& it = lf.fn.code[i];
      const uint32_t iaddr = fbase + lf.item_off[i];
      Instr ins = it.ins;
      if (ins.op == Op::BL_HI) {
        Instr hi, lo;
        isa::encode_bl(isa::branch_offset(iaddr, func_addr(it.callee)), hi, lo);
        append16(seg.bytes, isa::encode(hi));
        append16(seg.bytes, isa::encode(lo));
        continue;
      }
      if (it.label >= 0) {
        SPMWCET_CHECK(ins.op == Op::B || ins.op == Op::BCC);
        ins.imm = isa::branch_offset(iaddr,
                                     fbase + label_offset(lf, it.label));
      }
      if (it.literal >= 0) {
        const uint32_t lit_addr = fbase + lf.extent.pool_off +
                                  4 * static_cast<uint32_t>(it.literal);
        const uint32_t base = isa::lit_base(iaddr);
        SPMWCET_CHECK(lit_addr >= base);
        const uint32_t delta = (lit_addr - base) / 4;
        if (delta > 255)
          throw ProgramError("link: function " + lf.fn.name +
                             " too large for literal-pool addressing");
        ins.imm = static_cast<int32_t>(delta);
      }
      append16(seg.bytes, isa::encode(ins));
    }
    // pool
    const uint32_t pad_to = fbase + lf.extent.pool_off - seg.base;
    seg.bytes.resize(pad_to, 0);
    for (const auto& lit : lf.fn.literals) {
      uint32_t v;
      if (lit.is_symbol) {
        auto it = global_addr.find(lit.symbol);
        if (it != global_addr.end()) {
          v = it->second + lit.addend;
        } else {
          v = func_addr(lit.symbol) + lit.addend;
        }
      } else {
        v = static_cast<uint32_t>(lit.value);
      }
      append32(seg.bytes, v);
    }
  };

  for (std::size_t i = 0; i < funcs.size(); ++i)
    encode_function(funcs[i], addrs.function_base[i],
                    addrs.function_spm[i] != 0 ? spm_seg : main_code);

  // ---- data segments ------------------------------------------------------
  Segment main_data{opts.data_base, {}};
  for (std::size_t gi = 0; gi < mod.globals.size(); ++gi) {
    const minic::Global& g = mod.globals[gi];
    Segment& seg = addrs.global_spm[gi] != 0 ? spm_seg : main_data;
    const uint32_t start_off = addrs.global_addr[gi] - seg.base;
    SPMWCET_CHECK(seg.bytes.size() <= start_off);
    seg.bytes.resize(start_off, 0);
    const uint32_t esz = minic::elem_size(g.type);
    for (uint32_t i = 0; i < g.count; ++i) {
      const int64_t v = i < g.init.size() ? g.init[i] : 0;
      const auto u = static_cast<uint32_t>(v);
      if (esz == 1) {
        seg.bytes.push_back(static_cast<uint8_t>(u));
      } else if (esz == 2) {
        append16(seg.bytes, static_cast<uint16_t>(u));
      } else {
        append32(seg.bytes, u);
      }
    }
  }

  // ---- symbols, regions, annotations --------------------------------------
  img.entry = opts.code_base;
  img.initial_sp = opts.stack_top;
  img.regions = build_region_map(mod, extents, opts, addrs);

  img.symbols.push_back(Symbol{.name = "_start",
                               .addr = opts.code_base,
                               .size = kStubBytes,
                               .is_function = true});
  for (std::size_t fi = 0; fi < funcs.size(); ++fi) {
    const LaidOutFunction& lf = funcs[fi];
    const uint32_t fbase = addrs.function_base[fi];
    img.symbols.push_back(Symbol{.name = lf.fn.name,
                                 .addr = fbase,
                                 .size = lf.extent.total_bytes,
                                 .is_function = true});
    for (const auto& lm : lf.fn.loops) {
      const uint32_t addr = fbase + lf.item_off[lm.header];
      auto [it, inserted] = img.loop_bounds.emplace(addr, lm.bound);
      if (!inserted) it->second = std::max(it->second, lm.bound);
      if (lm.total >= 0) {
        auto [tt, tins] = img.loop_totals.emplace(addr, lm.total);
        if (!tins) tt->second = std::max(tt->second, lm.total);
      }
    }
    for (std::size_t i = 0; i < lf.fn.code.size(); ++i) {
      const ObjInstr& it = lf.fn.code[i];
      if (!it.access_symbol.empty())
        img.access_hints[fbase + lf.item_off[i]] = it.access_symbol;
    }
  }
  for (std::size_t gi = 0; gi < mod.globals.size(); ++gi) {
    const minic::Global& g = mod.globals[gi];
    img.symbols.push_back(Symbol{.name = g.name,
                                 .addr = addrs.global_addr[gi],
                                 .size = g.size_bytes(),
                                 .is_function = false,
                                 .elem_bytes = minic::elem_size(g.type),
                                 .read_only = g.read_only,
                                 .count = g.count});
  }

  img.segments.push_back(std::move(main_code));
  if (!main_data.bytes.empty()) img.segments.push_back(std::move(main_data));
  if (!spm_seg.bytes.empty()) img.segments.push_back(std::move(spm_seg));
  // The stack segment is writable zeroed memory provided by the simulator.

  return img;
}

} // namespace spmwcet::link
