// The object format produced by the MiniC code generator and consumed by
// the linker: T16 instructions with symbolic branch targets, literal-pool
// references, call targets, plus the metadata the WCET analyzer needs
// (loop bounds and array-access hints), still expressed positionally.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "isa/instruction.h"
#include "minic/ast.h"

namespace spmwcet::minic {

/// A literal-pool entry: either a 32-bit constant or the address of a
/// symbol plus an addend (filled in at link time).
struct Literal {
  bool is_symbol = false;
  int64_t value = 0;   // constant case
  std::string symbol;  // symbol case
  uint32_t addend = 0;

  friend bool operator==(const Literal&, const Literal&) = default;
};

/// One positional item of a function body. The linker expands BL to its
/// halfword pair, resolves labels to offsets and literals to pool slots.
struct ObjInstr {
  isa::Instr ins;

  /// BCC/B: index into ObjFunction label space; resolved by the linker.
  int label = -1;
  /// BL: callee symbol.
  std::string callee;
  /// LDR_LIT / ADR: index into ObjFunction::literals.
  int literal = -1;
  /// Loads/stores to a known global: symbol whose address range bounds this
  /// access (the paper's automated array-access annotation).
  std::string access_symbol;

  friend bool operator==(const ObjInstr&, const ObjInstr&) = default;
};

/// A loop-bound annotation: `header` is the positional index of the first
/// instruction of the loop header; `bound` is the maximum number of times
/// the loop's back edges may be taken per entry; `total`, when >= 0, caps
/// the summed back-edge executions per function invocation (flow fact for
/// triangular nests).
struct LoopMark {
  uint32_t header = 0;
  int64_t bound = 0;
  int64_t total = -1;

  friend bool operator==(const LoopMark&, const LoopMark&) = default;
};

/// A compiled function before linking.
struct ObjFunction {
  std::string name;
  std::vector<ObjInstr> code;
  /// label id -> positional index into `code` of the labelled instruction
  /// (may equal code.size() for an end label).
  std::vector<uint32_t> label_pos;
  std::vector<Literal> literals;
  std::vector<LoopMark> loops;

  int new_label() {
    label_pos.push_back(UINT32_MAX);
    return static_cast<int>(label_pos.size()) - 1;
  }
  void bind_label(int label) {
    label_pos.at(static_cast<std::size_t>(label)) =
        static_cast<uint32_t>(code.size());
  }
  /// Adds a literal, deduplicating identical entries.
  int add_literal(const Literal& lit);

  friend bool operator==(const ObjFunction&, const ObjFunction&) = default;
};

/// A compiled translation unit: functions plus global definitions carried
/// through from the AST (the linker lays them out).
struct ObjModule {
  std::vector<ObjFunction> functions;
  std::vector<Global> globals;
  std::string entry = "main";

  const ObjFunction* find_function(const std::string& name) const;

  friend bool operator==(const ObjModule&, const ObjModule&) = default;
};

} // namespace spmwcet::minic
