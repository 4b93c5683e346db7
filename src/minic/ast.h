// MiniC: a small embedded-DSL language standing in for the C subset the
// paper's energy-optimizing compiler (encc) consumes.
//
// MiniC programs are built programmatically (factory functions below), type
// checked, and compiled to T16 objects. All scalar values are int32; global
// arrays may have 8/16/32-bit signed or unsigned elements, which is what
// produces the width-dependent main-memory timing the paper studies (16-bit
// instruction fetches and `short` arrays at 2 cycles, 32-bit literals and
// `int` arrays at 4 cycles).
//
// The front end mirrors the paper's automated annotation flow: counted
// `for_` loops with constant bounds emit loop-bound annotations themselves;
// `while_` loops carry an explicit bound; every array access records the
// accessed symbol so the analyzer knows its address range even when the
// index is data dependent.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace spmwcet::minic {

/// Element type of a global (scalars are always I32).
enum class ElemType : uint8_t { I8, U8, I16, U16, I32 };

/// Size in bytes of one element.
constexpr uint32_t elem_size(ElemType t) {
  switch (t) {
    case ElemType::I8:
    case ElemType::U8: return 1;
    case ElemType::I16:
    case ElemType::U16: return 2;
    case ElemType::I32: return 4;
  }
  return 4;
}

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class BinOp : uint8_t {
  Add, Sub, Mul, SDiv, And, Or, Xor, Shl, AShr, LShr,
  Lt, Le, Gt, Ge, Eq, Ne, // signed comparisons, value 0/1
  LAnd, LOr,              // short-circuit logical
};

enum class UnOp : uint8_t { Neg, BitNot, Not };

/// Expression node. `kind` selects which fields are meaningful.
struct Expr {
  enum class Kind : uint8_t {
    Const,        ///< value
    Var,          ///< name (local or parameter)
    GlobalScalar, ///< name (global with count == 1)
    Index,        ///< name (global array), kids[0] = index
    Unary,        ///< un, kids[0]
    Binary,       ///< bin, kids[0], kids[1]
    Call,         ///< name, kids = arguments
  };

  Kind kind;
  int64_t value = 0;
  std::string name;
  UnOp un = UnOp::Neg;
  BinOp bin = BinOp::Add;
  std::vector<ExprPtr> kids;
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

/// Statement node.
struct Stmt {
  enum class Kind : uint8_t {
    Assign,       ///< name = exprs[0] (local/param)
    AssignGlobal, ///< name = exprs[0] (global scalar)
    Store,        ///< name[exprs[0]] = exprs[1] (global array)
    ExprStmt,     ///< exprs[0] evaluated for effect (calls)
    If,           ///< exprs[0] cond; body[0] then; body[1] optional else
    While,        ///< exprs[0] cond; body[0]; bound = max iterations
    For,          ///< name = exprs[0]; name < exprs[1]; name += step
    Return,       ///< exprs[0] optional
    Block,        ///< body = statements
  };

  Kind kind;
  std::string name;
  std::vector<ExprPtr> exprs;
  std::vector<StmtPtr> body;
  /// Maximum number of body executions per loop entry. Mandatory for While;
  /// inferred for For when init/limit/step are constants.
  std::optional<int64_t> bound;
  /// Optional flow fact: maximum total body executions per *invocation* of
  /// the enclosing function (tightens triangular nests in the IPET).
  std::optional<int64_t> total;
  int64_t step = 1; // For only
};

/// A global scalar (count == 1) or array (count > 1).
struct Global {
  std::string name;
  ElemType type = ElemType::I32;
  uint32_t count = 1;
  /// Initial element values (size() <= count; remainder zero-filled).
  std::vector<int64_t> init = {};
  /// Read-only data can never be the target of Store/AssignGlobal.
  bool read_only = false;

  uint32_t size_bytes() const { return count * elem_size(type); }
  friend bool operator==(const Global&, const Global&) = default;
};

/// A MiniC function: named parameters (passed in r0..r3, max 4), implicit
/// int32 locals (any assigned non-global name), single body block.
struct Function {
  std::string name;
  std::vector<std::string> params;
  bool returns_value = false;
  StmtPtr body;
};

/// A whole MiniC translation unit.
struct ProgramDef {
  std::vector<Global> globals;
  std::vector<Function> functions;

  Function& add_function(std::string name, std::vector<std::string> params,
                         bool returns_value);
  Global& add_global(Global g);

  const Function* find_function(const std::string& name) const;
  const Global* find_global(const std::string& name) const;
};

// ---------------------------------------------------------------------------
// Factory functions (the DSL surface).

ExprPtr cst(int64_t v);
ExprPtr var(std::string name);
ExprPtr gld(std::string name);               // global scalar load
ExprPtr idx(std::string array, ExprPtr i);   // array element load
ExprPtr unary(UnOp op, ExprPtr e);
ExprPtr binary(BinOp op, ExprPtr l, ExprPtr r);
ExprPtr call(std::string fn, std::vector<ExprPtr> args);

inline ExprPtr add(ExprPtr l, ExprPtr r) { return binary(BinOp::Add, std::move(l), std::move(r)); }
inline ExprPtr sub(ExprPtr l, ExprPtr r) { return binary(BinOp::Sub, std::move(l), std::move(r)); }
inline ExprPtr mul(ExprPtr l, ExprPtr r) { return binary(BinOp::Mul, std::move(l), std::move(r)); }
inline ExprPtr sdiv(ExprPtr l, ExprPtr r) { return binary(BinOp::SDiv, std::move(l), std::move(r)); }
inline ExprPtr band(ExprPtr l, ExprPtr r) { return binary(BinOp::And, std::move(l), std::move(r)); }
inline ExprPtr bor(ExprPtr l, ExprPtr r) { return binary(BinOp::Or, std::move(l), std::move(r)); }
inline ExprPtr bxor(ExprPtr l, ExprPtr r) { return binary(BinOp::Xor, std::move(l), std::move(r)); }
inline ExprPtr shl(ExprPtr l, ExprPtr r) { return binary(BinOp::Shl, std::move(l), std::move(r)); }
inline ExprPtr asr(ExprPtr l, ExprPtr r) { return binary(BinOp::AShr, std::move(l), std::move(r)); }
inline ExprPtr lsr(ExprPtr l, ExprPtr r) { return binary(BinOp::LShr, std::move(l), std::move(r)); }
inline ExprPtr lt(ExprPtr l, ExprPtr r) { return binary(BinOp::Lt, std::move(l), std::move(r)); }
inline ExprPtr le(ExprPtr l, ExprPtr r) { return binary(BinOp::Le, std::move(l), std::move(r)); }
inline ExprPtr gt(ExprPtr l, ExprPtr r) { return binary(BinOp::Gt, std::move(l), std::move(r)); }
inline ExprPtr ge(ExprPtr l, ExprPtr r) { return binary(BinOp::Ge, std::move(l), std::move(r)); }
inline ExprPtr eq(ExprPtr l, ExprPtr r) { return binary(BinOp::Eq, std::move(l), std::move(r)); }
inline ExprPtr ne(ExprPtr l, ExprPtr r) { return binary(BinOp::Ne, std::move(l), std::move(r)); }
inline ExprPtr land(ExprPtr l, ExprPtr r) { return binary(BinOp::LAnd, std::move(l), std::move(r)); }
inline ExprPtr lor(ExprPtr l, ExprPtr r) { return binary(BinOp::LOr, std::move(l), std::move(r)); }
inline ExprPtr neg(ExprPtr e) { return unary(UnOp::Neg, std::move(e)); }
inline ExprPtr bnot(ExprPtr e) { return unary(UnOp::BitNot, std::move(e)); }
inline ExprPtr lnot(ExprPtr e) { return unary(UnOp::Not, std::move(e)); }

StmtPtr assign(std::string name, ExprPtr value);
StmtPtr gassign(std::string name, ExprPtr value);
StmtPtr store(std::string array, ExprPtr index, ExprPtr value);
StmtPtr expr_stmt(ExprPtr e);
StmtPtr if_(ExprPtr cond, StmtPtr then_branch, StmtPtr else_branch = nullptr);
StmtPtr while_(ExprPtr cond, int64_t bound, StmtPtr body,
               std::optional<int64_t> total = std::nullopt);
/// for (v = init; v < limit; v += step) body
/// `bound` may be omitted when init/limit are constants and step > 0.
/// `total`, when given, caps the summed iterations per function invocation.
StmtPtr for_(std::string v, ExprPtr init, ExprPtr limit, int64_t step,
             StmtPtr body, std::optional<int64_t> bound = std::nullopt,
             std::optional<int64_t> total = std::nullopt);
StmtPtr ret(ExprPtr e = nullptr);
StmtPtr block(std::vector<StmtPtr> stmts);

/// Deep copy (the DSL consumes nodes; use clone to reuse a subtree).
ExprPtr clone(const Expr& e);

} // namespace spmwcet::minic
