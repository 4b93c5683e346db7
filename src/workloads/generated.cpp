#include "workloads/generated.h"

#include <array>

#include "link/layout.h"
#include "minic/codegen.h"
#include "minic/interp.h"
#include "support/diag.h"

namespace spmwcet::workloads {
namespace {

using namespace minic;

// ---------------------------------------------------------------------------
// Deterministic RNG. splitmix64 state advance + modulo reduction: fully
// specified arithmetic, so a spec derives the identical program on every
// platform (std::mt19937 + std::uniform_int_distribution is not — the
// distribution's algorithm is implementation-defined). Modulo bias is
// irrelevant here; only determinism and rough uniformity matter.
class GenRng {
public:
  explicit GenRng(uint64_t seed) : state_(seed) {}

  uint64_t next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform-ish integer in [lo, hi], inclusive.
  int64_t pick(int64_t lo, int64_t hi) {
    const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(next() % span);
  }

private:
  uint64_t state_;
};

// ---------------------------------------------------------------------------
// Shape presets. Every knob the generator consults lives here, so a shape
// is one row and the generator itself stays shape-agnostic.
struct ShapeParams {
  int max_stmts;   ///< main's statement budget (start of the retry ladder)
  int stmt_depth;  ///< control-statement nesting depth
  int expr_depth;  ///< expression tree depth
  // Relative statement weights: assign, global-assign, store, if, for,
  // block. Control kinds get weight zero once the depth budget is spent.
  int w_assign, w_gassign, w_store, w_if, w_for, w_block;
  int call_weight;   ///< weight of the call case among the 12 expr cases
  int helper_count;  ///< number of leaf helper functions
  int helper_stmts;  ///< max extra statements in a helper body
  int64_t loop_init_lo, loop_init_hi;   ///< for-loop init constant range
  int64_t loop_limit_lo, loop_limit_hi; ///< for-loop limit constant range
  int loop_body_max;    ///< statements per loop body: pick(1, this)
  uint32_t array_count; ///< number of global arrays
  uint32_t array_elems; ///< elements per array (power of two, for masking)
};

// Indexed by GenShape. CallHeavy is deliberately symbol-rich (hundreds of
// globals + dozens of functions, ~10x the largest paper benchmark's symbol
// table) so population experiments cover the large-symbol-table regime the
// three hand-ported benchmarks never reach.
constexpr std::array<ShapeParams, 5> kShapes = {{
    // Tiny
    {5, 1, 2, 3, 1, 2, 1, 1, 1, 1, 1, 0, -1, 1, 3, 5, 1, 2, 8},
    // Mixed (the fuzz-suite default; closest to the original ProgramFuzzer)
    {12, 2, 2, 2, 1, 2, 2, 2, 1, 1, 1, 1, -3, 3, 4, 9, 2, 3, 8},
    // Loopy
    {10, 3, 2, 2, 1, 2, 1, 4, 1, 1, 1, 0, 0, 2, 6, 16, 2, 3, 16},
    // CallHeavy
    {12, 2, 2, 3, 1, 2, 1, 2, 1, 4, 48, 1, -3, 3, 4, 9, 2, 360, 8},
    // Branchy
    {12, 3, 2, 2, 1, 2, 5, 1, 1, 1, 2, 1, -2, 2, 4, 8, 1, 3, 8},
}};

const ShapeParams& shape_params(GenShape shape) {
  return kShapes[static_cast<std::size_t>(shape)];
}

/// Array element types cycle through every width the timing model
/// distinguishes (the paper's 8/16/32-bit main-memory access costs).
constexpr std::array<ElemType, 5> kElemCycle = {
    ElemType::I32, ElemType::I16, ElemType::U8, ElemType::U16, ElemType::I8};

// ---------------------------------------------------------------------------
// The generator proper: the fuzz suite's ProgramFuzzer, parameterized by
// ShapeParams and rebased onto GenRng. All of the original safety
// invariants are preserved (documented inline at each site).
class Generator {
public:
  Generator(uint64_t rng_seed, const ShapeParams& sp, int max_stmts)
      : rng_(rng_seed), sp_(sp), max_stmts_(max_stmts) {}

  ProgramDef build() {
    ProgramDef p;
    for (uint32_t a = 0; a < sp_.array_count; ++a)
      p.add_global({.name = "g" + std::to_string(a),
                    .type = kElemCycle[a % kElemCycle.size()],
                    .count = sp_.array_elems,
                    .init = init_values(static_cast<int>(sp_.array_elems))});
    p.add_global({.name = "gs", .type = ElemType::I32, .count = 1,
                  .init = {rng_.pick(-1000, 1000)}});

    // Helpers are leaf functions: they never call (neither themselves nor
    // each other), so the dynamic call tree can never blow up — main is the
    // only caller, and its call count is bounded by its statement budget
    // times its loop iterations.
    for (int h = 0; h < sp_.helper_count; ++h) {
      auto& helper = p.add_function("h" + std::to_string(h), {"x", "y"}, true);
      helper.body = block({});
      locals_ = {"x", "y"};
      callable_.clear();
      const int extra = static_cast<int>(rng_.pick(0, sp_.helper_stmts));
      for (int s = 0; s < extra; ++s) helper.body->body.push_back(stmt(1));
      // Both arms return, so the helper yields a value on every path.
      helper.body->body.push_back(if_(lt(var("x"), var("y")),
                                      ret(expr(sp_.expr_depth)),
                                      ret(expr(sp_.expr_depth))));
    }

    callable_.clear();
    for (int h = 0; h < sp_.helper_count; ++h)
      callable_.push_back("h" + std::to_string(h));

    auto& m = p.add_function("main", {}, false);
    m.body = block({});
    locals_.clear();
    const int n = static_cast<int>(
        rng_.pick(std::min<int64_t>(4, max_stmts_), max_stmts_));
    for (int i = 0; i < n; ++i) m.body->body.push_back(stmt(sp_.stmt_depth));
    m.body->body.push_back(ret());
    return p;
  }

private:
  std::vector<int64_t> init_values(int n) {
    std::vector<int64_t> v;
    for (int i = 0; i < n; ++i) v.push_back(rng_.pick(-120, 120));
    return v;
  }

  std::string array_name() {
    return "g" + std::to_string(
                     rng_.pick(0, static_cast<int64_t>(sp_.array_count) - 1));
  }

  /// In-range index expression: arbitrary expr masked to the array span
  /// (element counts are powers of two precisely so this mask is exact).
  ExprPtr index_expr(int depth) {
    return band(expr(depth), cst(static_cast<int64_t>(sp_.array_elems) - 1));
  }

  ExprPtr leaf() {
    switch (rng_.pick(0, 3)) {
      case 0:
        return cst(rng_.pick(0, 2) == 0 ? rng_.pick(-100000, 100000)
                                        : rng_.pick(-100, 100));
      case 1:
        if (!locals_.empty())
          return var(locals_[static_cast<std::size_t>(
              rng_.pick(0, static_cast<int64_t>(locals_.size()) - 1))]);
        return cst(rng_.pick(-50, 50));
      case 2:
        return gld("gs");
      default:
        return idx(array_name(), index_expr(0));
    }
  }

  /// Expression case 0..11 with the call case (11) weighted by the shape.
  int expr_case() {
    const int64_t r = rng_.pick(0, 10 + sp_.call_weight);
    return r < 11 ? static_cast<int>(r) : 11;
  }

  ExprPtr expr(int depth) {
    if (depth <= 0 || rng_.pick(0, 4) == 0) return leaf();
    switch (expr_case()) {
      case 0: return add(expr(depth - 1), expr(depth - 1));
      case 1: return sub(expr(depth - 1), expr(depth - 1));
      case 2: return mul(expr(depth - 1), expr(depth - 1));
      case 3:
        // Constant positive divisor: division by zero is a trap in both
        // the interpreter and the simulator.
        return sdiv(expr(depth - 1), cst(rng_.pick(1, 9)));
      case 4: return band(expr(depth - 1), expr(depth - 1));
      case 5: return bor(expr(depth - 1), expr(depth - 1));
      case 6: return bxor(expr(depth - 1), expr(depth - 1));
      case 7: {
        const auto op = rng_.pick(0, 2);
        auto amount = cst(rng_.pick(0, 15));
        if (op == 0) return shl(expr(depth - 1), std::move(amount));
        if (op == 1) return asr(expr(depth - 1), std::move(amount));
        return lsr(expr(depth - 1), std::move(amount));
      }
      case 8: return neg(expr(depth - 1));
      case 9: {
        const auto op = rng_.pick(0, 5);
        auto l = expr(depth - 1);
        auto r = expr(depth - 1);
        switch (op) {
          case 0: return lt(std::move(l), std::move(r));
          case 1: return le(std::move(l), std::move(r));
          case 2: return gt(std::move(l), std::move(r));
          case 3: return ge(std::move(l), std::move(r));
          case 4: return eq(std::move(l), std::move(r));
          default: return ne(std::move(l), std::move(r));
        }
      }
      case 10:
        return rng_.pick(0, 1) ? land(expr(depth - 1), expr(depth - 1))
                               : lor(expr(depth - 1), expr(depth - 1));
      default: {
        if (callable_.empty()) return leaf();
        const auto& target = callable_[static_cast<std::size_t>(
            rng_.pick(0, static_cast<int64_t>(callable_.size()) - 1))];
        std::vector<ExprPtr> args;
        args.push_back(expr(depth - 1));
        args.push_back(expr(depth - 1));
        return call(target, std::move(args));
      }
    }
  }

  std::string fresh_or_existing_local() {
    // Loop variables ("iN") and parameters ("x"/"y") are readable but must
    // never be assign targets: the checker rejects writes that would
    // invalidate loop bounds, and parameter mutation is not modeled.
    std::vector<std::string> assignable;
    for (const auto& l : locals_)
      if (l[0] == 'l') assignable.push_back(l);
    if (!assignable.empty() && rng_.pick(0, 1) == 0)
      return assignable[static_cast<std::size_t>(
          rng_.pick(0, static_cast<int64_t>(assignable.size()) - 1))];
    const std::string name = "l" + std::to_string(fresh_count_++);
    locals_.push_back(name);
    return name;
  }

  /// Weighted statement choice; control kinds drop out at depth zero.
  int stmt_case(int depth) {
    const int w[6] = {sp_.w_assign,
                      sp_.w_gassign,
                      sp_.w_store,
                      depth > 0 ? sp_.w_if : 0,
                      depth > 0 ? sp_.w_for : 0,
                      depth > 0 ? sp_.w_block : 0};
    int total = 0;
    for (const int x : w) total += x;
    int64_t r = rng_.pick(0, total - 1);
    for (int c = 0; c < 6; ++c) {
      if (r < w[c]) return c;
      r -= w[c];
    }
    return 0;
  }

  StmtPtr stmt(int depth) {
    switch (stmt_case(depth)) {
      case 0: {
        // The value expression is generated BEFORE the target local is
        // registered, so a fresh local can never appear in its own first
        // assignment (which would read it uninitialized).
        auto value = expr(sp_.expr_depth);
        const std::string name = fresh_or_existing_local();
        return assign(name, std::move(value));
      }
      case 1:
        return gassign("gs", expr(sp_.expr_depth));
      case 2:
        return store(array_name(), index_expr(1), expr(sp_.expr_depth));
      case 3: {
        // Locals first assigned inside a conditional arm may never be
        // assigned at runtime; they must not be visible afterwards.
        const auto snapshot = locals_;
        auto then_arm = stmt(depth - 1);
        locals_ = snapshot;
        StmtPtr else_arm = rng_.pick(0, 1) ? stmt(depth - 1) : nullptr;
        locals_ = snapshot;
        return if_(expr(1), std::move(then_arm), std::move(else_arm));
      }
      case 4: {
        // Counted loop; the loop variable is readable inside the body only
        // (the loop may sit on a never-taken path).
        const auto snapshot = locals_;
        const std::string v = "i" + std::to_string(loop_count_++);
        locals_.push_back(v);
        std::vector<StmtPtr> body;
        const int k = static_cast<int>(rng_.pick(1, sp_.loop_body_max));
        for (int i = 0; i < k; ++i) body.push_back(stmt(depth - 1));
        locals_ = snapshot;
        return for_(v, cst(rng_.pick(sp_.loop_init_lo, sp_.loop_init_hi)),
                    cst(rng_.pick(sp_.loop_limit_lo, sp_.loop_limit_hi)),
                    rng_.pick(1, 3), block(std::move(body)));
      }
      default: {
        std::vector<StmtPtr> body;
        body.push_back(stmt(depth - 1));
        body.push_back(stmt(depth - 1));
        return block(std::move(body));
      }
    }
  }

  GenRng rng_;
  const ShapeParams& sp_;
  int max_stmts_;
  std::vector<std::string> locals_;
  std::vector<std::string> callable_;
  int loop_count_ = 0;
  int fresh_count_ = 0;
};

/// Deterministic derivation of one attempt's RNG state from the spec. The
/// attempt index participates so each retry explores a different program,
/// not the same one truncated.
uint64_t rng_seed(const GenSpec& spec, int attempt) {
  uint64_t h = 0xcbf29ce484222325ull;
  h = (h ^ spec.seed) * 0x100000001b3ull;
  h = (h ^ (static_cast<uint64_t>(spec.shape) + 1)) * 0x100000001b3ull;
  h = (h ^ static_cast<uint64_t>(attempt)) * 0x100000001b3ull;
  return h;
}

} // namespace

const std::vector<std::string>& gen_shape_names() {
  static const std::vector<std::string> names = {"tiny", "mixed", "loopy",
                                                 "callheavy", "branchy"};
  return names;
}

const std::string& gen_shape_name(GenShape shape) {
  return gen_shape_names()[static_cast<std::size_t>(shape)];
}

std::string gen_name(const GenSpec& spec) {
  return "gen:" + gen_shape_name(spec.shape) + ":" + std::to_string(spec.seed);
}

bool is_gen_name(const std::string& name) {
  return name.compare(0, 4, "gen:") == 0;
}

GenParseResult parse_gen_name(const std::string& name) {
  GenParseResult r;
  if (!is_gen_name(name)) {
    r.status = GenParseStatus::NotGenName;
    r.message = "not in the gen: namespace";
    return r;
  }
  const auto malformed = [&](const std::string& why) {
    r.status = GenParseStatus::MalformedSyntax;
    r.message = "malformed generated-workload name '" + name + "': " + why +
                " (expected gen:<shape>:<seed>)";
    return r;
  };
  const std::string rest = name.substr(4);
  const auto colon = rest.find(':');
  if (colon == std::string::npos) return malformed("missing seed field");
  const std::string shape = rest.substr(0, colon);
  const std::string seed = rest.substr(colon + 1);
  if (shape.empty()) return malformed("empty shape field");
  if (seed.find(':') != std::string::npos)
    return malformed("too many ':'-separated fields");
  if (seed.empty()) return malformed("empty seed field");
  for (const char c : seed)
    if (c < '0' || c > '9')
      return malformed("seed must be an unsigned decimal integer");
  if (seed.size() > 1 && seed[0] == '0')
    return malformed("seed has leading zeros");

  std::size_t shape_idx = gen_shape_names().size();
  for (std::size_t i = 0; i < gen_shape_names().size(); ++i)
    if (gen_shape_names()[i] == shape) shape_idx = i;
  if (shape_idx == gen_shape_names().size()) {
    r.status = GenParseStatus::UnknownShape;
    std::string known;
    for (const auto& s : gen_shape_names())
      known += (known.empty() ? "" : ", ") + s;
    r.message = "unknown generated-workload shape '" + shape +
                "' (known shapes: " + known + ")";
    return r;
  }

  uint64_t value = 0;
  bool overflow = seed.size() > 10;
  if (!overflow) {
    for (const char c : seed) value = value * 10 + static_cast<uint64_t>(c - '0');
    overflow = value > 0xffffffffull;
  }
  if (overflow) {
    r.status = GenParseStatus::SeedOutOfRange;
    r.message = "generated-workload seed '" + seed +
                "' out of range (max 4294967295)";
    return r;
  }

  r.status = GenParseStatus::Ok;
  r.spec = GenSpec{static_cast<uint32_t>(value),
                   static_cast<GenShape>(shape_idx)};
  r.message.clear();
  return r;
}

namespace {

/// The generated program and the module it lowers to, compiled once: the
/// retry ladder links the module to test it, and the workload keeps it.
struct Generated {
  ProgramDef prog;
  minic::ObjModule module;
};

Generated generate(const GenSpec& spec) {
  const ShapeParams& sp = shape_params(spec.shape);
  // Retry ladder: very large functions can exceed T16's pc-relative
  // literal-pool range (a real THUMB constraint — production compilers emit
  // constant islands, our linker demands smaller functions), so shrink the
  // statement budget until the linker accepts the program.
  const int budgets[4] = {sp.max_stmts, std::max(3, (2 * sp.max_stmts) / 3),
                          std::max(3, sp.max_stmts / 2), 3};
  for (int attempt = 0; attempt < 4; ++attempt) {
    Generator gen(rng_seed(spec, attempt), sp, budgets[attempt]);
    ProgramDef prog = gen.build();
    minic::ObjModule module = compile(prog);
    try {
      (void)link::link_program(module);
      return {std::move(prog), std::move(module)};
    } catch (const ProgramError&) {
      continue; // too big: regenerate smaller
    }
  }
  throw Error("generated workload " + gen_name(spec) +
              ": no attempt produced a linkable program");
}

} // namespace

minic::ProgramDef generate_program(const GenSpec& spec) {
  return generate(spec).prog;
}

WorkloadInfo make_generated(const GenSpec& spec) {
  Generated generated = generate(spec);
  const ProgramDef& prog = generated.prog;

  // The reference interpreter is the oracle for expected outputs: every
  // harness point then validates the simulated run against AST semantics,
  // exactly as the hand-ported benchmarks validate against native C.
  Interpreter ref(prog);
  ref.run();

  WorkloadInfo info;
  info.name = gen_name(spec);
  info.description = "generated MiniC program (shape " +
                     gen_shape_name(spec.shape) + ", seed " +
                     std::to_string(spec.seed) + ")";
  info.module = std::move(generated.module);
  for (const Global& g : prog.globals) {
    if (g.read_only) continue;
    ExpectedGlobal eg;
    eg.name = g.name;
    eg.values.reserve(g.count);
    for (uint32_t i = 0; i < g.count; ++i)
      eg.values.push_back(ref.read_global(g.name, i));
    info.expected.push_back(std::move(eg));
  }
  return info;
}

std::shared_ptr<const WorkloadInfo> cached_generated(const GenSpec& spec) {
  return WorkloadRegistry::instance().benchmark(gen_name(spec));
}

} // namespace spmwcet::workloads
