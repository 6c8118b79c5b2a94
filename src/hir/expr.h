/**
 * @file
 * The Hydride IR expression language (paper Fig. 4).
 *
 * Hydride IR is the executable semantics language into which vendor
 * pseudocode is parsed, over which similarity checking reasons, and
 * which defines the meaning of every AutoLLVM IR operation. It is a
 * small, typed, purely functional expression language over two types:
 *
 *  - `Int`: mathematical integers used for indices, widths, loop
 *    iterators and the numerical parameters (k1..kr) that similarity
 *    checking abstracts into symbolic parameters (alpha1..alphar);
 *  - `BV`: fixed-width bitvectors (values of `BitVector`), whose
 *    widths are themselves Int-typed expressions so that one symbolic
 *    semantics covers a whole family of concrete instructions.
 *
 * Expressions are immutable, shared (DAG) nodes. An instruction's
 * canonical semantics wraps a single element-producing expression in
 * a two-level loop nest; see semantics.h.
 */
#ifndef HYDRIDE_HIR_EXPR_H
#define HYDRIDE_HIR_EXPR_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "hir/bitvector.h"

namespace hydride {

/** Node discriminator for Hydride IR expressions. */
enum class ExprKind {
    // Int-typed.
    IntConst,   ///< Literal integer.
    Param,      ///< Numerical instruction parameter (k_i / alpha_i).
    LoopVar,    ///< Loop iterator: level 0 = lane, level 1 = element.
    NamedVar,   ///< Let-bound or spec-local integer variable (pre-canonical).
    IntBin,     ///< Integer arithmetic.
    // BV-typed.
    ArgBV,      ///< Input bitvector argument, by index.
    BVConst,    ///< Bitvector constant: width and value are Int exprs.
    BVBin,      ///< Binary bitvector operation.
    BVUn,       ///< Unary bitvector operation.
    BVCast,     ///< Width-changing cast (sext/zext/trunc/saturate).
    Extract,    ///< Bit-slice extract: (bv, low, width).
    Concat,     ///< Concatenation (operand 0 is the high part).
    BVCmp,      ///< Comparison producing a 1-bit bitvector.
    Select,     ///< (cond bv1, then, else).
    Hole,       ///< Synthesis hole inserted by the similarity engine.
};

/** Integer binary operators. */
enum class IntBinOp { Add, Sub, Mul, Div, Mod, Min, Max };

/** Bitvector binary operators (both operands same width). */
enum class BVBinOp {
    Add, Sub, Mul, UDiv, URem,
    And, Or, Xor,
    Shl, LShr, AShr,        ///< Shift amount is operand 1 (same width).
    AddSatS, AddSatU, SubSatS, SubSatU,
    MinS, MaxS, MinU, MaxU,
    AvgU, AvgS,
};

/** Bitvector unary operators. */
enum class BVUnOp { Not, Neg, AbsS, Popcount };

/** Width-changing casts; target width is an Int expr operand. */
enum class BVCastOp { SExt, ZExt, Trunc, SatNarrowS, SatNarrowU };

/** Comparison operators; result is a 1-bit bitvector (1 = true). */
enum class BVCmpOp { Eq, Ne, Ult, Ule, Slt, Sle };

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/**
 * Where a node came from in the vendor manual: the dialect-qualified
 * instruction ("x86:_mm_add_epi16") plus the 1-based pseudocode line.
 * The parsers attach locations; rewriting preserves them on rebuilt
 * nodes, so diagnostics can usually point at the offending pseudocode
 * line even after canonicalization. Locations are metadata only:
 * structural equality and hashing ignore them.
 */
struct SourceLoc
{
    SourceLoc() = default;
    /** Every node of an instruction carries its location, so `unit`
     *  is interned: the nodes share one copy of the string. */
    SourceLoc(const std::string &unit, int line);

    int line = 0; ///< 1-based line in the pseudocode; 0 = unknown.

    bool known() const { return line > 0; }
    /** "<dialect>:<instruction>"; empty when none was given. */
    const std::string &unit() const;
    /** "x86:_mm_add_epi16:3"; empty string when unknown. */
    std::string str() const;

  private:
    const std::string *unit_ = nullptr;
};

/**
 * One immutable Hydride IR node. Construct through the factory
 * functions below, never directly.
 */
class Expr
{
  public:
    ExprKind kind;
    /// IntConst value; Param/ArgBV/LoopVar index; operator code for
    /// IntBin/BVBin/BVUn/BVCast/BVCmp (cast to the right enum).
    int64_t value = 0;
    /// NamedVar / Param display name.
    std::string name;
    /// Operands; Int operands (widths, indices) live here too.
    std::vector<ExprPtr> kids;
    /// Vendor-manual provenance; ignored by equals()/hashOf().
    SourceLoc loc;

    /** True for Int-typed nodes (see class comment). */
    bool isInt() const;

    /** Structural equality (DAG-aware via pointer fast path). */
    static bool equals(const ExprPtr &a, const ExprPtr &b);

    /** Structural hash, consistent with equals(). */
    static uint64_t hashOf(const ExprPtr &expr);

    /** Number of nodes in the tree (shared nodes counted repeatedly). */
    static int sizeOf(const ExprPtr &expr);
};

// ---- Factories -----------------------------------------------------------

ExprPtr intConst(int64_t value);
ExprPtr param(int index, std::string name);
ExprPtr loopVar(int level);
ExprPtr namedVar(std::string name);
ExprPtr intBin(IntBinOp op, ExprPtr a, ExprPtr b);

ExprPtr argBV(int index);
ExprPtr bvConst(ExprPtr width, ExprPtr value);
ExprPtr bvBin(BVBinOp op, ExprPtr a, ExprPtr b);
ExprPtr bvUn(BVUnOp op, ExprPtr a);
ExprPtr bvCast(BVCastOp op, ExprPtr a, ExprPtr width);
ExprPtr extract(ExprPtr bv, ExprPtr low, ExprPtr width);
ExprPtr concat(ExprPtr high, ExprPtr low);
ExprPtr bvCmp(BVCmpOp op, ExprPtr a, ExprPtr b);
ExprPtr select(ExprPtr cond, ExprPtr then_e, ExprPtr else_e);
ExprPtr hole(std::vector<ExprPtr> context);

// ---- Source locations ------------------------------------------------------

/**
 * Tag `expr` and every descendant that has no location yet with
 * `loc`, stopping at already-tagged subtrees. Only call on freshly
 * parsed trees whose nodes are not shared with other expressions (the
 * parsers' use case): tagging mutates nodes in place.
 */
void tagSourceLoc(const ExprPtr &expr, const SourceLoc &loc);

/** First known location in a pre-order walk; unknown if none. */
SourceLoc findSourceLoc(const ExprPtr &expr);

// Convenience shorthand for common index arithmetic.
inline ExprPtr addI(ExprPtr a, ExprPtr b) { return intBin(IntBinOp::Add, a, b); }
inline ExprPtr subI(ExprPtr a, ExprPtr b) { return intBin(IntBinOp::Sub, a, b); }
inline ExprPtr mulI(ExprPtr a, ExprPtr b) { return intBin(IntBinOp::Mul, a, b); }
inline ExprPtr divI(ExprPtr a, ExprPtr b) { return intBin(IntBinOp::Div, a, b); }
inline ExprPtr modI(ExprPtr a, ExprPtr b) { return intBin(IntBinOp::Mod, a, b); }

// ---- Evaluation ------------------------------------------------------------

/**
 * Integer evaluation state: concrete values for the numerical
 * parameters, loop iterator values, and named variable bindings
 * (integer immediates, and the pre-canonical statement interpreter's
 * variables). Int-typed expressions are always concrete, whatever
 * domain the BV-typed ones are evaluated in.
 */
struct IntEnv
{
    const std::vector<int64_t> *param_values = nullptr;
    int64_t loop_i = 0;
    int64_t loop_j = 0;
    std::unordered_map<std::string, int64_t> named;
};

/** Evaluation environment over a value domain (hir/eval.h): the
 *  bitvector arguments as `Value`s plus the integer state. */
template <typename Value>
struct ValueEnv : IntEnv
{
    const std::vector<Value> *bv_args = nullptr;
};

/** The concrete environment: BitVector arguments. */
using EvalEnv = ValueEnv<BitVector>;

/** Evaluate an Int-typed expression. */
int64_t evalInt(const ExprPtr &expr, const IntEnv &env);

/** Evaluate a BV-typed expression on concrete values: the walker of
 *  hir/eval.h over BitVectorDomain. */
BitVector evalBV(const ExprPtr &expr, const EvalEnv &env);

/**
 * The shift-amount clamp used when evaluating Shl/LShr/AShr: amounts
 * >= kMaxWidth (or with any high word bit set) behave as a full
 * shift-out. Exposed so the symbolic domains mirror it exactly.
 */
int shiftAmountOf(const BitVector &amount);

/** Apply a BV binary operator on concrete values (including the
 *  shift-amount clamp): BitVectorDomain::binOp. */
BitVector applyBVBinOp(BVBinOp op, const BitVector &a, const BitVector &b);

// ---- Rewriting --------------------------------------------------------------

/**
 * Replace nodes: wherever `pred` returns a non-null replacement, use
 * it; otherwise rebuild with rewritten children.
 */
ExprPtr rewrite(const ExprPtr &expr,
                const std::function<ExprPtr(const ExprPtr &)> &pred);

/** Constant-fold and algebraically normalize (x+0, x*1, commutative
 *  operand ordering, nested constant folding). */
ExprPtr simplify(const ExprPtr &expr);

/** Collect every node (pre-order) into `out`. */
void collectNodes(const ExprPtr &expr, std::vector<ExprPtr> &out);

/** Printable operator names (for printers and diagnostics). */
const char *intBinOpName(IntBinOp op);
const char *bvBinOpName(BVBinOp op);
const char *bvUnOpName(BVUnOp op);
const char *bvCastOpName(BVCastOp op);
const char *bvCmpOpName(BVCmpOp op);

} // namespace hydride

#endif // HYDRIDE_HIR_EXPR_H
