#include "hir/expr.h"

#include "hir/eval.h"
#include "support/error.h"
#include "support/strings.h"

#include <algorithm>
#include <mutex>
#include <unordered_set>

namespace hydride {

namespace {

ExprPtr
make(ExprKind kind, int64_t value, std::string name,
     std::vector<ExprPtr> kids)
{
    auto node = std::make_shared<Expr>();
    node->kind = kind;
    node->value = value;
    node->name = std::move(name);
    node->kids = std::move(kids);
    return node;
}

/**
 * A linear combination of opaque integer terms plus a constant, used
 * to cancel symbolic terms in index arithmetic (e.g. slice widths
 * like `(i+7) - i + 1`).
 */
struct LinComb
{
    std::vector<std::pair<ExprPtr, int64_t>> terms;
    int64_t constant = 0;
    bool ok = true;
};

void
linAddTerm(LinComb &lin, const ExprPtr &expr, int64_t coeff)
{
    for (auto &term : lin.terms) {
        if (Expr::equals(term.first, expr)) {
            term.second += coeff;
            return;
        }
    }
    lin.terms.emplace_back(expr, coeff);
}

void
linearize(const ExprPtr &expr, int64_t scale, LinComb &lin)
{
    if (!lin.ok)
        return;
    if (expr->kind == ExprKind::IntConst) {
        lin.constant += scale * expr->value;
        return;
    }
    if (expr->kind == ExprKind::IntBin) {
        const auto op = static_cast<IntBinOp>(expr->value);
        if (op == IntBinOp::Add) {
            linearize(expr->kids[0], scale, lin);
            linearize(expr->kids[1], scale, lin);
            return;
        }
        if (op == IntBinOp::Sub) {
            linearize(expr->kids[0], scale, lin);
            linearize(expr->kids[1], -scale, lin);
            return;
        }
        if (op == IntBinOp::Mul) {
            if (expr->kids[0]->kind == ExprKind::IntConst) {
                linearize(expr->kids[1], scale * expr->kids[0]->value, lin);
                return;
            }
            if (expr->kids[1]->kind == ExprKind::IntConst) {
                linearize(expr->kids[0], scale * expr->kids[1]->value, lin);
                return;
            }
        }
    }
    // Opaque term (variable, div/mod, parameter, ...).
    linAddTerm(lin, expr, scale);
}

int64_t
applyIntBin(IntBinOp op, int64_t a, int64_t b)
{
    switch (op) {
      case IntBinOp::Add: return a + b;
      case IntBinOp::Sub: return a - b;
      case IntBinOp::Mul: return a * b;
      case IntBinOp::Div:
        HYD_ASSERT(b != 0, "integer division by zero in Hydride IR");
        // INT64_MIN / -1 overflows (C++ UB); wrap like the bitvector ops.
        if (a == INT64_MIN && b == -1)
            return INT64_MIN;
        return a / b;
      case IntBinOp::Mod:
        HYD_ASSERT(b != 0, "integer modulo by zero in Hydride IR");
        if (a == INT64_MIN && b == -1)
            return 0;
        return a % b;
      case IntBinOp::Min: return std::min(a, b);
      case IntBinOp::Max: return std::max(a, b);
    }
    panic("unknown IntBinOp");
}

} // namespace

SourceLoc::SourceLoc(const std::string &unit, int line)
    : line(line)
{
    // Interned for the life of the process; the set's nodes never move.
    static std::unordered_set<std::string> units;
    static std::mutex units_mutex;
    std::lock_guard<std::mutex> lock(units_mutex);
    unit_ = &*units.insert(unit).first;
}

const std::string &
SourceLoc::unit() const
{
    static const std::string unknown;
    return unit_ ? *unit_ : unknown;
}

std::string
SourceLoc::str() const
{
    if (!known())
        return {};
    return unit() + ":" + std::to_string(line);
}

void
tagSourceLoc(const ExprPtr &expr, const SourceLoc &loc)
{
    if (!expr || expr->loc.known())
        return;
    // The node was freshly built by a parser and is not yet shared
    // outside this tree, so in-place tagging is safe.
    const_cast<Expr &>(*expr).loc = loc;
    for (const auto &kid : expr->kids)
        tagSourceLoc(kid, loc);
}

SourceLoc
findSourceLoc(const ExprPtr &expr)
{
    if (!expr)
        return {};
    if (expr->loc.known())
        return expr->loc;
    for (const auto &kid : expr->kids) {
        SourceLoc loc = findSourceLoc(kid);
        if (loc.known())
            return loc;
    }
    return {};
}

bool
Expr::isInt() const
{
    switch (kind) {
      case ExprKind::IntConst:
      case ExprKind::Param:
      case ExprKind::LoopVar:
      case ExprKind::NamedVar:
      case ExprKind::IntBin:
        return true;
      default:
        return false;
    }
}

bool
Expr::equals(const ExprPtr &a, const ExprPtr &b)
{
    if (a.get() == b.get())
        return true;
    if (!a || !b)
        return false;
    if (a->kind != b->kind || a->value != b->value || a->name != b->name ||
        a->kids.size() != b->kids.size()) {
        return false;
    }
    for (size_t i = 0; i < a->kids.size(); ++i)
        if (!equals(a->kids[i], b->kids[i]))
            return false;
    return true;
}

uint64_t
Expr::hashOf(const ExprPtr &expr)
{
    if (!expr)
        return 0;
    uint64_t h = static_cast<uint64_t>(expr->kind) * 0x9E3779B97F4A7C15ull;
    h ^= static_cast<uint64_t>(expr->value) + (h << 6) + (h >> 2);
    for (char c : expr->name)
        h = h * 131 + static_cast<unsigned char>(c);
    for (const auto &kid : expr->kids)
        h ^= hashOf(kid) + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    return h;
}

int
Expr::sizeOf(const ExprPtr &expr)
{
    if (!expr)
        return 0;
    int n = 1;
    for (const auto &kid : expr->kids)
        n += sizeOf(kid);
    return n;
}

// ---- Factories -------------------------------------------------------------

ExprPtr
intConst(int64_t value)
{
    return make(ExprKind::IntConst, value, {}, {});
}

ExprPtr
param(int index, std::string name)
{
    return make(ExprKind::Param, index, std::move(name), {});
}

ExprPtr
loopVar(int level)
{
    HYD_ASSERT(level == 0 || level == 1, "loop nest is two levels deep");
    return make(ExprKind::LoopVar, level, {}, {});
}

ExprPtr
namedVar(std::string name)
{
    return make(ExprKind::NamedVar, 0, std::move(name), {});
}

ExprPtr
intBin(IntBinOp op, ExprPtr a, ExprPtr b)
{
    HYD_ASSERT(a->isInt() && b->isInt(), "intBin operands must be Int");
    return make(ExprKind::IntBin, static_cast<int64_t>(op), {},
                {std::move(a), std::move(b)});
}

ExprPtr
argBV(int index)
{
    return make(ExprKind::ArgBV, index, {}, {});
}

ExprPtr
bvConst(ExprPtr width, ExprPtr value)
{
    HYD_ASSERT(width->isInt() && value->isInt(),
               "bvConst width/value must be Int");
    return make(ExprKind::BVConst, 0, {}, {std::move(width), std::move(value)});
}

ExprPtr
bvBin(BVBinOp op, ExprPtr a, ExprPtr b)
{
    HYD_ASSERT(!a->isInt() && !b->isInt(), "bvBin operands must be BV");
    return make(ExprKind::BVBin, static_cast<int64_t>(op), {},
                {std::move(a), std::move(b)});
}

ExprPtr
bvUn(BVUnOp op, ExprPtr a)
{
    HYD_ASSERT(!a->isInt(), "bvUn operand must be BV");
    return make(ExprKind::BVUn, static_cast<int64_t>(op), {}, {std::move(a)});
}

ExprPtr
bvCast(BVCastOp op, ExprPtr a, ExprPtr width)
{
    HYD_ASSERT(!a->isInt() && width->isInt(), "bvCast takes (BV, Int)");
    return make(ExprKind::BVCast, static_cast<int64_t>(op), {},
                {std::move(a), std::move(width)});
}

ExprPtr
extract(ExprPtr bv, ExprPtr low, ExprPtr width)
{
    HYD_ASSERT(!bv->isInt() && low->isInt() && width->isInt(),
               "extract takes (BV, Int, Int)");
    return make(ExprKind::Extract, 0, {},
                {std::move(bv), std::move(low), std::move(width)});
}

ExprPtr
concat(ExprPtr high, ExprPtr low)
{
    HYD_ASSERT(!high->isInt() && !low->isInt(), "concat operands must be BV");
    return make(ExprKind::Concat, 0, {}, {std::move(high), std::move(low)});
}

ExprPtr
bvCmp(BVCmpOp op, ExprPtr a, ExprPtr b)
{
    HYD_ASSERT(!a->isInt() && !b->isInt(), "bvCmp operands must be BV");
    return make(ExprKind::BVCmp, static_cast<int64_t>(op), {},
                {std::move(a), std::move(b)});
}

ExprPtr
select(ExprPtr cond, ExprPtr then_e, ExprPtr else_e)
{
    HYD_ASSERT(!cond->isInt() && !then_e->isInt() && !else_e->isInt(),
               "select operands must be BV");
    return make(ExprKind::Select, 0, {},
                {std::move(cond), std::move(then_e), std::move(else_e)});
}

ExprPtr
hole(std::vector<ExprPtr> context)
{
    return make(ExprKind::Hole, 0, {}, std::move(context));
}

// ---- Evaluation --------------------------------------------------------------

int64_t
evalInt(const ExprPtr &expr, const IntEnv &env)
{
    switch (expr->kind) {
      case ExprKind::IntConst:
        return expr->value;
      case ExprKind::Param: {
        HYD_ASSERT(env.param_values &&
                   expr->value < static_cast<int64_t>(env.param_values->size()),
                   "parameter value missing during evaluation");
        return (*env.param_values)[expr->value];
      }
      case ExprKind::LoopVar:
        return expr->value == 0 ? env.loop_i : env.loop_j;
      case ExprKind::NamedVar: {
        auto it = env.named.find(expr->name);
        HYD_ASSERT(it != env.named.end(),
                   "unbound named variable: " + expr->name);
        return it->second;
      }
      case ExprKind::IntBin:
        return applyIntBin(static_cast<IntBinOp>(expr->value),
                           evalInt(expr->kids[0], env),
                           evalInt(expr->kids[1], env));
      default:
        panic("evalInt on a BV-typed node");
    }
}

int
shiftAmountOf(const BitVector &amount)
{
    // Clamp enormous shift amounts: any amount >= width behaves like
    // width (full shift-out), and width <= kMaxWidth.
    uint64_t raw = amount.toUint64();
    for (int w = 1; w * 64 < amount.width(); ++w) {
        if (!amount.extract(w * 64, std::min(64, amount.width() - w * 64))
                 .isZero()) {
            return BitVector::kMaxWidth;
        }
    }
    if (raw > static_cast<uint64_t>(BitVector::kMaxWidth))
        return BitVector::kMaxWidth;
    return static_cast<int>(raw);
}

BitVector
applyBVBinOp(BVBinOp op, const BitVector &a, const BitVector &b)
{
    switch (op) {
      case BVBinOp::Add: return a.add(b);
      case BVBinOp::Sub: return a.sub(b);
      case BVBinOp::Mul: return a.mul(b);
      case BVBinOp::UDiv: return a.udiv(b);
      case BVBinOp::URem: return a.urem(b);
      case BVBinOp::And: return a.bvand(b);
      case BVBinOp::Or: return a.bvor(b);
      case BVBinOp::Xor: return a.bvxor(b);
      case BVBinOp::Shl: return a.shl(shiftAmountOf(b));
      case BVBinOp::LShr: return a.lshr(shiftAmountOf(b));
      case BVBinOp::AShr: return a.ashr(shiftAmountOf(b));
      case BVBinOp::AddSatS: return a.addSatS(b);
      case BVBinOp::AddSatU: return a.addSatU(b);
      case BVBinOp::SubSatS: return a.subSatS(b);
      case BVBinOp::SubSatU: return a.subSatU(b);
      case BVBinOp::MinS: return a.minS(b);
      case BVBinOp::MaxS: return a.maxS(b);
      case BVBinOp::MinU: return a.minU(b);
      case BVBinOp::MaxU: return a.maxU(b);
      case BVBinOp::AvgU: return a.avgU(b);
      case BVBinOp::AvgS: return a.avgS(b);
    }
    panic("unknown BVBinOp");
}

BitVector
BitVectorDomain::unOp(BVUnOp op, const BitVector &a) const
{
    switch (op) {
      case BVUnOp::Not: return a.bvnot();
      case BVUnOp::Neg: return a.neg();
      case BVUnOp::AbsS: return a.absS();
      case BVUnOp::Popcount: return a.popcount();
    }
    panic("unknown BVUnOp");
}

BitVector
BitVectorDomain::cast(BVCastOp op, const BitVector &a, int width) const
{
    switch (op) {
      case BVCastOp::SExt: return a.sext(width);
      case BVCastOp::ZExt: return a.zext(width);
      case BVCastOp::Trunc: return a.trunc(width);
      case BVCastOp::SatNarrowS: return a.satNarrowS(width);
      case BVCastOp::SatNarrowU: return a.satNarrowU(width);
    }
    panic("unknown BVCastOp");
}

BitVector
BitVectorDomain::cmp(BVCmpOp op, const BitVector &a, const BitVector &b) const
{
    switch (op) {
      case BVCmpOp::Eq: return BitVector::fromUint(1, a == b);
      case BVCmpOp::Ne: return BitVector::fromUint(1, a != b);
      case BVCmpOp::Ult: return BitVector::fromUint(1, a.ult(b));
      case BVCmpOp::Ule: return BitVector::fromUint(1, a.ule(b));
      case BVCmpOp::Slt: return BitVector::fromUint(1, a.slt(b));
      case BVCmpOp::Sle: return BitVector::fromUint(1, a.sle(b));
    }
    panic("unknown BVCmpOp");
}

BitVector
BitVectorDomain::shiftConst(BVBinOp op, const BitVector &a, int amount) const
{
    switch (op) {
      case BVBinOp::Shl: return a.shl(amount);
      case BVBinOp::LShr: return a.lshr(amount);
      case BVBinOp::AShr: return a.ashr(amount);
      default: break;
    }
    panic("shiftConst on a non-shift operator");
}

BitVector
evalBV(const ExprPtr &expr, const EvalEnv &env)
{
    BitVectorDomain dom;
    return evalBVDom(dom, expr, env);
}

// ---- Rewriting ----------------------------------------------------------------

ExprPtr
rewrite(const ExprPtr &expr,
        const std::function<ExprPtr(const ExprPtr &)> &pred)
{
    if (ExprPtr replacement = pred(expr))
        return replacement;
    bool changed = false;
    std::vector<ExprPtr> kids;
    kids.reserve(expr->kids.size());
    for (const auto &kid : expr->kids) {
        ExprPtr rebuilt = rewrite(kid, pred);
        changed |= rebuilt.get() != kid.get();
        kids.push_back(std::move(rebuilt));
    }
    if (!changed)
        return expr;
    auto node = std::make_shared<Expr>(*expr);
    node->kids = std::move(kids);
    return node;
}

ExprPtr
simplify(const ExprPtr &expr)
{
    // Simplify children first.
    bool changed = false;
    std::vector<ExprPtr> kids;
    kids.reserve(expr->kids.size());
    for (const auto &kid : expr->kids) {
        ExprPtr s = simplify(kid);
        changed |= s.get() != kid.get();
        kids.push_back(std::move(s));
    }
    ExprPtr node = expr;
    if (changed) {
        auto fresh = std::make_shared<Expr>(*expr);
        fresh->kids = kids;
        node = fresh;
    }

    if (node->kind == ExprKind::IntBin) {
        const auto op = static_cast<IntBinOp>(node->value);
        const ExprPtr &a = node->kids[0];
        const ExprPtr &b = node->kids[1];
        const bool a_const = a->kind == ExprKind::IntConst;
        const bool b_const = b->kind == ExprKind::IntConst;
        if (a_const && b_const &&
            !((op == IntBinOp::Div || op == IntBinOp::Mod) && b->value == 0)) {
            return intConst(applyIntBin(op, a->value, b->value));
        }
        // Identity elements.
        if (op == IntBinOp::Add) {
            if (a_const && a->value == 0) return b;
            if (b_const && b->value == 0) return a;
        }
        if (op == IntBinOp::Sub && b_const && b->value == 0)
            return a;
        if (op == IntBinOp::Mul) {
            if (a_const && a->value == 1) return b;
            if (b_const && b->value == 1) return a;
            if ((a_const && a->value == 0) || (b_const && b->value == 0))
                return intConst(0);
        }
        if (op == IntBinOp::Div && b_const && b->value == 1)
            return a;
        if (op == IntBinOp::Mod && b_const && b->value == 1)
            return intConst(0);
        // Cancel symbolic terms: if the whole additive tree reduces to
        // a constant linear combination, fold it (handles slice widths
        // such as (i+7) - i + 1).
        if (op == IntBinOp::Add || op == IntBinOp::Sub) {
            LinComb lin;
            linearize(node, 1, lin);
            bool all_cancelled = lin.ok;
            for (const auto &term : lin.terms)
                all_cancelled &= term.second == 0;
            if (all_cancelled)
                return intConst(lin.constant);
        }
        // Deliberately no commutative reordering here: simplify() must
        // keep structure parallel across unrolled loop iterations so
        // that loop rerolling can anti-unify them. Operand-order
        // variants between *instructions* are merged by the similarity
        // engine's argument-permutation pass instead (paper §3.3).
    }
    return node;
}

void
collectNodes(const ExprPtr &expr, std::vector<ExprPtr> &out)
{
    out.push_back(expr);
    for (const auto &kid : expr->kids)
        collectNodes(kid, out);
}

const char *
intBinOpName(IntBinOp op)
{
    switch (op) {
      case IntBinOp::Add: return "add";
      case IntBinOp::Sub: return "sub";
      case IntBinOp::Mul: return "mul";
      case IntBinOp::Div: return "div";
      case IntBinOp::Mod: return "mod";
      case IntBinOp::Min: return "min";
      case IntBinOp::Max: return "max";
    }
    return "?";
}

const char *
bvBinOpName(BVBinOp op)
{
    switch (op) {
      case BVBinOp::Add: return "bvadd";
      case BVBinOp::Sub: return "bvsub";
      case BVBinOp::Mul: return "bvmul";
      case BVBinOp::UDiv: return "bvudiv";
      case BVBinOp::URem: return "bvurem";
      case BVBinOp::And: return "bvand";
      case BVBinOp::Or: return "bvor";
      case BVBinOp::Xor: return "bvxor";
      case BVBinOp::Shl: return "bvshl";
      case BVBinOp::LShr: return "bvlshr";
      case BVBinOp::AShr: return "bvashr";
      case BVBinOp::AddSatS: return "bvaddsat.s";
      case BVBinOp::AddSatU: return "bvaddsat.u";
      case BVBinOp::SubSatS: return "bvsubsat.s";
      case BVBinOp::SubSatU: return "bvsubsat.u";
      case BVBinOp::MinS: return "bvmin.s";
      case BVBinOp::MaxS: return "bvmax.s";
      case BVBinOp::MinU: return "bvmin.u";
      case BVBinOp::MaxU: return "bvmax.u";
      case BVBinOp::AvgU: return "bvavg.u";
      case BVBinOp::AvgS: return "bvavg.s";
    }
    return "?";
}

const char *
bvUnOpName(BVUnOp op)
{
    switch (op) {
      case BVUnOp::Not: return "bvnot";
      case BVUnOp::Neg: return "bvneg";
      case BVUnOp::AbsS: return "bvabs.s";
      case BVUnOp::Popcount: return "bvpopcount";
    }
    return "?";
}

const char *
bvCastOpName(BVCastOp op)
{
    switch (op) {
      case BVCastOp::SExt: return "sext";
      case BVCastOp::ZExt: return "zext";
      case BVCastOp::Trunc: return "trunc";
      case BVCastOp::SatNarrowS: return "satnarrow.s";
      case BVCastOp::SatNarrowU: return "satnarrow.u";
    }
    return "?";
}

const char *
bvCmpOpName(BVCmpOp op)
{
    switch (op) {
      case BVCmpOp::Eq: return "eq";
      case BVCmpOp::Ne: return "ne";
      case BVCmpOp::Ult: return "ult";
      case BVCmpOp::Ule: return "ule";
      case BVCmpOp::Slt: return "slt";
      case BVCmpOp::Sle: return "sle";
    }
    return "?";
}

} // namespace hydride
