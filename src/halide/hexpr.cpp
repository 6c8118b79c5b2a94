#include "halide/hexpr.h"

#include "halide/eval.h"
#include "support/error.h"
#include "support/strings.h"

#include <functional>
#include <map>
#include <set>
#include <sstream>

namespace hydride {

namespace {

HExprPtr
make(HOp op, int ew, int lanes, int64_t imm, bool sign,
     std::vector<HExprPtr> kids)
{
    HYD_ASSERT(ew >= 1 && lanes >= 1, "degenerate Halide vector type");
    auto node = std::make_shared<HExpr>();
    node->op = op;
    node->elem_width = ew;
    node->lanes = lanes;
    node->imm = imm;
    node->sign = sign;
    node->kids = std::move(kids);
    return node;
}

} // namespace

bool
HExpr::equals(const HExprPtr &a, const HExprPtr &b)
{
    if (a.get() == b.get())
        return true;
    if (!a || !b)
        return false;
    if (a->op != b->op || a->elem_width != b->elem_width ||
        a->lanes != b->lanes || a->imm != b->imm || a->sign != b->sign ||
        a->kids.size() != b->kids.size()) {
        return false;
    }
    for (size_t k = 0; k < a->kids.size(); ++k)
        if (!equals(a->kids[k], b->kids[k]))
            return false;
    return true;
}

uint64_t
HExpr::hashOf(const HExprPtr &expr)
{
    if (!expr)
        return 0;
    uint64_t h = static_cast<uint64_t>(expr->op) * 0x9E3779B97F4A7C15ull;
    h ^= static_cast<uint64_t>(expr->elem_width) * 131;
    h ^= static_cast<uint64_t>(expr->lanes) * 65537;
    h ^= static_cast<uint64_t>(expr->imm) + (h << 6) + (h >> 2);
    h ^= expr->sign ? 0xF00Dull : 0;
    for (const auto &kid : expr->kids)
        h ^= hashOf(kid) + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    return h;
}

int
HExpr::sizeOf(const HExprPtr &expr)
{
    int n = 1;
    for (const auto &kid : expr->kids)
        n += sizeOf(kid);
    return n;
}

int
HExpr::depthOf(const HExprPtr &expr)
{
    int deepest = 0;
    for (const auto &kid : expr->kids)
        deepest = std::max(deepest, depthOf(kid));
    return deepest + 1;
}

HExprPtr
hInput(int index, int elem_width, int lanes)
{
    return make(HOp::Input, elem_width, lanes, index, true, {});
}

HExprPtr
hConst(int64_t value, int elem_width, int lanes)
{
    return make(HOp::ConstSplat, elem_width, lanes, value, true, {});
}

HExprPtr
hCast(HExprPtr a, int new_width, bool sign)
{
    const int lanes = a->lanes;
    return make(HOp::Cast, new_width, lanes, 0, sign, {std::move(a)});
}

HExprPtr
hBin(HOp op, HExprPtr a, HExprPtr b)
{
    HYD_ASSERT(a->elem_width == b->elem_width && a->lanes == b->lanes,
               "halide binary operand shape mismatch");
    const int ew = a->elem_width;
    const int lanes = a->lanes;
    return make(op, ew, lanes, 0, true, {std::move(a), std::move(b)});
}

HExprPtr
hShift(HOp op, HExprPtr a, int amount)
{
    const int ew = a->elem_width;
    const int lanes = a->lanes;
    return make(op, ew, lanes, amount, true, {std::move(a)});
}

HExprPtr
hSatNarrow(HExprPtr a, int new_width, bool sign)
{
    HYD_ASSERT(new_width <= a->elem_width, "saturating cast must narrow");
    const int lanes = a->lanes;
    return make(sign ? HOp::SatNarrowS : HOp::SatNarrowU, new_width, lanes,
                0, sign, {std::move(a)});
}

HExprPtr
hAbs(HExprPtr a)
{
    const int ew = a->elem_width;
    const int lanes = a->lanes;
    return make(HOp::AbsS, ew, lanes, 0, true, {std::move(a)});
}

HExprPtr
hReduceAdd(HExprPtr a, int stride)
{
    HYD_ASSERT(stride >= 2 && a->lanes % stride == 0,
               "reduce-add stride must divide the lane count");
    const int ew = a->elem_width;
    const int lanes = a->lanes / stride;
    return make(HOp::ReduceAdd, ew, lanes, stride, true, {std::move(a)});
}

HExprPtr
hConcat(HExprPtr a, HExprPtr b)
{
    HYD_ASSERT(a->elem_width == b->elem_width,
               "concat element width mismatch");
    const int ew = a->elem_width;
    const int lanes = a->lanes + b->lanes;
    return make(HOp::Concat, ew, lanes, 0, true, {std::move(a), std::move(b)});
}

HExprPtr
hSlice(HExprPtr a, int start_lane, int count)
{
    HYD_ASSERT(start_lane >= 0 && start_lane + count <= a->lanes,
               "slice out of range");
    const int ew = a->elem_width;
    return make(HOp::Slice, ew, count, start_lane, true, {std::move(a)});
}

BitVector
evalHalide(const HExprPtr &expr, const std::vector<BitVector> &inputs)
{
    BitVectorDomain dom;
    return evalHalideDom(dom, expr, inputs);
}

int
halideInputCount(const HExprPtr &expr)
{
    std::set<int64_t> seen;
    std::vector<const HExpr *> stack = {expr.get()};
    while (!stack.empty()) {
        const HExpr *node = stack.back();
        stack.pop_back();
        if (node->op == HOp::Input)
            seen.insert(node->imm);
        for (const auto &kid : node->kids)
            stack.push_back(kid.get());
    }
    return static_cast<int>(seen.size());
}

const char *
hOpName(HOp op)
{
    switch (op) {
      case HOp::Input: return "input";
      case HOp::ConstSplat: return "const";
      case HOp::Cast: return "cast";
      case HOp::Add: return "add";
      case HOp::Sub: return "sub";
      case HOp::Mul: return "mul";
      case HOp::MinS: return "min";
      case HOp::MaxS: return "max";
      case HOp::MinU: return "minu";
      case HOp::MaxU: return "maxu";
      case HOp::ShlC: return "shl";
      case HOp::AShrC: return "ashr";
      case HOp::LShrC: return "lshr";
      case HOp::SatAddS: return "sat-add";
      case HOp::SatAddU: return "sat-addu";
      case HOp::SatSubS: return "sat-sub";
      case HOp::SatSubU: return "sat-subu";
      case HOp::SatNarrowS: return "sat-narrow";
      case HOp::SatNarrowU: return "sat-narrowu";
      case HOp::MulHiS: return "mulhi";
      case HOp::AvgU: return "avgu";
      case HOp::AbsS: return "abs";
      case HOp::ReduceAdd: return "reduce-add";
      case HOp::Concat: return "concat";
      case HOp::Slice: return "slice";
    }
    return "?";
}

namespace {

void
printInto(const HExprPtr &expr, std::ostringstream &os)
{
    os << "(" << hOpName(expr->op) << ":" << expr->lanes << "x"
       << "i" << expr->elem_width;
    if (expr->op == HOp::Input || expr->op == HOp::ConstSplat ||
        expr->op == HOp::ShlC || expr->op == HOp::AShrC ||
        expr->op == HOp::LShrC || expr->op == HOp::ReduceAdd ||
        expr->op == HOp::Slice) {
        os << " " << expr->imm;
    }
    for (const auto &kid : expr->kids) {
        os << " ";
        printInto(kid, os);
    }
    os << ")";
}

} // namespace

std::string
printHalide(const HExprPtr &expr)
{
    std::ostringstream os;
    printInto(expr, os);
    return os.str();
}

namespace {

HExprPtr
splitRec(const HExprPtr &expr, int max_depth, int max_width,
         int &next_input, std::vector<HExprPtr> &pieces)
{
    if (HExpr::depthOf(expr) <= max_depth)
        return expr;
    std::vector<HExprPtr> kids;
    bool changed = false;
    for (const auto &kid : expr->kids) {
        HExprPtr rebuilt =
            splitRec(kid, max_depth, max_width, next_input, pieces);
        changed |= rebuilt.get() != kid.get();
        kids.push_back(std::move(rebuilt));
    }
    HExprPtr node = expr;
    if (changed) {
        auto fresh = std::make_shared<HExpr>(*expr);
        fresh->kids = kids;
        node = fresh;
    }
    if (HExpr::depthOf(node) <= max_depth)
        return node;
    // Still too deep: cut non-leaf, register-sized children out as
    // their own pieces. A wider-than-register subtree cannot itself
    // be a cut point (it is not a materializable register value), so
    // the cut recurses through it to its register-sized descendants.
    std::function<HExprPtr(const HExprPtr &)> cut_kid =
        [&](const HExprPtr &kid) -> HExprPtr {
        if (HExpr::depthOf(kid) <= 1)
            return kid;
        if (max_width <= 0 || kid->totalWidth() <= max_width) {
            pieces.push_back(kid);
            return hInput(next_input++, kid->elem_width, kid->lanes);
        }
        std::vector<HExprPtr> grand;
        for (const auto &inner : kid->kids)
            grand.push_back(cut_kid(inner));
        auto clone = std::make_shared<HExpr>(*kid);
        clone->kids = std::move(grand);
        return clone;
    };
    std::vector<HExprPtr> cut_kids;
    for (const auto &kid : node->kids)
        cut_kids.push_back(cut_kid(kid));
    auto fresh = std::make_shared<HExpr>(*node);
    fresh->kids = std::move(cut_kids);
    return fresh;
}

} // namespace

namespace {

void
countRefs(const HExprPtr &expr,
          std::map<const HExpr *, int> &refs)
{
    if (++refs[expr.get()] > 1)
        return; // Children already counted on the first visit.
    for (const auto &kid : expr->kids)
        countRefs(kid, refs);
}

/**
 * Cut multiply-referenced subtrees out as pieces first, so common
 * subexpressions are computed once (the median-filter exchange
 * network is the motivating case). Each shared node maps to one cut
 * input used at every occurrence.
 */
HExprPtr
cutShared(const HExprPtr &expr, const std::map<const HExpr *, int> &refs,
          int max_width, int &next_input, std::vector<HExprPtr> &pieces,
          std::map<const HExpr *, HExprPtr> &replacement)
{
    auto assigned = replacement.find(expr.get());
    if (assigned != replacement.end())
        return assigned->second;

    std::vector<HExprPtr> kids;
    bool changed = false;
    for (const auto &kid : expr->kids) {
        HExprPtr rebuilt = cutShared(kid, refs, max_width, next_input,
                                     pieces, replacement);
        changed |= rebuilt.get() != kid.get();
        kids.push_back(std::move(rebuilt));
    }
    HExprPtr node = expr;
    if (changed) {
        auto fresh = std::make_shared<HExpr>(*expr);
        fresh->kids = std::move(kids);
        node = fresh;
    }

    const bool shared = refs.at(expr.get()) > 1;
    const bool cuttable = HExpr::depthOf(expr) > 1 &&
                          (max_width <= 0 ||
                           expr->totalWidth() <= max_width);
    if (shared && cuttable) {
        pieces.push_back(node);
        HExprPtr input =
            hInput(next_input++, expr->elem_width, expr->lanes);
        replacement[expr.get()] = input;
        return input;
    }
    if (shared)
        replacement[expr.get()] = node;
    return node;
}

} // namespace

std::vector<HExprPtr>
splitWindow(const HExprPtr &window, int max_depth, int next_input,
            int max_width)
{
    std::vector<HExprPtr> pieces;
    std::map<const HExpr *, int> refs;
    countRefs(window, refs);
    std::map<const HExpr *, HExprPtr> replacement;
    HExprPtr deduped = cutShared(window, refs, max_width, next_input,
                                 pieces, replacement);
    HExprPtr root =
        splitRec(deduped, max_depth, max_width, next_input, pieces);
    pieces.push_back(std::move(root));
    return pieces;
}

} // namespace hydride
