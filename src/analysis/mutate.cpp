#include "analysis/mutate.h"

#include "support/error.h"
#include "support/rng.h"

#include <memory>

namespace hydride {
namespace analysis {

const std::vector<MutationInfo> &
allMutations()
{
    static const std::vector<MutationInfo> mutations = {
        {"flip-width", "WF07",
         "double the declared element width so templates no longer match",
         false},
        {"extract-oob", "WF02",
         "re-extract the first template past the end of its source", false},
        {"shift-oob", "UB01",
         "left-shift the first template by its own full width", false},
        {"div-zero", "UB02",
         "divide the element width by constant zero", false},
        {"dead-arg", "DC01",
         "append a bitvector argument no template reads", false},
        // Redundancy defects: well-formed, semantics-preserving noise
        // that only the abstract-interpretation RA rules diagnose.
        {"lossless-sat", "RA01",
         "OR the first template with a saturating narrow whose source "
         "range provably fits the target width",
         false},
        {"dead-select", "RA02",
         "wrap the first template in a select whose condition is a "
         "constant comparison",
         false},
        {"noop-sat", "RA03",
         "OR the first template with a saturating add whose operand "
         "ranges can never saturate",
         false},
        {"template-count", "DC04",
         "append an unreachable duplicate template in Uniform mode", false},
        {"dangling-name", "XT01",
         "rename a class member so it matches no spec instruction", true},
        {"dup-lowering", "XT03",
         "duplicate a class member, making 1-1 lowering ambiguous", true},
        {"drop-lowering", "XT07",
         "remove a class member so its instruction has no dictionary entry",
         true},
        // Semantic-only defects: structurally well-formed tables whose
        // *meaning* is wrong. Only the symbolic EQ rules catch these.
        {"sat-swap", "EQ01",
         "replace a saturating add/sub in a class template with the "
         "wrapping form",
         true},
        {"operand-flip", "EQ02",
         "swap the first two slots of a lowering entry's argument "
         "permutation",
         true},
        {"splice-shift", "EQ03",
         "rotate the macro-expansion result splice by one register",
         false, true},
    };
    return mutations;
}

const MutationInfo *
findMutation(const std::string &kind)
{
    for (const MutationInfo &m : allMutations())
        if (m.kind == kind)
            return &m;
    return nullptr;
}

namespace {

/** Deterministic victim pick: mid-table keeps the choice stable while
 *  avoiding any special first/last entries. */
template <typename T>
T &
midPick(std::vector<T> &v)
{
    return v[v.size() / 2];
}

/** Rewrite the first saturating operation in `expr` to the wrapping
 *  form (saturating add/sub becomes plain add/sub; a saturating
 *  narrow becomes a plain truncation — the shape the spec parsers
 *  produce, since vendor pseudocode saturates via widen + clamp),
 *  leaving everything else shared. `done` stops the walk. */
ExprPtr
swapFirstSat(const ExprPtr &expr, bool &done)
{
    if (done)
        return expr;
    if (expr->kind == ExprKind::BVBin) {
        const auto op = static_cast<BVBinOp>(expr->value);
        if (op == BVBinOp::AddSatS || op == BVBinOp::AddSatU) {
            done = true;
            return bvBin(BVBinOp::Add, expr->kids[0], expr->kids[1]);
        }
        if (op == BVBinOp::SubSatS || op == BVBinOp::SubSatU) {
            done = true;
            return bvBin(BVBinOp::Sub, expr->kids[0], expr->kids[1]);
        }
    }
    if (expr->kind == ExprKind::BVCast) {
        const auto op = static_cast<BVCastOp>(expr->value);
        if (op == BVCastOp::SatNarrowS || op == BVCastOp::SatNarrowU) {
            done = true;
            auto node = std::make_shared<Expr>(*expr);
            node->value = static_cast<int64_t>(BVCastOp::Trunc);
            return node;
        }
    }
    std::vector<ExprPtr> kids;
    kids.reserve(expr->kids.size());
    bool changed = false;
    for (const ExprPtr &kid : expr->kids) {
        ExprPtr rebuilt = swapFirstSat(kid, done);
        changed = changed || rebuilt != kid;
        kids.push_back(std::move(rebuilt));
    }
    if (!changed)
        return expr;
    auto node = std::make_shared<Expr>(*expr);
    node->kids = std::move(kids);
    return node;
}

/** True when the two sides of the seeded defect really disagree on at
 *  least one of a few random inputs — keeps `--self-test`
 *  deterministic by never seeding a vacuous semantic mutation. */
bool
concretelyDiffers(const std::function<BitVector(
                      const std::vector<BitVector> &)> &a,
                  const std::function<BitVector(
                      const std::vector<BitVector> &)> &b,
                  const std::vector<int> &widths)
{
    Rng rng(0x5EED5EED);
    for (int trial = 0; trial < 8; ++trial) {
        std::vector<BitVector> args;
        args.reserve(widths.size());
        for (int w : widths)
            args.push_back(BitVector::random(std::max(w, 1), rng));
        try {
            if (a(args) != b(args))
                return true;
        } catch (const AssertionError &) {
            return false;
        }
    }
    return false;
}

/** Argument widths of a class representative under `params`. */
std::vector<int>
repArgWidths(const CanonicalSemantics &rep,
             const std::vector<int64_t> &params)
{
    std::vector<int> widths;
    widths.reserve(rep.bv_args.size());
    for (size_t a = 0; a < rep.bv_args.size(); ++a)
        widths.push_back(rep.argWidth(static_cast<int>(a), params));
    return widths;
}

} // namespace

std::string
mutateSemantics(IsaSemantics &sema, const std::string &kind)
{
    const MutationInfo *info = findMutation(kind);
    if (!info || info->on_dict || sema.insts.empty())
        return {};

    // Find an eligible victim near mid-table: needs a template, and
    // for dead-arg the liveness check must see the original args.
    const size_t start = sema.insts.size() / 2;
    for (size_t probe = 0; probe < sema.insts.size(); ++probe) {
        CanonicalSemantics &inst =
            sema.insts[(start + probe) % sema.insts.size()];
        if (inst.templates.empty() || !inst.elem_width)
            continue;

        if (kind == "flip-width") {
            inst.elem_width =
                intBin(IntBinOp::Mul, inst.elem_width, intConst(2));
            return inst.name;
        }
        if (kind == "extract-oob") {
            // extract(t, elem_width, elem_width): starts one past the
            // last bit of the elem_width-wide template value.
            inst.templates[0] = extract(inst.templates[0], inst.elem_width,
                                        inst.elem_width);
            return inst.name;
        }
        if (kind == "shift-oob") {
            // Shift an elem_width-wide value by elem_width bits.
            inst.templates[0] =
                bvBin(BVBinOp::Shl, inst.templates[0],
                      bvConst(inst.elem_width, inst.elem_width));
            return inst.name;
        }
        if (kind == "div-zero") {
            inst.elem_width =
                intBin(IntBinOp::Div, inst.elem_width, intConst(0));
            return inst.name;
        }
        if (kind == "dead-arg") {
            inst.bv_args.push_back({"__mut_dead", intConst(8)});
            return inst.name;
        }
        if (kind == "lossless-sat") {
            // t | satNarrowU(0_{ew+8} -> ew): the constant source
            // range [0, 0] always fits, so the narrow is provably a
            // trunc (RA01) while the OR with zero preserves meaning.
            ExprPtr wide = bvConst(
                intBin(IntBinOp::Add, inst.elem_width, intConst(8)),
                intConst(0));
            inst.templates[0] = bvBin(
                BVBinOp::Or, inst.templates[0],
                bvCast(BVCastOp::SatNarrowU, wide, inst.elem_width));
            return inst.name;
        }
        if (kind == "dead-select") {
            // select(0 <u 1, t, t): the condition is decided for every
            // lane and input, so one branch is provably dead (RA02).
            ExprPtr cond =
                bvCmp(BVCmpOp::Ult, bvConst(intConst(8), intConst(0)),
                      bvConst(intConst(8), intConst(1)));
            inst.templates[0] =
                select(cond, inst.templates[0], inst.templates[0]);
            return inst.name;
        }
        if (kind == "noop-sat") {
            // t | (0 +sat 0): the saturation point is unreachable for
            // these operand ranges (RA03); OR with zero preserves
            // meaning.
            ExprPtr zero = bvConst(inst.elem_width, intConst(0));
            inst.templates[0] =
                bvBin(BVBinOp::Or, inst.templates[0],
                      bvBin(BVBinOp::AddSatU, zero, zero));
            return inst.name;
        }
        if (kind == "template-count") {
            if (inst.mode != TemplateMode::Uniform ||
                inst.templates.size() != 1)
                continue;
            inst.templates.push_back(inst.templates[0]);
            return inst.name;
        }
        return {};
    }
    return {};
}

std::string
mutateClasses(std::vector<EquivalenceClass> &classes,
              const std::string &kind)
{
    const MutationInfo *info = findMutation(kind);
    if (!info || !info->on_dict || classes.empty())
        return {};

    const size_t start = classes.size() / 2;
    for (size_t probe = 0; probe < classes.size(); ++probe) {
        EquivalenceClass &cls = classes[(start + probe) % classes.size()];
        if (cls.members.empty())
            continue;

        if (kind == "dangling-name") {
            ClassMember &victim = midPick(cls.members);
            const std::string original = victim.name;
            victim.name = "__mut_" + victim.name;
            return original;
        }
        if (kind == "dup-lowering") {
            cls.members.push_back(midPick(cls.members));
            return cls.members.back().name;
        }
        if (kind == "drop-lowering") {
            // Only classes with >1 member: removing the sole member
            // would leave an empty class, a different defect.
            if (cls.members.size() < 2)
                continue;
            const std::string victim = midPick(cls.members).name;
            cls.members.erase(cls.members.begin() +
                              static_cast<long>(cls.members.size() / 2));
            return victim;
        }
        if (kind == "sat-swap") {
            if (cls.rep.templates.empty())
                continue;
            bool done = false;
            ExprPtr rewritten = swapFirstSat(cls.rep.templates[0], done);
            if (!done)
                continue;
            CanonicalSemantics mutated = cls.rep;
            mutated.templates[0] = rewritten;
            // Only seed when some member's concrete semantics really
            // disagree with the wrapped form (the saturation must be
            // reachable, or EQ01 would rightly prove equivalence).
            for (const ClassMember &member : cls.members) {
                if (member.param_values.size() != cls.rep.params.size())
                    continue;
                const std::vector<int> widths =
                    repArgWidths(cls.rep, member.param_values);
                const std::vector<int64_t> member_ints(
                    member.concrete.int_args.size(), 1);
                const std::vector<int64_t> rep_ints(
                    cls.rep.int_args.size(), 1);
                auto member_view =
                    [&](const std::vector<BitVector> &args) {
                        std::vector<BitVector> member_args(args.size(),
                                                           BitVector(1));
                        for (size_t k = 0; k < args.size(); ++k)
                            member_args[member.arg_perm.empty()
                                            ? k
                                            : member.arg_perm[k]] = args[k];
                        return member.concrete.evaluate(member_args, {},
                                                        member_ints);
                    };
                auto rep_view = [&](const std::vector<BitVector> &args) {
                    return mutated.evaluate(args, member.param_values,
                                            rep_ints);
                };
                if (concretelyDiffers(member_view, rep_view, widths)) {
                    cls.rep.templates[0] = rewritten;
                    return member.name;
                }
            }
            continue;
        }
        if (kind == "operand-flip") {
            const size_t nargs = cls.rep.bv_args.size();
            if (nargs < 2)
                continue;
            for (size_t m = 0; m < cls.members.size(); ++m) {
                ClassMember &member = cls.members[m];
                if (member.param_values.size() != cls.rep.params.size())
                    continue;
                // The lowering selector picks the *first* member with
                // a given (ISA, parameters); mutating a shadowed alias
                // would leave the emitted program untouched.
                bool selected = true;
                for (size_t e = 0; e < m && selected; ++e)
                    selected = cls.members[e].isa != member.isa ||
                               cls.members[e].param_values !=
                                   member.param_values;
                if (!selected)
                    continue;
                const std::vector<int> widths =
                    repArgWidths(cls.rep, member.param_values);
                if (widths[0] != widths[1])
                    continue;
                std::vector<int> perm = member.arg_perm;
                if (perm.empty())
                    for (size_t k = 0; k < nargs; ++k)
                        perm.push_back(static_cast<int>(k));
                if (perm.size() != nargs)
                    continue;
                std::vector<int> flipped = perm;
                std::swap(flipped[0], flipped[1]);
                const std::vector<int64_t> ints(
                    member.concrete.int_args.size(), 0);
                auto view_with = [&](const std::vector<int> &p) {
                    return [&, p](const std::vector<BitVector> &args) {
                        std::vector<BitVector> member_args(args.size(),
                                                           BitVector(1));
                        for (size_t k = 0; k < args.size(); ++k)
                            member_args[p[k]] = args[k];
                        return member.concrete.evaluate(member_args, {},
                                                        ints);
                    };
                };
                // The member must be asymmetric in the swapped slots,
                // or the flip is observationally a no-op.
                if (!concretelyDiffers(view_with(perm), view_with(flipped),
                                       widths))
                    continue;
                member.arg_perm = std::move(flipped);
                return member.name;
            }
            continue;
        }
        return {};
    }
    return {};
}

} // namespace analysis
} // namespace hydride
