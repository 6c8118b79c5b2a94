#include "similarity/engine.h"

#include "observability/metrics.h"
#include "observability/trace.h"
#include "similarity/extraction.h"
#include "support/error.h"
#include "support/faults.h"
#include "support/rng.h"
#include "support/strings.h"

#include <algorithm>
#include <map>
#include <unordered_map>

namespace hydride {

bool
EquivalenceClass::coversIsa(const std::string &isa) const
{
    for (const auto &member : members)
        if (member.isa == isa)
            return true;
    return false;
}

namespace {

/**
 * Permute the bitvector arguments of a concrete semantics:
 * new argument k is old argument src_of[k].
 */
CanonicalSemantics
permuteArgs(const CanonicalSemantics &sem, const std::vector<int> &src_of)
{
    CanonicalSemantics out = sem;
    std::vector<int> new_pos(src_of.size());
    for (size_t k = 0; k < src_of.size(); ++k) {
        out.bv_args[k] = sem.bv_args[src_of[k]];
        new_pos[src_of[k]] = static_cast<int>(k);
    }
    for (auto &tmpl : out.templates) {
        tmpl = rewrite(tmpl, [&](const ExprPtr &node) -> ExprPtr {
            if (node->kind == ExprKind::ArgBV)
                return argBV(new_pos[node->value]);
            return nullptr;
        });
    }
    return out;
}

/** Compose permutations: member read through an extra permutation. */
std::vector<int>
composePerm(const std::vector<int> &inner, const std::vector<int> &outer)
{
    std::vector<int> out(outer.size());
    for (size_t k = 0; k < outer.size(); ++k)
        out[k] = inner[outer[k]];
    return out;
}

std::vector<int>
identityPerm(size_t n)
{
    std::vector<int> perm(n);
    for (size_t i = 0; i < n; ++i)
        perm[i] = static_cast<int>(i);
    return perm;
}

/** Random vectors verifyMember checks per member. */
constexpr int kVerifyTrials = 2;

/**
 * Differentially verify that the class representative, instantiated
 * with the member's parameter values and argument permutation,
 * computes exactly what the member's own concrete semantics computes.
 * This is the testing stand-in for the paper's SMT queries.
 */
bool
verifyMember(const CanonicalSemantics &rep, const ClassMember &member)
{
    Rng rng(0x5E11A ^ std::hash<std::string>{}(member.name));
    const std::vector<int64_t> int_values(member.concrete.int_args.size(),
                                          1);
    for (int trial = 0; trial < kVerifyTrials; ++trial) {
        std::vector<BitVector> args;
        for (size_t a = 0; a < member.concrete.bv_args.size(); ++a) {
            args.push_back(BitVector::random(
                member.concrete.argWidth(static_cast<int>(a), {}), rng));
        }
        std::vector<BitVector> rep_args;
        for (size_t k = 0; k < member.arg_perm.size(); ++k)
            rep_args.push_back(args[member.arg_perm[k]]);
        const BitVector expected =
            member.concrete.evaluate(args, {}, int_values);
        const BitVector actual =
            rep.evaluate(rep_args, member.param_values, int_values);
        if (expected != actual)
            return false;
    }
    return true;
}

/** Signature for the permutation-pass prefilter (paper §3.3: number
 *  of arguments, bitvector arguments and integer arguments). */
std::string
classSignature(const EquivalenceClass &cls)
{
    return format("%d/%d/%d/%d/%d", static_cast<int>(cls.rep.bv_args.size()),
                  static_cast<int>(cls.rep.int_args.size()),
                  static_cast<int>(cls.rep.params.size()),
                  static_cast<int>(cls.rep.mode),
                  static_cast<int>(cls.rep.templates.size()));
}

/** Eliminate parameters whose value agrees across all class members. */
void
eliminateDeadParams(EquivalenceClass &cls, SimilarityStats *stats)
{
    const size_t n = cls.rep.params.size();
    std::vector<bool> keep(n, false);
    for (size_t p = 0; p < n; ++p) {
        // Lane-count and register-width parameters stay symbolic even
        // when every member agrees: the synthesizer's lane scaling
        // (§4.2) re-instantiates them at reduced widths, which a
        // folded constant would forbid.
        const ParamRole role = cls.rep.params[p].role;
        if (role == ParamRole::Count || role == ParamRole::RegWidth) {
            keep[p] = true;
            continue;
        }
        const int64_t first = cls.members.front().param_values[p];
        for (const auto &member : cls.members) {
            if (member.param_values[p] != first) {
                keep[p] = true;
                break;
            }
        }
    }
    // Always keep nothing extra: fully uniform classes keep zero
    // parameters and become plain (non-parameterized) operations.
    size_t kept = 0;
    std::vector<int> new_index(n, -1);
    for (size_t p = 0; p < n; ++p)
        if (keep[p])
            new_index[p] = static_cast<int>(kept++);
    if (kept == n)
        return;
    if (stats)
        stats->params_eliminated += static_cast<int>(n - kept);

    const std::vector<int64_t> defaults =
        cls.members.front().param_values;
    auto rebuild = [&](const ExprPtr &expr) {
        return simplify(rewrite(expr, [&](const ExprPtr &node) -> ExprPtr {
            if (node->kind != ExprKind::Param)
                return nullptr;
            const int old = static_cast<int>(node->value);
            if (new_index[old] < 0)
                return intConst(defaults[old]);
            return param(new_index[old],
                         format("p%d", new_index[old]));
        }));
    };
    for (auto &arg : cls.rep.bv_args)
        arg.width = rebuild(arg.width);
    cls.rep.outer_count = rebuild(cls.rep.outer_count);
    cls.rep.inner_count = rebuild(cls.rep.inner_count);
    cls.rep.elem_width = rebuild(cls.rep.elem_width);
    for (auto &tmpl : cls.rep.templates)
        tmpl = rebuild(tmpl);

    std::vector<ParamInfo> new_params;
    for (size_t p = 0; p < n; ++p)
        if (keep[p]) {
            ParamInfo info = cls.rep.params[p];
            info.name = format("p%d", new_index[p]);
            new_params.push_back(info);
        }
    cls.rep.params = std::move(new_params);

    for (auto &member : cls.members) {
        std::vector<int64_t> values;
        for (size_t p = 0; p < n; ++p)
            if (keep[p])
                values.push_back(member.param_values[p]);
        member.param_values = std::move(values);
    }
}

} // namespace

std::vector<EquivalenceClass>
runSimilarityEngine(const std::vector<CanonicalSemantics> &insts,
                    const SimilarityOptions &options, SimilarityStats *stats)
{
    SimilarityStats local_stats;
    if (!stats)
        stats = &local_stats;
    stats->instructions = static_cast<int>(insts.size());
    trace::TraceSpan span("similarity.engine.run");
    span.setAttr("instructions", static_cast<int64_t>(insts.size()));

    // Pass 1: extract constants and group structurally identical
    // symbolic semantics (PerformEqChecking over representatives).
    std::vector<EquivalenceClass> classes;
    std::unordered_map<uint64_t, std::vector<size_t>> by_hash;
    for (const auto &concrete : insts) {
        CanonicalSemantics sym = extractConstants(concrete);
        ClassMember member;
        member.name = concrete.name;
        member.isa = concrete.isa;
        member.latency = concrete.latency;
        member.param_values = sym.defaultParamValues();
        member.arg_perm = identityPerm(concrete.bv_args.size());
        member.concrete = concrete;

        const uint64_t hash = sym.shapeHash();
        bool merged = false;
        for (size_t idx : by_hash[hash]) {
            ++stats->pairs_checked;
            if (CanonicalSemantics::sameShape(classes[idx].rep, sym)) {
                classes[idx].members.push_back(std::move(member));
                ++stats->structural_merges;
                merged = true;
                break;
            }
        }
        if (!merged) {
            EquivalenceClass cls;
            sym.name = "class_" + concrete.name;
            cls.rep = std::move(sym);
            cls.members.push_back(std::move(member));
            by_hash[hash].push_back(classes.size());
            classes.push_back(std::move(cls));
        }
    }

    // Pass 2: PermuteArgs + re-check (merges operand-order variants
    // such as mask_blend vs mask_mov).
    if (options.permute_args) {
        std::map<std::string, std::vector<size_t>> by_sig;
        for (size_t idx = 0; idx < classes.size(); ++idx)
            by_sig[classSignature(classes[idx])].push_back(idx);

        std::vector<bool> dead(classes.size(), false);
        for (auto &[sig, bucket] : by_sig) {
            (void)sig;
            for (size_t bi = 0; bi < bucket.size(); ++bi) {
                const size_t b = bucket[bi];
                if (dead[b])
                    continue;
                const size_t nargs = classes[b].rep.bv_args.size();
                if (nargs < 2 || nargs > 4)
                    continue;
                for (size_t ai = 0; ai < bi && !dead[b]; ++ai) {
                    const size_t a = bucket[ai];
                    if (dead[a])
                        continue;
                    std::vector<int> perm = identityPerm(nargs);
                    while (std::next_permutation(perm.begin(), perm.end())) {
                        ++stats->pairs_checked;
                        CanonicalSemantics permuted = extractConstants(
                            permuteArgs(classes[b].members[0].concrete,
                                        perm));
                        if (!CanonicalSemantics::sameShape(classes[a].rep,
                                                           permuted)) {
                            continue;
                        }
                        // Merge every member of b into a under `perm`.
                        for (auto &member : classes[b].members) {
                            CanonicalSemantics resym = extractConstants(
                                permuteArgs(member.concrete, perm));
                            ClassMember moved = member;
                            moved.param_values = resym.defaultParamValues();
                            moved.arg_perm =
                                composePerm(member.arg_perm, perm);
                            classes[a].members.push_back(std::move(moved));
                            ++stats->permutation_merges;
                        }
                        classes[b].members.clear();
                        dead[b] = true;
                        break;
                    }
                }
            }
        }
        std::vector<EquivalenceClass> alive;
        for (size_t idx = 0; idx < classes.size(); ++idx)
            if (!dead[idx])
                alive.push_back(std::move(classes[idx]));
        classes = std::move(alive);
    }

    // Pass 3: verify every membership; members that fail verification
    // are split into singleton classes (conservative fallback).
    std::vector<EquivalenceClass> split_out;
    for (auto &cls : classes) {
        std::vector<ClassMember> verified;
        for (auto &member : cls.members) {
            // Chaos seam: a forced verification failure exercises the
            // conservative singleton-split fallback for this member.
            if (!faults::shouldFail("similarity.verify", member.name) &&
                verifyMember(cls.rep, member)) {
                verified.push_back(std::move(member));
            } else {
                ++stats->verification_failures;
                EquivalenceClass singleton;
                singleton.rep = extractConstants(member.concrete);
                singleton.rep.name = "class_" + member.name;
                member.param_values = singleton.rep.defaultParamValues();
                member.arg_perm =
                    identityPerm(member.concrete.bv_args.size());
                singleton.members.push_back(std::move(member));
                split_out.push_back(std::move(singleton));
            }
        }
        cls.members = std::move(verified);
    }
    for (auto &cls : split_out)
        classes.push_back(std::move(cls));
    classes.erase(std::remove_if(classes.begin(), classes.end(),
                                 [](const EquivalenceClass &cls) {
                                     return cls.members.empty();
                                 }),
                  classes.end());

    // Pass 4: eliminate parameters that are constant across the class.
    if (options.eliminate_dead_params)
        for (auto &cls : classes)
            eliminateDeadParams(cls, stats);

    span.setAttr("classes", static_cast<int64_t>(classes.size()));
    span.setAttr("pairs_checked",
                 static_cast<int64_t>(stats->pairs_checked));
    metrics::counter("similarity.engine.pairs_checked")
        .add(static_cast<uint64_t>(stats->pairs_checked));
    metrics::counter("similarity.engine.classes_merged")
        .add(static_cast<uint64_t>(stats->structural_merges +
                                   stats->permutation_merges));
    metrics::counter("similarity.engine.verification_failures")
        .add(static_cast<uint64_t>(stats->verification_failures));
    metrics::gauge("similarity.engine.classes")
        .set(static_cast<int64_t>(classes.size()));

    return classes;
}

} // namespace hydride
