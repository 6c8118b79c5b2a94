/**
 * @file
 * Tests for constant extraction and the similarity checking engine:
 * extraction invariants, cross-width and cross-ISA class merging,
 * argument-permutation merging, hole-based offset merging, dead
 * parameter elimination, and differential verification of every
 * class member over the full three-ISA corpus (in the dedicated
 * full-corpus test below).
 */
#include <gtest/gtest.h>

#include <set>

#include "hir/printer.h"
#include "similarity/engine.h"
#include "similarity/extraction.h"
#include "specs/spec_db.h"
#include "support/rng.h"

namespace hydride {
namespace {

const CanonicalSemantics &
inst(const std::string &isa, const std::string &name)
{
    for (const auto &sem : isaSemantics(isa).insts)
        if (sem.name == name)
            return sem;
    ADD_FAILURE() << name << " missing from " << isa;
    static CanonicalSemantics dummy;
    return dummy;
}

TEST(Extraction, ReplacesEveryConstant)
{
    CanonicalSemantics sym = extractConstants(inst("x86", "_mm256_add_epi16"));
    EXPECT_FALSE(sym.params.empty());
    // No IntConst may remain anywhere in the symbolic semantics
    // except inside the hole-normalized structure.
    std::vector<ExprPtr> nodes;
    for (const auto &tmpl : sym.templates)
        collectNodes(tmpl, nodes);
    collectNodes(sym.outer_count, nodes);
    collectNodes(sym.inner_count, nodes);
    collectNodes(sym.elem_width, nodes);
    for (const auto &node : nodes)
        EXPECT_NE(node->kind, ExprKind::IntConst)
            << printExpr(sym.templates[0]);
}

TEST(Extraction, SymbolicFormStillEvaluatesCorrectly)
{
    const CanonicalSemantics &concrete = inst("x86", "_mm512_adds_epi16");
    CanonicalSemantics sym = extractConstants(concrete);
    Rng rng(21);
    BitVector a = BitVector::random(512, rng);
    BitVector b = BitVector::random(512, rng);
    EXPECT_EQ(sym.evaluate({a, b}, sym.defaultParamValues()),
              concrete.evaluate({a, b}, {}));
}

TEST(Extraction, RoleAwareMemoKeepsRolesApart)
{
    // _mm_add_epi8: 16 lanes of 8-bit elements; the lane count (16)
    // must not share a parameter with any 16-valued width.
    CanonicalSemantics sym = extractConstants(inst("x86", "_mm_add_epi8"));
    std::set<ParamRole> roles;
    for (const auto &info : sym.params)
        roles.insert(info.role);
    EXPECT_TRUE(roles.count(ParamRole::Count));
    EXPECT_TRUE(roles.count(ParamRole::RegWidth));
}

TEST(Extraction, DistributeExposesOffsets)
{
    // (e + 4) * 16 -> e*16 + 64.
    ExprPtr expr = mulI(addI(namedVar("e"), intConst(4)), intConst(16));
    ExprPtr dist = distributeIndexExpr(expr);
    ASSERT_EQ(dist->kind, ExprKind::IntBin);
    EXPECT_EQ(static_cast<IntBinOp>(dist->value), IntBinOp::Add);
    EXPECT_EQ(dist->kids[1]->kind, ExprKind::IntConst);
    EXPECT_EQ(dist->kids[1]->value, 64);
}

TEST(Extraction, WidthVariantsProduceSameShape)
{
    CanonicalSemantics a =
        extractConstants(inst("x86", "_mm256_add_epi16"));
    CanonicalSemantics b = extractConstants(inst("x86", "_mm512_add_epi8"));
    EXPECT_TRUE(CanonicalSemantics::sameShape(a, b));
    CanonicalSemantics c = extractConstants(inst("x86", "_mm256_sub_epi16"));
    EXPECT_FALSE(CanonicalSemantics::sameShape(a, c));
}

TEST(Extraction, CrossIsaSimdShapesMatch)
{
    // The flagship similarity result: plain SIMD add looks identical
    // across all three vendor dialects after canonicalization +
    // extraction.
    CanonicalSemantics x86 =
        extractConstants(inst("x86", "_mm256_add_epi16"));
    CanonicalSemantics hvx = extractConstants(inst("hvx", "vaddh_128B"));
    CanonicalSemantics arm = extractConstants(inst("arm", "vaddq_s16"));
    EXPECT_TRUE(CanonicalSemantics::sameShape(x86, hvx));
    EXPECT_TRUE(CanonicalSemantics::sameShape(x86, arm));
}

TEST(Extraction, UnpackLoHiShareShapeViaHoles)
{
    // Figure 3's motivating case: the hi variant reads at a +64-bit
    // offset; hole insertion gives both the same symbolic shape.
    CanonicalSemantics lo =
        extractConstants(inst("x86", "_mm256_unpacklo_epi16"));
    CanonicalSemantics hi =
        extractConstants(inst("x86", "_mm256_unpackhi_epi16"));
    EXPECT_TRUE(CanonicalSemantics::sameShape(lo, hi));
    EXPECT_NE(lo.defaultParamValues(), hi.defaultParamValues());
}

// ---- Engine on a curated subset --------------------------------------------

std::vector<CanonicalSemantics>
pick(std::initializer_list<std::pair<const char *, const char *>> names)
{
    std::vector<CanonicalSemantics> out;
    for (const auto &[isa, name] : names)
        out.push_back(inst(isa, name));
    return out;
}

TEST(SimilarityEngine, MergesAddFamilyAcrossWidthsAndIsas)
{
    auto insts = pick({{"x86", "_mm_add_epi8"},
                       {"x86", "_mm256_add_epi16"},
                       {"x86", "_mm512_add_epi32"},
                       {"hvx", "vaddh_64B"},
                       {"hvx", "vaddw_128B"},
                       {"arm", "vaddq_s16"},
                       {"arm", "vadd_u8"}});
    SimilarityStats stats;
    auto classes = runSimilarityEngine(insts, {}, &stats);
    ASSERT_EQ(classes.size(), 1u);
    EXPECT_EQ(classes[0].members.size(), 7u);
    EXPECT_TRUE(classes[0].coversIsa("x86"));
    EXPECT_TRUE(classes[0].coversIsa("hvx"));
    EXPECT_TRUE(classes[0].coversIsa("arm"));
    EXPECT_EQ(stats.verification_failures, 0);
}

TEST(SimilarityEngine, KeepsDifferentOperationsApart)
{
    auto insts = pick({{"x86", "_mm_add_epi8"},
                       {"x86", "_mm_sub_epi8"},
                       {"x86", "_mm_adds_epi8"},
                       {"x86", "_mm_madd_epi16"}});
    auto classes = runSimilarityEngine(insts);
    EXPECT_EQ(classes.size(), 4u);
}

TEST(SimilarityEngine, UnpackVariantsFormOneClass)
{
    auto insts = pick({{"x86", "_mm_unpacklo_epi8"},
                       {"x86", "_mm_unpackhi_epi8"},
                       {"x86", "_mm256_unpacklo_epi16"},
                       {"x86", "_mm512_unpackhi_epi32"}});
    SimilarityStats stats;
    auto classes = runSimilarityEngine(insts, {}, &stats);
    ASSERT_EQ(classes.size(), 1u);
    EXPECT_EQ(classes[0].members.size(), 4u);
    EXPECT_EQ(stats.verification_failures, 0);
}

TEST(SimilarityEngine, PermutationPassMergesBlendAndMov)
{
    // mask_blend(k, a, b) selects b under the mask; mask_mov(src, k,
    // a) selects a -- same computation with reordered arguments
    // (the paper's motivating PermuteArgs example).
    auto insts = pick({{"x86", "_mm512_mask_blend_epi8"},
                       {"x86", "_mm512_mask_mov_epi8"}});
    SimilarityOptions options;
    options.permute_args = false;
    auto without = runSimilarityEngine(insts, options);
    EXPECT_EQ(without.size(), 2u);

    SimilarityStats stats;
    auto with = runSimilarityEngine(insts, {}, &stats);
    ASSERT_EQ(with.size(), 1u);
    EXPECT_EQ(with[0].members.size(), 2u);
    EXPECT_GT(stats.permutation_merges, 0);
    EXPECT_EQ(stats.verification_failures, 0);
}

TEST(SimilarityEngine, RevGroupsMergeAcrossGroupSize)
{
    auto insts = pick({{"arm", "vrev64q_s16"},
                       {"arm", "vrev32q_s8"},
                       {"arm", "vrev16q_s8"}});
    auto classes = runSimilarityEngine(insts);
    EXPECT_EQ(classes.size(), 1u);
}

TEST(SimilarityEngine, DeadParamsAreEliminated)
{
    // A class whose members only differ in register width keeps the
    // width/count parameters but drops e.g. constant element widths
    // shared by all members.
    auto insts = pick({{"x86", "_mm_add_epi16"},
                       {"x86", "_mm256_add_epi16"},
                       {"x86", "_mm512_add_epi16"}});
    SimilarityOptions keep_all;
    keep_all.eliminate_dead_params = false;
    auto fat = runSimilarityEngine(insts, keep_all);
    SimilarityStats stats;
    auto slim = runSimilarityEngine(insts, {}, &stats);
    ASSERT_EQ(fat.size(), 1u);
    ASSERT_EQ(slim.size(), 1u);
    EXPECT_LT(slim[0].rep.params.size(), fat[0].rep.params.size());
    EXPECT_GT(stats.params_eliminated, 0);
    // Members must still verify after elimination.
    for (const auto &member : slim[0].members) {
        Rng rng(31);
        std::vector<BitVector> args = {
            BitVector::random(member.concrete.argWidth(0, {}), rng),
            BitVector::random(member.concrete.argWidth(1, {}), rng)};
        EXPECT_EQ(slim[0].rep.evaluate(args, member.param_values),
                  member.concrete.evaluate(args, {}));
    }
}

TEST(SimilarityEngine, ParameterizedRepCoversEveryMemberWidth)
{
    auto insts = pick({{"x86", "_mm_mullo_epi16"},
                       {"x86", "_mm512_mullo_epi64"},
                       {"arm", "vmulq_s32"},
                       {"hvx", "vmpyih_64B"}});
    auto classes = runSimilarityEngine(insts);
    ASSERT_EQ(classes.size(), 1u);
    const auto &cls = classes[0];
    Rng rng(41);
    for (const auto &member : cls.members) {
        std::vector<BitVector> args;
        for (size_t a = 0; a < member.concrete.bv_args.size(); ++a)
            args.push_back(BitVector::random(
                member.concrete.argWidth(static_cast<int>(a), {}), rng));
        EXPECT_EQ(cls.rep.evaluate(args, member.param_values),
                  member.concrete.evaluate(args, {}))
            << member.name;
    }
}

} // namespace
} // namespace hydride
