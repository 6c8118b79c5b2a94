/**
 * @file
 * Tests for the HVX and ARM manual generators and dialect parsers:
 * wholesale parse/canonicalize coverage plus architectural spot
 * checks of representative instructions.
 */
#include <gtest/gtest.h>

#include <map>

#include "hir/canonicalize.h"
#include "specs/arm_manual.h"
#include "specs/spec_db.h"
#include "specs/hvx_manual.h"
#include "support/rng.h"
#include "support/strings.h"

namespace hydride {
namespace {

const IsaSpec &
hvxManual()
{
    static const IsaSpec spec = generateHvxManual();
    return spec;
}

const IsaSpec &
armManual()
{
    static const IsaSpec spec = generateArmManual();
    return spec;
}

std::map<std::string, SpecFunction> &
hvxParsed()
{
    static std::map<std::string, SpecFunction> cache;
    if (cache.empty())
        for (const auto &inst : hvxManual().insts)
            cache.emplace(inst.name, parseWithDialect("hvx", inst));
    return cache;
}

std::map<std::string, SpecFunction> &
armParsed()
{
    static std::map<std::string, SpecFunction> cache;
    if (cache.empty())
        for (const auto &inst : armManual().insts)
            cache.emplace(inst.name, parseWithDialect("arm", inst));
    return cache;
}

const SpecFunction &
hvx(const std::string &name)
{
    auto it = hvxParsed().find(name);
    EXPECT_NE(it, hvxParsed().end()) << name << " not generated";
    return it->second;
}

const SpecFunction &
arm(const std::string &name)
{
    auto it = armParsed().find(name);
    EXPECT_NE(it, armParsed().end()) << name << " not generated";
    return it->second;
}

TEST(HvxManual, SizeIsInTheHvxRegime)
{
    // The paper's HVX set has 307 instructions.
    EXPECT_GT(hvxManual().insts.size(), 200u);
    EXPECT_LT(hvxManual().insts.size(), 500u);
}

TEST(ArmManual, SizeIsInTheNeonRegime)
{
    // The paper's ARM set has 1,221 instructions.
    EXPECT_GT(armManual().insts.size(), 700u);
    EXPECT_LT(armManual().insts.size(), 1800u);
}

TEST(HvxManual, UniqueNamesAndFullCanonicalization)
{
    EXPECT_EQ(hvxParsed().size(), hvxManual().insts.size());
    int failures = 0;
    for (const auto &inst : hvxManual().insts) {
        CanonicalizeResult result = canonicalize(hvxParsed().at(inst.name));
        if (!result.ok && ++failures < 5)
            ADD_FAILURE() << inst.name << ": " << result.error << "\n"
                          << inst.pseudocode;
    }
    EXPECT_EQ(failures, 0);
}

TEST(ArmManual, UniqueNamesAndFullCanonicalization)
{
    EXPECT_EQ(armParsed().size(), armManual().insts.size());
    int failures = 0;
    for (const auto &inst : armManual().insts) {
        CanonicalizeResult result = canonicalize(armParsed().at(inst.name));
        if (!result.ok && ++failures < 5)
            ADD_FAILURE() << inst.name << ": " << result.error << "\n"
                          << inst.pseudocode;
    }
    EXPECT_EQ(failures, 0);
}

// ---- HVX spot checks -------------------------------------------------------

TEST(HvxManual, VaddhAddsHalfwords)
{
    const SpecFunction &vadd = hvx("vaddh_128B");
    Rng rng(11);
    BitVector a = BitVector::random(1024, rng);
    BitVector b = BitVector::random(1024, rng);
    BitVector out = vadd.evaluate({a, b});
    for (int lane : {0, 17, 63})
        EXPECT_EQ(out.extract(lane * 16, 16),
                  a.extract(lane * 16, 16).add(b.extract(lane * 16, 16)));
}

TEST(HvxManual, ShiftAmountIsMasked)
{
    // vaslh masks the shift amount to 4 bits: shifting by 17 == 1.
    const SpecFunction &vasl = hvx("vaslh_64B");
    BitVector a(512);
    BitVector b(512);
    a.setSlice(0, BitVector::fromUint(16, 0x0101));
    b.setSlice(0, BitVector::fromUint(16, 17));
    BitVector out = vasl.evaluate({a, b});
    EXPECT_EQ(out.extract(0, 16).toUint64(), 0x0202u);
}

TEST(HvxManual, VdmpyMatchesMaddSemantics)
{
    const SpecFunction &vdmpy = hvx("vdmpyh_128B");
    BitVector a(1024);
    BitVector b(1024);
    a.setSlice(0, BitVector::fromInt(16, -4));
    a.setSlice(16, BitVector::fromInt(16, 9));
    b.setSlice(0, BitVector::fromInt(16, 3));
    b.setSlice(16, BitVector::fromInt(16, 2));
    BitVector out = vdmpy.evaluate({a, b});
    EXPECT_EQ(out.extract(0, 32).toInt64(), -12 + 18);
}

TEST(HvxManual, VrmpyAccumulatesFourWayDot)
{
    const SpecFunction &vrmpy = hvx("vrmpyub_acc_64B");
    BitVector acc(512);
    BitVector a(512);
    BitVector b(512);
    acc.setSlice(0, BitVector::fromInt(32, 100));
    int expected = 100;
    for (int k = 0; k < 4; ++k) {
        a.setSlice(k * 8, BitVector::fromUint(8, 10 + k));
        b.setSlice(k * 8, BitVector::fromInt(8, k - 2));
        expected += (10 + k) * (k - 2);
    }
    BitVector out = vrmpy.evaluate({acc, a, b});
    EXPECT_EQ(out.extract(0, 32).toInt64(), expected);
}

TEST(HvxManual, VcombineConcatenates)
{
    const SpecFunction &vcombine = hvx("vcombine_64B");
    Rng rng(12);
    BitVector u = BitVector::random(512, rng);
    BitVector v = BitVector::random(512, rng);
    BitVector out = vcombine.evaluate({u, v});
    EXPECT_EQ(out.extract(0, 512), v);
    EXPECT_EQ(out.extract(512, 512), u);
}

TEST(HvxManual, VshuffInterleavesIntoPair)
{
    const SpecFunction &vshuff = hvx("vshuffh_64B");
    BitVector u(512);
    BitVector v(512);
    for (int e = 0; e < 32; ++e) {
        u.setSlice(e * 16, BitVector::fromUint(16, 0x1000 + e));
        v.setSlice(e * 16, BitVector::fromUint(16, 0x2000 + e));
    }
    BitVector out = vshuff.evaluate({u, v});
    for (int e = 0; e < 32; ++e) {
        EXPECT_EQ(out.extract(e * 32, 16).toUint64(), 0x2000u + e);
        EXPECT_EQ(out.extract(e * 32 + 16, 16).toUint64(), 0x1000u + e);
    }
}

TEST(HvxManual, VdealSeparatesEvenAndOdd)
{
    const SpecFunction &vdeal = hvx("vdealh_64B");
    BitVector u(512);
    BitVector v(512);
    for (int e = 0; e < 32; ++e) {
        u.setSlice(e * 16, BitVector::fromUint(16, 0x1000 + e));
        v.setSlice(e * 16, BitVector::fromUint(16, 0x2000 + e));
    }
    BitVector out = vdeal.evaluate({u, v});
    // Evens of v, evens of u, odds of v, odds of u.
    EXPECT_EQ(out.extract(0, 16).toUint64(), 0x2000u);
    EXPECT_EQ(out.extract(1 * 16, 16).toUint64(), 0x2002u);
    EXPECT_EQ(out.extract(16 * 16, 16).toUint64(), 0x1000u);
    EXPECT_EQ(out.extract(32 * 16, 16).toUint64(), 0x2001u);
    EXPECT_EQ(out.extract(48 * 16, 16).toUint64(), 0x1001u);
}

TEST(HvxManual, VrorRotatesBytes)
{
    const SpecFunction &vror = hvx("vror_64B");
    BitVector u(512);
    for (int e = 0; e < 64; ++e)
        u.setSlice(e * 8, BitVector::fromUint(8, e));
    BitVector out = vror.evaluate({u}, {5});
    EXPECT_EQ(out.extract(0, 8).toUint64(), 5u);
    EXPECT_EQ(out.extract(63 * 8, 8).toUint64(), (63 + 5) % 64);
}

TEST(HvxManual, VasrNarrowingSaturates)
{
    const SpecFunction &vasr = hvx("vasrhub_sat_64B");
    BitVector vv(1024);
    vv.setSlice(0, BitVector::fromInt(16, 5000));
    vv.setSlice(16, BitVector::fromInt(16, -77));
    BitVector out = vasr.evaluate({vv}, {4});
    EXPECT_EQ(out.extract(0, 8).toUint64(), 255u); // 5000>>4 = 312 -> 255
    EXPECT_EQ(out.extract(8, 8).toUint64(), 0u);   // negative -> 0
}

// ---- ARM spot checks -------------------------------------------------------

TEST(ArmManual, SignedAndUnsignedAddShareSemantics)
{
    const SpecFunction &s = arm("vaddq_s16");
    const SpecFunction &u = arm("vaddq_u16");
    Rng rng(13);
    BitVector a = BitVector::random(128, rng);
    BitVector b = BitVector::random(128, rng);
    EXPECT_EQ(s.evaluate({a, b}), u.evaluate({a, b}));
}

TEST(ArmManual, QaddSaturates)
{
    const SpecFunction &qadd = arm("vqadd_s8");
    BitVector a(64);
    BitVector b(64);
    a.setSlice(0, BitVector::fromInt(8, 100));
    b.setSlice(0, BitVector::fromInt(8, 100));
    BitVector out = qadd.evaluate({a, b});
    EXPECT_EQ(out.extract(0, 8).toInt64(), 127);
}

TEST(ArmManual, HaddHalvesWithoutRounding)
{
    const SpecFunction &hadd = arm("vhaddq_s16");
    BitVector a(128);
    BitVector b(128);
    a.setSlice(0, BitVector::fromInt(16, 5));
    b.setSlice(0, BitVector::fromInt(16, 4));
    BitVector out = hadd.evaluate({a, b});
    EXPECT_EQ(out.extract(0, 16).toInt64(), 4); // (5+4)>>1
}

TEST(ArmManual, Zip1InterleavesLowerHalves)
{
    BitVector a(128);
    BitVector b(128);
    for (int e = 0; e < 4; ++e) {
        a.setSlice(e * 32, BitVector::fromUint(32, 0xA0 + e));
        b.setSlice(e * 32, BitVector::fromUint(32, 0xB0 + e));
    }
    const SpecFunction &zip1 = arm("vzip1q_s32");
    BitVector out = zip1.evaluate({a, b});
    EXPECT_EQ(out.extract(0, 32).toUint64(), 0xA0u);
    EXPECT_EQ(out.extract(32, 32).toUint64(), 0xB0u);
    EXPECT_EQ(out.extract(64, 32).toUint64(), 0xA1u);
    EXPECT_EQ(out.extract(96, 32).toUint64(), 0xB1u);

    const SpecFunction &zip2 = arm("vzip2q_s32");
    out = zip2.evaluate({a, b});
    EXPECT_EQ(out.extract(0, 32).toUint64(), 0xA2u);
    EXPECT_EQ(out.extract(32, 32).toUint64(), 0xB2u);
}

TEST(ArmManual, Uzp1TakesEvenElements)
{
    const SpecFunction &uzp1 = arm("vuzp1q_s16");
    BitVector a(128);
    BitVector b(128);
    for (int e = 0; e < 8; ++e) {
        a.setSlice(e * 16, BitVector::fromUint(16, 0x100 + e));
        b.setSlice(e * 16, BitVector::fromUint(16, 0x200 + e));
    }
    BitVector out = uzp1.evaluate({a, b});
    EXPECT_EQ(out.extract(0, 16).toUint64(), 0x100u);
    EXPECT_EQ(out.extract(16, 16).toUint64(), 0x102u);
    EXPECT_EQ(out.extract(64, 16).toUint64(), 0x200u);
    EXPECT_EQ(out.extract(80, 16).toUint64(), 0x202u);
}

TEST(ArmManual, ExtConcatenatesAndExtracts)
{
    const SpecFunction &ext = arm("vextq_s8");
    BitVector a(128);
    BitVector b(128);
    for (int e = 0; e < 16; ++e) {
        a.setSlice(e * 8, BitVector::fromUint(8, 0xA0 + e));
        b.setSlice(e * 8, BitVector::fromUint(8, 0xB0 + e));
    }
    BitVector out = ext.evaluate({a, b}, {5});
    EXPECT_EQ(out.extract(0, 8).toUint64(), 0xA5u);
    EXPECT_EQ(out.extract(10 * 8, 8).toUint64(), 0xAFu);
    EXPECT_EQ(out.extract(11 * 8, 8).toUint64(), 0xB0u);
}

TEST(ArmManual, Rev64ReversesWithinGroups)
{
    const SpecFunction &rev = arm("vrev64q_s16");
    BitVector a(128);
    for (int e = 0; e < 8; ++e)
        a.setSlice(e * 16, BitVector::fromUint(16, e));
    BitVector out = rev.evaluate({a});
    // Group of 4 halfwords reversed: 3 2 1 0 | 7 6 5 4.
    EXPECT_EQ(out.extract(0, 16).toUint64(), 3u);
    EXPECT_EQ(out.extract(16, 16).toUint64(), 2u);
    EXPECT_EQ(out.extract(64, 16).toUint64(), 7u);
}

TEST(ArmManual, PaddlWidensPairwise)
{
    const SpecFunction &paddl = arm("vpaddlq_s8");
    BitVector a(128);
    a.setSlice(0, BitVector::fromInt(8, -3));
    a.setSlice(8, BitVector::fromInt(8, 120));
    BitVector out = paddl.evaluate({a});
    EXPECT_EQ(out.extract(0, 16).toInt64(), 117);
}

TEST(ArmManual, MullWidensProducts)
{
    const SpecFunction &mull = arm("vmull_s16");
    BitVector a(64);
    BitVector b(64);
    a.setSlice(0, BitVector::fromInt(16, -300));
    b.setSlice(0, BitVector::fromInt(16, 300));
    BitVector out = mull.evaluate({a, b});
    EXPECT_EQ(out.width(), 128);
    EXPECT_EQ(out.extract(0, 32).toInt64(), -90000);
}

TEST(ArmManual, SdotAccumulatesByteDot)
{
    const SpecFunction &sdot = arm("vsdotq_s32");
    BitVector acc(128);
    BitVector a(128);
    BitVector b(128);
    acc.setSlice(0, BitVector::fromInt(32, 7));
    int expected = 7;
    for (int k = 0; k < 4; ++k) {
        a.setSlice(k * 8, BitVector::fromInt(8, k + 1));
        b.setSlice(k * 8, BitVector::fromInt(8, -k));
        expected += (k + 1) * -k;
    }
    BitVector out = sdot.evaluate({acc, a, b});
    EXPECT_EQ(out.extract(0, 32).toInt64(), expected);
}

TEST(ArmManual, QmovnSaturatesWhileNarrowing)
{
    const SpecFunction &qmovn = arm("vqmovn_s16");
    BitVector a(128);
    a.setSlice(0, BitVector::fromInt(16, 300));
    a.setSlice(16, BitVector::fromInt(16, -7));
    BitVector out = qmovn.evaluate({a});
    EXPECT_EQ(out.width(), 64);
    EXPECT_EQ(out.extract(0, 8).toInt64(), 127);
    EXPECT_EQ(out.extract(8, 8).toInt64(), -7);
}

TEST(ArmManual, AddhnTakesHighHalfOfSum)
{
    const SpecFunction &addhn = arm("vaddhn_s32");
    BitVector a(128);
    BitVector b(128);
    a.setSlice(0, BitVector::fromUint(32, 0x12340000u));
    b.setSlice(0, BitVector::fromUint(32, 0x00010000u));
    BitVector out = addhn.evaluate({a, b});
    EXPECT_EQ(out.extract(0, 16).toUint64(), 0x1235u);
}

TEST(ArmManual, CgtUnsignedUsesUnsignedOrder)
{
    const SpecFunction &cgt = arm("vcgtq_u8");
    BitVector a(128);
    BitVector b(128);
    a.setSlice(0, BitVector::fromUint(8, 0xFF)); // 255 unsigned
    b.setSlice(0, BitVector::fromUint(8, 1));
    BitVector out = cgt.evaluate({a, b});
    EXPECT_EQ(out.extract(0, 8).toUint64(), 0xFFu);
}

} // namespace
} // namespace hydride
