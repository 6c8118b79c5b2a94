/**
 * @file
 * Tests for the x86 manual generator and pseudocode parser: every
 * generated instruction must parse and canonicalize, and spot-checked
 * instructions must compute the architecturally expected results.
 */
#include <gtest/gtest.h>

#include <map>

#include "hir/canonicalize.h"
#include "hir/printer.h"
#include "specs/spec_db.h"
#include "specs/x86_manual.h"
#include "support/rng.h"
#include "support/strings.h"

namespace hydride {
namespace {

const IsaSpec &
manual()
{
    static const IsaSpec spec = generateX86Manual();
    return spec;
}

std::map<std::string, SpecFunction> &
parsedCache()
{
    static std::map<std::string, SpecFunction> cache;
    if (cache.empty()) {
        for (const auto &inst : manual().insts)
            cache.emplace(inst.name, parseWithDialect("x86", inst));
    }
    return cache;
}

const SpecFunction &
fn(const std::string &name)
{
    auto it = parsedCache().find(name);
    EXPECT_NE(it, parsedCache().end()) << name << " not generated";
    return it->second;
}

TEST(X86Manual, GeneratesARealisticallySizedISA)
{
    // The real Intel manual set in the paper has 2,029 entries; the
    // generated stand-in must be in the same regime.
    EXPECT_GT(manual().insts.size(), 900u);
    EXPECT_LT(manual().insts.size(), 3000u);
}

TEST(X86Manual, NamesAreUnique)
{
    EXPECT_EQ(parsedCache().size(), manual().insts.size());
}

TEST(X86Manual, EveryInstructionParsesAndCanonicalizes)
{
    int failures = 0;
    for (const auto &inst : manual().insts) {
        const SpecFunction &spec = parsedCache().at(inst.name);
        CanonicalizeResult result = canonicalize(spec);
        if (!result.ok) {
            ++failures;
            if (failures < 5) {
                ADD_FAILURE() << inst.name << ": " << result.error << "\n"
                              << inst.pseudocode;
            }
        }
    }
    EXPECT_EQ(failures, 0);
}

TEST(X86Manual, AddEpi16ComputesElementwiseSum)
{
    const SpecFunction &add = fn("_mm256_add_epi16");
    Rng rng(1);
    BitVector a = BitVector::random(256, rng);
    BitVector b = BitVector::random(256, rng);
    BitVector out = add.evaluate({a, b});
    for (int e = 0; e < 16; ++e)
        EXPECT_EQ(out.extract(e * 16, 16),
                  a.extract(e * 16, 16).add(b.extract(e * 16, 16)));
}

TEST(X86Manual, AddsEpu8Saturates)
{
    const SpecFunction &adds = fn("_mm_adds_epu8");
    BitVector a(128);
    BitVector b(128);
    a.setSlice(0, BitVector::fromUint(8, 200));
    b.setSlice(0, BitVector::fromUint(8, 100));
    a.setSlice(8, BitVector::fromUint(8, 10));
    b.setSlice(8, BitVector::fromUint(8, 20));
    BitVector out = adds.evaluate({a, b});
    EXPECT_EQ(out.extract(0, 8).toUint64(), 255u);
    EXPECT_EQ(out.extract(8, 8).toUint64(), 30u);
}

TEST(X86Manual, SubsEpu16ClampsAtZero)
{
    const SpecFunction &subs = fn("_mm_subs_epu16");
    BitVector a(128);
    BitVector b(128);
    a.setSlice(0, BitVector::fromUint(16, 5));
    b.setSlice(0, BitVector::fromUint(16, 9));
    BitVector out = subs.evaluate({a, b});
    EXPECT_EQ(out.extract(0, 16).toUint64(), 0u);
}

TEST(X86Manual, MulhiMatchesWideProduct)
{
    const SpecFunction &mulhi = fn("_mm_mulhi_epi16");
    BitVector a(128);
    BitVector b(128);
    a.setSlice(0, BitVector::fromInt(16, -1234));
    b.setSlice(0, BitVector::fromInt(16, 5678));
    BitVector out = mulhi.evaluate({a, b});
    const int64_t product = -1234 * 5678;
    EXPECT_EQ(out.extract(0, 16).toInt64(), product >> 16);
}

TEST(X86Manual, MaskedAddBlendsWithSource)
{
    const SpecFunction &madd = fn("_mm512_mask_add_epi32");
    Rng rng(3);
    BitVector src = BitVector::random(512, rng);
    BitVector a = BitVector::random(512, rng);
    BitVector b = BitVector::random(512, rng);
    BitVector k(16);
    k.setBit(0, true);
    k.setBit(5, true);
    BitVector out = madd.evaluate({src, k, a, b});
    for (int e = 0; e < 16; ++e) {
        BitVector expect = (e == 0 || e == 5)
                               ? a.extract(e * 32, 32).add(b.extract(e * 32, 32))
                               : src.extract(e * 32, 32);
        EXPECT_EQ(out.extract(e * 32, 32), expect) << "element " << e;
    }
}

TEST(X86Manual, MaskzZeroesInactiveLanes)
{
    const SpecFunction &mz = fn("_mm_maskz_sub_epi8");
    Rng rng(4);
    BitVector a = BitVector::random(128, rng);
    BitVector b = BitVector::random(128, rng);
    BitVector k(16);
    k.setBit(3, true);
    BitVector out = mz.evaluate({k, a, b});
    for (int e = 0; e < 16; ++e) {
        BitVector expect = e == 3
                               ? a.extract(e * 8, 8).sub(b.extract(e * 8, 8))
                               : BitVector(8);
        EXPECT_EQ(out.extract(e * 8, 8), expect);
    }
}

TEST(X86Manual, UnpackLoInterleavesWithinLanes)
{
    const SpecFunction &unpack = fn("_mm256_unpacklo_epi16");
    BitVector a(256);
    BitVector b(256);
    for (int e = 0; e < 16; ++e) {
        a.setSlice(e * 16, BitVector::fromUint(16, 0x1000 + e));
        b.setSlice(e * 16, BitVector::fromUint(16, 0x2000 + e));
    }
    BitVector out = unpack.evaluate({a, b});
    // Lane 0: a0 b0 a1 b1 a2 b2 a3 b3; lane 1: a8 b8 ...
    for (int lane = 0; lane < 2; ++lane) {
        for (int m = 0; m < 4; ++m) {
            const int base = lane * 128 + m * 32;
            EXPECT_EQ(out.extract(base, 16).toUint64(),
                      0x1000u + lane * 8 + m);
            EXPECT_EQ(out.extract(base + 16, 16).toUint64(),
                      0x2000u + lane * 8 + m);
        }
    }
}

TEST(X86Manual, UnpackHiTakesUpperHalfOfEachLane)
{
    const SpecFunction &unpack = fn("_mm_unpackhi_epi32");
    BitVector a(128);
    BitVector b(128);
    for (int e = 0; e < 4; ++e) {
        a.setSlice(e * 32, BitVector::fromUint(32, 0xA0 + e));
        b.setSlice(e * 32, BitVector::fromUint(32, 0xB0 + e));
    }
    BitVector out = unpack.evaluate({a, b});
    EXPECT_EQ(out.extract(0, 32).toUint64(), 0xA2u);
    EXPECT_EQ(out.extract(32, 32).toUint64(), 0xB2u);
    EXPECT_EQ(out.extract(64, 32).toUint64(), 0xA3u);
    EXPECT_EQ(out.extract(96, 32).toUint64(), 0xB3u);
}

TEST(X86Manual, PacksSaturatesIntoNarrowElements)
{
    const SpecFunction &packs = fn("_mm_packs_epi16");
    BitVector a(128);
    BitVector b(128);
    a.setSlice(0, BitVector::fromInt(16, 300));   // saturates to 127
    a.setSlice(16, BitVector::fromInt(16, -300)); // saturates to -128
    b.setSlice(0, BitVector::fromInt(16, 42));
    BitVector out = packs.evaluate({a, b});
    EXPECT_EQ(out.extract(0, 8).toInt64(), 127);
    EXPECT_EQ(out.extract(8, 8).toInt64(), -128);
    EXPECT_EQ(out.extract(64, 8).toInt64(), 42);
}

TEST(X86Manual, MaddComputesTwoWayDotProduct)
{
    const SpecFunction &madd = fn("_mm_madd_epi16");
    BitVector a(128);
    BitVector b(128);
    // Pair 0: 3*7 + (-2)*5 = 11.
    a.setSlice(0, BitVector::fromInt(16, 3));
    a.setSlice(16, BitVector::fromInt(16, -2));
    b.setSlice(0, BitVector::fromInt(16, 7));
    b.setSlice(16, BitVector::fromInt(16, 5));
    BitVector out = madd.evaluate({a, b});
    EXPECT_EQ(out.extract(0, 32).toInt64(), 11);
}

TEST(X86Manual, DpwssdAccumulates)
{
    const SpecFunction &dp = fn("_mm512_dpwssd_epi32");
    BitVector src(512);
    BitVector a(512);
    BitVector b(512);
    src.setSlice(0, BitVector::fromInt(32, 1000));
    a.setSlice(0, BitVector::fromInt(16, 10));
    a.setSlice(16, BitVector::fromInt(16, 20));
    b.setSlice(0, BitVector::fromInt(16, 2));
    b.setSlice(16, BitVector::fromInt(16, 3));
    BitVector out = dp.evaluate({src, a, b});
    EXPECT_EQ(out.extract(0, 32).toInt64(), 1000 + 10 * 2 + 20 * 3);
}

TEST(X86Manual, SadSumsAbsoluteDifferences)
{
    const SpecFunction &sad = fn("_mm_sad_epu8");
    BitVector a(128);
    BitVector b(128);
    a.setSlice(0, BitVector::fromUint(8, 10));
    b.setSlice(0, BitVector::fromUint(8, 250));
    a.setSlice(8, BitVector::fromUint(8, 7));
    b.setSlice(8, BitVector::fromUint(8, 3));
    BitVector out = sad.evaluate({a, b});
    EXPECT_EQ(out.extract(0, 64).toUint64(), 240u + 4u);
}

TEST(X86Manual, SlliShiftsByImmediate)
{
    const SpecFunction &slli = fn("_mm256_slli_epi32");
    BitVector a(256);
    a.setSlice(0, BitVector::fromUint(32, 0x11));
    BitVector out = slli.evaluate({a}, {4});
    EXPECT_EQ(out.extract(0, 32).toUint64(), 0x110u);
    // Shift amount beyond the element width zeroes the element.
    out = slli.evaluate({a}, {40});
    EXPECT_TRUE(out.extract(0, 32).isZero());
}

TEST(X86Manual, AlignrConcatenatesAndShifts)
{
    const SpecFunction &alignr = fn("_mm_alignr_epi8");
    BitVector a(128);
    BitVector b(128);
    for (int e = 0; e < 16; ++e) {
        a.setSlice(e * 8, BitVector::fromUint(8, 0xA0 + e));
        b.setSlice(e * 8, BitVector::fromUint(8, 0xB0 + e));
    }
    BitVector out = alignr.evaluate({a, b}, {3});
    // Bytes 0..12 come from b[3..15], bytes 13..15 from a[0..2].
    EXPECT_EQ(out.extract(0, 8).toUint64(), 0xB3u);
    EXPECT_EQ(out.extract(12 * 8, 8).toUint64(), 0xBFu);
    EXPECT_EQ(out.extract(13 * 8, 8).toUint64(), 0xA0u);
    EXPECT_EQ(out.extract(15 * 8, 8).toUint64(), 0xA2u);
}

TEST(X86Manual, CvtWidensWithSignExtension)
{
    const SpecFunction &cvt = fn("_mm256_cvtepi8_epi16");
    BitVector a(128);
    a.setSlice(0, BitVector::fromInt(8, -5));
    a.setSlice(8, BitVector::fromInt(8, 100));
    BitVector out = cvt.evaluate({a});
    EXPECT_EQ(out.extract(0, 16).toInt64(), -5);
    EXPECT_EQ(out.extract(16, 16).toInt64(), 100);
}

TEST(X86Manual, HaddAddsAdjacentPairs)
{
    const SpecFunction &hadd = fn("_mm_hadd_epi32");
    BitVector a(128);
    BitVector b(128);
    for (int e = 0; e < 4; ++e) {
        a.setSlice(e * 32, BitVector::fromInt(32, e + 1));       // 1 2 3 4
        b.setSlice(e * 32, BitVector::fromInt(32, 10 * (e + 1))); // 10 20 ...
    }
    BitVector out = hadd.evaluate({a, b});
    EXPECT_EQ(out.extract(0, 32).toInt64(), 3);   // 1+2
    EXPECT_EQ(out.extract(32, 32).toInt64(), 7);  // 3+4
    EXPECT_EQ(out.extract(64, 32).toInt64(), 30); // 10+20
    EXPECT_EQ(out.extract(96, 32).toInt64(), 70); // 30+40
}

TEST(X86Manual, BroadcastReplicates)
{
    const SpecFunction &set1 = fn("_mm512_set1_epi64");
    BitVector a = BitVector::fromUint(64, 0xDEADBEEF12345678ull);
    BitVector out = set1.evaluate({a});
    for (int e = 0; e < 8; ++e)
        EXPECT_EQ(out.extract(e * 64, 64), a);
}

TEST(X86Manual, RotateLeftByImmediate)
{
    const SpecFunction &rol = fn("_mm_rol_epi32");
    BitVector a(128);
    a.setSlice(0, BitVector::fromUint(32, 0x80000001u));
    BitVector out = rol.evaluate({a}, {1});
    EXPECT_EQ(out.extract(0, 32).toUint64(), 0x3u);
}

TEST(X86Manual, ScalarOpsCoverAllWidths)
{
    for (int w : {8, 16, 32, 64}) {
        const SpecFunction &add = fn(format("_x86_add_r%d", w));
        Rng rng(100 + w);
        BitVector a = BitVector::random(w, rng);
        BitVector b = BitVector::random(w, rng);
        EXPECT_EQ(add.evaluate({a, b}), a.add(b));
    }
}

TEST(X86Manual, CanonicalFormOfUnpackIsByInner)
{
    CanonicalizeResult result =
        canonicalize(fn("_mm512_unpacklo_epi8"));
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.sem.mode, TemplateMode::ByInner);
    EXPECT_EQ(result.sem.templates.size(), 2u);
}

TEST(X86Manual, CanonicalFormOfPackIsByOuter)
{
    CanonicalizeResult result = canonicalize(fn("_mm256_packs_epi32"));
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.sem.mode, TemplateMode::ByOuter);
}

} // namespace
} // namespace hydride
