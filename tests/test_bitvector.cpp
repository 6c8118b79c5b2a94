/**
 * @file
 * Unit and property tests for the BitVector value type.
 *
 * The property sweeps run each algebraic law across a range of widths
 * (including widths straddling the 64-bit word boundary) on random
 * operands, validating against native 64-bit arithmetic where a
 * reference exists.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/symbolic/bitblast.h"
#include "hir/bitvector.h"
#include "hir/expr.h"
#include "support/error.h"
#include "support/rng.h"

namespace hydride {
namespace {

TEST(BitVector, ConstructionAndBits)
{
    BitVector bv(8);
    EXPECT_EQ(bv.width(), 8);
    EXPECT_TRUE(bv.isZero());
    bv.setBit(3, true);
    EXPECT_TRUE(bv.getBit(3));
    EXPECT_FALSE(bv.getBit(2));
    EXPECT_EQ(bv.toUint64(), 8u);
}

TEST(BitVector, FromUintMasksToWidth)
{
    BitVector bv = BitVector::fromUint(4, 0xFF);
    EXPECT_EQ(bv.toUint64(), 0xFu);
}

TEST(BitVector, FromIntSignExtends)
{
    BitVector bv = BitVector::fromInt(100, -1);
    EXPECT_EQ(bv, BitVector::allOnes(100));
    EXPECT_EQ(BitVector::fromInt(16, -2).toInt64(), -2);
}

TEST(BitVector, ToInt64Boundaries)
{
    EXPECT_EQ(BitVector::fromUint(8, 0x80).toInt64(), -128);
    EXPECT_EQ(BitVector::fromUint(8, 0x7F).toInt64(), 127);
    EXPECT_EQ(BitVector::fromUint(1, 1).toInt64(), -1);
}

TEST(BitVector, HexRendering)
{
    EXPECT_EQ(BitVector::fromUint(16, 0xBEEF).toHex(), "beef");
    EXPECT_EQ(BitVector::fromUint(12, 0xABC).toHex(), "abc");
    EXPECT_EQ(BitVector(8).toHex(), "00");
}

TEST(BitVector, ExtractAcrossWordBoundary)
{
    Rng rng(42);
    BitVector wide = BitVector::random(192, rng);
    BitVector slice = wide.extract(60, 16);
    for (int b = 0; b < 16; ++b)
        EXPECT_EQ(slice.getBit(b), wide.getBit(60 + b));
}

TEST(BitVector, SetSliceRoundTrip)
{
    Rng rng(43);
    BitVector whole(256);
    BitVector part = BitVector::random(48, rng);
    whole.setSlice(100, part);
    EXPECT_EQ(whole.extract(100, 48), part);
    EXPECT_TRUE(whole.extract(0, 100).isZero());
    EXPECT_TRUE(whole.extract(148, 108).isZero());
}

TEST(BitVector, ConcatOrdering)
{
    BitVector high = BitVector::fromUint(8, 0xAB);
    BitVector low = BitVector::fromUint(8, 0xCD);
    BitVector joined = BitVector::concat(high, low);
    EXPECT_EQ(joined.width(), 16);
    EXPECT_EQ(joined.toUint64(), 0xABCDu);
}

TEST(BitVector, ZextSextTrunc)
{
    BitVector bv = BitVector::fromUint(8, 0x80);
    EXPECT_EQ(bv.zext(16).toUint64(), 0x80u);
    EXPECT_EQ(bv.sext(16).toUint64(), 0xFF80u);
    EXPECT_EQ(bv.sext(16).trunc(8), bv);
    // Sign extension across word boundaries.
    EXPECT_EQ(BitVector::fromInt(8, -3).sext(200).trunc(64).toInt64(), -3);
    EXPECT_EQ(BitVector::fromInt(8, -3).sext(200).extract(190, 10),
              BitVector::allOnes(10));
}

TEST(BitVector, ShiftBasics)
{
    BitVector bv = BitVector::fromUint(8, 0x81);
    EXPECT_EQ(bv.shl(1).toUint64(), 0x02u);
    EXPECT_EQ(bv.lshr(1).toUint64(), 0x40u);
    EXPECT_EQ(bv.ashr(1).toUint64(), 0xC0u);
    EXPECT_TRUE(bv.shl(8).isZero());
    EXPECT_TRUE(bv.lshr(100).isZero());
    EXPECT_EQ(bv.ashr(100), BitVector::allOnes(8));
}

TEST(BitVector, Rotations)
{
    BitVector bv = BitVector::fromUint(8, 0b00000011);
    EXPECT_EQ(bv.rotr(1).toUint64(), 0b10000001u);
    EXPECT_EQ(bv.rotl(1).toUint64(), 0b00000110u);
    EXPECT_EQ(bv.rotr(8), bv);
    EXPECT_EQ(bv.rotl(9), bv.rotl(1));
}

TEST(BitVector, SaturatingAddSigned)
{
    BitVector max8 = BitVector::fromUint(8, 0x7F);
    BitVector one = BitVector::fromUint(8, 1);
    EXPECT_EQ(max8.addSatS(one).toInt64(), 127);
    BitVector min8 = BitVector::fromUint(8, 0x80);
    EXPECT_EQ(min8.addSatS(BitVector::fromInt(8, -1)).toInt64(), -128);
    EXPECT_EQ(BitVector::fromInt(8, 5).addSatS(BitVector::fromInt(8, -3))
                  .toInt64(),
              2);
}

TEST(BitVector, SaturatingAddUnsigned)
{
    BitVector big = BitVector::fromUint(8, 0xF0);
    BitVector small = BitVector::fromUint(8, 0x20);
    EXPECT_EQ(big.addSatU(small).toUint64(), 0xFFu);
    EXPECT_EQ(small.addSatU(small).toUint64(), 0x40u);
}

TEST(BitVector, SaturatingSub)
{
    BitVector a = BitVector::fromUint(8, 0x10);
    BitVector b = BitVector::fromUint(8, 0x20);
    EXPECT_TRUE(a.subSatU(b).isZero());
    EXPECT_EQ(b.subSatU(a).toUint64(), 0x10u);
    EXPECT_EQ(BitVector::fromInt(8, -100).subSatS(BitVector::fromInt(8, 100))
                  .toInt64(),
              -128);
}

TEST(BitVector, SatNarrow)
{
    EXPECT_EQ(BitVector::fromInt(16, 300).satNarrowS(8).toInt64(), 127);
    EXPECT_EQ(BitVector::fromInt(16, -300).satNarrowS(8).toInt64(), -128);
    EXPECT_EQ(BitVector::fromInt(16, 42).satNarrowS(8).toInt64(), 42);
    EXPECT_EQ(BitVector::fromInt(16, 300).satNarrowU(8).toUint64(), 255u);
    EXPECT_EQ(BitVector::fromInt(16, -5).satNarrowU(8).toUint64(), 0u);
    EXPECT_EQ(BitVector::fromInt(16, 99).satNarrowU(8).toUint64(), 99u);
}

TEST(BitVector, DivisionEdgeCases)
{
    BitVector seven = BitVector::fromUint(8, 7);
    BitVector zero(8);
    EXPECT_EQ(seven.udiv(zero), BitVector::allOnes(8));
    EXPECT_EQ(seven.urem(zero), seven);
    EXPECT_EQ(BitVector::fromInt(8, -7).sdiv(BitVector::fromInt(8, 2))
                  .toInt64(),
              -3);
    EXPECT_EQ(BitVector::fromInt(8, -7).srem(BitVector::fromInt(8, 2))
                  .toInt64(),
              -1);
}

TEST(BitVector, MinMax)
{
    BitVector a = BitVector::fromInt(8, -5);
    BitVector b = BitVector::fromInt(8, 3);
    EXPECT_EQ(a.minS(b).toInt64(), -5);
    EXPECT_EQ(a.maxS(b).toInt64(), 3);
    // Unsigned: -5 == 0xFB is larger than 3.
    EXPECT_EQ(a.minU(b).toInt64(), 3);
    EXPECT_EQ(a.maxU(b), a);
}

TEST(BitVector, AbsAndAverage)
{
    EXPECT_EQ(BitVector::fromInt(8, -5).absS().toInt64(), 5);
    EXPECT_EQ(BitVector::fromInt(8, 5).absS().toInt64(), 5);
    // abs(INT_MIN) wraps.
    EXPECT_EQ(BitVector::fromInt(8, -128).absS().toInt64(), -128);
    EXPECT_EQ(BitVector::fromUint(8, 3).avgU(BitVector::fromUint(8, 4))
                  .toUint64(),
              4u);
    EXPECT_EQ(BitVector::fromUint(8, 250).avgU(BitVector::fromUint(8, 250))
                  .toUint64(),
              250u);
    EXPECT_EQ(BitVector::fromInt(8, -3).avgS(BitVector::fromInt(8, -4))
                  .toInt64(),
              -3);
}

TEST(BitVector, Popcount)
{
    EXPECT_EQ(BitVector::fromUint(16, 0xF0F0).popcount().toUint64(), 8u);
    EXPECT_TRUE(BitVector(128).popcount().isZero());
    EXPECT_EQ(BitVector::allOnes(130).popcount().toUint64(), 130u);
}

TEST(BitVector, ComparisonsSignedUnsigned)
{
    BitVector neg = BitVector::fromInt(8, -1);
    BitVector one = BitVector::fromUint(8, 1);
    EXPECT_TRUE(neg.slt(one));
    EXPECT_FALSE(neg.ult(one));
    EXPECT_TRUE(one.ult(neg));
    EXPECT_TRUE(one.ule(one));
    EXPECT_TRUE(one.sle(one));
}

TEST(BitVector, HashDiffersByWidthAndValue)
{
    EXPECT_NE(BitVector(8).hash(), BitVector(9).hash());
    EXPECT_NE(BitVector::fromUint(8, 1).hash(), BitVector::fromUint(8, 2).hash());
}

// ---- Property sweeps over widths ------------------------------------------

class BitVectorWidths : public ::testing::TestWithParam<int>
{
};

TEST_P(BitVectorWidths, AddMatchesUint64Reference)
{
    const int width = GetParam();
    if (width > 64)
        GTEST_SKIP() << "reference is 64-bit";
    Rng rng(1000 + width);
    const uint64_t mask = width == 64 ? ~0ull : ((1ull << width) - 1);
    for (int trial = 0; trial < 30; ++trial) {
        uint64_t a = rng.next() & mask;
        uint64_t b = rng.next() & mask;
        BitVector bva = BitVector::fromUint(width, a);
        BitVector bvb = BitVector::fromUint(width, b);
        EXPECT_EQ(bva.add(bvb).toUint64(), (a + b) & mask);
        EXPECT_EQ(bva.sub(bvb).toUint64(), (a - b) & mask);
        EXPECT_EQ(bva.mul(bvb).toUint64(), (a * b) & mask);
        if (b != 0) {
            EXPECT_EQ(bva.udiv(bvb).toUint64(), a / b);
            EXPECT_EQ(bva.urem(bvb).toUint64(), a % b);
        }
    }
}

TEST_P(BitVectorWidths, AdditiveGroupLaws)
{
    const int width = GetParam();
    Rng rng(2000 + width);
    for (int trial = 0; trial < 10; ++trial) {
        BitVector a = BitVector::random(width, rng);
        BitVector b = BitVector::random(width, rng);
        BitVector c = BitVector::random(width, rng);
        EXPECT_EQ(a.add(b), b.add(a));
        EXPECT_EQ(a.add(b).add(c), a.add(b.add(c)));
        EXPECT_EQ(a.add(a.neg()), BitVector(width));
        EXPECT_EQ(a.sub(b), a.add(b.neg()));
    }
}

TEST_P(BitVectorWidths, BitwiseLaws)
{
    const int width = GetParam();
    Rng rng(3000 + width);
    for (int trial = 0; trial < 10; ++trial) {
        BitVector a = BitVector::random(width, rng);
        BitVector b = BitVector::random(width, rng);
        EXPECT_EQ(a.bvand(b).bvor(a.bvand(b.bvnot())), a);
        EXPECT_EQ(a.bvxor(a), BitVector(width));
        EXPECT_EQ(a.bvnot().bvnot(), a);
        EXPECT_EQ(a.bvor(b).bvnot(), a.bvnot().bvand(b.bvnot()));
    }
}

TEST_P(BitVectorWidths, ShiftComposition)
{
    const int width = GetParam();
    Rng rng(4000 + width);
    for (int trial = 0; trial < 10; ++trial) {
        BitVector a = BitVector::random(width, rng);
        const int s1 = static_cast<int>(rng.nextBelow(width));
        const int s2 = static_cast<int>(rng.nextBelow(width));
        EXPECT_EQ(a.shl(s1).shl(s2), a.shl(s1 + s2));
        EXPECT_EQ(a.lshr(s1).lshr(s2), a.lshr(s1 + s2));
        EXPECT_EQ(a.rotr(s1).rotl(s1), a);
    }
}

TEST_P(BitVectorWidths, ExtractConcatInverse)
{
    const int width = GetParam();
    if (width < 2)
        GTEST_SKIP();
    Rng rng(5000 + width);
    for (int trial = 0; trial < 10; ++trial) {
        BitVector a = BitVector::random(width, rng);
        const int cut = 1 + static_cast<int>(rng.nextBelow(width - 1));
        BitVector low = a.extract(0, cut);
        BitVector high = a.extract(cut, width - cut);
        EXPECT_EQ(BitVector::concat(high, low), a);
    }
}

TEST_P(BitVectorWidths, SaturationIsClamping)
{
    const int width = GetParam();
    if (width > 60)
        GTEST_SKIP() << "reference uses int64 arithmetic";
    Rng rng(6000 + width);
    const int64_t smax = (1ll << (width - 1)) - 1;
    const int64_t smin = -(1ll << (width - 1));
    for (int trial = 0; trial < 30; ++trial) {
        BitVector a = BitVector::random(width, rng);
        BitVector b = BitVector::random(width, rng);
        const int64_t sum = a.toInt64() + b.toInt64();
        EXPECT_EQ(a.addSatS(b).toInt64(),
                  std::min(smax, std::max(smin, sum)));
        const int64_t diff = a.toInt64() - b.toInt64();
        EXPECT_EQ(a.subSatS(b).toInt64(),
                  std::min(smax, std::max(smin, diff)));
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVectorWidths,
                         ::testing::Values(1, 7, 8, 16, 31, 32, 33, 64, 65,
                                           127, 128, 200, 512, 2048));

// ---- Edge cases pinned for the symbolic equivalence checker ----------------
//
// The symbolic bit-blaster (analysis/symbolic/bitblast.*) re-implements
// every operation below over AIG literals. These tests pin the concrete
// corner-case semantics, and the *Agreement tests evaluate the blasted
// circuit on the same inputs — any drift between the two evaluators
// turns a sound `proved` verdict into a lie, so both directions are
// regression-tested here.

TEST(BitVector, ShiftAtOrBeyondWidthIsFullShiftOut)
{
    const BitVector a = BitVector::fromUint(8, 0xA5);
    for (int amount : {8, 9, 64, 100000}) {
        EXPECT_TRUE(a.shl(amount).isZero()) << amount;
        EXPECT_TRUE(a.lshr(amount).isZero()) << amount;
        EXPECT_EQ(a.ashr(amount), BitVector::allOnes(8)) << amount;
    }
    const BitVector positive = BitVector::fromUint(8, 0x25);
    EXPECT_TRUE(positive.ashr(8).isZero());
    EXPECT_TRUE(positive.ashr(500).isZero());
}

TEST(BitVector, ShiftAmountWiderThanSixtyFourBitsClamps)
{
    // A 128-bit shift amount with a set high word must clamp to
    // "everything shifted out", not truncate modulo 2^64.
    BitVector huge(128);
    huge.setBit(64, true); // 2^64: low 64 bits are all zero.
    EXPECT_EQ(shiftAmountOf(huge), BitVector::kMaxWidth);
    const BitVector a = BitVector::fromUint(8, 0xFF);
    EXPECT_TRUE(a.shl(shiftAmountOf(huge)).isZero());
}

TEST(BitVector, SignedDivisionWrapsAtSignedMin)
{
    // SMT-LIB bvsdiv semantics: INT_MIN / -1 wraps back to INT_MIN
    // (the magnitude is unrepresentable), and the remainder is zero.
    const BitVector smin = BitVector::fromUint(8, 0x80);
    const BitVector minus_one = BitVector::allOnes(8);
    EXPECT_EQ(smin.sdiv(minus_one), smin);
    EXPECT_TRUE(smin.srem(minus_one).isZero());
    EXPECT_EQ(smin.sdiv(BitVector::fromInt(8, 1)), smin);
}

TEST(BitVector, DivisionByZeroMatchesSmtLib)
{
    const BitVector zero(8);
    // bvudiv x 0 = all ones; bvurem x 0 = x.
    EXPECT_EQ(BitVector::fromUint(8, 7).udiv(zero), BitVector::allOnes(8));
    EXPECT_EQ(BitVector::fromUint(8, 7).urem(zero),
              BitVector::fromUint(8, 7));
    // bvsdiv x 0 = -1 for x >= 0, +1 for x < 0; bvsrem x 0 = x.
    EXPECT_EQ(BitVector::fromInt(8, 7).sdiv(zero), BitVector::allOnes(8));
    EXPECT_EQ(BitVector::fromInt(8, -7).sdiv(zero),
              BitVector::fromInt(8, 1));
    EXPECT_EQ(BitVector::fromInt(8, -7).srem(zero),
              BitVector::fromInt(8, -7));
}

TEST(BitVector, SignedRemainderFollowsDividendSign)
{
    EXPECT_EQ(BitVector::fromInt(8, -7).srem(BitVector::fromInt(8, 3)),
              BitVector::fromInt(8, -1));
    EXPECT_EQ(BitVector::fromInt(8, 7).srem(BitVector::fromInt(8, -3)),
              BitVector::fromInt(8, 1));
}

TEST(BitVector, EvalIntDivisionWrapsAtInt64Min)
{
    // Host int64 INT64_MIN / -1 is UB; the evaluator must wrap like
    // the bitvector semantics above instead of trapping.
    const int64_t smin = std::numeric_limits<int64_t>::min();
    EXPECT_EQ(evalInt(intBin(IntBinOp::Div, intConst(smin), intConst(-1)),
                      {}),
              smin);
    EXPECT_EQ(evalInt(intBin(IntBinOp::Mod, intConst(smin), intConst(-1)),
                      {}),
              0);
}

// ---- Inline/heap storage boundary ------------------------------------------

/** Widths on both sides of the word size and of the 128-bit inline
 *  bound, two heap widths sharing a word count (130 and 192), and the
 *  maximum. */
const int kBoundaryWidths[] = {1, 63, 64, 65, 127, 128, 129, 130, 192, 4096};

/** Bit-by-bit snapshot, independent of the word storage. */
std::vector<bool>
bitsOf(const BitVector &value)
{
    std::vector<bool> bits;
    for (int i = 0; i < value.width(); ++i)
        bits.push_back(value.getBit(i));
    return bits;
}

TEST(BitVectorStorage, EveryBitSurvivesAtEveryBoundaryWidth)
{
    Rng rng(91);
    for (int w : kBoundaryWidths) {
        BitVector value(w);
        EXPECT_TRUE(value.isZero()) << w;
        std::vector<bool> expect(w);
        for (int i = 0; i < w; ++i) {
            expect[i] = rng.nextBool();
            value.setBit(i, expect[i]);
        }
        EXPECT_EQ(bitsOf(value), expect) << w;
        EXPECT_EQ(BitVector::allOnes(w).bvnot(), BitVector(w)) << w;
        EXPECT_EQ(value.popcount().toUint64(),
                  static_cast<uint64_t>(
                      std::count(expect.begin(), expect.end(), true)))
            << w;
    }
}

TEST(BitVectorStorage, CopyAndMoveInEveryInlineHeapDirection)
{
    Rng rng(92);
    for (int from : kBoundaryWidths) {
        for (int to : kBoundaryWidths) {
            const BitVector source = BitVector::random(from, rng);
            const std::vector<bool> source_bits = bitsOf(source);

            BitVector copied = BitVector::random(to, rng);
            copied = source;
            EXPECT_EQ(copied, source) << from << " -> " << to;
            EXPECT_EQ(copied.hash(), source.hash());
            EXPECT_EQ(bitsOf(source), source_bits) << "copy changed source";

            BitVector moved_from = source;
            BitVector moved = BitVector::random(to, rng);
            moved = std::move(moved_from);
            EXPECT_EQ(moved, source) << from << " -> " << to;
            // A moved-from value stays usable.
            moved_from = BitVector::random(to, rng);
            EXPECT_EQ(moved_from.width(), to);

            const BitVector constructed(source);
            EXPECT_EQ(constructed, source);
            BitVector donor = source;
            const BitVector stolen(std::move(donor));
            EXPECT_EQ(stolen, source);
            donor = source;
            EXPECT_EQ(donor, source);
        }
        // Self-assignment, through an alias so the compiler cannot see
        // it.
        BitVector self = BitVector::random(from, rng);
        const BitVector snapshot = self;
        BitVector &alias = self;
        self = alias;
        EXPECT_EQ(self, snapshot) << from;
        self = std::move(alias);
        EXPECT_EQ(self, snapshot) << from;
    }
}

TEST(BitVectorStorage, SliceAtEveryOffsetMatchesBitReference)
{
    Rng rng(93);
    const int counts[] = {1, 2, 31, 63, 64, 65, 127, 128, 129};
    for (int w : {1, 63, 64, 65, 127, 128, 129, 300}) {
        const BitVector value = BitVector::random(w, rng);
        const std::vector<bool> bits = bitsOf(value);
        for (int low = 0; low < w; ++low) {
            std::vector<int> sizes(std::begin(counts), std::end(counts));
            sizes.push_back(w - low);
            for (int count : sizes) {
                if (low + count > w)
                    continue;
                const BitVector piece = value.extract(low, count);
                ASSERT_EQ(piece.width(), count);
                for (int i = 0; i < count; ++i)
                    ASSERT_EQ(piece.getBit(i), bits[low + i])
                        << "extract w=" << w << " low=" << low
                        << " count=" << count << " bit " << i;

                BitVector target = value;
                const BitVector patch = BitVector::random(count, rng);
                target.setSlice(low, patch);
                for (int i = 0; i < w; ++i) {
                    const bool expect = i >= low && i < low + count
                                            ? patch.getBit(i - low)
                                            : bits[i];
                    ASSERT_EQ(target.getBit(i), expect)
                        << "setSlice w=" << w << " low=" << low
                        << " count=" << count << " bit " << i;
                }
            }
        }
    }
}

TEST(BitVectorStorage, SliceEqualsMatchesExtractComparison)
{
    // sliceEquals(b, low, n) must answer `extract(low, n) ==
    // b.extract(low, n)`. Random pairs almost never agree on a slice,
    // so `b` is `a` with one bit flipped: the slices holding the flip
    // differ and all others agree. `b` is also taken one word wider
    // than `a` (up to the maximum width), so the two operands' word
    // counts differ.
    Rng rng(95);
    for (int w : {1, 63, 64, 65, 127, 128, 129, 130, 192, 300, 4096}) {
        const BitVector a = BitVector::random(w, rng);
        std::vector<int> flips = {-1, 0, w - 1, w / 2};
        for (int edge : {63, 64, 127, 128, 191, 192})
            if (edge < w)
                flips.push_back(edge);
        // Every offset up to 300 bits, then a stride that still visits
        // every bit position within a word.
        const int stride = w > 300 ? 61 : 1;
        for (int flip : flips) {
            for (bool wider : {false, true}) {
                if (wider && w + 64 > BitVector::kMaxWidth)
                    continue;
                BitVector b = wider ? a.zext(w + 64) : a;
                if (flip >= 0)
                    b.setBit(flip, !b.getBit(flip));
                for (int low = 0; low < w; low += stride) {
                    std::vector<int> counts;
                    for (int n = 1; n <= 64; ++n)
                        counts.push_back(n);
                    for (int n : {65, 127, 128, 129, w - low})
                        counts.push_back(n);
                    for (int count : counts) {
                        if (low + count > w)
                            continue;
                        ASSERT_EQ(a.sliceEquals(b, low, count),
                                  a.extract(low, count) ==
                                      b.extract(low, count))
                            << "w=" << w << " flip=" << flip
                            << " wider=" << wider << " low=" << low
                            << " count=" << count;
                        ASSERT_EQ(b.sliceEquals(a, low, count),
                                  a.sliceEquals(b, low, count));
                    }
                }
            }
        }
    }
}

TEST(BitVectorStorage, SliceEqualsRejectsOutOfRangeSlices)
{
    const BitVector narrow(64);
    const BitVector wide(128);
    EXPECT_TRUE(wide.sliceEquals(narrow, 0, 64));
    EXPECT_THROW(wide.sliceEquals(narrow, 1, 64), AssertionError);
    EXPECT_THROW(narrow.sliceEquals(wide, 64, 1), AssertionError);
    EXPECT_THROW(narrow.sliceEquals(narrow, 0, 0), AssertionError);
    EXPECT_THROW(narrow.sliceEquals(narrow, -1, 2), AssertionError);
}

TEST(BitVectorStorage, ConcatAcrossTheInlineBoundMatchesBitReference)
{
    Rng rng(94);
    for (int high_w : kBoundaryWidths) {
        for (int low_w : kBoundaryWidths) {
            if (high_w + low_w > BitVector::kMaxWidth)
                continue;
            const BitVector high = BitVector::random(high_w, rng);
            const BitVector low = BitVector::random(low_w, rng);
            std::vector<bool> expect = bitsOf(low);
            const std::vector<bool> high_bits = bitsOf(high);
            expect.insert(expect.end(), high_bits.begin(), high_bits.end());
            EXPECT_EQ(bitsOf(BitVector::concat(high, low)), expect)
                << high_w << ":" << low_w;
        }
    }
}

namespace {

/** Evaluate a blasted vector on concrete inputs laid out in AIG input
 *  creation order. */
BitVector
evalSym(const sym::Aig &aig, const sym::SymVec &v,
        const std::vector<BitVector> &inputs)
{
    std::vector<uint8_t> bits;
    for (const BitVector &in : inputs)
        for (int i = 0; i < in.width(); ++i)
            bits.push_back(in.getBit(i) ? 1 : 0);
    BitVector out(v.width());
    for (int i = 0; i < v.width(); ++i)
        out.setBit(i, aig.evalLit(v.bits[i], bits));
    return out;
}

} // namespace

TEST(BitVectorSymbolicAgreement, ShiftsAgreeAtEveryAmount)
{
    // Shift-by-BV circuits vs. concrete applyBVBinOp, including the
    // amounts at and past the width.
    const int w = 8;
    Rng rng(0xB1A57);
    for (int trial = 0; trial < 8; ++trial) {
        const BitVector a = BitVector::random(w, rng);
        for (int amount = 0; amount <= 2 * w + 1; ++amount) {
            const BitVector amt = BitVector::fromUint(w, amount);
            sym::Aig aig;
            const sym::SymVec sa = sym::svInputs(aig, w);
            const sym::SymVec sb = sym::svConst(amt);
            for (auto op : {BVBinOp::Shl, BVBinOp::LShr, BVBinOp::AShr}) {
                const sym::SymVec circuit =
                    op == BVBinOp::Shl    ? sym::svShl(aig, sa, sb)
                    : op == BVBinOp::LShr ? sym::svLShr(aig, sa, sb)
                                          : sym::svAShr(aig, sa, sb);
                EXPECT_EQ(evalSym(aig, circuit, {a}),
                          applyBVBinOp(op, a, amt))
                    << "op " << static_cast<int>(op) << " amount "
                    << amount;
            }
        }
    }
}

TEST(BitVectorSymbolicAgreement, DivisionAgreesOnEdgeInputs)
{
    const int w = 6;
    const BitVector smin = BitVector::fromUint(w, 1u << (w - 1));
    std::vector<BitVector> specials = {BitVector(w),
                                       BitVector::fromUint(w, 1),
                                       BitVector::allOnes(w), smin};
    Rng rng(0xD1CE);
    for (int trial = 0; trial < 6; ++trial)
        specials.push_back(BitVector::random(w, rng));
    for (const BitVector &a : specials) {
        for (const BitVector &b : specials) {
            sym::Aig aig;
            const sym::SymVec sa = sym::svInputs(aig, w);
            const sym::SymVec sb = sym::svInputs(aig, w);
            EXPECT_EQ(evalSym(aig, sym::svUdiv(aig, sa, sb), {a, b}),
                      a.udiv(b));
            EXPECT_EQ(evalSym(aig, sym::svUrem(aig, sa, sb), {a, b}),
                      a.urem(b));
            EXPECT_EQ(evalSym(aig, sym::svSdiv(aig, sa, sb), {a, b}),
                      a.sdiv(b));
            EXPECT_EQ(evalSym(aig, sym::svSrem(aig, sa, sb), {a, b}),
                      a.srem(b));
        }
    }
}

TEST(BitVectorSymbolicAgreement, NegationAgreesEverywhereAtSmallWidth)
{
    // Exhaustive at width 5; pins the ~a+1 construction (a regression:
    // an earlier draft computed ~a+0).
    const int w = 5;
    sym::Aig aig;
    const sym::SymVec sa = sym::svInputs(aig, w);
    const sym::SymVec circuit = sym::svNeg(aig, sa);
    for (uint64_t v = 0; v < (1u << w); ++v) {
        const BitVector a = BitVector::fromUint(w, v);
        EXPECT_EQ(evalSym(aig, circuit, {a}), a.neg()) << v;
    }
}

} // namespace
} // namespace hydride
