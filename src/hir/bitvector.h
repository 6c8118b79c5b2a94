/**
 * @file
 * Arbitrary-width bitvector values.
 *
 * BitVector is the single value type flowing through every executable
 * semantics in Hydride: the Hydride IR interpreter, the similarity
 * checking engine, the AutoLLVM IR interpreter used during synthesis,
 * and the target-instruction simulator. Widths range from 1 to 4096
 * bits (HVX uses 2048-bit register pairs; 4096 leaves headroom for
 * widened intermediates).
 *
 * Semantics notes:
 *  - Bit 0 is the least significant bit. Vector element 0 occupies the
 *    low-order bits, matching Intel/ARM/HVX pseudocode conventions.
 *  - Arithmetic wraps modulo 2^width unless the operation name says
 *    otherwise (addSatS, etc.).
 *  - Division by zero yields the all-ones vector for unsigned division
 *    (matching SMT-LIB bvudiv) and the dividend for remainder.
 */
#ifndef HYDRIDE_HIR_BITVECTOR_H
#define HYDRIDE_HIR_BITVECTOR_H

#include <cstdint>
#include <string>

namespace hydride {

class Rng;

/**
 * A fixed-width two's-complement bitvector with value semantics.
 *
 * Values up to kInlineWidth bits (most vector elements and every
 * scaled-down CEGIS register) live inline, so constructing, copying
 * and destroying them never touches the heap. Wider values own a heap
 * array of words.
 */
class BitVector
{
  public:
    /** Maximum supported width in bits. */
    static constexpr int kMaxWidth = 4096;

    /** Widest value stored without a heap allocation. */
    static constexpr int kInlineWidth = 128;

    /** An all-zero bitvector of `width` bits. */
    explicit BitVector(int width = 1);

    BitVector(const BitVector &other);
    BitVector(BitVector &&other) noexcept;
    BitVector &operator=(const BitVector &other);
    BitVector &operator=(BitVector &&other) noexcept;
    ~BitVector();

    /** A bitvector of `width` bits holding `value` (zero-extended). */
    static BitVector fromUint(int width, uint64_t value);

    /** A bitvector of `width` bits holding `value` (sign-extended). */
    static BitVector fromInt(int width, int64_t value);

    /** All-ones bitvector of `width` bits. */
    static BitVector allOnes(int width);

    /** Uniformly random bitvector of `width` bits. */
    static BitVector random(int width, Rng &rng);

    int width() const { return width_; }

    /**
     * The value's 64-bit words, least significant first; bits above
     * width() in the last word are zero. Writers through the mutable
     * overload must keep them zero.
     */
    const uint64_t *data() const { return isInline() ? inline_ : heap_; }
    uint64_t *data() { return isInline() ? inline_ : heap_; }

    /** Bit at position `index` (0 = LSB). */
    bool getBit(int index) const;

    /** Set bit at position `index`. */
    void setBit(int index, bool value);

    /** Low 64 bits as an unsigned integer. */
    uint64_t toUint64() const;

    /** Value as a signed 64-bit integer; width must be <= 64. */
    int64_t toInt64() const;

    /** True if every bit is zero. */
    bool isZero() const;

    /** True if the sign (top) bit is set. */
    bool signBit() const { return getBit(width_ - 1); }

    /** Lowercase hex rendering, most significant digit first. */
    std::string toHex() const;

    bool operator==(const BitVector &other) const;
    bool operator!=(const BitVector &other) const { return !(*this == other); }

    /** Deterministic hash of width and contents. */
    uint64_t hash() const;

    // ---- Width changes and slicing -------------------------------------

    /** Zero-extend (or no-op) to `new_width` >= width(). */
    BitVector zext(int new_width) const;

    /** Sign-extend (or no-op) to `new_width` >= width(). */
    BitVector sext(int new_width) const;

    /** Truncate to `new_width` <= width(). */
    BitVector trunc(int new_width) const;

    /** Extract `count` bits starting at bit `low`. */
    BitVector extract(int low, int count) const;

    /**
     * True when bits [low, low+count) of this value and of `other`
     * are equal: `extract(low, count) == other.extract(low, count)`
     * without building either slice.
     */
    bool sliceEquals(const BitVector &other, int low, int count) const;

    /** Copy `value` into bits [low, low+value.width()). */
    void setSlice(int low, const BitVector &value);

    /** Concatenate: result = high : low (high in upper bits). */
    static BitVector concat(const BitVector &high, const BitVector &low);

    // ---- Bitwise --------------------------------------------------------

    BitVector bvand(const BitVector &other) const;
    BitVector bvor(const BitVector &other) const;
    BitVector bvxor(const BitVector &other) const;
    BitVector bvnot() const;

    /** Logical shift left by `amount` bits (>= 0; saturates to zero). */
    BitVector shl(int amount) const;

    /** Logical shift right. */
    BitVector lshr(int amount) const;

    /** Arithmetic shift right. */
    BitVector ashr(int amount) const;

    /** Rotate the whole bitvector right by `amount` bits. */
    BitVector rotr(int amount) const;

    /** Rotate the whole bitvector left by `amount` bits. */
    BitVector rotl(int amount) const;

    // ---- Arithmetic (modular) -------------------------------------------

    BitVector add(const BitVector &other) const;
    BitVector sub(const BitVector &other) const;
    BitVector neg() const;
    BitVector mul(const BitVector &other) const;

    /** Unsigned division; division by zero yields all-ones. */
    BitVector udiv(const BitVector &other) const;

    /** Unsigned remainder; division by zero yields the dividend. */
    BitVector urem(const BitVector &other) const;

    /** Signed division (round toward zero). */
    BitVector sdiv(const BitVector &other) const;

    /** Signed remainder (sign follows the dividend). */
    BitVector srem(const BitVector &other) const;

    // ---- Saturating arithmetic -------------------------------------------

    BitVector addSatS(const BitVector &other) const;
    BitVector addSatU(const BitVector &other) const;
    BitVector subSatS(const BitVector &other) const;
    BitVector subSatU(const BitVector &other) const;

    /**
     * Saturate this value (interpreted signed at full width) into
     * `to_width` bits with signed saturation.
     */
    BitVector satNarrowS(int to_width) const;

    /** Saturate (signed input) into `to_width` bits, unsigned range. */
    BitVector satNarrowU(int to_width) const;

    // ---- Comparisons ------------------------------------------------------

    bool ult(const BitVector &other) const;
    bool ule(const BitVector &other) const;
    bool slt(const BitVector &other) const;
    bool sle(const BitVector &other) const;

    // ---- Min/max/abs/average ----------------------------------------------

    BitVector minS(const BitVector &other) const;
    BitVector maxS(const BitVector &other) const;
    BitVector minU(const BitVector &other) const;
    BitVector maxU(const BitVector &other) const;

    /** |x| with wraparound on the most negative value. */
    BitVector absS() const;

    /** Unsigned rounding average: (a + b + 1) >> 1. */
    BitVector avgU(const BitVector &other) const;

    /** Signed rounding average. */
    BitVector avgS(const BitVector &other) const;

    /** Number of set bits, as a bitvector of the same width. */
    BitVector popcount() const;

  private:
    bool isInline() const { return width_ <= kInlineWidth; }
    int words() const { return (width_ + 63) / 64; }
    void clearUnusedBits();

    int width_;
    union {
        uint64_t inline_[kInlineWidth / 64];
        uint64_t *heap_;
    };
};

} // namespace hydride

#endif // HYDRIDE_HIR_BITVECTOR_H
