#include "hir/bitvector.h"

#include "support/error.h"
#include "support/rng.h"

#include <algorithm>
#include <cstring>

namespace hydride {

namespace {

/** The low `bits` bits set, for 0 <= bits <= 64. */
uint64_t
lowMask(int bits)
{
    return bits >= 64 ? ~0ull : (1ull << bits) - 1;
}

/** Sign-extend the low `bits` bits of `value` to 64. */
int64_t
signExtend(uint64_t value, int bits)
{
    const int shift = 64 - bits;
    return static_cast<int64_t>(value << shift) >> shift;
}

/** Write the `bits`-bit value `value` into `words` at bit `pos`. */
void
writeBits(uint64_t *words, int pos, uint64_t value, int bits)
{
    const uint64_t mask = lowMask(bits);
    const int word = pos / 64;
    const int shift = pos % 64;
    words[word] = (words[word] & ~(mask << shift)) | (value << shift);
    if (shift != 0 && (mask >> (64 - shift)) != 0) {
        words[word + 1] = (words[word + 1] & ~(mask >> (64 - shift))) |
                          (value >> (64 - shift));
    }
}

/** Set bits [from, to) of `words`. */
void
fillOnes(uint64_t *words, int from, int to)
{
    while (from < to) {
        const int bits = std::min(64 - from % 64, to - from);
        words[from / 64] |= lowMask(bits) << (from % 64);
        from += bits;
    }
}

/** words <<= 1 over `n` words (the caller clears bits above width). */
void
shiftLeftOne(uint64_t *words, int n)
{
    for (int w = n - 1; w > 0; --w)
        words[w] = (words[w] << 1) | (words[w - 1] >> 63);
    words[0] <<= 1;
}

/** a -= b over `n` words, modulo 2^(64 n). */
void
subInPlace(uint64_t *a, const uint64_t *b, int n)
{
    uint64_t borrow = 0;
    for (int w = 0; w < n; ++w) {
        const uint64_t diff = a[w] - b[w];
        const uint64_t next = (a[w] < b[w]) | (diff < borrow);
        a[w] = diff - borrow;
        borrow = next;
    }
}

/** Unsigned a < b over `n` words. */
bool
lessThan(const uint64_t *a, const uint64_t *b, int n)
{
    for (int w = n - 1; w >= 0; --w)
        if (a[w] != b[w])
            return a[w] < b[w];
    return false;
}

} // namespace

BitVector::BitVector(int width)
    : width_(width)
{
    HYD_ASSERT(width >= 1 && width <= kMaxWidth, "bitvector width out of range");
    if (isInline()) {
        inline_[0] = 0;
        inline_[1] = 0;
    } else {
        heap_ = new uint64_t[words()]();
    }
}

BitVector::BitVector(const BitVector &other)
    : width_(other.width_)
{
    if (isInline()) {
        inline_[0] = other.inline_[0];
        inline_[1] = other.inline_[1];
    } else {
        heap_ = new uint64_t[words()];
        std::memcpy(heap_, other.heap_, words() * sizeof(uint64_t));
    }
}

BitVector::BitVector(BitVector &&other) noexcept
    : width_(other.width_)
{
    if (isInline()) {
        inline_[0] = other.inline_[0];
        inline_[1] = other.inline_[1];
    } else {
        heap_ = other.heap_;
        // Leave the source a valid one-bit zero.
        other.width_ = 1;
        other.inline_[0] = 0;
        other.inline_[1] = 0;
    }
}

BitVector &
BitVector::operator=(const BitVector &other)
{
    if (this == &other)
        return *this;
    if (!isInline() && !other.isInline() && words() == other.words()) {
        std::memcpy(heap_, other.heap_, words() * sizeof(uint64_t));
        width_ = other.width_;
        return *this;
    }
    uint64_t *fresh = nullptr;
    if (!other.isInline()) {
        fresh = new uint64_t[other.words()];
        std::memcpy(fresh, other.heap_, other.words() * sizeof(uint64_t));
    }
    if (!isInline())
        delete[] heap_;
    width_ = other.width_;
    if (fresh) {
        heap_ = fresh;
    } else {
        inline_[0] = other.inline_[0];
        inline_[1] = other.inline_[1];
    }
    return *this;
}

BitVector &
BitVector::operator=(BitVector &&other) noexcept
{
    if (this == &other)
        return *this;
    if (!isInline())
        delete[] heap_;
    width_ = other.width_;
    if (isInline()) {
        inline_[0] = other.inline_[0];
        inline_[1] = other.inline_[1];
    } else {
        heap_ = other.heap_;
        other.width_ = 1;
        other.inline_[0] = 0;
        other.inline_[1] = 0;
    }
    return *this;
}

BitVector::~BitVector()
{
    if (!isInline())
        delete[] heap_;
}

BitVector
BitVector::fromUint(int width, uint64_t value)
{
    BitVector bv(width);
    bv.data()[0] = value;
    bv.clearUnusedBits();
    return bv;
}

BitVector
BitVector::fromInt(int width, int64_t value)
{
    BitVector bv(width);
    uint64_t *d = bv.data();
    const uint64_t pattern = value < 0 ? ~0ull : 0ull;
    for (int w = 1; w < bv.words(); ++w)
        d[w] = pattern;
    d[0] = static_cast<uint64_t>(value);
    bv.clearUnusedBits();
    return bv;
}

BitVector
BitVector::allOnes(int width)
{
    BitVector bv(width);
    uint64_t *d = bv.data();
    for (int w = 0; w < bv.words(); ++w)
        d[w] = ~0ull;
    bv.clearUnusedBits();
    return bv;
}

BitVector
BitVector::random(int width, Rng &rng)
{
    BitVector bv(width);
    uint64_t *d = bv.data();
    for (int w = 0; w < bv.words(); ++w)
        d[w] = rng.next();
    bv.clearUnusedBits();
    return bv;
}

void
BitVector::clearUnusedBits()
{
    const int used = width_ % 64;
    if (used != 0)
        data()[words() - 1] &= (~0ull >> (64 - used));
}

bool
BitVector::getBit(int index) const
{
    HYD_ASSERT(index >= 0 && index < width_, "bit index out of range");
    return (data()[index / 64] >> (index % 64)) & 1;
}

void
BitVector::setBit(int index, bool value)
{
    HYD_ASSERT(index >= 0 && index < width_, "bit index out of range");
    const uint64_t mask = 1ull << (index % 64);
    if (value)
        data()[index / 64] |= mask;
    else
        data()[index / 64] &= ~mask;
}

uint64_t
BitVector::toUint64() const
{
    return data()[0];
}

int64_t
BitVector::toInt64() const
{
    HYD_ASSERT(width_ <= 64, "toInt64 requires width <= 64");
    return signExtend(data()[0], width_);
}

bool
BitVector::isZero() const
{
    const uint64_t *d = data();
    for (int w = 0; w < words(); ++w)
        if (d[w] != 0)
            return false;
    return true;
}

std::string
BitVector::toHex() const
{
    static const char digits[] = "0123456789abcdef";
    const uint64_t *d = data();
    const int nibbles = (width_ + 3) / 4;
    std::string out(nibbles, '0');
    for (int n = 0; n < nibbles; ++n) {
        const int bit = n * 4;
        uint64_t nib = (d[bit / 64] >> (bit % 64)) & 0xF;
        if (bit % 64 > 60 && bit / 64 + 1 < words())
            nib |= (d[bit / 64 + 1] << (64 - bit % 64)) & 0xF;
        out[nibbles - 1 - n] = digits[nib];
    }
    return out;
}

bool
BitVector::operator==(const BitVector &other) const
{
    return width_ == other.width_ &&
           std::memcmp(data(), other.data(), words() * sizeof(uint64_t)) == 0;
}

uint64_t
BitVector::hash() const
{
    const uint64_t *d = data();
    uint64_t h = 0x9E3779B97F4A7C15ull ^ static_cast<uint64_t>(width_);
    for (int w = 0; w < words(); ++w)
        h ^= d[w] + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    return h;
}

BitVector
BitVector::zext(int new_width) const
{
    HYD_ASSERT(new_width >= width_, "zext must not shrink");
    BitVector out(new_width);
    std::memcpy(out.data(), data(), words() * sizeof(uint64_t));
    return out;
}

BitVector
BitVector::sext(int new_width) const
{
    HYD_ASSERT(new_width >= width_, "sext must not shrink");
    BitVector out(new_width);
    std::memcpy(out.data(), data(), words() * sizeof(uint64_t));
    if (signBit()) {
        fillOnes(out.data(), width_, new_width);
    }
    return out;
}

BitVector
BitVector::trunc(int new_width) const
{
    HYD_ASSERT(new_width <= width_, "trunc must not grow");
    BitVector out(new_width);
    std::memcpy(out.data(), data(), out.words() * sizeof(uint64_t));
    out.clearUnusedBits();
    return out;
}

BitVector
BitVector::extract(int low, int count) const
{
    HYD_ASSERT(low >= 0 && count >= 1 && low + count <= width_,
               "extract slice out of range");
    BitVector out(count);
    const uint64_t *d = data();
    uint64_t *od = out.data();
    const int word_shift = low / 64;
    const int bit_shift = low % 64;
    for (int w = 0; w < out.words(); ++w) {
        uint64_t value = d[word_shift + w] >> bit_shift;
        if (bit_shift != 0 && word_shift + w + 1 < words())
            value |= d[word_shift + w + 1] << (64 - bit_shift);
        od[w] = value;
    }
    out.clearUnusedBits();
    return out;
}

bool
BitVector::sliceEquals(const BitVector &other, int low, int count) const
{
    HYD_ASSERT(low >= 0 && count >= 1 && low + count <= width_ &&
                   low + count <= other.width_,
               "sliceEquals slice out of range");
    const uint64_t *a = data();
    const uint64_t *b = other.data();
    for (int pos = low, end = low + count; pos < end;) {
        const int bits = std::min(64 - pos % 64, end - pos);
        if ((a[pos / 64] ^ b[pos / 64]) & (lowMask(bits) << (pos % 64)))
            return false;
        pos += bits;
    }
    return true;
}

void
BitVector::setSlice(int low, const BitVector &value)
{
    HYD_ASSERT(low >= 0 && low + value.width_ <= width_,
               "setSlice out of range");
    uint64_t *d = data();
    const uint64_t *vd = value.data();
    for (int w = 0; w < value.words(); ++w)
        writeBits(d, low + 64 * w, vd[w],
                  std::min(64, value.width_ - 64 * w));
}

BitVector
BitVector::concat(const BitVector &high, const BitVector &low)
{
    BitVector out(high.width_ + low.width_);
    std::memcpy(out.data(), low.data(), low.words() * sizeof(uint64_t));
    out.setSlice(low.width_, high);
    return out;
}

BitVector
BitVector::bvand(const BitVector &other) const
{
    HYD_ASSERT(width_ == other.width_, "bvand width mismatch");
    BitVector out(width_);
    for (int w = 0; w < words(); ++w)
        out.data()[w] = data()[w] & other.data()[w];
    return out;
}

BitVector
BitVector::bvor(const BitVector &other) const
{
    HYD_ASSERT(width_ == other.width_, "bvor width mismatch");
    BitVector out(width_);
    for (int w = 0; w < words(); ++w)
        out.data()[w] = data()[w] | other.data()[w];
    return out;
}

BitVector
BitVector::bvxor(const BitVector &other) const
{
    HYD_ASSERT(width_ == other.width_, "bvxor width mismatch");
    BitVector out(width_);
    for (int w = 0; w < words(); ++w)
        out.data()[w] = data()[w] ^ other.data()[w];
    return out;
}

BitVector
BitVector::bvnot() const
{
    BitVector out(width_);
    for (int w = 0; w < words(); ++w)
        out.data()[w] = ~data()[w];
    out.clearUnusedBits();
    return out;
}

BitVector
BitVector::shl(int amount) const
{
    HYD_ASSERT(amount >= 0, "negative shift");
    BitVector out(width_);
    if (amount >= width_)
        return out;
    const uint64_t *d = data();
    uint64_t *od = out.data();
    const int word_shift = amount / 64;
    const int bit_shift = amount % 64;
    for (int w = words() - 1; w >= word_shift; --w) {
        uint64_t value = d[w - word_shift] << bit_shift;
        if (bit_shift != 0 && w - word_shift >= 1)
            value |= d[w - word_shift - 1] >> (64 - bit_shift);
        od[w] = value;
    }
    out.clearUnusedBits();
    return out;
}

BitVector
BitVector::lshr(int amount) const
{
    HYD_ASSERT(amount >= 0, "negative shift");
    BitVector out(width_);
    if (amount >= width_)
        return out;
    const uint64_t *d = data();
    uint64_t *od = out.data();
    const int word_shift = amount / 64;
    const int bit_shift = amount % 64;
    for (int w = 0; w + word_shift < words(); ++w) {
        uint64_t value = d[w + word_shift] >> bit_shift;
        if (bit_shift != 0 && w + word_shift + 1 < words())
            value |= d[w + word_shift + 1] << (64 - bit_shift);
        od[w] = value;
    }
    return out;
}

BitVector
BitVector::ashr(int amount) const
{
    HYD_ASSERT(amount >= 0, "negative shift");
    if (!signBit())
        return lshr(amount);
    if (amount >= width_)
        return allOnes(width_);
    BitVector out = lshr(amount);
    fillOnes(out.data(), width_ - amount, width_);
    return out;
}

BitVector
BitVector::rotr(int amount) const
{
    amount = ((amount % width_) + width_) % width_;
    if (amount == 0)
        return *this;
    return lshr(amount).bvor(shl(width_ - amount));
}

BitVector
BitVector::rotl(int amount) const
{
    return rotr(width_ - (((amount % width_) + width_) % width_));
}

BitVector
BitVector::add(const BitVector &other) const
{
    HYD_ASSERT(width_ == other.width_, "add width mismatch");
    BitVector out(width_);
    const uint64_t *a = data();
    const uint64_t *b = other.data();
    uint64_t *od = out.data();
    unsigned __int128 carry = 0;
    for (int w = 0; w < words(); ++w) {
        const unsigned __int128 sum = carry + a[w] + b[w];
        od[w] = static_cast<uint64_t>(sum);
        carry = sum >> 64;
    }
    out.clearUnusedBits();
    return out;
}

BitVector
BitVector::sub(const BitVector &other) const
{
    HYD_ASSERT(width_ == other.width_, "sub width mismatch");
    BitVector out = *this;
    subInPlace(out.data(), other.data(), words());
    out.clearUnusedBits();
    return out;
}

BitVector
BitVector::neg() const
{
    return BitVector(width_).sub(*this);
}

BitVector
BitVector::mul(const BitVector &other) const
{
    HYD_ASSERT(width_ == other.width_, "mul width mismatch");
    BitVector out(width_);
    const uint64_t *a = data();
    const uint64_t *b = other.data();
    uint64_t *acc = out.data();
    const int n = words();
    for (int i = 0; i < n; ++i) {
        if (a[i] == 0)
            continue;
        unsigned __int128 carry = 0;
        for (int j = 0; i + j < n; ++j) {
            unsigned __int128 cur = acc[i + j];
            cur += static_cast<unsigned __int128>(a[i]) * b[j];
            cur += carry;
            acc[i + j] = static_cast<uint64_t>(cur);
            carry = cur >> 64;
        }
    }
    out.clearUnusedBits();
    return out;
}

BitVector
BitVector::udiv(const BitVector &other) const
{
    HYD_ASSERT(width_ == other.width_, "udiv width mismatch");
    if (other.isZero())
        return allOnes(width_);
    if (width_ <= 64)
        return fromUint(width_, data()[0] / other.data()[0]);
    // Restoring long division, a bit at a time, in place.
    BitVector quotient(width_);
    BitVector remainder(width_);
    uint64_t *r = remainder.data();
    for (int bit = width_ - 1; bit >= 0; --bit) {
        shiftLeftOne(r, words());
        remainder.clearUnusedBits();
        r[0] |= getBit(bit) ? 1 : 0;
        if (!lessThan(r, other.data(), words())) {
            subInPlace(r, other.data(), words());
            quotient.setBit(bit, true);
        }
    }
    return quotient;
}

BitVector
BitVector::urem(const BitVector &other) const
{
    HYD_ASSERT(width_ == other.width_, "urem width mismatch");
    if (other.isZero())
        return *this;
    if (width_ <= 64)
        return fromUint(width_, data()[0] % other.data()[0]);
    return sub(udiv(other).mul(other));
}

BitVector
BitVector::sdiv(const BitVector &other) const
{
    const bool neg_a = signBit();
    const bool neg_b = other.signBit();
    if (width_ <= 64 && width_ == other.width_) {
        const uint64_t mask = lowMask(width_);
        const uint64_t mag_a = neg_a ? (0 - data()[0]) & mask : data()[0];
        const uint64_t mag_b =
            neg_b ? (0 - other.data()[0]) & mask : other.data()[0];
        const uint64_t q = mag_b == 0 ? mask : mag_a / mag_b;
        return fromUint(width_, neg_a != neg_b ? (0 - q) & mask : q);
    }
    const BitVector mag_a = neg_a ? neg() : *this;
    const BitVector mag_b = neg_b ? other.neg() : other;
    BitVector q = mag_a.udiv(mag_b);
    return (neg_a != neg_b) ? q.neg() : q;
}

BitVector
BitVector::srem(const BitVector &other) const
{
    const bool neg_a = signBit();
    if (width_ <= 64 && width_ == other.width_) {
        const uint64_t mask = lowMask(width_);
        const uint64_t mag_a = neg_a ? (0 - data()[0]) & mask : data()[0];
        const uint64_t mag_b = other.signBit()
                                   ? (0 - other.data()[0]) & mask
                                   : other.data()[0];
        const uint64_t r = mag_b == 0 ? mag_a : mag_a % mag_b;
        return fromUint(width_, neg_a ? (0 - r) & mask : r);
    }
    const BitVector mag_a = neg_a ? neg() : *this;
    const BitVector mag_b = other.signBit() ? other.neg() : other;
    BitVector r = mag_a.urem(mag_b);
    return neg_a ? r.neg() : r;
}

BitVector
BitVector::addSatS(const BitVector &other) const
{
    const BitVector wide = sext(width_ + 1).add(other.sext(width_ + 1));
    return wide.satNarrowS(width_);
}

BitVector
BitVector::addSatU(const BitVector &other) const
{
    const BitVector wide = zext(width_ + 1).add(other.zext(width_ + 1));
    if (wide.getBit(width_))
        return allOnes(width_);
    return wide.trunc(width_);
}

BitVector
BitVector::subSatS(const BitVector &other) const
{
    const BitVector wide = sext(width_ + 1).sub(other.sext(width_ + 1));
    return wide.satNarrowS(width_);
}

BitVector
BitVector::subSatU(const BitVector &other) const
{
    if (ult(other))
        return BitVector(width_);
    return sub(other);
}

BitVector
BitVector::satNarrowS(int to_width) const
{
    HYD_ASSERT(to_width <= width_, "satNarrowS must narrow");
    const BitVector max = allOnes(width_).lshr(width_ - to_width + 1);
    const BitVector min = max.bvnot();
    if (slt(min))
        return min.trunc(to_width);
    if (max.slt(*this))
        return max.trunc(to_width);
    return trunc(to_width);
}

BitVector
BitVector::satNarrowU(int to_width) const
{
    HYD_ASSERT(to_width <= width_, "satNarrowU must narrow");
    if (signBit())
        return BitVector(to_width);
    // Non-negative: it saturates iff a bit at or above `to_width` is
    // set.
    const uint64_t *d = data();
    const int first = to_width / 64;
    for (int w = first; w < words(); ++w) {
        const uint64_t above =
            w == first ? d[w] & ~lowMask(to_width % 64) : d[w];
        if (above != 0)
            return allOnes(to_width);
    }
    return trunc(to_width);
}

bool
BitVector::ult(const BitVector &other) const
{
    HYD_ASSERT(width_ == other.width_, "ult width mismatch");
    return lessThan(data(), other.data(), words());
}

bool
BitVector::ule(const BitVector &other) const
{
    return !other.ult(*this);
}

bool
BitVector::slt(const BitVector &other) const
{
    const bool sign_a = signBit();
    const bool sign_b = other.signBit();
    if (sign_a != sign_b)
        return sign_a;
    return ult(other);
}

bool
BitVector::sle(const BitVector &other) const
{
    return !other.slt(*this);
}

BitVector
BitVector::minS(const BitVector &other) const
{
    return slt(other) ? *this : other;
}

BitVector
BitVector::maxS(const BitVector &other) const
{
    return slt(other) ? other : *this;
}

BitVector
BitVector::minU(const BitVector &other) const
{
    return ult(other) ? *this : other;
}

BitVector
BitVector::maxU(const BitVector &other) const
{
    return ult(other) ? other : *this;
}

BitVector
BitVector::absS() const
{
    return signBit() ? neg() : *this;
}

BitVector
BitVector::avgU(const BitVector &other) const
{
    BitVector wide = zext(width_ + 1).add(other.zext(width_ + 1));
    wide = wide.add(fromUint(width_ + 1, 1));
    return wide.lshr(1).trunc(width_);
}

BitVector
BitVector::avgS(const BitVector &other) const
{
    BitVector wide = sext(width_ + 1).add(other.sext(width_ + 1));
    wide = wide.add(fromUint(width_ + 1, 1));
    return wide.ashr(1).trunc(width_);
}

BitVector
BitVector::popcount() const
{
    int count = 0;
    for (int w = 0; w < words(); ++w)
        count += __builtin_popcountll(data()[w]);
    return fromUint(width_, static_cast<uint64_t>(count));
}

} // namespace hydride
