#include "hir/lane_kernel.h"

#include "support/error.h"

#include <algorithm>
#include <unordered_map>

namespace hydride {

namespace {

/**
 * Tape operation codes. Every operation writes register `pc` (its own
 * tape index); operands name earlier registers. Registers hold values
 * zero-extended to 64 bits, so bits above an operation's width are
 * always zero.
 *
 *   Const    r = a | b << 32
 *   Load     r = bits [a, a + width) of argument `arg`
 *   Slice    r = bits [b, b + width) of r[a]
 *   Concat   r = r[a] << aux | r[b]             (aux = low part width)
 *   binary   r = r[a] op r[b]                   (width-bit operands)
 *   unary    r = op r[a]
 *   SExt     r = r[a] sign-extended from aux bits
 *   SatNarrowS/U  r = r[a] (aux bits, signed) saturated to width
 *   compare  r = r[a] op r[b] (aux-bit operands), one bit
 *   Select   r = r[a] != 0 ? r[b] : r[c]
 *   Store    output bits [b, b + width) = r[a]
 */
enum Code : uint8_t {
    kConst, kLoad, kSlice, kConcat,
    kAdd, kSub, kMul, kUDiv, kURem, kAnd, kOr, kXor, kShl, kLShr, kAShr,
    kAddSatS, kAddSatU, kSubSatS, kSubSatU, kMinS, kMaxS, kMinU, kMaxU,
    kAvgU, kAvgS,
    kNot, kNeg, kAbsS, kPopcount,
    kSExt, kSatNarrowS, kSatNarrowU,
    kEq, kNe, kUlt, kUle, kSlt, kSle,
    kSelect, kStore,
};

/** Longest tape compile() emits; longer templates stay interpreted. */
constexpr size_t kMaxTape = 1u << 16;

/** Most bitvector arguments a compiled template may take. */
constexpr size_t kMaxArgs = 8;

/** Thrown by the builder when a template must stay interpreted. */
struct Unsupported
{
};

uint64_t
maskOf(int width)
{
    return ~0ull >> (64 - width);
}

int64_t
signed64(uint64_t value, int width)
{
    const int shift = 64 - width;
    return static_cast<int64_t>(value << shift) >> shift;
}

/** Clamp a signed value to the `width`-bit two's-complement range. */
uint64_t
saturateSigned(__int128 value, int width)
{
    const __int128 max = (static_cast<__int128>(1) << (width - 1)) - 1;
    const __int128 min = -max - 1;
    value = std::max(min, std::min(max, value));
    return static_cast<uint64_t>(value) & maskOf(width);
}

Code
binCode(BVBinOp op)
{
    switch (op) {
      case BVBinOp::Add: return kAdd;
      case BVBinOp::Sub: return kSub;
      case BVBinOp::Mul: return kMul;
      case BVBinOp::UDiv: return kUDiv;
      case BVBinOp::URem: return kURem;
      case BVBinOp::And: return kAnd;
      case BVBinOp::Or: return kOr;
      case BVBinOp::Xor: return kXor;
      case BVBinOp::Shl: return kShl;
      case BVBinOp::LShr: return kLShr;
      case BVBinOp::AShr: return kAShr;
      case BVBinOp::AddSatS: return kAddSatS;
      case BVBinOp::AddSatU: return kAddSatU;
      case BVBinOp::SubSatS: return kSubSatS;
      case BVBinOp::SubSatU: return kSubSatU;
      case BVBinOp::MinS: return kMinS;
      case BVBinOp::MaxS: return kMaxS;
      case BVBinOp::MinU: return kMinU;
      case BVBinOp::MaxU: return kMaxU;
      case BVBinOp::AvgU: return kAvgU;
      case BVBinOp::AvgS: return kAvgS;
    }
    throw Unsupported{};
}

/**
 * A value during compilation: `width` bits formed by concatenating
 * `pieces`, least significant first. A piece is a bit range of an
 * argument (arg >= 0) or of a register. Argument pieces let wide
 * registers and their concatenations flow to the <= 64-bit extracts
 * that read them without ever being copied.
 */
struct Piece
{
    int arg;
    uint32_t reg;
    int offset;
    int width;
};

struct Val
{
    int width = 0;
    std::vector<Piece> pieces;
};

void
appendPiece(Val &val, const Piece &piece)
{
    if (!val.pieces.empty()) {
        Piece &last = val.pieces.back();
        if (last.arg == piece.arg && (last.arg >= 0 || last.reg == piece.reg) &&
            last.offset + last.width == piece.offset) {
            last.width += piece.width;
            return;
        }
    }
    val.pieces.push_back(piece);
}

/** Lowers one element of a template at a time onto the tape. */
class Builder
{
  public:
    Builder(std::vector<LaneKernel::Op> &tape,
            const std::vector<int> &arg_widths, EvalEnv &env)
        : tape_(tape), arg_widths_(arg_widths), env_(env)
    {
    }

    /** Append the ops computing `tmpl` at the current loop indices
     *  and storing its `width`-bit value at output bit `out_low`. */
    void
    element(const ExprPtr &tmpl, int out_low, int width)
    {
        memo_.clear();
        const Val value = lower(tmpl);
        if (value.width != width)
            throw Unsupported{};
        const uint32_t reg = materialize(value);
        emit(kStore, width, 0, 0, reg, static_cast<uint32_t>(out_low), 0);
    }

  private:
    uint32_t
    emit(Code code, int width, int aux, int arg, uint32_t a, uint32_t b,
         uint32_t c)
    {
        if (tape_.size() >= kMaxTape)
            throw Unsupported{};
        tape_.push_back({code, static_cast<uint8_t>(width),
                         static_cast<uint8_t>(aux),
                         static_cast<uint8_t>(arg), a, b, c});
        return static_cast<uint32_t>(tape_.size() - 1);
    }

    static Val
    regVal(uint32_t reg, int width)
    {
        return Val{width, {Piece{-1, reg, 0, width}}};
    }

    /** Evaluate an index expression exactly as the interpreter does
     *  (including its narrowing to int). */
    int
    intOf(const ExprPtr &expr)
    {
        return static_cast<int>(evalInt(expr, env_));
    }

    /** The register holding `value`; values wider than 64 bits cannot
     *  live in one. */
    uint32_t
    materialize(const Val &value)
    {
        if (value.width > 64)
            throw Unsupported{};
        uint32_t acc = 0;
        int acc_width = 0;
        for (auto it = value.pieces.rbegin(); it != value.pieces.rend();
             ++it) {
            const uint32_t part = piece(*it);
            if (acc_width == 0) {
                acc = part;
            } else {
                acc = emit(kConcat, acc_width + it->width, it->width, 0,
                           acc, part, 0);
            }
            acc_width += it->width;
        }
        return acc;
    }

    uint32_t
    piece(const Piece &p)
    {
        if (p.arg >= 0) {
            return emit(kLoad, p.width, 0, p.arg,
                        static_cast<uint32_t>(p.offset), 0, 0);
        }
        // A register's bits above its own width are zero, so a piece
        // covering all of them (a zero-extension) is the register.
        if (p.offset == 0 && p.width >= tape_[p.reg].width)
            return p.reg;
        return emit(kSlice, p.width, 0, 0, p.reg,
                    static_cast<uint32_t>(p.offset), 0);
    }

    /** The register of a <= 64-bit value. */
    uint32_t
    narrow(const ExprPtr &expr, int &width)
    {
        const Val value = lower(expr);
        width = value.width;
        return materialize(value);
    }

    static Val
    slice(const Val &value, int low, int count)
    {
        Val out;
        out.width = count;
        int pos = 0;
        for (const Piece &p : value.pieces) {
            const int lo = std::max(low, pos);
            const int hi = std::min(low + count, pos + p.width);
            if (lo < hi)
                appendPiece(out, Piece{p.arg, p.reg, p.offset + (lo - pos),
                                       hi - lo});
            pos += p.width;
        }
        return out;
    }

    Val
    lower(const ExprPtr &expr)
    {
        const auto it = memo_.find(expr.get());
        if (it != memo_.end())
            return it->second;
        Val value = lowerNode(expr);
        memo_.emplace(expr.get(), value);
        return value;
    }

    Val
    lowerNode(const ExprPtr &expr)
    {
        switch (expr->kind) {
          case ExprKind::ArgBV: {
            if (expr->value < 0 ||
                expr->value >= static_cast<int64_t>(arg_widths_.size()))
                throw Unsupported{};
            const int arg = static_cast<int>(expr->value);
            return Val{arg_widths_[arg], {Piece{arg, 0, 0, arg_widths_[arg]}}};
          }
          case ExprKind::BVConst: {
            const int width = intOf(expr->kids[0]);
            const int64_t value = evalInt(expr->kids[1], env_);
            if (width < 1 || width > 64)
                throw Unsupported{};
            const uint64_t bits =
                static_cast<uint64_t>(value) & maskOf(width);
            return regVal(emit(kConst, width, 0, 0,
                               static_cast<uint32_t>(bits),
                               static_cast<uint32_t>(bits >> 32), 0),
                          width);
          }
          case ExprKind::BVBin: {
            int wa = 0;
            int wb = 0;
            const uint32_t a = narrow(expr->kids[0], wa);
            const uint32_t b = narrow(expr->kids[1], wb);
            if (wa != wb)
                throw Unsupported{};
            const Code code = binCode(static_cast<BVBinOp>(expr->value));
            return regVal(emit(code, wa, 0, 0, a, b, 0), wa);
          }
          case ExprKind::BVUn: {
            int width = 0;
            const uint32_t a = narrow(expr->kids[0], width);
            Code code = kNot;
            switch (static_cast<BVUnOp>(expr->value)) {
              case BVUnOp::Not: code = kNot; break;
              case BVUnOp::Neg: code = kNeg; break;
              case BVUnOp::AbsS: code = kAbsS; break;
              case BVUnOp::Popcount: code = kPopcount; break;
            }
            return regVal(emit(code, width, 0, 0, a, 0, 0), width);
          }
          case ExprKind::BVCast:
            return lowerCast(expr);
          case ExprKind::Extract: {
            const Val value = lower(expr->kids[0]);
            const int low = intOf(expr->kids[1]);
            const int count = intOf(expr->kids[2]);
            if (low < 0 || count < 1 ||
                static_cast<int64_t>(low) + count > value.width)
                throw Unsupported{};
            return slice(value, low, count);
          }
          case ExprKind::Concat: {
            const Val high = lower(expr->kids[0]);
            const Val low = lower(expr->kids[1]);
            Val out = low;
            out.width = high.width + low.width;
            if (out.width > BitVector::kMaxWidth)
                throw Unsupported{};
            for (const Piece &p : high.pieces)
                appendPiece(out, p);
            return out;
          }
          case ExprKind::BVCmp: {
            int wa = 0;
            int wb = 0;
            const uint32_t a = narrow(expr->kids[0], wa);
            const uint32_t b = narrow(expr->kids[1], wb);
            if (wa != wb)
                throw Unsupported{};
            Code code = kEq;
            switch (static_cast<BVCmpOp>(expr->value)) {
              case BVCmpOp::Eq: code = kEq; break;
              case BVCmpOp::Ne: code = kNe; break;
              case BVCmpOp::Ult: code = kUlt; break;
              case BVCmpOp::Ule: code = kUle; break;
              case BVCmpOp::Slt: code = kSlt; break;
              case BVCmpOp::Sle: code = kSle; break;
            }
            return regVal(emit(code, 1, wa, 0, a, b, 0), 1);
          }
          case ExprKind::Select: {
            int wc = 0;
            int wt = 0;
            int we = 0;
            const uint32_t cond = narrow(expr->kids[0], wc);
            const uint32_t then_r = narrow(expr->kids[1], wt);
            const uint32_t else_r = narrow(expr->kids[2], we);
            if (wt != we)
                throw Unsupported{};
            return regVal(emit(kSelect, wt, 0, 0, cond, then_r, else_r),
                          wt);
          }
          default:
            // Holes, and Int-typed nodes in a BV position.
            throw Unsupported{};
        }
    }

    Val
    lowerCast(const ExprPtr &expr)
    {
        const Val value = lower(expr->kids[0]);
        const int width = intOf(expr->kids[1]);
        const auto op = static_cast<BVCastOp>(expr->value);
        if (op == BVCastOp::Trunc) {
            if (width < 1 || width > value.width)
                throw Unsupported{};
            return slice(value, 0, width);
        }
        if (width < 1 || width > 64)
            throw Unsupported{};
        const uint32_t a = materialize(value);
        switch (op) {
          case BVCastOp::ZExt:
            if (width < value.width)
                throw Unsupported{};
            return regVal(a, width);
          case BVCastOp::SExt:
            if (width < value.width)
                throw Unsupported{};
            return regVal(emit(kSExt, width, value.width, 0, a, 0, 0),
                          width);
          case BVCastOp::SatNarrowS:
          case BVCastOp::SatNarrowU:
            if (width > value.width)
                throw Unsupported{};
            return regVal(emit(op == BVCastOp::SatNarrowS ? kSatNarrowS
                                                          : kSatNarrowU,
                               width, value.width, 0, a, 0, 0),
                          width);
          case BVCastOp::Trunc:
            break;
        }
        throw Unsupported{};
    }

    std::vector<LaneKernel::Op> &tape_;
    const std::vector<int> &arg_widths_;
    EvalEnv &env_;
    /** Per-element common subexpressions (templates are DAGs). */
    std::unordered_map<const Expr *, Val> memo_;
};

} // namespace

std::unique_ptr<const LaneKernel>
LaneKernel::compile(const CanonicalSemantics &sem,
                    const std::vector<int64_t> &param_values,
                    const std::vector<int64_t> &int_arg_values)
{
    if (int_arg_values.size() != sem.int_args.size() ||
        sem.bv_args.size() > kMaxArgs)
        return nullptr;
    std::unique_ptr<LaneKernel> kernel(new LaneKernel());
    EvalEnv env;
    env.param_values = &param_values;
    for (size_t i = 0; i < sem.int_args.size(); ++i)
        env.named[sem.int_args[i]] = int_arg_values[i];
    try {
        for (size_t a = 0; a < sem.bv_args.size(); ++a) {
            const int width = sem.argWidth(static_cast<int>(a), param_values);
            if (width < 1 || width > BitVector::kMaxWidth)
                return nullptr;
            kernel->arg_widths_.push_back(width);
        }
        const int64_t outer = evalInt(sem.outer_count, env);
        const int64_t inner = evalInt(sem.inner_count, env);
        const int width = static_cast<int>(evalInt(sem.elem_width, env));
        if (outer < 1 || inner < 1 || width < 1 || width > 64)
            return nullptr;
        const int64_t total = outer * inner * width;
        if (total > BitVector::kMaxWidth)
            return nullptr;
        kernel->out_width_ = static_cast<int>(total);
        Builder builder(kernel->tape_, kernel->arg_widths_, env);
        for (int64_t i = 0; i < outer; ++i) {
            for (int64_t j = 0; j < inner; ++j) {
                env.loop_i = i;
                env.loop_j = j;
                builder.element(sem.templateFor(i, j),
                                static_cast<int>((i * inner + j) * width),
                                width);
            }
        }
    } catch (const AssertionError &) {
        return nullptr;
    } catch (const Unsupported &) {
        return nullptr;
    }
    kernel->tape_.shrink_to_fit();
    return kernel;
}

void
LaneKernel::run(const BitVector *const *args, uint64_t *r,
                BitVector &out) const
{
    const uint64_t *words[kMaxArgs];
    for (size_t a = 0; a < arg_widths_.size(); ++a) {
        HYD_ASSERT(args[a]->width() == arg_widths_[a],
                   "lane kernel argument width mismatch");
        words[a] = args[a]->data();
    }
    uint64_t *dst = out.data();
    const Op *tape = tape_.data();
    const size_t n = tape_.size();
    for (size_t pc = 0; pc < n; ++pc) {
        const Op &op = tape[pc];
        const int w = op.width;
        const uint64_t m = maskOf(w);
        uint64_t v = 0;
        switch (op.code) {
          case kConst:
            v = op.a | static_cast<uint64_t>(op.b) << 32;
            break;
          case kLoad: {
            const uint64_t *src = words[op.arg] + (op.a >> 6);
            const unsigned shift = op.a & 63;
            v = src[0] >> shift;
            if (shift + w > 64)
                v |= src[1] << (64 - shift);
            v &= m;
            break;
          }
          case kSlice:
            v = (r[op.a] >> op.b) & m;
            break;
          case kConcat:
            v = r[op.a] << op.aux | r[op.b];
            break;
          case kAdd: v = (r[op.a] + r[op.b]) & m; break;
          case kSub: v = (r[op.a] - r[op.b]) & m; break;
          case kMul: v = (r[op.a] * r[op.b]) & m; break;
          case kUDiv:
            v = r[op.b] == 0 ? m : r[op.a] / r[op.b];
            break;
          case kURem:
            v = r[op.b] == 0 ? r[op.a] : r[op.a] % r[op.b];
            break;
          case kAnd: v = r[op.a] & r[op.b]; break;
          case kOr: v = r[op.a] | r[op.b]; break;
          case kXor: v = r[op.a] ^ r[op.b]; break;
          case kShl:
            v = r[op.b] >= static_cast<uint64_t>(w)
                    ? 0
                    : (r[op.a] << r[op.b]) & m;
            break;
          case kLShr:
            v = r[op.b] >= static_cast<uint64_t>(w) ? 0 : r[op.a] >> r[op.b];
            break;
          case kAShr: {
            const int64_t a = signed64(r[op.a], w);
            const uint64_t amount =
                std::min<uint64_t>(r[op.b], static_cast<uint64_t>(w - 1));
            v = static_cast<uint64_t>(a >> amount) & m;
            break;
          }
          case kAddSatS:
            v = saturateSigned(static_cast<__int128>(signed64(r[op.a], w)) +
                                   signed64(r[op.b], w),
                               w);
            break;
          case kAddSatU: {
            const unsigned __int128 sum =
                static_cast<unsigned __int128>(r[op.a]) + r[op.b];
            v = sum > m ? m : static_cast<uint64_t>(sum);
            break;
          }
          case kSubSatS:
            v = saturateSigned(static_cast<__int128>(signed64(r[op.a], w)) -
                                   signed64(r[op.b], w),
                               w);
            break;
          case kSubSatU:
            v = r[op.a] < r[op.b] ? 0 : r[op.a] - r[op.b];
            break;
          case kMinS:
            v = signed64(r[op.a], w) < signed64(r[op.b], w) ? r[op.a]
                                                            : r[op.b];
            break;
          case kMaxS:
            v = signed64(r[op.a], w) < signed64(r[op.b], w) ? r[op.b]
                                                            : r[op.a];
            break;
          case kMinU: v = std::min(r[op.a], r[op.b]); break;
          case kMaxU: v = std::max(r[op.a], r[op.b]); break;
          case kAvgU:
            v = (r[op.a] | r[op.b]) - ((r[op.a] ^ r[op.b]) >> 1);
            break;
          case kAvgS: {
            const __int128 sum = static_cast<__int128>(signed64(r[op.a], w)) +
                                 signed64(r[op.b], w) + 1;
            v = static_cast<uint64_t>(sum >> 1) & m;
            break;
          }
          case kNot: v = ~r[op.a] & m; break;
          case kNeg: v = (0 - r[op.a]) & m; break;
          case kAbsS:
            v = signed64(r[op.a], w) < 0 ? (0 - r[op.a]) & m : r[op.a];
            break;
          case kPopcount:
            v = static_cast<uint64_t>(__builtin_popcountll(r[op.a])) & m;
            break;
          case kSExt:
            v = static_cast<uint64_t>(signed64(r[op.a], op.aux)) & m;
            break;
          case kSatNarrowS:
            v = saturateSigned(signed64(r[op.a], op.aux), w);
            break;
          case kSatNarrowU:
            if (signed64(r[op.a], op.aux) < 0)
                v = 0;
            else
                v = r[op.a] > m ? m : r[op.a];
            break;
          case kEq: v = r[op.a] == r[op.b]; break;
          case kNe: v = r[op.a] != r[op.b]; break;
          case kUlt: v = r[op.a] < r[op.b]; break;
          case kUle: v = r[op.a] <= r[op.b]; break;
          case kSlt:
            v = signed64(r[op.a], op.aux) < signed64(r[op.b], op.aux);
            break;
          case kSle:
            v = signed64(r[op.a], op.aux) <= signed64(r[op.b], op.aux);
            break;
          case kSelect:
            v = r[op.a] != 0 ? r[op.b] : r[op.c];
            break;
          case kStore: {
            const uint64_t value = r[op.a];
            const unsigned shift = op.b & 63;
            uint64_t *word = dst + (op.b >> 6);
            word[0] |= value << shift;
            if (shift + w > 64)
                word[1] |= value >> (64 - shift);
            break;
          }
        }
        r[pc] = v;
    }
}

BitVector
LaneKernel::evaluate(const BitVector *const *args) const
{
    BitVector out;
    evaluateBatch(args, 1, &out);
    return out;
}

void
LaneKernel::evaluateBatch(const BitVector *const *args, size_t calls,
                          BitVector *outs) const
{
    // One register file per thread: kernels are shared across
    // concurrent searches and never written after compile().
    thread_local std::vector<uint64_t> regs;
    if (regs.size() < tape_.size())
        regs.resize(tape_.size());
    const size_t arity = arg_widths_.size();
    for (size_t c = 0; c < calls; ++c) {
        outs[c] = BitVector(out_width_);
        run(args + c * arity, regs.data(), outs[c]);
    }
}

} // namespace hydride
