#include "synthesis/grammar.h"

#include "observability/metrics.h"
#include "support/error.h"
#include "support/rng.h"

#include <algorithm>
#include <set>

namespace hydride {

namespace {

/** Features of a Halide window relevant to screening. */
struct WindowFeatures
{
    std::set<BVBinOp> ops;
    bool has_abs = false;
    bool has_widen = false;
    bool has_narrow = false;
    bool has_sat_narrow = false;
    std::set<int> elem_widths;
    std::set<int> total_widths;
    int min_elem_width = 1 << 30;
    std::vector<int64_t> imms;
};

void
collectFeatures(const HExprPtr &expr, WindowFeatures &feat)
{
    feat.elem_widths.insert(expr->elem_width);
    feat.total_widths.insert(expr->elem_width * expr->lanes);
    feat.min_elem_width = std::min(feat.min_elem_width, expr->elem_width);
    switch (expr->op) {
      case HOp::Add: feat.ops.insert(BVBinOp::Add); break;
      case HOp::Sub: feat.ops.insert(BVBinOp::Sub); break;
      case HOp::Mul:
      case HOp::MulHiS: feat.ops.insert(BVBinOp::Mul); break;
      case HOp::MinS: feat.ops.insert(BVBinOp::MinS); break;
      case HOp::MaxS: feat.ops.insert(BVBinOp::MaxS); break;
      case HOp::MinU: feat.ops.insert(BVBinOp::MinU); break;
      case HOp::MaxU: feat.ops.insert(BVBinOp::MaxU); break;
      // Saturating arithmetic appears in instruction semantics either
      // as a dedicated saturating operator or as plain arithmetic at
      // a widened type followed by a saturating cast; match both.
      case HOp::SatAddS:
        feat.ops.insert(BVBinOp::AddSatS);
        feat.ops.insert(BVBinOp::Add);
        feat.has_sat_narrow = true;
        break;
      case HOp::SatAddU:
        feat.ops.insert(BVBinOp::AddSatU);
        feat.ops.insert(BVBinOp::Add);
        feat.has_sat_narrow = true;
        break;
      case HOp::SatSubS:
        feat.ops.insert(BVBinOp::SubSatS);
        feat.ops.insert(BVBinOp::Sub);
        feat.has_sat_narrow = true;
        break;
      case HOp::SatSubU:
        feat.ops.insert(BVBinOp::SubSatU);
        feat.ops.insert(BVBinOp::Sub);
        feat.has_sat_narrow = true;
        break;
      case HOp::AvgU: feat.ops.insert(BVBinOp::AvgU); break;
      case HOp::AbsS: feat.has_abs = true; break;
      case HOp::ShlC:
        feat.ops.insert(BVBinOp::Shl);
        feat.imms.push_back(expr->imm);
        break;
      case HOp::AShrC:
        feat.ops.insert(BVBinOp::AShr);
        feat.imms.push_back(expr->imm);
        break;
      case HOp::LShrC:
        feat.ops.insert(BVBinOp::LShr);
        feat.imms.push_back(expr->imm);
        break;
      case HOp::ReduceAdd: feat.ops.insert(BVBinOp::Add); break;
      case HOp::Cast:
        if (expr->elem_width > expr->kids[0]->elem_width)
            feat.has_widen = true;
        else if (expr->elem_width < expr->kids[0]->elem_width)
            feat.has_narrow = true;
        break;
      case HOp::SatNarrowS:
      case HOp::SatNarrowU:
        feat.has_narrow = true;
        feat.has_sat_narrow = true;
        break;
      default:
        break;
    }
    // MulHi implies a widened product followed by a shift.
    if (expr->op == HOp::MulHiS) {
        feat.ops.insert(BVBinOp::AShr);
        feat.ops.insert(BVBinOp::LShr);
        feat.elem_widths.insert(2 * expr->elem_width);
    }
    if (expr->op == HOp::ConstSplat)
        feat.imms.push_back(expr->imm);
    for (const auto &kid : expr->kids)
        collectFeatures(kid, feat);
}

/** Features of an equivalence class. */
struct ClassFeatures
{
    std::set<BVBinOp> ops;
    bool has_abs = false;
    bool has_widen = false;
    bool has_narrow = false;
    bool has_sat_narrow = false;
    bool pure_swizzle = true;
};

ClassFeatures
classFeatures(const EquivalenceClass &cls)
{
    ClassFeatures feat;
    std::vector<ExprPtr> nodes;
    for (const auto &tmpl : cls.rep.templates)
        collectNodes(tmpl, nodes);
    for (const auto &node : nodes) {
        switch (node->kind) {
          case ExprKind::BVBin:
            feat.ops.insert(static_cast<BVBinOp>(node->value));
            feat.pure_swizzle = false;
            break;
          case ExprKind::BVUn:
            if (static_cast<BVUnOp>(node->value) == BVUnOp::AbsS)
                feat.has_abs = true;
            feat.pure_swizzle = false;
            break;
          case ExprKind::BVCast: {
            const auto op = static_cast<BVCastOp>(node->value);
            if (op == BVCastOp::SExt || op == BVCastOp::ZExt)
                feat.has_widen = true;
            if (op == BVCastOp::Trunc)
                feat.has_narrow = true;
            if (op == BVCastOp::SatNarrowS || op == BVCastOp::SatNarrowU) {
                feat.has_narrow = true;
                feat.has_sat_narrow = true;
            }
            feat.pure_swizzle = false;
            break;
          }
          case ExprKind::Select:
          case ExprKind::BVCmp:
            feat.pure_swizzle = false;
            break;
          default:
            break;
        }
    }
    return feat;
}

} // namespace

bool
isSwizzleClass(const EquivalenceClass &cls)
{
    return classFeatures(cls).pure_swizzle;
}

bool
scaleParams(const EquivalenceClass &cls, const std::vector<int64_t> &params,
            int scale, std::vector<int64_t> &scaled)
{
    scaled = params;
    if (scale == 1)
        return true;
    // Register widths divide by the full scale; the loop-count
    // *product* must also divide by exactly the full scale, spread
    // across the count parameters in order (outer first). The
    // artificial inner loop's count of 1 and structural template
    // counts simply absorb none of it.
    int remaining = scale;
    for (size_t p = 0; p < params.size(); ++p) {
        const ParamRole role = cls.rep.params[p].role;
        if (role == ParamRole::RegWidth) {
            if (params[p] % scale != 0)
                return false;
            scaled[p] = params[p] / scale;
        } else if (role == ParamRole::Count) {
            int d = 1;
            while (d < remaining && scaled[p] % (2 * d) == 0)
                d *= 2;
            scaled[p] /= d;
            remaining /= d;
        }
    }
    if (remaining != 1)
        return false;
    // The scaled instruction must still be well-formed.
    EvalEnv env;
    env.param_values = &scaled;
    if (evalInt(cls.rep.outer_count, env) < 1 ||
        evalInt(cls.rep.inner_count, env) < 1 ||
        evalInt(cls.rep.elem_width, env) < 1) {
        return false;
    }
    for (size_t a = 0; a < cls.rep.bv_args.size(); ++a)
        if (cls.rep.argWidth(static_cast<int>(a), scaled) < 1)
            return false;
    return true;
}

Grammar
buildGrammar(const AutoLLVMDict &dict, const std::string &isa,
             const HExprPtr &window, int scale,
             const GrammarOptions &options)
{
    // `window` arrives already scaled; features reflect it directly.
    WindowFeatures wf;
    collectFeatures(window, wf);

    Grammar grammar;
    std::set<int64_t> imm_set(wf.imms.begin(), wf.imms.end());
    imm_set.insert(1);
    for (int64_t imm : imm_set)
        if (imm > 0 && imm < 64)
            grammar.imm_pool.push_back(imm);

    // Group the ISA's variants per class for class-level screening.
    std::map<int, std::vector<AutoOpVariant>> per_class;
    for (const auto &variant : dict.isaVariants(isa))
        per_class[variant.class_id].push_back(variant);

    struct Scored
    {
        GrammarOp op;
        bool swizzle;
    };
    std::vector<Scored> candidates;

    for (const auto &[class_id, variants] : per_class) {
        const EquivalenceClass &cls = dict.cls(class_id);
        if (cls.rep.bv_args.size() > static_cast<size_t>(kMaxOpOperands)) {
            static metrics::Counter &skipped =
                metrics::counter("synthesis.grammar.skipped_ops");
            skipped.add(variants.size());
            continue;
        }
        const ClassFeatures cf = classFeatures(cls);
        const bool swizzle = cf.pure_swizzle;

        if (options.bvs && !swizzle) {
            // (a): at least one overlapping operation or a matching
            // conversion direction.
            bool ops_overlap = false;
            for (BVBinOp op : cf.ops)
                ops_overlap |= wf.ops.count(op) != 0;
            const bool conv_match =
                (cf.has_widen && wf.has_widen) ||
                (cf.has_narrow && wf.has_narrow) ||
                (cf.has_sat_narrow && wf.has_sat_narrow);
            const bool abs_match = cf.has_abs && wf.has_abs;
            if (!ops_overlap && !conv_match && !abs_match)
                continue;
        }

        for (const auto &variant : variants) {
            const ClassMember &member = cls.members[variant.member_index];
            GrammarOp op;
            op.variant = variant;
            if (!scaleParams(cls, member.param_values, scale,
                             op.scaled_params)) {
                continue;
            }
            op.out_width = cls.rep.outputWidth(op.scaled_params);
            EvalEnv env;
            env.param_values = &op.scaled_params;
            op.elem_width =
                static_cast<int>(evalInt(cls.rep.elem_width, env));
            for (size_t a = 0; a < cls.rep.bv_args.size(); ++a)
                op.arg_widths.push_back(cls.rep.argWidth(
                    static_cast<int>(a), op.scaled_params));
            op.latency = member.latency;
            op.n_imms = static_cast<int>(cls.rep.int_args.size());

            // Probe the scaled instantiation: parameters with Index
            // roles (lane offsets, strides) do not scale, so some
            // scaled variants read out of range — those are illegal
            // at this scale and are dropped (the paper's scaling is
            // similarly validated by the verifier).
            if (scale != 1) {
                try {
                    Rng probe_rng(0x5CA1E ^ variant.class_id);
                    std::vector<BitVector> args;
                    for (int w : op.arg_widths)
                        args.push_back(BitVector::random(w, probe_rng));
                    std::vector<int64_t> imms(op.n_imms, 1);
                    (void)cls.rep.evaluate(args, op.scaled_params, imms);
                } catch (const AssertionError &) {
                    continue;
                }
            }

            if (options.bvs) {
                // (b): smaller element sizes than the expression's
                // minimum lose information.
                if (op.elem_width < wf.min_elem_width)
                    continue;
                // (a) width leg: the variant must touch a width the
                // (scaled) expression actually uses.
                bool width_match = wf.total_widths.count(op.out_width) != 0;
                for (int w : op.arg_widths)
                    width_match |= wf.total_widths.count(w) != 0;
                if (!width_match)
                    continue;
            }

            // SBOS score (§4.3 c).
            double score = 0.0;
            for (BVBinOp o : cf.ops)
                if (wf.ops.count(o))
                    score += 2.0;
            if (cf.has_abs && wf.has_abs)
                score += 2.0;
            if ((cf.has_widen && wf.has_widen) ||
                (cf.has_sat_narrow && wf.has_sat_narrow) ||
                (cf.has_narrow && wf.has_narrow)) {
                score += 2.0;
            }
            if (wf.elem_widths.count(op.elem_width))
                score += 1.0;
            if (wf.total_widths.count(op.out_width))
                score += 1.0;
            // Cheaper instructions break score ties.
            score -= 0.01 * op.latency;
            op.score = score;
            candidates.push_back({std::move(op), swizzle});
        }
    }

    // SBOS: keep the top-k scoring variants of each class; swizzles
    // are exempt (always included, §4.4).
    if (options.sbos) {
        std::map<int, std::vector<size_t>> class_order;
        for (size_t c = 0; c < candidates.size(); ++c)
            class_order[candidates[c].op.variant.class_id].push_back(c);
        std::set<size_t> keep;
        for (auto &[class_id, indices] : class_order) {
            (void)class_id;
            std::sort(indices.begin(), indices.end(),
                      [&](size_t a, size_t b) {
                          return candidates[a].op.score >
                                 candidates[b].op.score;
                      });
            for (size_t i = 0; i < indices.size(); ++i) {
                if (candidates[indices[i]].swizzle ||
                    static_cast<int>(i) < options.k) {
                    keep.insert(indices[i]);
                }
            }
        }
        std::vector<Scored> kept;
        for (size_t c = 0; c < candidates.size(); ++c)
            if (keep.count(c))
                kept.push_back(std::move(candidates[c]));
        candidates = std::move(kept);
    }

    // Global cap (the "top 50 by score" ablation).
    std::sort(candidates.begin(), candidates.end(),
              [](const Scored &a, const Scored &b) {
                  return a.op.score > b.op.score;
              });
    if (options.max_ops > 0 &&
        static_cast<int>(candidates.size()) > options.max_ops) {
        candidates.resize(options.max_ops);
    }

    for (auto &scored : candidates)
        grammar.ops.push_back(std::move(scored.op));
    return grammar;
}

} // namespace hydride
