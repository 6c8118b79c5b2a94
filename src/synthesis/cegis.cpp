#include "synthesis/cegis.h"

#include "analysis/dataflow/product.h"
#include "analysis/symbolic/ir_equiv.h"
#include "hir/eval.h"
#include "hir/lane_kernel.h"
#include "observability/journal/journal.h"
#include "observability/log.h"
#include "observability/metrics.h"
#include "observability/phases.h"
#include "support/error.h"
#include "support/faults.h"
#include "support/rng.h"
#include "support/strings.h"
#include "support/timing.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <tuple>
#include <unordered_map>

namespace hydride {

HExprPtr
scaleWindow(const HExprPtr &window, int scale)
{
    if (scale == 1)
        return window;
    if (window->lanes % scale != 0)
        return nullptr;
    const int lanes = window->lanes / scale;
    if (lanes < 1)
        return nullptr;
    if (window->op == HOp::ReduceAdd &&
        (window->kids[0]->lanes / scale) % window->imm != 0) {
        return nullptr;
    }
    // Lanes placed across registers: the odd/even lane selections that
    // solve these need lane offsets, which buildGrammar does not scale.
    if (window->op == HOp::Slice || window->op == HOp::Concat)
        return nullptr;
    std::vector<HExprPtr> kids;
    for (const auto &kid : window->kids) {
        HExprPtr scaled = scaleWindow(kid, scale);
        if (!scaled)
            return nullptr;
        kids.push_back(std::move(scaled));
    }
    auto node = std::make_shared<HExpr>(*window);
    node->lanes = lanes;
    node->kids = std::move(kids);
    return node;
}

namespace {

/** Value-bank size cap. */
constexpr int kMaxBank = 3000;
/** Counterexample iterations per attempt. */
constexpr int kCegisRounds = 10;
/** Seed of the search's random inputs and verification vectors. */
constexpr uint64_t kSeed = 0xC0DE;
/** Random vectors per verification (candidate, full width, warm seed). */
constexpr int kVerifyVectors = 10;

/** Inputs of a window: index -> width (at the window's scale). */
std::vector<int>
windowInputWidths(const HExprPtr &window)
{
    std::vector<int> widths;
    std::vector<const HExpr *> stack = {window.get()};
    while (!stack.empty()) {
        const HExpr *node = stack.back();
        stack.pop_back();
        if (node->op == HOp::Input) {
            if (node->imm >= static_cast<int64_t>(widths.size()))
                widths.resize(node->imm + 1, 0);
            widths[node->imm] = node->totalWidth();
        }
        for (const auto &kid : node->kids)
            stack.push_back(kid.get());
    }
    return widths;
}

/** Splat constants appearing in a window: (value, elem width, lanes). */
struct SplatConst
{
    int64_t value;
    int elem_width;
    int lanes;
};

void
collectConsts(const HExprPtr &expr, std::vector<SplatConst> &consts)
{
    if (expr->op == HOp::ConstSplat)
        consts.push_back({expr->imm, expr->elem_width, expr->lanes});
    for (const auto &kid : expr->kids)
        collectConsts(kid, consts);
}

BitVector
splat(int64_t value, int ew, int lanes)
{
    BitVector out(ew * lanes);
    const BitVector elem = BitVector::fromInt(ew, value);
    for (int lane = 0; lane < lanes; ++lane)
        out.setSlice(lane * ew, elem);
    return out;
}

/** One value in the enumeration bank. */
struct Entry
{
    int width = 0;
    int op = -1; ///< Grammar op index; -1 for leaves.
    /** Operand bank indices; the op's arity says how many are used. */
    std::array<int, kMaxOpOperands> args{};
    /** Immediate-pool slot, for ops that take an immediate. */
    size_t imm_slot = 0;
    // Leaf payload.
    bool is_const = false;
    int input_index = -1;
    SplatConst const_info{0, 0, 0};
    // Tree-cost (paper: latency sum over the expression).
    int cost = 0;
    int depth = 0;
    std::vector<BitVector> evals; ///< One value per counterexample.
};

/** Observational signature: width plus the value on the first
 *  counterexample (the lazy-dedup key, see tryCandidate). */
uint64_t
signature(int width, const BitVector &first_eval)
{
    const uint64_t h = 0x811C9DC5ull ^ width;
    return h ^ (first_eval.hash() + 0x9E3779B97F4A7C15ull + (h << 6) +
                (h >> 2));
}

/**
 * Key of the process-wide op memo: the class representative, the
 * scaled parameter assignment and the immediate. The spec DB and
 * dictionary semantics are immutable, so entries never go stale.
 */
using OpMemoKey = std::tuple<std::string, std::vector<int64_t>, int64_t>;

/**
 * What one (op, immediate) contributes to every search, whatever its
 * window. Repeated windows and benchmark repetitions pay for each
 * fact once per process.
 */
struct OpFacts
{
    /** Compiled with the entry; nullptr when the op stays on the
     *  interpreter. */
    std::unique_ptr<const LaneKernel> kernel;
    /**
     * Interval x known-bits output over top (unconstrained) arguments,
     * or nullopt for unanalyzable semantics. Computed on first request
     * (only solution-width ops ask), under the memo's mutex.
     */
    std::optional<dataflow::AbsValue> abs_out;
    bool abs_done = false;
};

std::mutex op_memo_mutex;
/** Node-based, so an entry's address is stable for the process. */
std::map<OpMemoKey, OpFacts> op_memo;

std::vector<int64_t>
opImms(const GrammarOp &op, int64_t imm)
{
    return op.n_imms > 0 ? std::vector<int64_t>{imm}
                         : std::vector<int64_t>{};
}

/** The memo entry of `op` at immediate `imm`; compiles its kernel on
 *  first use. */
OpFacts &
opFacts(const EquivalenceClass &cls, const GrammarOp &op, int64_t imm)
{
    OpMemoKey key(cls.rep.isa + ':' + cls.rep.name, op.scaled_params, imm);
    std::lock_guard<std::mutex> lock(op_memo_mutex);
    auto [it, inserted] = op_memo.try_emplace(std::move(key));
    if (inserted)
        it->second.kernel =
            LaneKernel::compile(cls.rep, op.scaled_params, opImms(op, imm));
    return it->second;
}

/**
 * The abstract output of `entry` (the memo entry of `op` at `imm`).
 * Once computed it never changes, so the reference may be read
 * without the lock.
 */
const std::optional<dataflow::AbsValue> &
opAbstractOutput(OpFacts &entry, const EquivalenceClass &cls,
                 const GrammarOp &op, int64_t imm)
{
    std::lock_guard<std::mutex> lock(op_memo_mutex);
    if (!entry.abs_done) {
        try {
            dataflow::ProductDomain dom;
            std::vector<dataflow::AbsValue> args;
            args.reserve(op.arg_widths.size());
            for (int w : op.arg_widths)
                args.push_back(dom.top(w));
            entry.abs_out = evalSemanticsDom(
                dom, cls.rep, args, op.scaled_params, opImms(op, imm));
        } catch (const AssertionError &) {
            // Unanalyzable semantics: cannot prune, ever.
        }
        entry.abs_done = true;
    }
    return entry.abs_out;
}

/** The enumeration + CEGIS state for one (window, scale) attempt. */
class Search
{
  public:
    Search(const AutoLLVMDict &dict, const Grammar &grammar,
           const HExprPtr &window, const SynthesisOptions &options,
           Stopwatch &watch)
        : dict_(dict), grammar_(grammar), window_(window),
          options_(options), watch_(watch),
          input_widths_(windowInputWidths(window)),
          out_width_(window->totalWidth()),
          out_ew_(window->elem_width), rng_(kSeed), max_bank_(kMaxBank),
          imm_slots_(std::max<size_t>(1, grammar.imm_pool.size())),
          slots_(grammar.ops.size() * imm_slots_)
    {
        collectConsts(window, consts_);
        // Chaos seam: `alloc.cap=64M` caps the value bank's memory.
        // The bank is the search's only unbounded allocation, so a
        // byte budget translates into an entry budget; overflowing it
        // reads as ordinary search exhaustion, never as an OOM kill.
        if (faults::shouldFail("alloc.cap")) {
            const long long cap =
                faults::parseSizeArg(faults::argOf("alloc.cap"), -1);
            if (cap >= 0) {
                const long long per_entry =
                    static_cast<long long>(sizeof(Entry)) + 64 +
                    out_width_ / 8;
                max_bank_ = static_cast<int>(std::max(
                    1ll, std::min<long long>(max_bank_,
                                             cap / per_entry)));
            }
        }
    }

    /** Run CEGIS; winner (bank index) via `found`, or -1. */
    int
    run(int &iterations)
    {
        // Seed counterexamples (Algorithm 2 line 4-5). Lane
        // constraints start with the first and last output lanes:
        // vector computation patterns repeat every 1/2/4 lanes
        // (paper §4.2), so these two kill the large family of
        // candidates that are only correct on a low-lane prefix
        // (interleaves of a correct half with junk).
        addCex(randomInputs());
        addCex(randomInputs());
        failing_lanes_ = {0};
        const int out_lanes = out_width_ / out_ew_;
        if (out_lanes > 1)
            failing_lanes_.push_back(out_lanes - 1);

        for (int round = 0; round < kCegisRounds; ++round) {
            iterations = round + 1;
            int winner = -1;
            {
                phases::Scope scope(phases::Phase::Enumeration);
                winner = enumerate();
            }
            if (winner < 0)
                return -1;
            // Verify on fresh vectors (VerifiedEqv).
            bool verified = true;
            {
                phases::Scope scope(phases::Phase::ConcreteEval);
                for (int v = 0; v < kVerifyVectors && verified; ++v) {
                    std::vector<BitVector> inputs = randomInputs();
                    const BitVector expect = evalHalide(window_, inputs);
                    const BitVector got = evalEntryOn(winner, inputs);
                    if (got != expect) {
                        verified = false;
                        // Record the counterexample and its first and
                        // last failing lanes (Algorithm 2 lines 16-20).
                        recordFailingLanes(got, expect);
                        addCex(std::move(inputs));
                        ++stat_cexs_found_;
                    }
                }
            }
            if (verified && options_.symbolic_verify) {
                // The random vectors sampled agreement; now *prove*
                // it. A refutation model is a concretely-validated
                // input on which candidate and specification disagree
                // — it joins the counterexample set like any other,
                // and the CEGIS loop continues.
                // The proof runs at the search's own width, so each
                // instruction takes its op's scaled parameters, as
                // evalEntryOn does; member values describe full width.
                InstParams params;
                const AutoModule module = reconstruct(winner, 1, &params);
                const sym::EqResult eq = sym::checkModuleEquiv(
                    dict_, module, window_, options_.symbolic_budget,
                    params);
                if (eq.verdict == sym::Verdict::Refuted) {
                    verified = false;
                    ++stat_sym_refuted_;
                    recordFailingLanes(evalEntryOn(winner, eq.model),
                                       evalHalide(window_, eq.model));
                    addCex(eq.model);
                    ++stat_cexs_found_;
                } else if (eq.verdict == sym::Verdict::Unknown) {
                    ++stat_sym_unknown_;
                }
            }
            if (verified)
                return winner;
            if (deadlineExpired())
                return -1;
        }
        return -1;
    }

    /** Counterexamples found by verification (excludes the two random
     *  seed inputs). */
    int cexCount() const { return stat_cexs_found_; }

    /** True when the search ended because its deadline expired
     *  (rather than exhausting the candidate space). */
    bool timedOut() const { return deadline_hit_; }

    /** Candidates rejected during enumeration (observational dedup
     *  plus bank-capacity drops). */
    long rejectedCount() const { return stat_rejected_; }

    /** Solution-width candidates the static pruning tier discarded
     *  before counterexample evaluation. */
    long rejectedStaticCount() const { return stat_rejected_static_; }

    /** Candidates rejected by a symbolic counterexample. */
    int symRefutations() const { return stat_sym_refuted_; }

    /** Symbolic queries that exhausted their budget. */
    int symUnknowns() const { return stat_sym_unknown_; }

    /** Reconstruct the winning entry as an AutoModule (full scale:
     *  parameter values come from the original members; constants are
     *  re-splat at `scale` times the lanes). `params`, if given,
     *  receives each instruction's scaled grammar parameters. */
    AutoModule
    reconstruct(int winner, int scale,
                InstParams *params = nullptr) const
    {
        AutoModule module;
        for (int w : input_widths_)
            module.input_widths.push_back(w * scale);
        std::map<int, ValueRef> memo;
        buildModule(winner, scale, module, memo, params);
        module.result = static_cast<int>(module.insts.size()) - 1;
        return module;
    }

  private:
    /**
     * One (op, immediate) of the grammar, indexed op * imm_slots_ +
     * slot in slots_. The immediate pool has no duplicates, so a slot
     * names exactly one immediate.
     */
    struct OpSlot
    {
        OpFacts *facts = nullptr; ///< Resolved on first use (slotAt).
        /** Can the op's abstract output still contain the spec's
         *  observed outputs? addCex resets `Feasible` to `Unknown`. */
        enum Verdict : uint8_t { Unknown, Feasible, Dead };
        Verdict verdict = Unknown;
    };

    /**
     * Precise deadline check (one clock read), plus the
     * `cegis.timeout` fault seam. Sticky: once the deadline reads as
     * exhausted the search stays expired, so an injected timeout
     * cannot "un-fire" on a later probe.
     */
    bool
    deadlineExpired()
    {
        if (deadline_hit_)
            return true;
        if (faults::shouldFail("cegis.timeout") ||
            watch_.seconds() > options_.timeout_seconds) {
            deadline_hit_ = true;
        }
        return deadline_hit_;
    }

    /**
     * Sampled deadline check for the candidate-enumeration inner
     * loop: a clock read per operand combination would dominate
     * enumeration, so consult the clock every 64 probes. This bounds
     * the wall-clock overshoot of one adversarial window to a small
     * slack over `timeout_seconds` instead of a whole enumeration
     * level (the checks used to live only between outer iterations).
     */
    bool
    deadlineExpiredSampled()
    {
        if (deadline_hit_)
            return true;
        if ((++deadline_probe_ & 63) != 0)
            return false;
        return deadlineExpired();
    }

    /** Merge the first and last lanes where `got` differs from
     *  `expect` into the failing-lane constraint set. */
    void
    recordFailingLanes(const BitVector &got, const BitVector &expect)
    {
        int first_lane = -1;
        int last_lane = -1;
        for (int l = 0; l < out_width_ / out_ew_; ++l) {
            if (!got.sliceEquals(expect, l * out_ew_, out_ew_)) {
                if (first_lane < 0)
                    first_lane = l;
                last_lane = l;
            }
        }
        for (int lane : {first_lane, last_lane}) {
            if (lane >= 0 && std::find(failing_lanes_.begin(),
                                       failing_lanes_.end(),
                                       lane) == failing_lanes_.end()) {
                failing_lanes_.push_back(lane);
            }
        }
    }

    void
    addCex(std::vector<BitVector> inputs)
    {
        cexs_.push_back(std::move(inputs));
        bank_.clear();
        sig_map_.clear();
        // Feasibility is relative to the observed spec outputs, which
        // just changed — but only in one direction: an abstract output
        // that could not contain the old spec outputs cannot contain a
        // superset of them, so `Dead` verdicts survive and only the
        // `Feasible` ones need rechecking (cheap containment against the
        // memoized abstract outputs, no re-evaluation).
        for (OpSlot &op_slot : slots_)
            if (op_slot.verdict == OpSlot::Feasible)
                op_slot.verdict = OpSlot::Unknown;
    }

    std::vector<BitVector>
    randomInputs()
    {
        std::vector<BitVector> inputs;
        for (int w : input_widths_)
            inputs.push_back(BitVector::random(std::max(w, 1), rng_));
        return inputs;
    }

    void
    seedLeaves()
    {
        spec_evals_.clear();
        for (const auto &cex : cexs_)
            spec_evals_.push_back(evalHalide(window_, cex));

        for (size_t i = 0; i < input_widths_.size(); ++i) {
            if (input_widths_[i] == 0)
                continue; // Index not referenced by this window.
            Entry leaf;
            leaf.width = input_widths_[i];
            leaf.input_index = static_cast<int>(i);
            for (const auto &cex : cexs_)
                leaf.evals.push_back(cex[i]);
            pushEntry(std::move(leaf));
        }
        for (const auto &info : consts_) {
            Entry leaf;
            leaf.width = info.elem_width * info.lanes;
            leaf.is_const = true;
            leaf.const_info = info;
            const BitVector value =
                splat(info.value, info.elem_width, info.lanes);
            for (size_t c = 0; c < cexs_.size(); ++c)
                leaf.evals.push_back(value);
            pushEntry(std::move(leaf));
        }
    }

    /** Store `entry` unless its signature `sig` is taken. */
    bool
    pushEntry(Entry entry, uint64_t sig)
    {
        // Observational-equivalence dedup on the first counterexample
        // (the incumbent stays so indices remain valid).
        if (!sig_map_.try_emplace(sig, static_cast<int>(bank_.size()))
                 .second) {
            return false;
        }
        bank_.push_back(std::move(entry));
        return true;
    }

    bool
    pushEntry(Entry entry)
    {
        const uint64_t sig = signature(entry.width, entry.evals[0]);
        return pushEntry(std::move(entry), sig);
    }

    /** Does a solution-width `value` agree with the spec on
     *  counterexample `c` (on the constrained lanes when lanewise)? */
    bool
    matchesOn(const BitVector &value, size_t c) const
    {
        if (!options_.lanewise)
            return value == spec_evals_[c];
        for (int lane : failing_lanes_) {
            if (!value.sliceEquals(spec_evals_[c], lane * out_ew_, out_ew_))
                return false;
        }
        return true;
    }

    /** Does `entry` satisfy the constraints on counterexamples
     *  `from` onwards? */
    bool
    goalMatches(const Entry &entry, size_t from) const
    {
        if (entry.width != out_width_)
            return false;
        for (size_t c = from; c < cexs_.size(); ++c) {
            if (!matchesOn(entry.evals[c], c))
                return false;
        }
        return true;
    }

    /** Enumerate programs depth by depth; returns the cheapest
     *  constraint-satisfying bank index or -1. */
    int
    enumerate()
    {
        seedLeaves();
        // Leaves never win: a bare input or constant is not a program
        // (it has no instruction), so winners start at depth 1.
        int best = -1;

        std::map<int, std::vector<int>> by_width;
        for (size_t e = 0; e < bank_.size(); ++e)
            by_width[bank_[e].width].push_back(static_cast<int>(e));

        for (int depth = 1; depth <= options_.max_insts; ++depth) {
            // Cheap operands first: the per-op combination budget then
            // spends itself on the low-cost corner of the space, which
            // is where minimum-cost solutions live.
            for (auto &[width, indices] : by_width) {
                (void)width;
                std::sort(indices.begin(), indices.end(),
                          [&](int a, int b) {
                              return bank_[a].cost < bank_[b].cost;
                          });
            }
            const size_t level_start = bank_.size();
            for (size_t op_idx = 0; op_idx < grammar_.ops.size(); ++op_idx) {
                if (deadlineExpired())
                    return best;
                const GrammarOp &op = grammar_.ops[op_idx];
                // Operand candidate lists per argument position.
                std::vector<const std::vector<int> *> cands;
                bool feasible = true;
                for (int w : op.arg_widths) {
                    auto it = by_width.find(w);
                    if (it == by_width.end()) {
                        feasible = false;
                        break;
                    }
                    cands.push_back(&it->second);
                }
                if (!feasible)
                    continue;
                const size_t n_imms =
                    op.n_imms > 0 ? grammar_.imm_pool.size() : 1;

                // Spread bank capacity fairly across operations so
                // one prolific op cannot lock every other out.
                const int quota = std::max<int>(
                    8, max_bank_ /
                           std::max<size_t>(1, grammar_.ops.size()));
                int stored_this_op = 0;
                long budget = options_.max_combos;
                std::vector<int> pick(cands.size(), 0);
                while (budget-- > 0) {
                    if (deadlineExpiredSampled())
                        return best;
                    // Depth pruning: at least one operand from the
                    // previous level keeps enumeration leveled.
                    int max_depth = 0;
                    int tree_cost = 0;
                    for (size_t a = 0; a < cands.size(); ++a) {
                        const Entry &arg = bank_[(*cands[a])[pick[a]]];
                        max_depth = std::max(max_depth, arg.depth);
                        tree_cost += arg.cost;
                    }
                    if (max_depth == depth - 1) {
                        for (size_t ii = 0; ii < n_imms; ++ii) {
                            tryCandidate(op, static_cast<int>(op_idx), ii,
                                         cands, pick, tree_cost, depth,
                                         best, quota, stored_this_op);
                        }
                    }
                    // Advance the odometer.
                    size_t pos = 0;
                    while (pos < pick.size()) {
                        if (++pick[pos] <
                            static_cast<int>(cands[pos]->size()))
                            break;
                        pick[pos] = 0;
                        ++pos;
                    }
                    if (pos == pick.size())
                        break;
                }
            }
            // Register the new level's widths.
            for (size_t e = level_start; e < bank_.size(); ++e)
                by_width[bank_[e].width].push_back(static_cast<int>(e));
            HYD_LOG(Debug, format("[cegis] depth %d: bank %zu, best %d",
                                  depth, bank_.size(), best));
            if (best >= 0)
                return best; // Favor shorter sequences (paper §4.2).
            // A full bank stops accumulating intermediates (see
            // tryCandidate) but deeper levels still combine the
            // cheapest existing entries.
        }
        return best;
    }

    /**
     * Static pruning tier: abstract-interpret the op's semantics
     * over top (unconstrained) arguments once per (op, immediate)
     * and ask whether the resulting interval x known-bits value can
     * contain the spec's observed outputs on the constrained lanes.
     * When it cannot, no operand choice whatsoever makes a candidate
     * rooted at this op a solution, so the whole family is rejected
     * without evaluating a single counterexample. The abstract output
     * depends only on the op's semantics, so it lives in the
     * process-wide op memo; the verdict lives in the op's slot.
     */
    bool
    opStaticallyFeasible(int op_idx, size_t slot)
    {
        OpSlot &op_slot = slotAt(op_idx, slot);
        if (op_slot.verdict != OpSlot::Unknown)
            return op_slot.verdict == OpSlot::Feasible;
        bool feasible = true;
        const GrammarOp &op = grammar_.ops[op_idx];
        const std::optional<dataflow::AbsValue> &out = opAbstractOutput(
            *op_slot.facts, dict_.cls(op.variant.class_id), op,
            immAt(op, slot));
        if (out && out->width() == out_width_) {
            const dataflow::ProductDomain dom;
            for (size_t c = 0; c < cexs_.size() && feasible; ++c) {
                const BitVector &spec = spec_evals_[c];
                if (!options_.lanewise) {
                    feasible = out->containsConcrete(spec);
                    continue;
                }
                for (int lane : failing_lanes_) {
                    const dataflow::AbsValue slice =
                        dom.extract(*out, lane * out_ew_, out_ew_);
                    if (!slice.containsConcrete(
                            spec.extract(lane * out_ew_, out_ew_))) {
                        feasible = false;
                        break;
                    }
                }
            }
        }
        op_slot.verdict = feasible ? OpSlot::Feasible : OpSlot::Dead;
        return feasible;
    }

    /**
     * One candidate: op `op_idx` with immediate slot `slot` on the
     * operands `pick` selects. Evaluate, decide, build: its value on
     * the first counterexample already decides every rejection that
     * cannot depend on the others, so an Entry and the remaining
     * evaluations are paid only for candidates that are stored or
     * might still match. The decisions, and their order, are those of
     * evaluating every counterexample first.
     */
    void
    tryCandidate(const GrammarOp &op, int op_idx, size_t slot,
                 const std::vector<const std::vector<int> *> &cands,
                 const std::vector<int> &pick, int tree_cost, int depth,
                 int &best, int quota, int &stored_this_op)
    {
        // Statically dead solution-width candidates can never match;
        // they are only worth keeping as intermediates.
        const bool solution_width = op.out_width == out_width_;
        const bool statically_dead =
            solution_width && options_.static_prune &&
            !opStaticallyFeasible(op_idx, slot);
        if (statically_dead)
            ++stat_rejected_static_;
        const bool may_match = solution_width && !statically_dead;
        // When the bank or this op's fair share is full, only
        // *solutions* may still enter (they are checked before
        // storage below); intermediate values stop accumulating.
        const bool bank_full =
            static_cast<int>(bank_.size()) > max_bank_ ||
            stored_this_op >= quota;
        if (bank_full && !may_match) {
            ++stat_rejected_;
            return;
        }
        const size_t arity = cands.size();
        int operands[kMaxOpOperands];
        for (size_t a = 0; a < arity; ++a)
            operands[a] = (*cands[a])[pick[a]];

        // Evaluate: the first counterexample only, into a reused
        // scratch value. Most candidates are observationally
        // equivalent to an existing entry and never pay for the
        // remaining counterexamples. (Two values that agree on a
        // random vector but differ later are overwhelmingly unlikely.)
        const BitVector *args[kMaxOpOperands];
        for (size_t a = 0; a < arity; ++a)
            args[a] = &bank_[operands[a]].evals[0];
        evalOpBatch(op_idx, slot, args, 1, &first_eval_);
        const uint64_t sig = signature(op.out_width, first_eval_);
        const bool duplicate = sig_map_.count(sig) != 0;

        // Decide. A candidate that cannot match dedups like any
        // intermediate. One that can is match-checked before the
        // dedup — a near-miss twin (a saturating variant agreeing on
        // the first counterexample, say) must not shadow the true
        // solution — but failing the first counterexample already
        // rules the match out, and with it storage in a full bank.
        if (!may_match && duplicate) {
            ++stat_rejected_;
            return;
        }
        const bool fails_first = may_match && !matchesOn(first_eval_, 0);
        if (fails_first && (duplicate || bank_full)) {
            ++stat_rejected_;
            return;
        }

        // Build, and evaluate the remaining counterexamples (there
        // are at least the two seeds) in one call.
        Entry entry;
        entry.width = op.out_width;
        entry.op = op_idx;
        entry.imm_slot = slot;
        entry.cost = tree_cost + op.latency;
        entry.depth = depth;
        std::copy(operands, operands + arity, entry.args.begin());
        entry.evals.reserve(cexs_.size());
        entry.evals.push_back(first_eval_);
        arg_scratch_.clear();
        for (size_t c = 1; c < cexs_.size(); ++c)
            for (size_t a = 0; a < arity; ++a)
                arg_scratch_.push_back(&bank_[operands[a]].evals[c]);
        entry.evals.resize(cexs_.size());
        evalOpBatch(op_idx, slot, arg_scratch_.data(), cexs_.size() - 1,
                    &entry.evals[1]);
        const bool match = may_match && !fails_first && goalMatches(entry, 1);
        if (!match && (duplicate || bank_full)) {
            ++stat_rejected_;
            return;
        }
        if (match) {
            // Store solutions unconditionally (bypassing dedup).
            const int idx = static_cast<int>(bank_.size());
            bank_.push_back(std::move(entry));
            ++stored_this_op;
            if (best < 0 || bank_[idx].cost < bank_[best].cost)
                best = idx;
            return;
        }
        pushEntry(std::move(entry), sig);
        ++stored_this_op;
    }

    /** The immediate of `op` in pool slot `slot` (0 without one). */
    int64_t
    immAt(const GrammarOp &op, size_t slot) const
    {
        return op.n_imms > 0 ? grammar_.imm_pool[slot] : 0;
    }

    /**
     * The slot of op `op_idx` at immediate slot `slot`, its memo entry
     * resolved: the process-wide memo's mutex is taken once per
     * (op, immediate) for the search's lifetime.
     */
    OpSlot &
    slotAt(int op_idx, size_t slot)
    {
        OpSlot &op_slot = slots_[op_idx * imm_slots_ + slot];
        if (!op_slot.facts) {
            const GrammarOp &op = grammar_.ops[op_idx];
            op_slot.facts = &opFacts(dict_.cls(op.variant.class_id), op,
                                     immAt(op, slot));
        }
        return op_slot;
    }

    /**
     * Evaluate grammar op `op_idx` (immediate slot `slot`) on `calls`
     * argument tuples, laid out as in LaneKernel::evaluateBatch.
     */
    void
    evalOpBatch(int op_idx, size_t slot, const BitVector *const *args,
                size_t calls, BitVector *outs)
    {
        if (const LaneKernel *kernel =
                slotAt(op_idx, slot).facts->kernel.get()) {
            kernel->evaluateBatch(args, calls, outs);
            return;
        }
        const GrammarOp &op = grammar_.ops[op_idx];
        const CanonicalSemantics &sem = dict_.cls(op.variant.class_id).rep;
        const std::vector<int64_t> imms = opImms(op, immAt(op, slot));
        const size_t arity = op.arg_widths.size();
        std::vector<BitVector> values;
        for (size_t c = 0; c < calls; ++c) {
            values.clear();
            for (size_t a = 0; a < arity; ++a)
                values.push_back(*args[c * arity + a]);
            outs[c] = sem.evaluate(values, op.scaled_params, imms);
        }
    }

    BitVector
    evalEntryOn(int root, const std::vector<BitVector> &inputs)
    {
        std::map<int, BitVector> memo;
        return evalEntryRec(root, inputs, memo);
    }

    const BitVector &
    evalEntryRec(int idx, const std::vector<BitVector> &inputs,
                 std::map<int, BitVector> &memo)
    {
        auto it = memo.find(idx);
        if (it != memo.end())
            return it->second;
        const Entry &entry = bank_[idx];
        if (entry.op < 0 && !entry.is_const)
            return inputs[entry.input_index];
        BitVector value(1);
        if (entry.op < 0) {
            value = splat(entry.const_info.value,
                          entry.const_info.elem_width,
                          entry.const_info.lanes);
        } else {
            const GrammarOp &op = grammar_.ops[entry.op];
            const BitVector *args[kMaxOpOperands];
            for (size_t a = 0; a < op.arg_widths.size(); ++a)
                args[a] = &evalEntryRec(entry.args[a], inputs, memo);
            evalOpBatch(entry.op, entry.imm_slot, args, 1, &value);
        }
        return memo.emplace(idx, std::move(value)).first->second;
    }

    ValueRef
    buildModule(int idx, int scale, AutoModule &module,
                std::map<int, ValueRef> &memo,
                InstParams *params) const
    {
        auto it = memo.find(idx);
        if (it != memo.end())
            return it->second;
        const Entry &entry = bank_[idx];
        ValueRef ref;
        if (entry.op < 0) {
            if (entry.is_const) {
                module.constants.push_back(
                    splat(entry.const_info.value,
                          entry.const_info.elem_width,
                          entry.const_info.lanes * scale));
                ref = ValueRef::constant(
                    static_cast<int>(module.constants.size()) - 1);
            } else {
                ref = ValueRef::input(entry.input_index);
            }
        } else {
            const GrammarOp &op = grammar_.ops[entry.op];
            AutoInst inst;
            inst.op = op.variant;
            for (size_t a = 0; a < op.arg_widths.size(); ++a)
                inst.args.push_back(
                    buildModule(entry.args[a], scale, module, memo, params));
            if (op.n_imms > 0)
                inst.int_args.push_back(immAt(op, entry.imm_slot));
            module.insts.push_back(std::move(inst));
            if (params)
                params->push_back(op.scaled_params);
            ref = ValueRef::inst(static_cast<int>(module.insts.size()) - 1);
        }
        memo.emplace(idx, ref);
        return ref;
    }

    const AutoLLVMDict &dict_;
    const Grammar &grammar_;
    HExprPtr window_;
    const SynthesisOptions &options_;
    Stopwatch &watch_;
    std::vector<int> input_widths_;
    int out_width_;
    int out_ew_;
    Rng rng_;
    int max_bank_;
    bool deadline_hit_ = false;
    uint64_t deadline_probe_ = 0;
    std::vector<SplatConst> consts_;

    std::vector<std::vector<BitVector>> cexs_;
    std::vector<BitVector> spec_evals_;
    std::vector<int> failing_lanes_;
    std::vector<Entry> bank_;
    std::unordered_map<uint64_t, int> sig_map_;
    /** Immediate slots per op in slots_ (at least one). */
    size_t imm_slots_;
    /** Per-(op, immediate slot) state; see OpSlot. */
    std::vector<OpSlot> slots_;
    /** Operand pointers for batched evaluation (reused). */
    std::vector<const BitVector *> arg_scratch_;
    /** A candidate's value on the first counterexample (reused). */
    BitVector first_eval_;
    long stat_rejected_ = 0;
    long stat_rejected_static_ = 0;
    int stat_cexs_found_ = 0;
    int stat_sym_refuted_ = 0;
    int stat_sym_unknown_ = 0;
};

/**
 * Prove `module` equivalent to `window` at full width: record the
 * verdict in `result` and count a refutation or an unknown there.
 */
sym::EqResult
proveFullWidth(const AutoLLVMDict &dict, const AutoModule &module,
               const HExprPtr &window, const SynthesisOptions &options,
               SynthesisResult &result)
{
    sym::EqResult eq = sym::checkModuleEquiv(dict, module, window,
                                             options.symbolic_budget);
    result.symbolic_verdict = sym::verdictName(eq.verdict);
    if (eq.verdict == sym::Verdict::Refuted)
        ++result.symbolic_refutations;
    else if (eq.verdict == sym::Verdict::Unknown)
        ++result.symbolic_unknowns;
    return eq;
}

/** One attempt at a given scale. */
SynthesisResult
attempt(const AutoLLVMDict &dict, const std::string &isa,
        const HExprPtr &window, int scale, const SynthesisOptions &options,
        Stopwatch &watch)
{
    SynthesisResult result;
    result.scale = scale;
    HExprPtr scaled = scaleWindow(window, scale);
    if (!scaled) {
        result.note = "window not scalable";
        return result;
    }
    Grammar grammar = buildGrammar(dict, isa, scaled, scale,
                                   options.grammar);
    result.grammar_size = static_cast<int>(grammar.ops.size());
    if (grammar.ops.empty()) {
        result.note = "empty grammar";
        return result;
    }

    Search search(dict, grammar, scaled, options, watch);
    int iterations = 0;
    const int winner = search.run(iterations);
    result.cegis_iterations = iterations;
    result.counterexamples = search.cexCount();
    result.candidates_rejected = search.rejectedCount();
    result.candidates_rejected_static = search.rejectedStaticCount();
    result.symbolic_refutations = search.symRefutations();
    result.symbolic_unknowns = search.symUnknowns();
    if (winner < 0) {
        // Name the cause: a deadline cut and an exhausted space are
        // different fates in the window ledger.
        result.note = search.timedOut() ? "timeout" : "search exhausted";
        return result;
    }

    // Scale up and verify at full width (Algorithm 2 line 23).
    AutoModule module = search.reconstruct(winner, scale);
    Rng rng(kSeed ^ 0xF011);
    bool agrees = false;
    {
        phases::Scope scope(phases::Phase::ConcreteEval);
        agrees = firstConcreteMismatch(dict, module, window, rng,
                                       kVerifyVectors) < 0;
    }
    if (!agrees) {
        result.note = "full-width verification failed";
        return result;
    }
    if (options.symbolic_verify) {
        // Final proof obligation at full width: scaling back up must
        // not have changed the function (Count/RegWidth parameter
        // arithmetic is the usual culprit).
        const sym::EqResult eq =
            proveFullWidth(dict, module, window, options, result);
        if (eq.verdict == sym::Verdict::Refuted) {
            result.note = "full-width symbolic refutation (" + eq.method +
                          " tier)";
            return result;
        }
    }
    result.ok = true;
    result.module = std::move(module);
    result.cost = result.module.cost(dict);
    return result;
}

/**
 * Trust-but-verify warm start: try each retrieved neighbor module
 * against *this* window's specification before any enumeration. A
 * seed passes only if it matches on the verification vectors and
 * (when symbolic verification is on) is not symbolically refuted.
 * Returns true when `result` holds a verified seed.
 */
bool
tryWarmSeeds(const AutoLLVMDict &dict, const HExprPtr &window,
             const SynthesisOptions &options, SynthesisResult &result)
{
    if (options.warm_seeds.empty())
        return false;
    const std::vector<int> widths = windowInputWidths(window);
    Rng rng(kSeed ^ 0x5EED);
    for (const AutoModule &seed : options.warm_seeds) {
        ++result.warm_seeds_tried;
        if (seed.input_widths.size() != widths.size())
            continue;
        bool widths_match = true;
        for (size_t i = 0; i < widths.size(); ++i) {
            // widths[i] == 0 marks an input the window never reads;
            // any seed width works there.
            if (widths[i] != 0 && seed.input_widths[i] != widths[i])
                widths_match = false;
        }
        if (!widths_match)
            continue;
        bool agrees = false;
        {
            phases::Scope scope(phases::Phase::ConcreteEval);
            agrees =
                firstConcreteMismatch(dict, seed, window, rng,
                                      kVerifyVectors) < 0;
        }
        if (!agrees)
            continue; // Neighbor solves a different function — normal.
        if (options.symbolic_verify &&
            proveFullWidth(dict, seed, window, options, result).verdict ==
                sym::Verdict::Refuted) {
            continue;
        }
        result.ok = true;
        result.warm_started = true;
        result.module = seed;
        result.cost = result.module.cost(dict);
        result.note = "warm-start seed";
        return true;
    }
    return false;
}

/** Add `from`'s search-effort counters to `into`. */
void
addEffort(SynthesisResult &into, const SynthesisResult &from)
{
    into.cegis_iterations += from.cegis_iterations;
    into.counterexamples += from.counterexamples;
    into.candidates_rejected += from.candidates_rejected;
    into.candidates_rejected_static += from.candidates_rejected_static;
    into.symbolic_refutations += from.symbolic_refutations;
    into.symbolic_unknowns += from.symbolic_unknowns;
    into.warm_seeds_tried += from.warm_seeds_tried;
}

} // namespace

int
firstConcreteMismatch(const AutoLLVMDict &dict, const AutoModule &module,
                      const HExprPtr &window, Rng &rng, int vectors)
{
    for (int v = 0; v < vectors; ++v) {
        std::vector<BitVector> inputs;
        for (int w : module.input_widths)
            inputs.push_back(BitVector::random(std::max(w, 1), rng));
        if (module.evaluate(dict, inputs) != evalHalide(window, inputs))
            return v;
    }
    return -1;
}

SynthesisResult
synthesizeWindow(const AutoLLVMDict &dict, const std::string &isa,
                 const HExprPtr &window, const SynthesisOptions &options)
{
    phases::WindowScope span("synthesis.cegis.window");
    span.setAttr("isa", isa);
    span.setAttr("lanes", window->lanes);
    span.setAttr("elem_width", window->elem_width);

    Stopwatch watch;
    SynthesisResult result;
    const bool warm = tryWarmSeeds(dict, window, options, result);
    if (warm) {
        static metrics::Counter &warm_hits =
            metrics::counter("synthesis.warm.hits");
        warm_hits.add();
    }
    if (result.warm_seeds_tried > 0) {
        static metrics::Counter &seeds_tried =
            metrics::counter("synthesis.warm.seeds_tried");
        seeds_tried.add(static_cast<uint64_t>(result.warm_seeds_tried));
    }

    int scale = 1;
    if (!warm && options.scaling) {
        // Scale so that roughly four output lanes remain.
        const int lanes = window->lanes;
        while (scale * 8 <= lanes && scaleWindow(window, scale * 2))
            scale *= 2;
    }

    if (!warm) try {
        SynthesisResult searched =
            attempt(dict, isa, window, scale, options, watch);
        // Keep the effort of the warm seeds that failed before the
        // search.
        addEffort(searched, result);
        result = std::move(searched);
    } catch (const AssertionError &error) {
        result.ok = false;
        result.note = std::string("synthesis aborted: ") + error.what();
    }
    result.seconds = watch.seconds();

    span.setAttr("scale", result.scale);
    span.setAttr("ok", result.ok);
    span.setAttr("iterations", result.cegis_iterations);
    span.setAttr("counterexamples", result.counterexamples);
    if (!result.note.empty())
        span.setAttr("note", result.note);

    static metrics::Counter &windows =
        metrics::counter("synthesis.cegis.windows");
    static metrics::Counter &failures =
        metrics::counter("synthesis.cegis.windows_failed");
    static metrics::Counter &iterations =
        metrics::counter("synthesis.cegis.iterations");
    static metrics::Counter &counterexamples =
        metrics::counter("synthesis.cegis.counterexamples");
    static metrics::Counter &rejected =
        metrics::counter("synthesis.cegis.candidates_rejected");
    static metrics::Counter &rejected_static =
        metrics::counter("synthesis.cegis.candidates_rejected_static");
    static metrics::Counter &sym_refuted =
        metrics::counter("synthesis.cegis.symbolic_refutations");
    static metrics::Counter &sym_unknown =
        metrics::counter("synthesis.cegis.symbolic_unknowns");
    static metrics::Counter &deadline_hits =
        metrics::counter("synthesis.cegis.deadline_hits");
    static metrics::Histogram &seconds_hist =
        metrics::histogram("synthesis.window.seconds");
    windows.add();
    if (!result.ok)
        failures.add();
    if (result.note == "timeout")
        deadline_hits.add();
    iterations.add(static_cast<uint64_t>(result.cegis_iterations));
    counterexamples.add(static_cast<uint64_t>(result.counterexamples));
    rejected.add(static_cast<uint64_t>(result.candidates_rejected));
    rejected_static.add(
        static_cast<uint64_t>(result.candidates_rejected_static));
    sym_refuted.add(static_cast<uint64_t>(result.symbolic_refutations));
    sym_unknown.add(static_cast<uint64_t>(result.symbolic_unknowns));
    seconds_hist.observe(result.seconds);

    if (journal::enabled()) {
        // The per-search CEGIS record (the window's one search plus
        // any failed warm seeds); the driver's "window" ledger repeats
        // its counters.
        auto fields = bjson::Value::makeObject();
        fields->set("hash", bjson::Value::makeString(
                                journal::hashHex(HExpr::hashOf(window))));
        fields->set("isa", bjson::Value::makeString(isa));
        fields->set("ok", bjson::Value::makeBool(result.ok));
        fields->set("scale", bjson::Value::makeNumber(result.scale));
        fields->set("grammar",
                    bjson::Value::makeNumber(result.grammar_size));
        fields->set("iterations",
                    bjson::Value::makeNumber(result.cegis_iterations));
        fields->set("counterexamples",
                    bjson::Value::makeNumber(result.counterexamples));
        fields->set("rejected",
                    bjson::Value::makeNumber(result.candidates_rejected));
        fields->set("rejected_static",
                    bjson::Value::makeNumber(
                        result.candidates_rejected_static));
        fields->set("symbolic_refutations",
                    bjson::Value::makeNumber(result.symbolic_refutations));
        fields->set("symbolic_unknowns",
                    bjson::Value::makeNumber(result.symbolic_unknowns));
        fields->set("verdict",
                    bjson::Value::makeString(result.symbolic_verdict));
        fields->set("warm", bjson::Value::makeBool(result.warm_started));
        if (result.warm_seeds_tried > 0)
            fields->set("warm_seeds_tried",
                        bjson::Value::makeNumber(result.warm_seeds_tried));
        if (!result.note.empty())
            fields->set("note", bjson::Value::makeString(result.note));
        fields->set("seconds", bjson::Value::makeNumber(result.seconds));
        journal::emitEvent("cegis", fields);
    }
    return result;
}

} // namespace hydride
