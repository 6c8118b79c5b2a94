/**
 * @file
 * Solver-core tests for the symbolic equivalence engine: AIG folding
 * and budgets, the known-bits lattice, Tseitin encoding + DPLL against
 * truth tables, a differential fuzz of checkEquiv verdicts against
 * exhaustive enumeration at small widths, and the pinned work of one
 * store-hit re-proof.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <tuple>
#include <utility>

#include "analysis/symbolic/equiv.h"
#include "analysis/symbolic/ir_equiv.h"
#include "analysis/symbolic/sat.h"
#include "halide/kernels.h"
#include "support/rng.h"
#include "synthesis/cegis.h"

namespace hydride {
namespace {

using sym::Aig;
using sym::kFalseLit;
using sym::KnownBits;
using sym::kTrueLit;
using sym::Lit;
using sym::litNot;
using sym::litVar;

// ---- AIG builder --------------------------------------------------------

TEST(Aig, ConstantAndComplementFolding)
{
    Aig aig;
    const Lit a = aig.addInput();
    const Lit b = aig.addInput();
    EXPECT_EQ(aig.mkAnd(a, kFalseLit), kFalseLit);
    EXPECT_EQ(aig.mkAnd(kFalseLit, b), kFalseLit);
    EXPECT_EQ(aig.mkAnd(a, kTrueLit), a);
    EXPECT_EQ(aig.mkAnd(kTrueLit, b), b);
    EXPECT_EQ(aig.mkAnd(a, a), a);
    EXPECT_EQ(aig.mkAnd(a, litNot(a)), kFalseLit);
    EXPECT_EQ(aig.mkXor(a, a), kFalseLit);
    EXPECT_EQ(aig.mkXor(a, litNot(a)), kTrueLit);
    EXPECT_EQ(aig.mkMux(kTrueLit, a, b), a);
    EXPECT_EQ(aig.mkMux(kFalseLit, a, b), b);
}

TEST(Aig, StructuralHashingSharesGates)
{
    Aig aig;
    const Lit a = aig.addInput();
    const Lit b = aig.addInput();
    const Lit g1 = aig.mkAnd(a, b);
    const size_t nodes = aig.numNodes();
    // Same gate again — in either operand order — allocates nothing.
    EXPECT_EQ(aig.mkAnd(a, b), g1);
    EXPECT_EQ(aig.mkAnd(b, a), g1);
    EXPECT_EQ(aig.numNodes(), nodes);
    // A genuinely different gate does allocate.
    aig.mkAnd(a, litNot(b));
    EXPECT_EQ(aig.numNodes(), nodes + 1);
}

TEST(Aig, NodeBudgetOverflowIsSticky)
{
    Aig aig(/*node_budget=*/8);
    std::vector<Lit> inputs;
    for (int i = 0; i < 6; ++i)
        inputs.push_back(aig.addInput());
    Lit acc = inputs[0];
    for (int round = 0; round < 64 && !aig.overflowed(); ++round)
        for (size_t i = 1; i < inputs.size(); ++i)
            acc = aig.mkAnd(aig.mkXor(acc, inputs[i]), inputs[i - 1]);
    EXPECT_TRUE(aig.overflowed());
    // Past the budget the builder still returns well-formed literals.
    const Lit l = aig.mkAnd(acc, inputs[1]);
    EXPECT_LT(litVar(l), aig.numNodes());
    EXPECT_TRUE(aig.overflowed());
}

/** Aig::mkAnd's contract over an ordered map: the same folds and
 *  operand normalization, and AND nodes numbered in creation order
 *  after the constant and the inputs. */
class ReferenceAig
{
  public:
    explicit ReferenceAig(uint32_t inputs)
        : next_var_(1 + inputs)
    {
    }

    Lit
    mkAnd(Lit a, Lit b)
    {
        if (a > b)
            std::swap(a, b);
        if (a == kFalseLit || a == litNot(b))
            return kFalseLit;
        if (a == kTrueLit)
            return b;
        if (a == b)
            return a;
        const auto [it, inserted] = vars_.try_emplace({a, b}, next_var_);
        if (inserted)
            ++next_var_;
        return it->second << 1;
    }

    size_t distinctPairs() const { return vars_.size(); }

  private:
    uint32_t next_var_;
    std::map<std::pair<Lit, Lit>, uint32_t> vars_;
};

TEST(Aig, FlatHashMatchesReferenceModel)
{
    // Random gates over a growing literal pool, a third of them
    // repeats of earlier queries (in either operand order), some of
    // them folds. Half the fresh gates take one operand from the few
    // input literals, so many stored pairs share an operand and probe
    // runs mix them. Every literal must match the reference, through
    // many table doublings.
    constexpr int kInputs = 48;
    constexpr int kCalls = 240000;
    Aig aig;
    ReferenceAig ref(kInputs);
    std::vector<Lit> pool = {kFalseLit, kTrueLit};
    for (int i = 0; i < kInputs; ++i)
        pool.push_back(aig.addInput());
    const size_t initial_slots = aig.hashSlots();
    std::vector<std::pair<Lit, Lit>> asked;
    asked.reserve(kCalls);
    Rng rng(0xA16);
    for (int call = 0; call < kCalls; ++call) {
        Lit a, b;
        const uint64_t kind = rng.nextBelow(12);
        if (!asked.empty() && kind < 4) {
            std::tie(a, b) = asked[rng.nextBelow(asked.size())];
            if (rng.nextBool())
                std::swap(a, b);
        } else {
            // Recent literals build deep cones; any literal, shallow
            // ones. Either may come complemented.
            const size_t recent = std::min<size_t>(pool.size(), 64);
            a = (kind < 9 ? pool[2 + rng.nextBelow(kInputs)]
                          : pool[pool.size() - 1 - rng.nextBelow(recent)]) ^
                static_cast<Lit>(rng.nextBool());
            b = kind == 4   ? a
                : kind == 5 ? litNot(a)
                            : pool[rng.nextBelow(pool.size())] ^
                                  static_cast<Lit>(rng.nextBool());
        }
        const size_t before = aig.numNodes();
        const Lit got = aig.mkAnd(a, b);
        ASSERT_EQ(got, ref.mkAnd(a, b)) << "call " << call;
        asked.emplace_back(a, b);
        if (aig.numNodes() > before)
            pool.push_back(got);
    }
    EXPECT_FALSE(aig.overflowed());
    EXPECT_EQ(aig.numNodes(), 1 + kInputs + ref.distinctPairs());
    EXPECT_GE(aig.hashSlots(), initial_slots << 6);
    // At most half full.
    EXPECT_LE(2 * ref.distinctPairs(), aig.hashSlots());
}

/** A fresh pair of inputs and their AND (three nodes). */
Lit
addGate(Aig &aig)
{
    const Lit a = aig.addInput();
    return aig.mkAnd(a, aig.addInput());
}

/** Node count right after the gate that first doubles the table. */
size_t
nodesAtFirstGrowth()
{
    Aig aig;
    const size_t initial_slots = aig.hashSlots();
    while (aig.hashSlots() == initial_slots)
        addGate(aig);
    return aig.numNodes();
}

TEST(Aig, NodeBudgetOverflowAtGrowthBoundary)
{
    // Two budgets at the first table doubling: one whose last node is
    // the gate that doubles the table, and one that refuses exactly
    // that gate. Either way the next new gate overflows, the flag
    // stays set, no node is added, and gates built inside the budget
    // still hash to their nodes.
    const size_t growth_nodes = nodesAtFirstGrowth();
    for (const size_t budget : {growth_nodes, growth_nodes - 1}) {
        SCOPED_TRACE("budget " + std::to_string(budget));
        const bool grows = budget == growth_nodes;
        Aig aig(budget);
        const size_t initial_slots = aig.hashSlots();
        std::vector<Lit> gates;
        while (aig.numNodes() + 3 <= budget)
            gates.push_back(addGate(aig));
        ASSERT_FALSE(aig.overflowed());
        ASSERT_EQ(aig.numNodes(), grows ? budget : budget - 2);
        EXPECT_EQ(aig.hashSlots() > initial_slots, grows);

        if (grows) {
            EXPECT_EQ(aig.mkAnd(gates[0], gates[1]), kFalseLit);
        } else {
            // Its inputs fit; its AND is the one that would grow.
            EXPECT_EQ(addGate(aig), kFalseLit);
        }
        EXPECT_TRUE(aig.overflowed());
        EXPECT_EQ(aig.hashSlots() > initial_slots, grows);
        const size_t nodes = aig.numNodes();
        EXPECT_EQ(nodes, budget);

        for (const Lit gate : gates) {
            const Aig::Node &n = aig.node(litVar(gate));
            EXPECT_EQ(aig.mkAnd(n.b, n.a), gate);
        }
        EXPECT_EQ(aig.mkAnd(gates[1], litNot(gates[2])), kFalseLit);
        EXPECT_TRUE(aig.overflowed());
        EXPECT_EQ(aig.numNodes(), nodes);
    }
}

TEST(Aig, EvalLitMatchesTruthTable)
{
    Aig aig;
    const Lit a = aig.addInput();
    const Lit b = aig.addInput();
    const Lit c = aig.addInput();
    const Lit f = aig.mkMux(a, aig.mkXor(b, c), aig.mkAnd(b, litNot(c)));
    for (int v = 0; v < 8; ++v) {
        const bool va = v & 1, vb = v & 2, vc = v & 4;
        const bool expect = va ? (vb != vc) : (vb && !vc);
        EXPECT_EQ(aig.evalLit(f, {va, vb, vc}), expect) << v;
    }
}

// ---- Known-bits lattice -------------------------------------------------

TEST(KnownBitsLattice, JoinKeepsOnlyAgreedBits)
{
    const KnownBits a = KnownBits::constant(BitVector::fromUint(4, 0b1010));
    const KnownBits b = KnownBits::constant(BitVector::fromUint(4, 0b1011));
    const KnownBits j = KnownBits::join(a, b);
    EXPECT_TRUE(j.contains(BitVector::fromUint(4, 0b1010)));
    EXPECT_TRUE(j.contains(BitVector::fromUint(4, 0b1011)));
    // Bit 0 (the disagreement) must have become unknown; the rest stay.
    EXPECT_FALSE(j.known.getBit(0));
    EXPECT_TRUE(j.known.getBit(1));
    EXPECT_TRUE(j.known.getBit(3));
    // Joining with top yields top.
    const KnownBits t = KnownBits::join(a, KnownBits::top(4));
    EXPECT_TRUE(t.known.isZero());
}

TEST(KnownBitsLattice, AddPropagatesCarriesThroughKnownBits)
{
    // a = ????01, b = 000001: the low bits 01 + 1 = 10 with no carry
    // out, so the two low result bits are known even though a's high
    // bits are not.
    const KnownBits a(BitVector::fromUint(6, 0b000011),
                      BitVector::fromUint(6, 0b000001));
    const KnownBits b = KnownBits::constant(BitVector::fromUint(6, 1));
    const KnownBits sum = kbAdd(a, b);
    EXPECT_TRUE(sum.known.getBit(0));
    EXPECT_TRUE(sum.known.getBit(1));
    EXPECT_FALSE(sum.value.getBit(0));
    EXPECT_TRUE(sum.value.getBit(1));
}

TEST(KnownBitsLattice, TransferFunctionsAreSound)
{
    // Randomized soundness: whenever the abstract inputs represent the
    // concrete inputs, the abstract result must represent the concrete
    // result. This is the property the proved-verdict tier relies on.
    Rng rng(0xC0FFEE11u);
    const int w = 8;
    for (int trial = 0; trial < 500; ++trial) {
        const BitVector ca = BitVector::random(w, rng);
        const BitVector cb = BitVector::random(w, rng);
        const BitVector mask_a = BitVector::random(w, rng);
        const BitVector mask_b = BitVector::random(w, rng);
        const KnownBits a(mask_a, ca.bvand(mask_a));
        const KnownBits b(mask_b, cb.bvand(mask_b));
        ASSERT_TRUE(a.contains(ca));
        ASSERT_TRUE(b.contains(cb));
        EXPECT_TRUE(kbAnd(a, b).contains(ca.bvand(cb)));
        EXPECT_TRUE(kbOr(a, b).contains(ca.bvor(cb)));
        EXPECT_TRUE(kbXor(a, b).contains(ca.bvxor(cb)));
        EXPECT_TRUE(kbNot(a).contains(ca.bvnot()));
        EXPECT_TRUE(kbAdd(a, b).contains(ca.add(cb)));
        EXPECT_TRUE(kbSub(a, b).contains(ca.sub(cb)));
        EXPECT_TRUE(kbNeg(a).contains(ca.neg()));
        const int amount = static_cast<int>(rng.nextBelow(w + 3));
        EXPECT_TRUE(kbShl(a, amount).contains(ca.shl(amount)));
        EXPECT_TRUE(kbLShr(a, amount).contains(ca.lshr(amount)));
        EXPECT_TRUE(kbAShr(a, amount).contains(ca.ashr(amount)));
        EXPECT_TRUE(kbSext(a, w + 4).contains(ca.sext(w + 4)));
        EXPECT_TRUE(kbZext(a, w + 4).contains(ca.zext(w + 4)));
        EXPECT_TRUE(kbTrunc(a, w - 3).contains(ca.trunc(w - 3)));
        EXPECT_TRUE(kbExtract(a, 2, 4).contains(ca.extract(2, 4)));
        EXPECT_TRUE(kbConcat(a, b).contains(BitVector::concat(ca, cb)));
        EXPECT_TRUE(kbSelect(a, a, b).contains(ca.isZero() ? cb : ca));
    }
}

// ---- Tseitin + DPLL -----------------------------------------------------

TEST(Sat, TrivialContradictionIsUnsat)
{
    sym::SatSolver solver(1);
    solver.addClause({Lit(2 * 0)});
    solver.addClause({Lit(2 * 0 + 1)});
    EXPECT_EQ(solver.solve(1000).status, sym::SatStatus::Unsat);
}

TEST(Sat, ModelSatisfiesAllClauses)
{
    // (x0 | x1) & (~x0 | x1) & (~x1 | x2)
    const std::vector<std::vector<Lit>> clauses = {
        {0, 2}, {1, 2}, {3, 4}};
    sym::SatSolver solver(3);
    for (const auto &c : clauses)
        solver.addClause(c);
    const sym::SatResult r = solver.solve(1000);
    ASSERT_EQ(r.status, sym::SatStatus::Sat);
    for (const auto &clause : clauses) {
        bool satisfied = false;
        for (Lit l : clause)
            satisfied = satisfied ||
                        (r.model[litVar(l)] != 0) != sym::litInverted(l);
        EXPECT_TRUE(satisfied);
    }
}

TEST(Sat, TseitinAgreesWithTruthTableOnRandomCircuits)
{
    Rng rng(0x7AB1E5u);
    for (int trial = 0; trial < 40; ++trial) {
        Aig aig;
        std::vector<Lit> pool;
        const int num_inputs = 4 + static_cast<int>(rng.nextBelow(3));
        for (int i = 0; i < num_inputs; ++i)
            pool.push_back(aig.addInput());
        for (int g = 0; g < 20; ++g) {
            Lit a = pool[rng.nextBelow(pool.size())];
            Lit b = pool[rng.nextBelow(pool.size())];
            if (rng.nextBelow(2)) a = litNot(a);
            if (rng.nextBelow(2)) b = litNot(b);
            pool.push_back(rng.nextBelow(2) ? aig.mkAnd(a, b)
                                            : aig.mkXor(a, b));
        }
        Lit root = pool.back();
        if (rng.nextBelow(2))
            root = litNot(root);

        // Ground truth by exhaustive evaluation.
        bool satisfiable = false;
        for (uint64_t v = 0; v < (uint64_t(1) << num_inputs); ++v) {
            std::vector<uint8_t> in(num_inputs);
            for (int i = 0; i < num_inputs; ++i)
                in[i] = (v >> i) & 1;
            if (aig.evalLit(root, in)) {
                satisfiable = true;
                break;
            }
        }

        sym::SatSolver solver;
        cnfFromAig(aig, root, solver);
        const sym::SatResult r = solver.solve(100000);
        ASSERT_NE(r.status, sym::SatStatus::Budget) << trial;
        EXPECT_EQ(r.status == sym::SatStatus::Sat, satisfiable) << trial;
        if (r.status == sym::SatStatus::Sat) {
            // The model must actually drive the circuit to true —
            // solver vars coincide with AIG node indices.
            std::vector<uint8_t> in(num_inputs);
            for (uint32_t var = 0; var < aig.numNodes(); ++var)
                if (aig.isInput(var))
                    in[aig.inputIndex(var)] =
                        var < r.model.size() ? r.model[var] : 0;
            EXPECT_TRUE(aig.evalLit(root, in)) << trial;
        }
    }
}

// ---- checkEquiv differential fuzz ---------------------------------------

/** A tiny expression tree over two bitvector arguments, evaluated
 *  concretely, over AIG vectors, and over known-bits from the same
 *  structure — exactly the BVFun contract. */
struct Tree
{
    int input = -1; ///< >= 0: argument index; otherwise binary node.
    BVBinOp op = BVBinOp::Add;
    std::shared_ptr<Tree> l, r;
};

using TreePtr = std::shared_ptr<Tree>;

TreePtr leaf(int input)
{
    auto t = std::make_shared<Tree>();
    t->input = input;
    return t;
}

TreePtr node(BVBinOp op, TreePtr l, TreePtr r)
{
    auto t = std::make_shared<Tree>();
    t->op = op;
    t->l = std::move(l);
    t->r = std::move(r);
    return t;
}

BitVector
evalTreeConcrete(const Tree &t, const std::vector<BitVector> &args)
{
    if (t.input >= 0)
        return args[static_cast<size_t>(t.input)];
    return applyBVBinOp(t.op, evalTreeConcrete(*t.l, args),
                        evalTreeConcrete(*t.r, args));
}

template <typename Domain, typename V>
V
evalTreeDom(const Tree &t, Domain &dom, const std::vector<V> &args)
{
    if (t.input >= 0)
        return args[static_cast<size_t>(t.input)];
    return dom.binOp(t.op, evalTreeDom(*t.l, dom, args),
                     evalTreeDom(*t.r, dom, args));
}

sym::BVFun
funFromTree(TreePtr tree, int width, int inputs = 2)
{
    sym::BVFun fun;
    fun.arg_widths.assign(static_cast<size_t>(inputs), width);
    fun.concrete = [tree](const std::vector<BitVector> &args) {
        return evalTreeConcrete(*tree, args);
    };
    fun.symbolic = [tree](sym::AigDomain &dom,
                          const std::vector<sym::SymVec> &args) {
        return evalTreeDom(*tree, dom, args);
    };
    fun.knownbits = [tree](sym::KnownBitsDomain &dom,
                           const std::vector<KnownBits> &args) {
        return evalTreeDom(*tree, dom, args);
    };
    fun.intervals = [tree](dataflow::IntervalDomain &dom,
                           const std::vector<dataflow::Interval> &args) {
        return evalTreeDom(*tree, dom, args);
    };
    return fun;
}

/** Exhaustively compare two trees over all `inputs` arguments of
 *  `width` bits. */
bool
exhaustivelyEqual(const Tree &a, const Tree &b, int width, int inputs = 2)
{
    const uint64_t mask = (uint64_t(1) << width) - 1;
    std::vector<BitVector> args(static_cast<size_t>(inputs));
    for (uint64_t code = 0; code < (uint64_t(1) << (width * inputs));
         ++code) {
        for (int i = 0; i < inputs; ++i)
            args[i] = BitVector::fromUint(width, (code >> (i * width)) & mask);
        if (evalTreeConcrete(a, args) != evalTreeConcrete(b, args))
            return false;
    }
    return true;
}

/** Bit-blast two trees into one AIG (as checkEquiv does) and return
 *  whether the domain built the very same literal vector for both. */
bool
blastsIdentically(const Tree &a, const Tree &b, int width, int inputs)
{
    Aig aig;
    sym::AigDomain dom(aig);
    std::vector<sym::SymVec> args;
    for (int i = 0; i < inputs; ++i)
        args.push_back(sym::svInputs(aig, width));
    return evalTreeDom(a, dom, args).bits == evalTreeDom(b, dom, args).bits;
}

TEST(CheckEquiv, ProvesAlgebraicIdentities)
{
    const int w = 6;
    const sym::EqBudget budget;
    const TreePtr a = leaf(0), b = leaf(1);
    const struct
    {
        const char *name;
        TreePtr lhs, rhs;
    } identities[] = {
        {"add-commutes", node(BVBinOp::Add, a, b), node(BVBinOp::Add, b, a)},
        {"xor-via-and-or",
         node(BVBinOp::Xor, a, b),
         node(BVBinOp::Xor, node(BVBinOp::And, a, b),
              node(BVBinOp::Or, a, b))},
        {"minmax-partition",
         node(BVBinOp::Add, node(BVBinOp::MinU, a, b),
              node(BVBinOp::MaxU, a, b)),
         node(BVBinOp::Add, a, b)},
    };
    for (const auto &id : identities) {
        ASSERT_TRUE(exhaustivelyEqual(*id.lhs, *id.rhs, w)) << id.name;
        const sym::EqResult r = sym::checkEquiv(
            funFromTree(id.lhs, w), funFromTree(id.rhs, w), budget);
        EXPECT_EQ(r.verdict, sym::Verdict::Proved)
            << id.name << ": " << r.method << " " << r.reason;
    }
}

TEST(CheckEquiv, RefutesWithValidatedModels)
{
    const int w = 6;
    const sym::EqBudget budget;
    const TreePtr a = leaf(0), b = leaf(1);
    const struct
    {
        const char *name;
        TreePtr lhs, rhs;
    } wrongs[] = {
        {"sub-anticommutes", node(BVBinOp::Sub, a, b),
         node(BVBinOp::Sub, b, a)},
        {"saturation-matters", node(BVBinOp::AddSatS, a, b),
         node(BVBinOp::Add, a, b)},
        {"signedness-matters", node(BVBinOp::MinS, a, b),
         node(BVBinOp::MinU, a, b)},
    };
    for (const auto &wrong : wrongs) {
        const sym::EqResult r = sym::checkEquiv(
            funFromTree(wrong.lhs, w), funFromTree(wrong.rhs, w), budget);
        ASSERT_EQ(r.verdict, sym::Verdict::Refuted) << wrong.name;
        ASSERT_EQ(r.model.size(), 2u) << wrong.name;
        // The reported model must be a genuine counterexample.
        EXPECT_NE(evalTreeConcrete(*wrong.lhs, r.model),
                  evalTreeConcrete(*wrong.rhs, r.model))
            << wrong.name;
    }
}

TEST(CheckEquiv, VerdictsAgreeWithExhaustiveEnumeration)
{
    // Differential fuzz: random tree pairs at 2x6 = 12 input bits.
    // Every proved verdict is checked against exhaustive enumeration
    // (soundness), every refutation model is re-run concretely, and
    // nothing this small may exhaust the default budgets.
    const int w = 6;
    const sym::EqBudget budget;
    const BVBinOp ops[] = {BVBinOp::Add,     BVBinOp::Sub,
                           BVBinOp::Mul,     BVBinOp::And,
                           BVBinOp::Or,      BVBinOp::Xor,
                           BVBinOp::AddSatS, BVBinOp::SubSatU,
                           BVBinOp::MinS,    BVBinOp::MaxU,
                           BVBinOp::AvgU,    BVBinOp::UDiv};
    Rng rng(0xF0221u);
    const std::function<TreePtr(int)> randomTree = [&](int depth) {
        if (depth == 0 || rng.nextBelow(3) == 0)
            return leaf(static_cast<int>(rng.nextBelow(2)));
        return node(ops[rng.nextBelow(std::size(ops))],
                    randomTree(depth - 1), randomTree(depth - 1));
    };
    int proved = 0, refuted = 0;
    for (int trial = 0; trial < 40; ++trial) {
        const TreePtr lhs = randomTree(3);
        const TreePtr rhs = rng.nextBelow(4) == 0
                                ? lhs // guaranteed-equivalent pair
                                : randomTree(3);
        const sym::EqResult r = sym::checkEquiv(
            funFromTree(lhs, w), funFromTree(rhs, w), budget);
        ASSERT_NE(r.verdict, sym::Verdict::Unknown)
            << trial << ": " << r.reason;
        const bool equal = exhaustivelyEqual(*lhs, *rhs, w);
        if (r.verdict == sym::Verdict::Proved) {
            ++proved;
            EXPECT_TRUE(equal) << trial;
        } else {
            ++refuted;
            EXPECT_FALSE(equal) << trial;
            ASSERT_EQ(r.model.size(), 2u);
            EXPECT_NE(evalTreeConcrete(*lhs, r.model),
                      evalTreeConcrete(*rhs, r.model))
                << trial;
        }
    }
    // The fuzz must exercise both verdicts to mean anything.
    EXPECT_GT(proved, 0);
    EXPECT_GT(refuted, 0);
}

TEST(CheckEquiv, OperandOrderAndAssociationProveStructurally)
{
    // The store re-proof shapes (commuted multiplies and maxima,
    // reassociated max chains) must close in the structural tier:
    // AigDomain canonicalizes operand order, so both sides bit-blast
    // to one circuit and the SAT core never runs.
    const TreePtr a = leaf(0), b = leaf(1), c = leaf(2);
    const struct
    {
        const char *name;
        TreePtr lhs, rhs;
    } identities[] = {
        {"mul-commutes", node(BVBinOp::Mul, a, b), node(BVBinOp::Mul, b, a)},
        {"add-reassociates", node(BVBinOp::Add, node(BVBinOp::Add, a, b), c),
         node(BVBinOp::Add, a, node(BVBinOp::Add, b, c))},
        {"maxu-reorders",
         node(BVBinOp::MaxU, node(BVBinOp::MaxU, a, b), c),
         node(BVBinOp::MaxU, node(BVBinOp::MaxU, c, a), b)},
        {"addsatu-commutes", node(BVBinOp::AddSatU, a, b),
         node(BVBinOp::AddSatU, b, a)},
        {"mixed-tree", node(BVBinOp::MaxS, node(BVBinOp::Add, a, b), c),
         node(BVBinOp::MaxS, c, node(BVBinOp::Add, b, a))},
    };
    for (const int w : {8, 16}) {
        for (const auto &id : identities) {
            const sym::EqResult r =
                sym::checkEquiv(funFromTree(id.lhs, w, 3),
                                funFromTree(id.rhs, w, 3), sym::EqBudget{});
            EXPECT_EQ(r.verdict, sym::Verdict::Proved)
                << id.name << "@" << w << ": " << r.reason;
            EXPECT_EQ(r.method, "structural") << id.name << "@" << w;
            EXPECT_EQ(r.conflicts, 0) << id.name << "@" << w;
        }
    }
}

TEST(CheckEquiv, CanonicalOrderNeverMergesAcrossOps)
{
    // Sub is not commutative, and max(a + b, c) is not max(a, b + c):
    // leaves are only ever spliced into a term of the *same* op, so
    // neither pair may share a circuit, and both must be refuted.
    const TreePtr a = leaf(0), b = leaf(1), c = leaf(2);
    const struct
    {
        const char *name;
        TreePtr lhs, rhs;
    } wrongs[] = {
        {"sub-anticommutes", node(BVBinOp::Sub, a, b),
         node(BVBinOp::Sub, b, a)},
        {"max-of-sums", node(BVBinOp::MaxS, node(BVBinOp::Add, a, b), c),
         node(BVBinOp::MaxS, a, node(BVBinOp::Add, b, c))},
    };
    for (const int w : {8, 16}) {
        for (const auto &wrong : wrongs) {
            EXPECT_FALSE(blastsIdentically(*wrong.lhs, *wrong.rhs, w, 3))
                << wrong.name << "@" << w;
            const sym::EqResult r = sym::checkEquiv(
                funFromTree(wrong.lhs, w, 3), funFromTree(wrong.rhs, w, 3),
                sym::EqBudget{});
            ASSERT_EQ(r.verdict, sym::Verdict::Refuted)
                << wrong.name << "@" << w;
            EXPECT_NE(evalTreeConcrete(*wrong.lhs, r.model),
                      evalTreeConcrete(*wrong.rhs, r.model))
                << wrong.name << "@" << w;
        }
    }
}

TEST(CheckEquiv, CanonicalOrderFuzzAgreesWithEnumeration)
{
    // Soundness fuzz for operand canonicalization: random chains of
    // associative-commutative ops (depth >= 3) mixed with the
    // commutative-only ops and Sub/Shl. A randomly commuted and
    // reassociated copy must prove; the same copy with one leaf
    // perturbed must be refuted whenever exhaustive enumeration finds
    // a difference, and must never be refuted when it finds none.
    const BVBinOp ops[] = {
        BVBinOp::Add,     BVBinOp::Mul,     BVBinOp::And,  BVBinOp::Or,
        BVBinOp::Xor,     BVBinOp::MinS,    BVBinOp::MaxS, BVBinOp::MinU,
        BVBinOp::MaxU,    BVBinOp::AddSatS, BVBinOp::AddSatU,
        BVBinOp::AvgU,    BVBinOp::AvgS,    BVBinOp::Sub,  BVBinOp::Shl};
    const auto associative = [](BVBinOp op) {
        return op == BVBinOp::Add || op == BVBinOp::Mul ||
               op == BVBinOp::And || op == BVBinOp::Or ||
               op == BVBinOp::Xor || op == BVBinOp::MinS ||
               op == BVBinOp::MaxS || op == BVBinOp::MinU ||
               op == BVBinOp::MaxU;
    };
    const auto commutative = [&](BVBinOp op) {
        return associative(op) || op == BVBinOp::AddSatS ||
               op == BVBinOp::AddSatU || op == BVBinOp::AvgU ||
               op == BVBinOp::AvgS;
    };
    Rng rng(0xAC0DEu);
    int inputs = 2;
    // A chain: the parent's op continues with probability 1/2, and
    // one child of every node (the spine) reaches the full depth.
    const std::function<TreePtr(int, BVBinOp)> chain = [&](int depth,
                                                           BVBinOp parent) {
        if (depth == 0)
            return leaf(static_cast<int>(rng.nextBelow(inputs)));
        const BVBinOp op = associative(parent) && rng.nextBelow(2) == 0
                               ? parent
                               : ops[rng.nextBelow(std::size(ops))];
        TreePtr spine = chain(depth - 1, op);
        TreePtr other = chain(static_cast<int>(rng.nextBelow(depth)), op);
        if (rng.nextBelow(2) == 0)
            std::swap(spine, other);
        return node(op, spine, other);
    };
    // Commute commutative nodes and rotate same-op chains at random.
    const std::function<TreePtr(const TreePtr &)> shuffle =
        [&](const TreePtr &t) {
            if (t->input >= 0)
                return t;
            TreePtr l = shuffle(t->l), r = shuffle(t->r);
            if (commutative(t->op) && rng.nextBelow(2) == 0)
                std::swap(l, r);
            if (associative(t->op) && rng.nextBelow(2) == 0) {
                if (l->input < 0 && l->op == t->op) // (x.y).r -> x.(y.r)
                    return node(t->op, l->l, node(t->op, l->r, r));
                if (r->input < 0 && r->op == t->op) // l.(x.y) -> (l.x).y
                    return node(t->op, node(t->op, l, r->l), r->r);
            }
            return node(t->op, l, r);
        };
    // Replace leaf number `target` (in-order) with another input.
    const std::function<TreePtr(const TreePtr &, int &)> perturb =
        [&](const TreePtr &t, int &target) {
            if (t->input >= 0) {
                if (target-- != 0)
                    return t;
                return leaf((t->input + 1 +
                             static_cast<int>(rng.nextBelow(inputs - 1))) %
                            inputs);
            }
            TreePtr l = perturb(t->l, target);
            TreePtr r = perturb(t->r, target);
            return node(t->op, l, r);
        };
    const std::function<int(const Tree &)> leaves = [&](const Tree &t) {
        return t.input >= 0 ? 1 : leaves(*t.l) + leaves(*t.r);
    };

    int pairs = 0, structural = 0, differing = 0;
    for (int trial = 0; trial < 1000; ++trial) {
        const int w = 2 + static_cast<int>(rng.nextBelow(5)); // 2..6
        inputs = w <= 3 ? 3 : 2;                               // <= 12 bits
        const TreePtr lhs = chain(3 + static_cast<int>(rng.nextBelow(2)),
                                  BVBinOp::Sub);
        const TreePtr copy = shuffle(lhs);
        int target = static_cast<int>(rng.nextBelow(leaves(*copy)));
        const TreePtr wrong = perturb(copy, target);
        const sym::EqBudget budget;

        ASSERT_TRUE(exhaustivelyEqual(*lhs, *copy, w, inputs)) << trial;
        const sym::EqResult same = sym::checkEquiv(
            funFromTree(lhs, w, inputs), funFromTree(copy, w, inputs), budget);
        ASSERT_EQ(same.verdict, sym::Verdict::Proved)
            << trial << ": " << same.method << " " << same.reason;
        structural += same.method == "structural";

        const bool differs = !exhaustivelyEqual(*lhs, *wrong, w, inputs);
        const sym::EqResult r = sym::checkEquiv(
            funFromTree(lhs, w, inputs), funFromTree(wrong, w, inputs), budget);
        if (differs) {
            ++differing;
            ASSERT_EQ(r.verdict, sym::Verdict::Refuted)
                << trial << ": " << r.method << " " << r.reason;
            EXPECT_NE(evalTreeConcrete(*lhs, r.model),
                      evalTreeConcrete(*wrong, r.model))
                << trial;
        } else {
            ASSERT_EQ(r.verdict, sym::Verdict::Proved)
                << trial << ": " << r.method << " " << r.reason;
        }
        pairs += 2;
    }
    EXPECT_GE(pairs, 2000);
    // Canonical order, not the SAT core, proves the shuffled copies.
    // A few may not: at 2 bits distinct subterms can hash to the same
    // literals, so a shuffle may change which leaves a term records.
    EXPECT_GE(structural, 990);
    // Perturbations must mostly change the function to mean anything.
    EXPECT_GT(differing, 500);
}

/** ult(urem(x, 5), 6) over any domain: a range fact that bitwise
 *  tracking cannot decide (urem(x, 5) has three unknown low bits, so
 *  its known-bits maximum is 7 >= 6) but intervals settle instantly
 *  (urem(x, 5) is in [0, 4] and 4 < 6). */
template <typename Domain>
typename Domain::Value
evalRangeFact(Domain &dom, const typename Domain::Value &x)
{
    const auto five = dom.constant(BitVector::fromUint(8, 5));
    const auto six = dom.constant(BitVector::fromUint(8, 6));
    return dom.cmp(BVCmpOp::Ult, dom.binOp(BVBinOp::URem, x, five), six);
}

TEST(CheckEquiv, IntervalTierProvesRangeFacts)
{
    sym::BVFun lhs;
    lhs.arg_widths = {8};
    lhs.concrete = [](const std::vector<BitVector> &args) {
        const BitVector rem = args[0].urem(BitVector::fromUint(8, 5));
        return BitVector::fromUint(1, rem.ult(BitVector::fromUint(8, 6)));
    };
    lhs.symbolic = [](sym::AigDomain &dom,
                      const std::vector<sym::SymVec> &args) {
        return evalRangeFact(dom, args[0]);
    };
    lhs.knownbits = [](sym::KnownBitsDomain &dom,
                       const std::vector<KnownBits> &args) {
        return evalRangeFact(dom, args[0]);
    };
    lhs.intervals = [](dataflow::IntervalDomain &dom,
                       const std::vector<dataflow::Interval> &args) {
        return evalRangeFact(dom, args[0]);
    };

    sym::BVFun rhs;
    rhs.arg_widths = {8};
    const BitVector one = BitVector::fromUint(1, 1);
    rhs.concrete = [one](const std::vector<BitVector> &) { return one; };
    rhs.symbolic = [one](sym::AigDomain &dom,
                         const std::vector<sym::SymVec> &) {
        return dom.constant(one);
    };
    rhs.knownbits = [one](sym::KnownBitsDomain &dom,
                          const std::vector<KnownBits> &) {
        return dom.constant(one);
    };
    rhs.intervals = [one](dataflow::IntervalDomain &dom,
                          const std::vector<dataflow::Interval> &) {
        return dom.constant(one);
    };

    const sym::EqResult r = sym::checkEquiv(lhs, rhs, sym::EqBudget{});
    EXPECT_EQ(r.verdict, sym::Verdict::Proved) << r.method << " " << r.reason;
    // The interval tier must have decided — earlier tiers cannot:
    // sampling never refutes an equivalence, and known-bits leaves the
    // comparison bit unknown.
    EXPECT_EQ(r.method, "interval");
}

TEST(CheckEquiv, BudgetExhaustionIsUnknownNeverProved)
{
    // An equivalent-but-nonstructural pair under a starvation budget:
    // concrete sampling cannot refute (they are equal), known-bits
    // cannot prove (mul degrades to top), and the AIG tier overflows.
    const int w = 8;
    const TreePtr a = leaf(0), b = leaf(1);
    sym::EqBudget budget;
    budget.max_nodes = 64;
    budget.max_conflicts = 1;
    const sym::EqResult r =
        sym::checkEquiv(funFromTree(node(BVBinOp::Mul, a, b), w),
                        funFromTree(node(BVBinOp::Mul, b, a), w), budget);
    EXPECT_EQ(r.verdict, sym::Verdict::Unknown);
    EXPECT_FALSE(r.reason.empty());
}

TEST(CheckEquiv, Dot2AccStoreReproofIsStructural)
{
    // The heaviest re-proof a warm durable store pays: x86 matmul_bias
    // window 0, a 16 x i32 `a + sum b*c`, against its synthesized
    // `_mm512_dpwssd_epi32`. Both sides bit-blast to the same circuit
    // of 32-bit multipliers, so the miter hashes to constant false.
    // The node count is the builder's work; a faster builder must
    // build exactly this circuit.
    const AutoLLVMDict dict = AutoLLVMDict::build({"x86"});
    Schedule schedule;
    schedule.vector_bits = 512;
    const HExprPtr window = buildKernel("matmul_bias", schedule).windows.at(0);
    const SynthesisResult synth = synthesizeWindow(dict, "x86", window);
    ASSERT_TRUE(synth.ok) << synth.note;
    ASSERT_EQ(synth.module.insts.size(), 1u);
    EXPECT_EQ(synth.module.insts[0].op.member(dict).name,
              "_mm512_dpwssd_epi32");

    const sym::EqResult eq = sym::checkModuleEquiv(
        dict, synth.module, window, SynthesisOptions{}.symbolic_budget);
    EXPECT_EQ(eq.verdict, sym::Verdict::Proved) << eq.reason;
    EXPECT_EQ(eq.method, "structural");
    EXPECT_EQ(eq.aig_nodes, 176209u);
    EXPECT_EQ(eq.conflicts, 0);
}

} // namespace
} // namespace hydride
