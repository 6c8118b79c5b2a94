#include "analysis/symbolic/aig.h"

#include <utility>

namespace hydride {
namespace sym {

namespace {

/** Initial structural-hash slots; the table doubles from here. */
constexpr int kInitialSlotBits = 10;

} // namespace

Aig::Aig(size_t node_budget)
    : table_(size_t(1) << kInitialSlotBits, 0),
      slot_shift_(64 - kInitialSlotBits), node_budget_(node_budget)
{
    nodes_.push_back({});       // Node 0: constant false.
    input_index_.push_back(-1);
}

size_t
Aig::slotOf(Lit a, Lit b) const
{
    // Fibonacci hashing: the golden-ratio multiply mixes both operands
    // into the high bits, which index the table.
    const uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> slot_shift_);
}

void
Aig::grow()
{
    table_.assign(table_.size() * 2, 0);
    --slot_shift_;
    const size_t mask = table_.size() - 1;
    // Re-place the AND nodes in creation order: a sequential sweep of
    // the node array instead of chasing the old table's entries.
    for (uint32_t var = 1; var < nodes_.size(); ++var) {
        if (input_index_[var] >= 0)
            continue;
        size_t slot = slotOf(nodes_[var].a, nodes_[var].b);
        while (table_[slot] != 0)
            slot = (slot + 1) & mask;
        table_[slot] = var;
    }
}

Lit
Aig::addInput()
{
    const uint32_t var = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back({});
    input_index_.push_back(num_inputs_++);
    return var << 1;
}

bool
Aig::isInput(uint32_t var) const
{
    return var != 0 && input_index_[var] >= 0;
}

bool
Aig::isAnd(uint32_t var) const
{
    return var != 0 && input_index_[var] < 0;
}

int
Aig::inputIndex(uint32_t var) const
{
    return input_index_[var];
}

Lit
Aig::mkAnd(Lit a, Lit b)
{
    // Operand normalization makes commutative pairs hash-equal.
    if (a > b)
        std::swap(a, b);
    // Constant and trivial folds.
    if (a == kFalseLit || a == litNot(b))
        return kFalseLit;
    if (a == kTrueLit)
        return b;
    if (a == b)
        return a;

    const size_t mask = table_.size() - 1;
    size_t slot = slotOf(a, b);
    for (uint32_t var; (var = table_[slot]) != 0; slot = (slot + 1) & mask) {
        const Node &n = nodes_[var];
        if (n.a == a && n.b == b)
            return var << 1;
    }

    if (nodes_.size() >= node_budget_) {
        // Out of nodes: flag the overflow and return an arbitrary
        // well-formed literal; the caller must discard the result.
        overflowed_ = true;
        return kFalseLit;
    }
    const uint32_t var = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back({a, b});
    input_index_.push_back(-1);
    table_[slot] = var;
    // Keep the table at most half full so probe runs stay short.
    if (2 * ++num_ands_ > table_.size())
        grow();
    return var << 1;
}

Lit
Aig::mkXor(Lit a, Lit b)
{
    // a ^ b = ~(~(a & ~b) & ~(~a & b)); hashing folds shared halves.
    return litNot(mkAnd(litNot(mkAnd(a, litNot(b))),
                        litNot(mkAnd(litNot(a), b))));
}

Lit
Aig::mkMux(Lit sel, Lit t, Lit e)
{
    if (t == e)
        return t;
    return mkOr(mkAnd(sel, t), mkAnd(litNot(sel), e));
}

bool
Aig::evalLit(Lit root, const std::vector<uint8_t> &input_values) const
{
    // Nodes are created in topological order, so one forward sweep
    // over the cone's ancestors (here: all nodes up to root) works.
    const uint32_t root_var = litVar(root);
    std::vector<uint8_t> value(root_var + 1, 0);
    for (uint32_t var = 1; var <= root_var; ++var) {
        const int input = input_index_[var];
        if (input >= 0) {
            value[var] = input < static_cast<int>(input_values.size())
                             ? input_values[input]
                             : 0;
            continue;
        }
        const Node &n = nodes_[var];
        const bool a = value[litVar(n.a)] ^ litInverted(n.a);
        const bool b = value[litVar(n.b)] ^ litInverted(n.b);
        value[var] = a && b;
    }
    return value[root_var] ^ litInverted(root);
}

} // namespace sym
} // namespace hydride
