/**
 * @file
 * And-Inverter Graph: the bit-level circuit representation behind the
 * symbolic equivalence checker (docs/symbolic_engine.md).
 *
 * Every boolean function the checker reasons about is built from
 * two-input AND gates and inverters. Literals encode a node index and
 * a complement bit (`2*var + inverted`), so inversion is free. The
 * builder structural-hashes every AND: two syntactically identical
 * gates share one node, operands are order-normalized, and constant /
 * idempotence / complement rules fold eagerly. This is what makes the
 * common "both sides lower to the same circuit" equivalence queries
 * cheap — the miter collapses to constant false during construction
 * and the SAT core is never invoked. The hash is a flat open-addressing
 * table of node indices (power-of-two capacity, linear probing, at
 * most half full), so a gate costs no allocation of its own.
 *
 * Node allocation is budgeted: once `nodeBudget()` is exceeded the
 * builder keeps returning well-formed literals but raises the
 * `overflowed()` flag, and the caller must report `unknown(budget)`
 * instead of trusting any further result.
 */
#ifndef HYDRIDE_ANALYSIS_SYMBOLIC_AIG_H
#define HYDRIDE_ANALYSIS_SYMBOLIC_AIG_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hydride {
namespace sym {

/** A literal: node index * 2 + complement flag. */
using Lit = uint32_t;

constexpr Lit kFalseLit = 0; ///< Constant false (node 0, plain).
constexpr Lit kTrueLit = 1;  ///< Constant true (node 0, inverted).

inline Lit litNot(Lit l) { return l ^ 1u; }
inline uint32_t litVar(Lit l) { return l >> 1; }
inline bool litInverted(Lit l) { return l & 1u; }

/** Structurally-hashed AND-inverter graph builder. */
class Aig
{
  public:
    static constexpr size_t kDefaultNodeBudget = size_t(1) << 22;

    explicit Aig(size_t node_budget = kDefaultNodeBudget);

    /** A fresh unconstrained input; returns its (plain) literal. */
    Lit addInput();

    Lit constLit(bool value) const { return value ? kTrueLit : kFalseLit; }

    /** a AND b with folding + structural hashing. */
    Lit mkAnd(Lit a, Lit b);

    Lit mkOr(Lit a, Lit b) { return litNot(mkAnd(litNot(a), litNot(b))); }
    Lit mkXor(Lit a, Lit b);
    Lit mkXnor(Lit a, Lit b) { return litNot(mkXor(a, b)); }
    /** sel ? t : e. */
    Lit mkMux(Lit sel, Lit t, Lit e);

    /** Total nodes (constant + inputs + AND gates). */
    size_t numNodes() const { return nodes_.size(); }

    /** True once the node budget has been exceeded; results built
     *  after that point are unusable (report unknown). */
    bool overflowed() const { return overflowed_; }
    size_t nodeBudget() const { return node_budget_; }

    bool isInput(uint32_t var) const;
    bool isAnd(uint32_t var) const;

    /** Operand literals of an AND node. */
    struct Node
    {
        Lit a = 0;
        Lit b = 0;
    };
    const Node &node(uint32_t var) const { return nodes_[var]; }

    /**
     * Evaluate a literal under concrete input values (indexed by
     * input creation order). Used to validate SAT refutation models
     * and by the solver-core unit tests.
     */
    bool evalLit(Lit root, const std::vector<uint8_t> &input_values) const;

    /** Input ordinal of an input var (creation order). */
    int inputIndex(uint32_t var) const;

    /** Slots in the structural hash table (a power of two). */
    size_t hashSlots() const { return table_.size(); }

  private:
    /** Home slot of the normalized pair (a, b). */
    size_t slotOf(Lit a, Lit b) const;
    /** Double the table and re-place every AND node. */
    void grow();

    std::vector<Node> nodes_;          ///< Node 0 = constant false.
    std::vector<int> input_index_;     ///< Per-var input ordinal or -1.
    int num_inputs_ = 0;
    /** Structural hash: AND var per slot, 0 = empty (var 0 is the
     *  constant, never an AND). */
    std::vector<uint32_t> table_;
    size_t num_ands_ = 0;
    int slot_shift_;                   ///< 64 - log2(table_.size()).
    size_t node_budget_;
    bool overflowed_ = false;
};

} // namespace sym
} // namespace hydride

#endif // HYDRIDE_ANALYSIS_SYMBOLIC_AIG_H
