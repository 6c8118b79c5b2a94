/**
 * @file
 * A small DPLL-style SAT core for the symbolic equivalence checker.
 *
 * The solver consumes CNF produced by Tseitin-encoding an AIG miter
 * (see cnfFromAig) and decides satisfiability with two-watched-literal
 * unit propagation, a static occurrence-count decision order with
 * polarity-by-majority phases, and chronological backtracking. It is
 * deliberately simple: the equivalence checker's proofs normally
 * succeed *structurally* (the miter folds to constant false in the
 * AIG) or through the known-bits tier, so the SAT core's job is
 * mostly to find *models* — concrete refutation inputs for genuinely
 * wrong merges/lowerings — which DPLL finds quickly. Hard UNSAT
 * instances exhaust the conflict budget and surface honestly as
 * `unknown(budget)`.
 *
 * Store re-proofs rely on that: the bit-blaster puts commutative and
 * associative operands in canonical order (AigDomain), so the
 * perfbench `warm_store` hits — `_mm512_dpwssd_epi32(%arg0, %arg2,
 * %arg1)` against `a + sum(b * c)` (a 333 888-node miter; DPLL
 * cannot prove `b * c == c * b` in 50 000 conflicts),
 * `vmaxq_u8(%arg1, %arg0)` against `maxu(in0, in1)`, and
 * `maxu(maxu(in0, in1), in2)` against `maxu(maxu(in2, in0), in1)` —
 * build one circuit on both sides and never reach the solver.
 */
#ifndef HYDRIDE_ANALYSIS_SYMBOLIC_SAT_H
#define HYDRIDE_ANALYSIS_SYMBOLIC_SAT_H

#include <cstdint>
#include <vector>

#include "analysis/symbolic/aig.h"

namespace hydride {
namespace sym {

enum class SatStatus { Sat, Unsat, Budget };

struct SatResult
{
    SatStatus status = SatStatus::Budget;
    /** Variable assignment when Sat (index = solver var; 0/1).
     *  Unconstrained variables default to 0. */
    std::vector<uint8_t> model;
    long conflicts = 0;
};

/** CNF container + DPLL solver over variables [0, num_vars). */
class SatSolver
{
  public:
    explicit SatSolver(uint32_t num_vars = 0);

    /** Add a clause of literals (encoded 2*var + negated); the
     *  variable set grows automatically. */
    void addClause(std::vector<Lit> clause);

    /** Decide satisfiability within `max_conflicts` conflicts. */
    SatResult solve(long max_conflicts);

    uint32_t numVars() const { return num_vars_; }

  private:
    bool assignedTrue(Lit l) const;
    bool assignedFalse(Lit l) const;
    void assign(Lit l);
    void undoTo(size_t trail_size);
    /** Propagate; returns false on conflict. */
    bool propagate();

    uint32_t num_vars_;
    std::vector<std::vector<Lit>> clauses_;
    std::vector<std::vector<uint32_t>> watches_; ///< Per-lit clause ids.
    std::vector<int8_t> value_;                  ///< -1 / 0 / 1 per var.
    std::vector<Lit> trail_;
    size_t qhead_ = 0;
    bool unsat_ = false; ///< Top-level conflict during addClause.

    struct Decision
    {
        size_t trail_size; ///< Trail length before the decision.
        Lit lit;
        bool flipped;
    };
    std::vector<Decision> decisions_;
};

/**
 * Tseitin-encode the cone of `root` and assert it true. Solver
 * variables coincide with AIG node indices. Returns the number of
 * variables used (max var + 1).
 */
uint32_t cnfFromAig(const Aig &aig, Lit root, SatSolver &solver);

} // namespace sym
} // namespace hydride

#endif // HYDRIDE_ANALYSIS_SYMBOLIC_SAT_H
