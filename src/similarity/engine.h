/**
 * @file
 * The Similarity Checking Engine (paper §3.3, Algorithm 1).
 *
 * Given the canonicalized semantics of every instruction in one or
 * more ISAs, the engine:
 *
 *  1. extracts constants to obtain symbolic semantics (including the
 *     index-offset hole insertion / refinement step, see
 *     extraction.h),
 *  2. groups instructions whose symbolic semantics are structurally
 *     identical into equivalence classes,
 *  3. retries merging with permuted argument orders (mask_blend vs
 *     mask_mov-style variants),
 *  4. verifies every merge by differential evaluation of the class
 *     representative, instantiated with the member's parameters,
 *     against the member's own concrete semantics on random inputs —
 *     the testing stand-in for the paper's SMT equivalence queries
 *     (see DESIGN.md, substitution table),
 *  5. eliminates parameters whose value is identical across the whole
 *     class ("eliminating unnecessary arguments").
 *
 * The resulting classes are exactly what the AutoLLVM IR generator
 * consumes: one retargetable instruction per class.
 */
#ifndef HYDRIDE_SIMILARITY_ENGINE_H
#define HYDRIDE_SIMILARITY_ENGINE_H

#include <string>
#include <vector>

#include "hir/semantics.h"

namespace hydride {

/** One target instruction inside an equivalence class. */
struct ClassMember
{
    std::string name;
    std::string isa;
    int latency = 1;
    /** Concrete values of the class parameters for this instruction. */
    std::vector<int64_t> param_values;
    /** rep argument k reads this member's original argument
     *  arg_perm[k] (identity unless the permutation pass merged it). */
    std::vector<int> arg_perm;
    /** The member's original concrete semantics (for verification and
     *  differential testing). */
    CanonicalSemantics concrete;
};

/** A parameterized equivalence class of similar instructions. */
struct EquivalenceClass
{
    /** Symbolic representative; defaults come from the first member. */
    CanonicalSemantics rep;
    std::vector<ClassMember> members;

    /** True if any member belongs to `isa`. */
    bool coversIsa(const std::string &isa) const;
};

/** Tuning knobs, used by the ablation benchmarks. */
struct SimilarityOptions
{
    bool permute_args = true;
    bool eliminate_dead_params = true;
};

/** Statistics reported alongside the classes. */
struct SimilarityStats
{
    int instructions = 0;
    int structural_merges = 0;
    int permutation_merges = 0;
    int params_eliminated = 0;
    int verification_failures = 0;
    /** Candidate pairs compared (structural + permuted shape checks). */
    long pairs_checked = 0;
};

/** Run Algorithm 1 over canonicalized instruction semantics. */
std::vector<EquivalenceClass>
runSimilarityEngine(const std::vector<CanonicalSemantics> &insts,
                    const SimilarityOptions &options = {},
                    SimilarityStats *stats = nullptr);

} // namespace hydride

#endif // HYDRIDE_SIMILARITY_ENGINE_H
