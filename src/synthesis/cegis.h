/**
 * @file
 * The CEGIS core of Hydride's code synthesizer (paper §4.2,
 * Algorithm 2).
 *
 * Given a Halide-IR window and a target ISA, the synthesizer:
 *
 *  1. scales the window's lane count down (parameterized AutoLLVM
 *     operations scale with it — Count/RegWidth parameters divide by
 *     the scale) to keep bitvectors small;
 *  2. builds the pruned grammar (grammar.h);
 *  3. runs counterexample-guided inductive synthesis: enumerate
 *     candidate AutoLLVM programs in increasing depth, require
 *     agreement with the specification on the accumulated
 *     counterexample inputs — and, when lane-wise checking is on,
 *     only on the accumulated failing lanes — then verify candidates
 *     against the specification on fresh random vectors, feeding any
 *     counterexample (and its first failing lane) back into the loop;
 *  4. scales the winning program back up and re-verifies at full
 *     width. Each window gets one search: a window that slices or
 *     concatenates registers is searched at scale 1 from the start,
 *     and a failed search is not rerun (unlike Algorithm 2 line 26;
 *     see DESIGN.md §1).
 *
 * A search ends by work, not time: `max_insts` depths x grammar ops x
 * `max_combos` operand tuples, `kCegisRounds` rounds, a `kMaxBank`
 * bank. `timeout_seconds` is one safety net that no bench or test
 * reaches; a search that does ends `timeout`, counts
 * `synthesis.cegis.deadline_hits` and fails a bench run. The
 * `cegis.timeout` fault site tests that path.
 *
 * The enumeration uses observational-equivalence deduplication: two
 * candidate values with identical outputs on every counterexample
 * collapse into the cheaper one. This plays the role of the SMT
 * solver's search in Rosette (see DESIGN.md, substitution table).
 */
#ifndef HYDRIDE_SYNTHESIS_CEGIS_H
#define HYDRIDE_SYNTHESIS_CEGIS_H

#include <string>

#include "analysis/symbolic/equiv.h"
#include "autollvm/module.h"
#include "synthesis/grammar.h"

namespace hydride {

class Rng;

/** Synthesis knobs; defaults match the paper's best configuration. */
struct SynthesisOptions
{
    GrammarOptions grammar;
    bool scaling = true;
    bool lanewise = true;
    int max_insts = 3;      ///< Maximum output sequence length.
    int window_depth = 5;   ///< Max expression depth per window (§4.2).
    int max_combos = 4000;  ///< Operand-combination cap per op/depth.
    /** Safety net, not a budget (see the file comment). */
    double timeout_seconds = 120.0;
    /**
     * Re-validate candidates symbolically (the paper's SMT
     * verification): a candidate that survives the random vectors is
     * checked for equivalence on *all* inputs; a refutation model is
     * fed back into the counterexample loop, and the winning module
     * gets a final full-width symbolic check.
     */
    bool symbolic_verify = false;
    sym::EqBudget symbolic_budget;
    /**
     * Static candidate pruning: abstract-interpret each grammar op
     * (interval x known-bits over top arguments) and discard
     * solution-width candidates whose abstract output cannot contain
     * the specification's observed outputs — before any concrete
     * counterexample evaluation. Sound: the abstract value
     * over-approximates the op's outputs for *every* operand choice.
     */
    bool static_prune = true;
    /**
     * Warm-start candidates (synthesis/store/ nearest-neighbor
     * retrieval): full-width modules that solved *structurally
     * similar* windows. Each is tried before any enumeration —
     * trust-but-verify, on the verification vectors and (when
     * `symbolic_verify` is set) symbolically — and the first one that
     * matches this window's specification is returned without a
     * search. A seed that fails is simply skipped: neighbors solving
     * a *different* function is the expected case, not poisoning.
     */
    std::vector<AutoModule> warm_seeds;
};

/** Outcome of synthesizing one window. */
struct SynthesisResult
{
    bool ok = false;
    AutoModule module;  ///< Full-scale program over window inputs.
    int cost = 0;       ///< Latency sum of the module.
    double seconds = 0.0;
    int grammar_size = 0;
    int cegis_iterations = 0;
    int counterexamples = 0;      ///< Counterexample inputs accumulated.
    long candidates_rejected = 0; ///< Dedup/bank-full enumeration rejects.
    /** Solution-width candidates discarded by abstract interpretation
     *  before counterexample evaluation (`static_prune`). */
    long candidates_rejected_static = 0;
    int scale = 1;
    std::string note;
    /** Candidates rejected by a symbolic counterexample (only with
     *  `symbolic_verify`). */
    int symbolic_refutations = 0;
    /** Symbolic queries that exhausted their budget. */
    int symbolic_unknowns = 0;
    /** Final full-width verdict: "proved", "refuted", "unknown", or
     *  empty when symbolic verification was off / never reached. On a
     *  store hit the driver overwrites this and `symbolic_unknowns`
     *  with the verdict of its re-proof. */
    std::string symbolic_verdict;
    /** Warm-start seeds tried before enumeration. */
    int warm_seeds_tried = 0;
    /** True when a verified warm-start seed was returned (no search). */
    bool warm_started = false;
};

/** Synthesize one window for one target ISA. */
SynthesisResult synthesizeWindow(const AutoLLVMDict &dict,
                                 const std::string &isa,
                                 const HExprPtr &window,
                                 const SynthesisOptions &options = {});

/**
 * Concrete differential check: evaluate `module` and `window` on
 * `vectors` random input vectors drawn in order from `rng`. Returns
 * the index of the first vector on which they disagree, or -1.
 */
int firstConcreteMismatch(const AutoLLVMDict &dict, const AutoModule &module,
                          const HExprPtr &window, Rng &rng, int vectors);

/** Rebuild a window with every lane count divided by `scale`;
 *  returns nullptr when the window cannot be scaled. */
HExprPtr scaleWindow(const HExprPtr &window, int scale);

} // namespace hydride

#endif // HYDRIDE_SYNTHESIS_CEGIS_H
