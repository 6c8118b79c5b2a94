/**
 * @file
 * The resilient compilation driver: per-window error barriers with a
 * guaranteed degradation ladder.
 *
 * This is Hydride's one compile driver: the paper's pipeline
 * (memoization cache -> CEGIS synthesis -> 1-1 lowering, with macro
 * expansion for windows synthesis cannot handle, §4.1-4.2) run inside
 * a *recovery scope* per window. Any stage may throw (a failed
 * invariant, an injected fault from support/faults.h, an exhausted
 * budget) or simply report failure, and the driver walks down a fixed
 * ladder until something succeeds:
 *
 *   Synthesized  — CEGIS found a program and it lowered (best).
 *   Cached       — a previous synthesis result was reused.
 *   MacroExpanded— per-operation instruction selection (the baseline
 *                  compiler's output; correct, usually slower).
 *   Scalarized   — the window is kept as a Halide expression and
 *                  evaluated directly (evalHalide). Trivially
 *                  equivalent to the spec by construction, with a
 *                  punitive static cost; the rung of last resort.
 *   Failed       — only when scalarization is explicitly disabled;
 *                  carries structured diagnostics, never an abort.
 *
 * The invariant the chaos harness (tools/hydride_chaos.cpp) checks:
 * for every registered fault site, compilation through this driver
 * either produces a verified-equivalent (possibly degraded) program
 * or a structured diagnostic — never a crash, process exit, or
 * silently wrong code.
 *
 * Every degradation is observable: `resilience.*` metrics count
 * windows per rung, recoveries per fault site, and escalated
 * retries; the `driver.resilience.window` trace span records the
 * rung each window landed on.
 */
#ifndef HYDRIDE_DRIVER_RESILIENCE_H
#define HYDRIDE_DRIVER_RESILIENCE_H

#include <string>
#include <vector>

#include "codegen/macro_expand.h"
#include "halide/kernels.h"
#include "synthesis/cache.h"
#include "synthesis/store/store.h"

namespace hydride {

/** The degradation ladder, best rung first. */
enum class Rung {
    Synthesized,
    Cached,
    MacroExpanded,
    Scalarized,
    Failed,
};

/** Stable lower-case rung name ("synthesized", ...). */
const char *rungName(Rung rung);

/** Driver policy knobs. */
struct ResilienceOptions
{
    SynthesisOptions synthesis;
    /**
     * When synthesis fails specifically on its deadline (not search
     * exhaustion — escalation cannot help an exhausted grammar),
     * retry once with escalated time and symbolic budgets. The paper
     * benches (HydrideBackend) turn this off.
     */
    bool retry_escalated = true;
    /** Disable rungs (the chaos harness's --break-ladder mode uses
     *  these to prove the harness detects a broken ladder). */
    bool allow_macro_fallback = true;
    bool allow_scalarized = true;
    /**
     * Durable synthesis store (synthesis/store/store.h). Empty path
     * disables it. When open: exact hits short-circuit synthesis
     * (after verification, below), near misses seed CEGIS warm
     * starts, and fresh synthesis results are appended for other
     * processes. A store that fails to open degrades to "no store" —
     * it never takes compilation down.
     */
    std::string store_path;
    SynthesisStore::Options store;
    /**
     * Trust-but-verify for retrieved *exact* store hits: re-prove the
     * module against the window (symbolic tier first, concrete
     * vectors when the symbolic verdict is unknown) before accepting.
     * A failing entry is quarantined (`store_poisoned` journal event)
     * and the driver falls through to ordinary synthesis — a poisoned
     * store entry can never reach codegen.
     */
    bool store_verify = true;
};

/** One recovered failure on the way down the ladder. */
struct WindowDiagnostic
{
    /** Fault site or stage name ("cegis.timeout", "stage.lowering"). */
    std::string site;
    std::string detail;
};

/** Outcome of resiliently compiling one window. */
struct ResilientWindow
{
    Rung rung = Rung::Failed;
    bool ok = false;
    bool from_cache = false;
    /** Memoization outcome: "hit", "miss", "negative", or "none"
     *  when a fault tripped before the lookup ran; "store_hit" /
     *  "store_negative" when the durable store answered after the
     *  in-process cache missed. */
    std::string cache_outcome = "none";
    /** Warm-start seeds retrieved from the store for this window. */
    int store_seeds = 0;
    /** Escalated synthesis retries performed (0 or 1). */
    int retries = 0;
    /** A caught error was degraded past (ok may still be true). */
    bool recovered = false;
    /** Target program; empty for the Scalarized and Failed rungs. */
    TargetProgram program;
    /** The window itself (evalResilient needs it for Scalarized). */
    HExprPtr window;
    SynthesisResult synth; ///< Valid when rung == Synthesized/Cached.
    double seconds = 0.0;
    std::vector<WindowDiagnostic> diagnostics;
};

/** Outcome of resiliently compiling a whole kernel. */
struct ResilientCompilation
{
    std::string kernel;
    std::string isa;
    std::vector<ResilientWindow> windows;
    /** Effective (split) pieces, one per entry of `windows`. */
    std::vector<HExprPtr> pieces;
    std::vector<int> piece_group;
    double compile_seconds = 0.0;
    /** Windows below the Synthesized/Cached rungs. */
    int degraded_windows = 0;
    int failed_windows = 0;

    bool allOk() const { return failed_windows == 0; }

    /** Static cost across windows (scalarized rungs use
     *  scalarizedCost, so degradation is visible in the total). */
    int staticCost() const;
};

/** Punitive static cost of interpreting a window lane by lane. */
int scalarizedCost(const HExprPtr &window);

/**
 * Evaluate a resiliently compiled window on concrete inputs,
 * dispatching on the rung (target-program semantics for compiled
 * rungs, direct Halide evaluation for Scalarized). The chaos
 * harness verifies every rung through this one entry point.
 */
BitVector evalResilient(const AutoLLVMDict &dict,
                        const ResilientWindow &window,
                        const std::vector<BitVector> &inputs);

/** Error-barrier compiler with the guaranteed degradation ladder. */
class ResilientCompiler
{
  public:
    ResilientCompiler(const AutoLLVMDict &dict, std::string isa,
                      int vector_bits, ResilienceOptions options = {},
                      SynthesisCache *cache = nullptr);

    /** Compile one window; never throws, never exits. */
    ResilientWindow compileWindow(const HExprPtr &window);

    /** Compile a whole kernel through per-window recovery scopes. */
    ResilientCompilation compile(const Kernel &kernel);

    const AutoLLVMDict &dict() const { return dict_; }

    /** The durable store, when ResilienceOptions::store_path opened
     *  one (isOpen() false otherwise). */
    SynthesisStore &store() { return store_; }

  private:
    /** Cache/synthesis/lowering — the Synthesized and Cached rungs. */
    bool tryPrimary(const HExprPtr &window, ResilientWindow &out);
    /** The MacroExpanded rung. */
    bool tryMacro(const HExprPtr &window, ResilientWindow &out);
    void noteRecovery(ResilientWindow &out, const std::string &site,
                      const std::string &detail);

    const AutoLLVMDict &dict_;
    std::string isa_;
    int vector_bits_;
    ResilienceOptions options_;
    SynthesisCache *cache_;
    SynthesisCache own_cache_;
    SynthesisStore store_;
    MacroExpander fallback_;
};

} // namespace hydride

#endif // HYDRIDE_DRIVER_RESILIENCE_H
