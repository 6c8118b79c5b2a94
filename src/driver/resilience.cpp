#include "driver/resilience.h"

#include "analysis/symbolic/ir_equiv.h"
#include "codegen/lowering.h"
#include "observability/journal/journal.h"
#include "observability/log.h"
#include "observability/metrics.h"
#include "observability/phases.h"
#include "observability/trace.h"
#include "support/error.h"
#include "support/faults.h"
#include "support/rng.h"
#include "support/timing.h"

namespace hydride {

const char *
rungName(Rung rung)
{
    switch (rung) {
    case Rung::Synthesized: return "synthesized";
    case Rung::Cached: return "cached";
    case Rung::MacroExpanded: return "macro_expanded";
    case Rung::Scalarized: return "scalarized";
    case Rung::Failed: return "failed";
    }
    return "unknown";
}

int
scalarizedCost(const HExprPtr &window)
{
    // Lane-by-lane interpretation of every node: far worse than any
    // compiled rung, so cost comparisons and Table-4-style totals
    // make degradation visible instead of hiding it.
    if (!window)
        return 0;
    return HExpr::sizeOf(window) * window->lanes * 4;
}

BitVector
evalResilient(const AutoLLVMDict &dict, const ResilientWindow &window,
              const std::vector<BitVector> &inputs)
{
    if (window.rung == Rung::Scalarized)
        return evalHalide(window.window, inputs);
    HYD_ASSERT(window.ok, "evalResilient on a failed window");
    return window.program.evaluate(dict, inputs);
}

int
ResilientCompilation::staticCost() const
{
    int total = 0;
    for (const auto &window : windows) {
        total += window.rung == Rung::Scalarized
                     ? scalarizedCost(window.window)
                     : window.program.cost();
    }
    return total;
}

namespace {

/** Concrete vectors for a store hit whose symbolic verdict is
 *  unknown. */
constexpr int kStoreVerifyVectors = 16;

/** Neighbor warm start: max signature Hamming distance and how many
 *  store seeds to pass to CEGIS. */
constexpr int kStoreNeighborDistance = 8;
constexpr size_t kStoreNeighborLimit = 4;

/**
 * Run one ladder stage inside a recovery scope. Anything the stage
 * throws — a failed HYD_ASSERT, an injected fault, a CompileError
 * from library code, a bad_alloc from an unbounded search — becomes
 * a structured diagnostic and a false return; the driver then walks
 * on to the next rung. `fatal` (process exit) is reserved for
 * CLI-level argument errors and never reached from these stages.
 */
template <typename Fn>
bool
barrier(const char *stage, ResilientWindow &out,
        std::vector<WindowDiagnostic> &diags, Fn &&fn)
{
    try {
        return fn();
    } catch (const faults::InjectedFault &fault) {
        diags.push_back({fault.site(),
                         std::string("injected fault: ") + fault.what()});
    } catch (const AssertionError &err) {
        diags.push_back({stage, std::string("assertion: ") + err.what()});
    } catch (const ParseError &err) {
        diags.push_back({stage, std::string("parse error: ") + err.what()});
    } catch (const CompileError &err) {
        diags.push_back({stage, err.what()});
    } catch (const std::exception &err) {
        diags.push_back({stage, err.what()});
    }
    out.recovered = true;
    if (journal::enabled()) {
        // Crash-box: dump the flight ring the moment a barrier trips,
        // so the decisions leading up to the failure survive even if
        // the process never reaches the journal's atexit flush.
        journal::flightDump(std::string(stage) + ": " +
                            diags.back().detail);
    }
    return false;
}

/**
 * Trust-but-verify for a retrieved store entry: symbolic equivalence
 * first (the strong tier), concrete sampling when the symbolic
 * verdict is unknown. Returns false — with a reason — when the entry
 * is refuted; the caller quarantines it. `eq` receives the symbolic
 * verdict and the tier that decided it, so an "unknown, then
 * sampled" hit is told apart from a proof. The `store.verify` chaos
 * seam forces a refutation to exercise the poisoning path.
 */
bool
verifyRetrieved(const AutoLLVMDict &dict, const HExprPtr &window,
                const AutoModule &module, const sym::EqBudget &budget,
                int concrete_vectors, std::string &why, sym::EqResult &eq)
{
    if (faults::shouldFail("store.verify")) {
        why = "injected store.verify fault";
        return false;
    }
    eq = sym::checkModuleEquiv(dict, module, window, budget);
    if (eq.verdict == sym::Verdict::Proved) {
        metrics::counter("resilience.store.verify.proved").add();
        HYD_LOG(Debug, "store hit proved (" + eq.method + " tier)");
        return true;
    }
    if (eq.verdict == sym::Verdict::Refuted) {
        why = "symbolically refuted (" + eq.method + " tier)";
        return false;
    }
    metrics::counter("resilience.store.verify.unknown").add();
    HYD_LOG(Debug, "store hit unknown (" + eq.reason +
                       "); sampling concretely");
    // Unknown verdict: fall back to concrete sampling. Fixed seed so
    // a poisoned entry fails deterministically run to run.
    Rng rng(0x570F3u ^ HExpr::hashOf(window));
    const int mismatch =
        firstConcreteMismatch(dict, module, window, rng, concrete_vectors);
    if (mismatch >= 0) {
        why = "concrete counterexample (vector " + std::to_string(mismatch) +
              ")";
        return false;
    }
    return true;
}

} // namespace

ResilientCompiler::ResilientCompiler(const AutoLLVMDict &dict,
                                     std::string isa, int vector_bits,
                                     ResilienceOptions options,
                                     SynthesisCache *cache)
    : dict_(dict), isa_(std::move(isa)), vector_bits_(vector_bits),
      options_(std::move(options)), cache_(cache ? cache : &own_cache_),
      fallback_(dict, isa_, vector_bits)
{
    if (!options_.store_path.empty()) {
        // A store that cannot open is a degraded session, not a
        // failed one: warm starts are an optimization, never a
        // dependency.
        if (!store_.open(options_.store_path, dict_, options_.store)) {
            HYD_LOG(Warn, "synthesis store unavailable (" +
                              store_.openStats().error +
                              "); compiling cold");
            metrics::counter("resilience.store.open_failures").add();
        }
    }
}

void
ResilientCompiler::noteRecovery(ResilientWindow &out,
                                const std::string &site,
                                const std::string &detail)
{
    out.diagnostics.push_back({site, detail});
    metrics::counter("resilience.recovered." + site).add();
}

bool
ResilientCompiler::tryPrimary(const HExprPtr &window, ResilientWindow &out)
{
    std::vector<WindowDiagnostic> diags;
    const bool success = barrier("stage.primary", out, diags, [&] {
        // Whole-recovery-scope chaos seam: proves the barrier itself
        // catches a fault thrown between stages.
        faults::failPoint("compiler.window");

        if (const SynthesisResult *cached = cache_->lookup(window, isa_)) {
            if (!cached->ok) {
                // Negative entry: synthesis already failed for this
                // shape; skip straight to the fallback rungs.
                out.cache_outcome = "negative";
                metrics::counter("resilience.negative_cache.skips").add();
                out.diagnostics.push_back(
                    {"synthesis.cache",
                     "negative cache entry; skipping synthesis"});
                return false;
            }
            out.cache_outcome = "hit";
            LoweringResult lowered =
                lowerToTarget(cached->module, dict_, isa_);
            if (!lowered.ok) {
                out.diagnostics.push_back(
                    {"stage.lowering", "cached result no longer lowers: " +
                                           lowered.error});
                return false;
            }
            out.rung = Rung::Cached;
            out.synth = *cached;
            out.program = std::move(lowered.program);
            return true;
        }

        out.cache_outcome = "miss";

        // The in-process cache missed; the durable store gets the
        // next word. An exact hit is re-proved before acceptance
        // (trust-but-verify) — a failing entry is demoted to the
        // quarantine and the ladder continues as if the store had
        // missed, so a poisoned record can never reach codegen.
        if (store_.isOpen()) {
            if (const SynthesisResult *stored =
                    store_.find(window, isa_)) {
                if (!stored->ok) {
                    out.cache_outcome = "store_negative";
                    metrics::counter("resilience.store.negative_skips")
                        .add();
                    cache_->insertByKey({HExpr::hashOf(window), isa_},
                                        *stored);
                    out.diagnostics.push_back(
                        {"synthesis.store",
                         "negative store entry; skipping synthesis"});
                    return false;
                }
                std::string why;
                sym::EqResult eq;
                const bool trusted =
                    !options_.store_verify ||
                    verifyRetrieved(dict_, window, stored->module,
                                    options_.synthesis.symbolic_budget,
                                    kStoreVerifyVectors, why, eq);
                if (trusted) {
                    LoweringResult lowered =
                        lowerToTarget(stored->module, dict_, isa_);
                    if (lowered.ok) {
                        out.cache_outcome = "store_hit";
                        metrics::counter("resilience.store.hits").add();
                        out.rung = Rung::Cached;
                        out.synth = *stored;
                        // The ledger reports this compile's re-proof
                        // (none without store_verify), not the
                        // verdict recorded at synthesis time.
                        const bool verified = options_.store_verify;
                        out.synth.symbolic_verdict =
                            verified ? sym::verdictName(eq.verdict) : "";
                        out.synth.symbolic_unknowns =
                            verified && eq.verdict == sym::Verdict::Unknown;
                        cache_->insertByKey({HExpr::hashOf(window), isa_},
                                            out.synth);
                        out.program = std::move(lowered.program);
                        return true;
                    }
                    out.diagnostics.push_back(
                        {"stage.lowering",
                         "stored result no longer lowers: " +
                             lowered.error});
                } else {
                    metrics::counter("resilience.store.poisoned").add();
                    out.diagnostics.push_back(
                        {"store.verify",
                         "store entry failed verification (" + why +
                             "); quarantined"});
                    store_.quarantine(window, isa_, why);
                }
                // Fall through to ordinary synthesis either way.
            }
        }

        SynthesisOptions synth_options = options_.synthesis;
        if (store_.isOpen()) {
            // Approximate warm start: modules that solved windows a
            // few signature bits away. CEGIS verifies each against
            // *this* window's spec before using it, so a wrong
            // neighbor costs a few evaluations, never correctness.
            for (const auto &neighbor :
                 store_.nearest(window, isa_, kStoreNeighborDistance,
                                kStoreNeighborLimit)) {
                synth_options.warm_seeds.push_back(
                    neighbor.result->module);
            }
            out.store_seeds =
                static_cast<int>(synth_options.warm_seeds.size());
            if (out.store_seeds > 0) {
                metrics::counter("resilience.store.seeded")
                    .add(static_cast<uint64_t>(out.store_seeds));
            }
        }
        SynthesisResult synth =
            synthesizeWindow(dict_, isa_, window, synth_options);
        cache_->insert(window, isa_, synth);
        if (store_.isOpen()) {
            // Share the outcome — positive or negative — with every
            // other process on this store. A failed append is only a
            // lost optimization (logged inside append()).
            store_.append(window, isa_, synth);
        }
        if (!synth.ok) {
            out.diagnostics.push_back(
                {"stage.synthesis", "synthesis failed: " + synth.note});
            // Keep the failed attempt's search effort: the window
            // ledger reports CEGIS iterations even for degraded rungs.
            out.synth = std::move(synth);
            return false;
        }
        LoweringResult lowered = lowerToTarget(synth.module, dict_, isa_);
        if (!lowered.ok) {
            out.diagnostics.push_back(
                {"stage.lowering",
                 "synthesized window does not lower: " + lowered.error});
            out.synth = std::move(synth);
            return false;
        }
        out.rung = Rung::Synthesized;
        out.synth = std::move(synth);
        out.program = std::move(lowered.program);
        return true;
    });
    for (auto &diag : diags)
        noteRecovery(out, diag.site, diag.detail);
    return success;
}

bool
ResilientCompiler::tryMacro(const HExprPtr &window, ResilientWindow &out)
{
    std::vector<WindowDiagnostic> diags;
    const bool success = barrier("stage.macro", out, diags, [&] {
        ExpandResult expanded = fallback_.expand(window);
        if (!expanded.ok) {
            out.diagnostics.push_back(
                {"stage.macro", "macro expansion failed: " + expanded.error});
            return false;
        }
        out.rung = Rung::MacroExpanded;
        out.program = std::move(expanded.program);
        return true;
    });
    for (auto &diag : diags)
        noteRecovery(out, diag.site, diag.detail);
    return success;
}

ResilientWindow
ResilientCompiler::compileWindow(const HExprPtr &window)
{
    ResilientWindow out;
    out.window = window;
    Stopwatch watch;
    CpuStopwatch cpu;
    phases::WindowScope span("driver.resilience.window");
    span.setAttr("isa", isa_);
    metrics::counter("resilience.windows").add();

    out.ok = tryPrimary(window, out);
    if (!out.ok && options_.allow_macro_fallback)
        out.ok = tryMacro(window, out);
    if (!out.ok && options_.allow_scalarized) {
        // The rung of last resort cannot fail: the window *is* its
        // own specification, evaluated directly by evalHalide.
        out.rung = Rung::Scalarized;
        out.program = TargetProgram{};
        out.ok = true;
    }
    if (!out.ok) {
        out.rung = Rung::Failed;
        metrics::counter("resilience.failed_windows").add();
        HYD_LOG(Warn, "window failed every enabled rung on " + isa_ +
                          (out.diagnostics.empty()
                               ? std::string()
                               : ": " + out.diagnostics.back().detail));
    }
    if (out.rung != Rung::Synthesized && out.rung != Rung::Cached)
        metrics::counter("resilience.degradations").add();
    metrics::counter(std::string("resilience.rung.") + rungName(out.rung))
        .add();

    out.seconds = watch.seconds();
    span.setAttr("rung", rungName(out.rung));
    span.setAttr("recovered", out.recovered);
    span.setAttr("diagnostics",
                 static_cast<int64_t>(out.diagnostics.size()));

    if (journal::enabled()) {
        // The decision ledger: everything `hydride-inspect explain`
        // prints for this window comes from this one event.
        journal::WindowLedger ledger;
        ledger.window_hash = journal::hashHex(HExpr::hashOf(window));
        ledger.isa = isa_;
        ledger.lanes = window->lanes;
        ledger.elem_width = window->elem_width;
        ledger.nodes = HExpr::sizeOf(window);
        ledger.cache = out.cache_outcome;
        ledger.rung = rungName(out.rung);
        ledger.store_seeds = out.store_seeds;
        ledger.warm_started = out.synth.warm_started;
        ledger.cegis_iterations = out.synth.cegis_iterations;
        ledger.counterexamples = out.synth.counterexamples;
        ledger.candidates_rejected = out.synth.candidates_rejected;
        ledger.candidates_rejected_static =
            static_cast<int>(out.synth.candidates_rejected_static);
        ledger.symbolic_refutations = out.synth.symbolic_refutations;
        ledger.symbolic_unknowns = out.synth.symbolic_unknowns;
        ledger.symbolic_verdict = out.synth.symbolic_verdict;
        ledger.note = out.synth.note;
        ledger.retries = out.retries;
        ledger.recovered = out.recovered;
        ledger.cost = out.rung == Rung::Scalarized
                          ? scalarizedCost(window)
                          : out.program.cost();
        for (const auto &inst : out.program.insts)
            ledger.insts.push_back(inst.inst_name);
        for (const auto &diag : out.diagnostics)
            ledger.faults.emplace_back(diag.site, diag.detail);
        ledger.wall_ms = watch.millis();
        ledger.cpu_ms = cpu.millis();
        journal::emitWindow(ledger);
    }
    return out;
}

ResilientCompilation
ResilientCompiler::compile(const Kernel &kernel)
{
    ResilientCompilation out;
    out.kernel = kernel.name;
    out.isa = isa_;
    trace::TraceSpan span("driver.resilience.kernel");
    span.setAttr("kernel", kernel.name);
    span.setAttr("isa", isa_);
    Stopwatch watch;
    for (size_t w = 0; w < kernel.windows.size(); ++w) {
        const HExprPtr &window = kernel.windows[w];
        std::vector<HExprPtr> pieces =
            splitWindow(window, options_.synthesis.window_depth,
                        halideInputCount(window), vector_bits_);
        for (const auto &piece : pieces) {
            ResilientWindow compiled = compileWindow(piece);
            out.degraded_windows += (compiled.rung != Rung::Synthesized &&
                                     compiled.rung != Rung::Cached)
                                        ? 1
                                        : 0;
            out.failed_windows += compiled.ok ? 0 : 1;
            out.windows.push_back(std::move(compiled));
            out.pieces.push_back(piece);
            out.piece_group.push_back(static_cast<int>(w));
        }
    }
    out.compile_seconds = watch.seconds();
    span.setAttr("pieces", static_cast<int64_t>(out.pieces.size()));
    span.setAttr("degraded", out.degraded_windows);
    span.setAttr("failed", out.failed_windows);
    return out;
}

} // namespace hydride
