/**
 * @file
 * hydride-chaos: the fault-injection sweep harness.
 *
 * The invariant under test (docs/robustness.md): for every registered
 * fault site, compiling through the resilient driver yields, per
 * window, either a verified-equivalent (possibly degraded) program or
 * a structured diagnostic — never a process abort/exit, a crash, or
 * silently wrong code.
 *
 * Modes:
 *
 *   hydride-chaos                 sweep: re-exec this binary once per
 *                                 registered fault site (plus a
 *                                 fault-free baseline) and summarize.
 *                                 Fresh processes matter: SpecDB and
 *                                 dictionary caches are process-
 *                                 lifetime statics, so seams inside
 *                                 them only trigger in a clean
 *                                 process — and a child that dies on
 *                                 a signal is *reported* as an
 *                                 invariant violation instead of
 *                                 killing the sweep.
 *   hydride-chaos --site S        single-site mode: configure the
 *                                 canonical clause for S, build the
 *                                 dictionary, compile the probe
 *                                 kernels resiliently, verify every
 *                                 window (symbolic first, concrete
 *                                 sampling on Unknown). Exit 0 iff
 *                                 the invariant held.
 *   hydride-chaos --clause C      like --site, but with a verbatim
 *                                 HYDRIDE_FAULTS clause.
 *   hydride-chaos --break-ladder  deliberately disable the macro and
 *                                 scalarized rungs while injecting a
 *                                 primary-path fault: the harness
 *                                 must *fail* (the WILL_FAIL ctest
 *                                 entry proves the harness can detect
 *                                 a broken degradation path).
 *   hydride-chaos --list          print the canonical sweep plan.
 *
 * Multi-process store modes (the crash-safety half of the story —
 * docs/cache_store.md):
 *
 *   --store-crash                 SIGKILL a child mid-append: the
 *                                 parent must salvage the surviving
 *                                 records, take over the dead child's
 *                                 leaked writer lock, and warm-compile
 *                                 from the salvaged store.
 *   --store-concurrent            N forked writers appending to one
 *                                 shard: no record may be lost or
 *                                 torn.
 *   --store-poison                a wrong-but-well-formed store entry
 *                                 must be caught by warm-start
 *                                 verification, quarantined durably,
 *                                 and never reach codegen.
 *   --store-poison-unverified     the same poisoned store compiled
 *                                 with verification disabled: the
 *                                 harness must *fail* (the WILL_FAIL
 *                                 ctest entry proves the harness can
 *                                 detect poison reaching codegen).
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "analysis/symbolic/ir_equiv.h"
#include "driver/resilience.h"
#include "observability/journal/journal.h"
#include "observability/metrics.h"
#include "specs/spec_db.h"
#include "support/error.h"
#include "support/faults.h"
#include "support/rng.h"

namespace hydride {
namespace {

/**
 * Canonical clause per fault site: aggressive enough to actually
 * exercise the seam, gentle enough that the pipeline survives to
 * produce comparable output (e.g. parser faults hit a deterministic
 * 2% of instructions rather than emptying the SpecDB).
 */
const std::vector<std::pair<std::string, std::string>> &
sweepPlan()
{
    static const std::vector<std::pair<std::string, std::string>> plan = {
        {"parser.malformed", "parser.malformed@0.02"},
        {"specdb.corrupt", "specdb.corrupt@0.02"},
        {"similarity.verify", "similarity.verify@0.05"},
        {"cegis.timeout", "cegis.timeout"},
        {"alloc.cap", "alloc.cap=64K"},
        {"symbolic.budget", "symbolic.budget"},
        {"lowering.fail", "lowering.fail"},
        {"store.lock", "store.lock"},
        // Fires on the second append: one record lands cleanly first,
        // so the torn tail has a healthy neighbor to resync past.
        {"store.append", "store.append:2"},
        {"store.load", "store.load:1"},
        {"store.verify", "store.verify"},
        // Alone, macro.fail is unreachable (synthesis succeeds and
        // the expander never runs); compose it with a primary-path
        // fault so the sweep drives the ladder down to Scalarized.
        {"macro.fail", "lowering.fail,macro.fail"},
        {"compiler.window", "compiler.window"},
    };
    return plan;
}

/** Probe kernels: small enough to keep the sweep fast, diverse
 *  enough to reach synthesis, lowering, and macro expansion. */
const std::vector<std::string> kProbeKernels = {"add", "mul",
                                                "average_pool"};

/** Collect per-input total widths referenced by a window piece. */
void
collectInputWidths(const HExprPtr &expr, std::map<int, int> &widths)
{
    if (!expr)
        return;
    if (expr->op == HOp::Input)
        widths[static_cast<int>(expr->imm)] = expr->totalWidth();
    for (const auto &kid : expr->kids)
        collectInputWidths(kid, widths);
}

/**
 * Verify one compiled window against its specification. Symbolic
 * proof first (checkProgramEquiv, hardware view — EQ03); Unknown is
 * first-class and falls back to concrete sampling; Refuted is the
 * one unforgivable outcome (silently wrong code).
 */
bool
verifyWindow(const AutoLLVMDict &dict, const ResilientWindow &window,
             std::string &why)
{
    if (window.rung == Rung::Scalarized)
        return true; // The window is its own program; equal by construction.

    std::map<int, int> widths;
    collectInputWidths(window.window, widths);
    int max_index = -1;
    for (const auto &[index, width] : widths)
        max_index = std::max(max_index, index);

    if (window.rung != Rung::Cached) {
        sym::EqBudget budget;
        budget.max_nodes = size_t(1) << 16;
        budget.max_conflicts = 2000;
        const sym::EqResult eq = sym::checkProgramEquiv(
            dict, window.program, window.window, budget);
        if (eq.verdict == sym::Verdict::Refuted) {
            why = "symbolically refuted (" + eq.method + ")";
            return false;
        }
        if (eq.verdict == sym::Verdict::Proved)
            return true;
        // Unknown: never a pass — fall through to sampling.
    }

    Rng rng(0xC4A05 ^ static_cast<uint64_t>(max_index + 1));
    for (int trial = 0; trial < 16; ++trial) {
        std::vector<BitVector> inputs;
        for (int i = 0; i <= max_index; ++i) {
            auto it = widths.find(i);
            inputs.push_back(
                BitVector::random(it == widths.end() ? 8 : it->second, rng));
        }
        BitVector expected = evalHalide(window.window, inputs);
        BitVector actual;
        try {
            actual = evalResilient(dict, window, inputs);
        } catch (const std::exception &err) {
            why = std::string("evaluation threw: ") + err.what();
            return false;
        }
        if (!(expected == actual)) {
            why = "concrete mismatch on trial " + std::to_string(trial);
            return false;
        }
    }
    return true;
}

/**
 * Check a flight-recorder dump the way docs/observability.md promises
 * it: a single parseable `hydride-flight/v1` document with a reason
 * and at least one enveloped event.
 */
bool
flightDumpValid(const std::string &path, std::string &why)
{
    std::ifstream in(path);
    if (!in) {
        why = "dump `" + path + "` was never written";
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    const bjson::ValuePtr doc = bjson::parse(text.str(), error);
    if (!doc || !doc->isObject()) {
        why = "dump is not a JSON object: " + error;
        return false;
    }
    if (doc->getString("schema", "") != journal::kFlightSchema) {
        why = "dump schema is not " +
              std::string(journal::kFlightSchema);
        return false;
    }
    if (doc->getString("reason", "").empty()) {
        why = "dump carries no reason";
        return false;
    }
    const bjson::Value *events = doc->get("events");
    if (!events || !events->isArray() || events->items.empty()) {
        why = "dump has no events";
        return false;
    }
    for (size_t i = 0; i < events->items.size(); ++i) {
        const bjson::Value &event = *events->items[i];
        if (!event.isObject() || event.getString("kind", "").empty() ||
            event.getNumber("seq", 0) < 1 ||
            event.getNumber("thread", 0) < 1 || !event.get("t_ms")) {
            why = "events[" + std::to_string(i) +
                  "] is missing its envelope";
            return false;
        }
    }
    return true;
}

/** One process-local chaos run; returns the number of violations. */
int
runSite(const std::string &site, const std::string &clause,
        bool break_ladder)
{
    if (!clause.empty()) {
        std::string error;
        if (!faults::configure(clause, &error)) {
            std::fprintf(stderr, "chaos: bad clause `%s`: %s\n",
                         clause.c_str(), error.c_str());
            return 1;
        }
    }

    // Flight-recorder gate: every fault site that trips a window
    // barrier must leave a schema-valid flight dump. Flight-only mode
    // (no journal path set) keeps the ring armed without writing a
    // journal file for each sweep child.
    journal::setFlightDir("/tmp");
    if (!journal::enabled())
        journal::setEnabled(true);
    const std::string flight_path =
        "/tmp/hydride-flight-" + std::to_string(::getpid()) + ".json";
    std::remove(flight_path.c_str());

    int violations = 0;
    const AutoLLVMDict dict = AutoLLVMDict::build({"x86"});
    // The front-half seams (parser.malformed, specdb.corrupt,
    // similarity.verify) fire while manuals are parsed and grouped.
    // Building the dictionary of every manual as well drives the HVX
    // and ARM skip paths too. x86 is parsed first and cached, so the
    // probe dictionary above does not depend on this build.
    AutoLLVMDict::build(builtinIsas());

    ResilienceOptions options;
    options.synthesis.max_insts = 2;
    if (break_ladder) {
        options.allow_macro_fallback = false;
        options.allow_scalarized = false;
    }
    // Every chaos child compiles against a private durable store so
    // the store.* seams sit on the same probe path as everything
    // else: pass 0 appends while compiling cold, pass 1 re-compiles
    // through a fresh compiler and cache whose only memo is the store
    // — driving exact hits (store.verify), shard scans (store.load),
    // and appends (store.lock / store.append) under fault.
    const std::string store_dir =
        "/tmp/hydride_chaos_store." + std::to_string(::getpid());
    std::system(("rm -rf '" + store_dir + "'").c_str());
    options.store_path = store_dir;
    // A leaked writer lock (the store.append crash shape) must be
    // taken over *within* this process's bounded lock wait.
    options.store.stale_lock_age_seconds = 0.5;
    options.store.lock_attempts = 600;

    SynthesisCache cache;
    std::map<std::string, int> rung_counts;
    bool barrier_tripped = false;
    for (int pass = 0; pass < 2; ++pass) {
        SynthesisCache warm_cache;
        ResilientCompiler compiler(dict, "x86", 256, options,
                                   pass == 0 ? &cache : &warm_cache);
        for (const auto &name : kProbeKernels) {
            Schedule schedule;
            Kernel kernel = buildKernel(name, schedule);
            ResilientCompilation compiled = compiler.compile(kernel);
            for (const auto &window : compiled.windows) {
                ++rung_counts[rungName(window.rung)];
                barrier_tripped = barrier_tripped || window.recovered;
                if (!window.ok) {
                    // A Failed rung always carries diagnostics (that
                    // is the structured half of the invariant), but
                    // with the full ladder enabled it must never be
                    // reached at all — scalarization cannot fail.
                    std::fprintf(
                        stderr,
                        "chaos: VIOLATION kernel=%s window failed "
                        "every rung (%s)\n",
                        name.c_str(),
                        window.diagnostics.empty()
                            ? "no diagnostics!"
                            : window.diagnostics.back().detail.c_str());
                    ++violations;
                    continue;
                }
                std::string why;
                if (!verifyWindow(dict, window, why)) {
                    std::fprintf(stderr,
                                 "chaos: VIOLATION kernel=%s rung=%s not "
                                 "equivalent: %s\n",
                                 name.c_str(), rungName(window.rung),
                                 why.c_str());
                    ++violations;
                }
            }
        }
    }

    std::system(("rm -rf '" + store_dir + "'").c_str());

    if (barrier_tripped) {
        std::string why;
        if (!flightDumpValid(flight_path, why)) {
            std::fprintf(stderr,
                         "chaos: VIOLATION site `%s` tripped a window "
                         "barrier but left no schema-valid flight dump: "
                         "%s\n",
                         site.empty() ? "none" : site.c_str(),
                         why.c_str());
            ++violations;
        }
    }
    std::remove(flight_path.c_str());

    if (!site.empty() && site != "none") {
        if (faults::hitCount(site) == 0) {
            std::fprintf(stderr,
                         "chaos: VIOLATION site `%s` was never evaluated "
                         "— the sweep tested nothing\n",
                         site.c_str());
            ++violations;
        } else if (faults::fireCount(site) == 0) {
            std::fprintf(stderr,
                         "chaos: warning: site `%s` was evaluated %ld "
                         "times but never fired\n",
                         site.c_str(), faults::hitCount(site));
        }
    }

    std::printf("chaos: site=%-18s hits=%-5ld fires=%-4ld rungs:",
                site.empty() ? "none" : site.c_str(),
                site.empty() ? 0 : faults::hitCount(site),
                site.empty() ? 0 : faults::fireCount(site));
    for (const auto &[rung, count] : rung_counts)
        std::printf(" %s=%d", rung.c_str(), count);
    std::printf(" violations=%d\n", violations);
    return violations;
}

// ---- Multi-process store modes ---------------------------------------------

/** Distinct-by-tag probe window (the constant varies the hash). */
HExprPtr
storeProbeWindow(int tag)
{
    return hBin(HOp::Add, hInput(0, 8, 8), hConst(tag & 0x7F, 8, 8));
}

/** A negative synthesis outcome — enough to exercise the record
 *  framing without needing a synthesized module. */
SynthesisResult
negativeResult()
{
    SynthesisResult result;
    result.ok = false;
    result.note = "chaos probe";
    return result;
}

/**
 * --store-crash: a forked child is SIGKILL'd mid-append (via the
 * store.append seam, which tears the record and leaks the writer
 * lock exactly as the real signal would — but deterministically).
 * The surviving store must salvage every completed record, the
 * parent must take over the dead child's lock on its next append,
 * and a warm compile through the salvaged store must succeed.
 */
int
runStoreCrash()
{
    const std::string dir =
        "/tmp/hydride_chaos_crash." + std::to_string(::getpid());
    std::system(("rm -rf '" + dir + "'").c_str());
    const AutoLLVMDict dict = AutoLLVMDict::build({"x86"});

    SynthesisStore::Options sopt;
    sopt.shards = 1; // One shard: the leaked lock is in every writer's way.

    const pid_t child = ::fork();
    if (child < 0) {
        std::perror("chaos: fork");
        return 1;
    }
    if (child == 0) {
        // Child: two clean appends, then the third tears and "kills"
        // us — SIGKILL leaves no chance to release the lock.
        std::string error;
        if (!faults::configure("store.append:3", &error))
            ::_exit(2);
        SynthesisStore store;
        if (!store.open(dir, dict, sopt))
            ::_exit(2);
        for (int i = 0; i < 8; ++i) {
            if (!store.append(storeProbeWindow(i), "x86",
                              negativeResult())) {
                ::kill(::getpid(), SIGKILL);
            }
        }
        ::_exit(2); // The fault must have fired before this.
    }
    int status = 0;
    ::waitpid(child, &status, 0);
    int violations = 0;
    if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
        std::fprintf(stderr,
                     "chaos: VIOLATION crash child did not die on "
                     "SIGKILL (status %d)\n",
                     status);
        ++violations;
    }

    // Survivor: the two completed records load, the torn third is
    // salvaged past, and the dead child's lock is taken over.
    SynthesisStore store;
    if (!store.open(dir, dict, sopt)) {
        std::fprintf(stderr,
                     "chaos: VIOLATION salvage open failed: %s\n",
                     store.openStats().error.c_str());
        std::system(("rm -rf '" + dir + "'").c_str());
        return violations + 1;
    }
    if (store.openStats().records != 2 ||
        store.openStats().salvaged < 1) {
        std::fprintf(stderr,
                     "chaos: VIOLATION salvage kept %zu records "
                     "(want 2), salvaged %zu (want >=1)\n",
                     store.openStats().records,
                     store.openStats().salvaged);
        ++violations;
    }
    if (!store.append(storeProbeWindow(100), "x86", negativeResult())) {
        std::fprintf(stderr,
                     "chaos: VIOLATION append after crash failed "
                     "(leaked lock not taken over?)\n");
        ++violations;
    }
    if (store.lockTakeovers() != 1) {
        std::fprintf(stderr,
                     "chaos: VIOLATION expected exactly one stale-lock "
                     "takeover, saw %zu\n",
                     store.lockTakeovers());
        ++violations;
    }

    // The salvaged store must still be a working warm-start source.
    ResilienceOptions options;
    options.synthesis.max_insts = 2;
    options.store_path = dir;
    options.store = sopt;
    SynthesisCache cache;
    ResilientCompiler compiler(dict, "x86", 256, options, &cache);
    Schedule schedule;
    Kernel kernel = buildKernel("add", schedule);
    ResilientCompilation compiled = compiler.compile(kernel);
    for (const auto &window : compiled.windows) {
        std::string why;
        if (!window.ok || !verifyWindow(dict, window, why)) {
            std::fprintf(stderr,
                         "chaos: VIOLATION warm compile through the "
                         "salvaged store broke: %s\n",
                         why.c_str());
            ++violations;
        }
    }

    std::system(("rm -rf '" + dir + "'").c_str());
    std::printf("chaos: store-crash violations=%d\n", violations);
    return violations;
}

/**
 * --store-concurrent: N forked writers hammer one shard. Every append
 * must land exactly once — no lost records, no torn records, no
 * deadlock on the shared lock.
 */
int
runStoreConcurrent()
{
    constexpr int kWriters = 4;
    constexpr int kAppends = 8;
    const std::string dir =
        "/tmp/hydride_chaos_concurrent." + std::to_string(::getpid());
    std::system(("rm -rf '" + dir + "'").c_str());
    const AutoLLVMDict dict = AutoLLVMDict::build({"x86"});

    SynthesisStore::Options sopt;
    sopt.shards = 1; // Force every writer onto the same lock.

    std::vector<pid_t> children;
    for (int w = 0; w < kWriters; ++w) {
        const pid_t pid = ::fork();
        if (pid < 0) {
            std::perror("chaos: fork");
            return 1;
        }
        if (pid == 0) {
            SynthesisStore store;
            if (!store.open(dir, dict, sopt))
                ::_exit(1);
            for (int i = 0; i < kAppends; ++i) {
                if (!store.append(storeProbeWindow(w * kAppends + i),
                                  "x86", negativeResult())) {
                    ::_exit(1);
                }
            }
            ::_exit(0);
        }
        children.push_back(pid);
    }
    int violations = 0;
    for (const pid_t pid : children) {
        int status = 0;
        ::waitpid(pid, &status, 0);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            std::fprintf(stderr,
                         "chaos: VIOLATION concurrent writer %d died "
                         "(status %d)\n",
                         static_cast<int>(pid), status);
            ++violations;
        }
    }

    SynthesisStore store;
    if (!store.open(dir, dict, sopt)) {
        std::fprintf(stderr, "chaos: VIOLATION reopen failed: %s\n",
                     store.openStats().error.c_str());
        std::system(("rm -rf '" + dir + "'").c_str());
        return violations + 1;
    }
    const size_t expected = size_t(kWriters) * kAppends;
    if (store.openStats().records != expected ||
        store.openStats().salvaged != 0) {
        std::fprintf(stderr,
                     "chaos: VIOLATION %zu/%zu records survived, %zu "
                     "salvaged (want 0) — a concurrent append was "
                     "lost or torn\n",
                     store.openStats().records, expected,
                     store.openStats().salvaged);
        ++violations;
    }
    std::system(("rm -rf '" + dir + "'").c_str());
    std::printf("chaos: store-concurrent violations=%d\n", violations);
    return violations;
}

/**
 * --store-poison: seed the store with a wrong-but-well-formed entry
 * (a module synthesized for Add(a,b), filed under Sub(a,b)'s key —
 * every checksum valid, the semantics poisoned). With verification on
 * the driver must refute it, quarantine it durably, and compile the
 * window correctly anyway. With `verify` false (--store-poison-
 * unverified, the WILL_FAIL entry) the poison reaches codegen and
 * this function reports the violation.
 */
int
runStorePoison(bool verify)
{
    const std::string dir =
        "/tmp/hydride_chaos_poison." + std::to_string(::getpid());
    std::system(("rm -rf '" + dir + "'").c_str());
    const AutoLLVMDict dict = AutoLLVMDict::build({"x86"});

    const HExprPtr a = hInput(0, 8, 16);
    const HExprPtr b = hInput(1, 8, 16);
    const HExprPtr add_window = hBin(HOp::Add, a, b);
    const HExprPtr sub_window = hBin(HOp::Sub, a, b);

    SynthesisOptions synth;
    synth.max_insts = 2;
    const SynthesisResult solved =
        synthesizeWindow(dict, "x86", add_window, synth);
    if (!solved.ok) {
        std::fprintf(stderr, "chaos: poison probe synthesis failed: %s\n",
                     solved.note.c_str());
        return 1;
    }

    SynthesisStore::Options sopt;
    sopt.shards = 1;
    {
        SynthesisStore store;
        if (!store.open(dir, dict, sopt) ||
            !store.append(sub_window, "x86", solved)) {
            std::fprintf(stderr, "chaos: poison store setup failed\n");
            return 1;
        }
    }

    int violations = 0;
    ResilienceOptions options;
    options.synthesis = synth;
    options.store_path = dir;
    options.store = sopt;
    options.store_verify = verify;
    SynthesisCache cache;
    ResilientCompiler compiler(dict, "x86", 256, options, &cache);
    ResilientWindow out = compiler.compileWindow(sub_window);
    std::string why;
    if (!out.ok || !verifyWindow(dict, out, why)) {
        std::fprintf(stderr,
                     "chaos: VIOLATION poisoned store entry reached "
                     "codegen (%s)\n",
                     why.c_str());
        ++violations;
    }
    if (verify) {
        if (out.cache_outcome == "store_hit") {
            std::fprintf(stderr,
                         "chaos: VIOLATION poisoned entry was served "
                         "as a store hit\n");
            ++violations;
        }
        // The demotion must be durable: a fresh open skips the
        // tombstoned record and no longer serves the key.
        SynthesisStore reopened;
        if (!reopened.open(dir, dict, sopt) ||
            reopened.find(sub_window, "x86") != nullptr ||
            reopened.openStats().poisoned_skipped < 1) {
            std::fprintf(stderr,
                         "chaos: VIOLATION quarantine did not survive "
                         "reopen\n");
            ++violations;
        }
    }
    std::system(("rm -rf '" + dir + "'").c_str());
    std::printf("chaos: store-poison%s violations=%d\n",
                verify ? "" : "-unverified", violations);
    return violations;
}

/** Sweep mode: one fresh child process per site. */
int
runSweep(const char *self)
{
    int failures = 0;
    std::vector<std::pair<std::string, std::string>> plan = {
        {"none", ""}};
    plan.insert(plan.end(), sweepPlan().begin(), sweepPlan().end());

    // Fail closed: the sweep plan must cover every registered site,
    // so adding a fault site without adding sweep coverage is itself
    // an error.
    for (const auto &site : faults::knownSites()) {
        bool covered = false;
        for (const auto &[name, clause] : plan)
            covered = covered || name == site;
        if (!covered) {
            std::fprintf(stderr,
                         "chaos: registered site `%s` has no sweep "
                         "clause\n",
                         site.c_str());
            ++failures;
        }
    }

    for (const auto &[site, clause] : plan) {
        std::string cmd = std::string(self) + " --site " + site;
        if (!clause.empty())
            cmd += " --clause '" + clause + "'";
        const int status = std::system(cmd.c_str());
        if (status == -1 || !WIFEXITED(status)) {
            std::fprintf(stderr,
                         "chaos: VIOLATION site `%s` child died on a "
                         "signal (status %d)\n",
                         site.c_str(), status);
            ++failures;
        } else if (WEXITSTATUS(status) != 0) {
            std::fprintf(stderr, "chaos: site `%s` reported violations\n",
                         site.c_str());
            ++failures;
        }
    }
    std::printf("chaos sweep: %zu sites, %d failure%s\n", plan.size(),
                failures, failures == 1 ? "" : "s");
    return failures == 0 ? 0 : 1;
}

} // namespace
} // namespace hydride

int
main(int argc, char **argv)
{
    using namespace hydride;
    std::string site;
    std::string clause;
    bool break_ladder = false;
    bool single = false;
    bool list = false;
    for (int a = 1; a < argc; ++a) {
        const std::string arg = argv[a];
        if (arg == "--site" && a + 1 < argc) {
            site = argv[++a];
            single = true;
        } else if (arg == "--clause" && a + 1 < argc) {
            clause = argv[++a];
            single = true;
        } else if (arg == "--break-ladder") {
            break_ladder = true;
            single = true;
            if (clause.empty())
                clause = "compiler.window";
        } else if (arg == "--store-crash") {
            return runStoreCrash() == 0 ? 0 : 1;
        } else if (arg == "--store-concurrent") {
            return runStoreConcurrent() == 0 ? 0 : 1;
        } else if (arg == "--store-poison") {
            return runStorePoison(true) == 0 ? 0 : 1;
        } else if (arg == "--store-poison-unverified") {
            return runStorePoison(false) == 0 ? 0 : 1;
        } else if (arg == "--list") {
            list = true;
        } else {
            // A genuine CLI-level argument error: the one place
            // `fatal` is still correct.
            fatal("hydride-chaos: unknown argument `" + arg + "`");
        }
    }
    if (list) {
        for (const auto &[name, spec] : sweepPlan())
            std::printf("%-18s %s\n", name.c_str(), spec.c_str());
        return 0;
    }
    if (!site.empty() && site != "none" && !faults::isKnownSite(site)) {
        fatal("hydride-chaos: unknown fault site `" + site + "`");
    }
    if (single) {
        if (clause.empty() && !site.empty() && site != "none") {
            for (const auto &[name, spec] : sweepPlan())
                if (name == site)
                    clause = spec;
        }
        return runSite(site, clause, break_ladder) == 0 ? 0 : 1;
    }
    return runSweep(argv[0]);
}
