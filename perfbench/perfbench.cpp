/**
 * @file
 * Closed-loop compile benchmark for the Hydride pipeline.
 *
 * One client compiles (kernel, ISA) pairs back to back through
 * `ResilientCompiler::compile` with library-default options, except
 * that the CEGIS wall-clock deadline is raised to a safety net far
 * above the slowest window in the pool. Compile time then measures
 * work, and the output is a function of the input. Every compiled
 * kernel is checked with `validateCompiled` against `evalHalide`.
 *
 *   perfbench --workload <cold_synth|warm_store|hot_recompile>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             --work-dir <dir> [--pairs <n>]
 *
 * The last stdout line is one JSON object with `correct`, `attempted`,
 * `failed` and `metrics`; the line before it is `digest <hex>`, the
 * output digest of the run. README.md documents the workloads and
 * every metric.
 */
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "backends/simulator.h"
#include "backends/targets.h"
#include "codegen/lowering.h"
#include "driver/resilience.h"
#include "fate.h"
#include "halide/kernels.h"
#include "layers.h"
#include "observability/trace.h"
#include "similarity/engine.h"
#include "specs/spec_db.h"
#include "support/rng.h"
#include "support/timing.h"
#include "synthesis/grammar.h"

namespace {

using namespace hydride;
using perfbench::Fate;

namespace fs = std::filesystem;

/**
 * The CEGIS deadline is a safety net only. The slowest window in the
 * pool takes a few seconds; a window that reaches this deadline fails
 * the run, because its output would then depend on host speed.
 */
constexpr double kSafetyDeadlineSeconds = 120.0;

/**
 * The (ISA, kernel) pool every workload draws from: the pairs whose
 * cold, deadline-free compile takes under ~3.5 s on a 4-core x86
 * container, so that one cold pass over the whole pool fits a run.
 * Single pairs range from 3 ms to over 100 s cold, so the seed
 * interleaves this fixed pool instead of sampling a subset: a subset
 * draw would make compile_s swing from seed to seed by far more than
 * any bound a regression gate could use. The pool size is odd so that
 * kernel_ms.p50 is one kernel's latency, not the mean of two kernels
 * an order of magnitude apart.
 */
struct PoolEntry
{
    const char *isa;
    const char *kernel;
};
const PoolEntry kPool[] = {
    {"x86", "add"},          {"x86", "matmul_bias"},
    {"x86", "dilate3x3"},    {"x86", "average_pool"},
    {"x86", "matmul_bias_relu"}, {"x86", "dilate7x7"},
    {"x86", "max_pool_add"}, {"arm", "add"},
    {"arm", "dilate3x3"},    {"arm", "max_pool"},
    {"arm", "dilate5x5"},    {"arm", "max_pool_add"},
    {"hvx", "dilate3x3"},    {"hvx", "max_pool"},
    {"hvx", "add"},
};

/** Set-up is sampled at least twice and at most kMaxSetupSamples
 *  times, stopping once the forked samples took kSetupSampleSeconds. */
constexpr size_t kMaxSetupSamples = 5;
constexpr double kSetupSampleSeconds = 3.0;

/** Table 4 column IV's reschedule (hot_recompile compiles both). */
Schedule
reschedule(Schedule schedule)
{
    schedule.unroll = 2;
    schedule.tile = 16;
    return schedule;
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir;
    size_t pairs = 0; ///< Truncate the draw (0: whole pool).
};

/** One drawn compile: a kernel under a schedule on a target. */
struct Job
{
    const TargetDesc *target = nullptr;
    std::string kernel;
    Schedule schedule;
    double prod_cycles = 0.0; ///< halide-prod baseline, from setup.
};

// ---------------------------------------------------------------- stats

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Linear-interpolated quantile, q in [0, 1]. */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

/** What one pass over the draw measured. Per-layer sums are totals
 *  over the pass; times are milliseconds unless the key says _s. */
struct Pass
{
    double wall_s = 0.0;
    std::vector<double> kernel_ms;
    std::vector<double> window_ms;
    std::map<std::string, double> sums;
    std::string digest;
    long kernels = 0;
    long kernels_failed = 0;
    long windows = 0;
    long windows_failed = 0;
    long windows_synthesized = 0;
    double log_speedup = 0.0;
    double peak_rss_mb = 0.0;
};

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string
serialize(const Pass &pass)
{
    std::ostringstream out;
    out.precision(17);
    out << "wall " << pass.wall_s << "\n"
        << "digest " << (pass.digest.empty() ? "-" : pass.digest) << "\n"
        << "counts " << pass.kernels << " " << pass.kernels_failed << " "
        << pass.windows << " " << pass.windows_failed << " "
        << pass.windows_synthesized << "\n"
        << "speedup " << pass.log_speedup << "\n"
        << "rss " << pass.peak_rss_mb << "\n";
    for (double ms : pass.kernel_ms)
        out << "k " << ms << "\n";
    for (double ms : pass.window_ms)
        out << "w " << ms << "\n";
    for (const auto &[key, value] : pass.sums)
        out << "s " << key << " " << value << "\n";
    return out.str();
}

Pass
deserialize(const std::string &text)
{
    Pass pass;
    std::istringstream in(text);
    std::string tag;
    while (in >> tag) {
        if (tag == "wall") {
            in >> pass.wall_s;
        } else if (tag == "digest") {
            in >> pass.digest;
            if (pass.digest == "-")
                pass.digest.clear();
        } else if (tag == "counts") {
            in >> pass.kernels >> pass.kernels_failed >> pass.windows >>
                pass.windows_failed >> pass.windows_synthesized;
        } else if (tag == "speedup") {
            in >> pass.log_speedup;
        } else if (tag == "rss") {
            in >> pass.peak_rss_mb;
        } else if (tag == "k" || tag == "w") {
            double ms = 0.0;
            in >> ms;
            (tag == "k" ? pass.kernel_ms : pass.window_ms).push_back(ms);
        } else if (tag == "s") {
            std::string key;
            double value = 0.0;
            in >> key >> value;
            pass.sums[key] = value;
        } else {
            throw std::runtime_error("bad pass record tag `" + tag + "`");
        }
    }
    if (!in.eof())
        throw std::runtime_error("malformed pass record");
    return pass;
}

/**
 * Run `fn` in a forked child and return its Pass. Cold and warm
 * passes run this way so every pass starts from the same post-setup
 * process state: no process-wide memo carries over between passes.
 */
Pass
inChild(const std::function<Pass()> &fn)
{
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error(std::string("pipe: ") + strerror(errno));
    std::cout.flush();
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error(std::string("fork: ") + strerror(errno));
    if (pid == 0) {
        close(fds[0]);
        int code = 0;
        try {
            const std::string text = serialize(fn());
            size_t done = 0;
            while (done < text.size()) {
                const ssize_t n =
                    write(fds[1], text.data() + done, text.size() - done);
                if (n < 0 && errno == EINTR)
                    continue;
                if (n <= 0) {
                    code = 4;
                    break;
                }
                done += static_cast<size_t>(n);
            }
        } catch (const std::exception &err) {
            std::fprintf(stderr, "perfbench: pass failed: %s\n", err.what());
            code = 3;
        }
        close(fds[1]);
        std::fflush(nullptr);
        _exit(code);
    }
    close(fds[1]);
    std::string text;
    char buf[65536];
    for (;;) {
        const ssize_t n = read(fds[0], buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        text.append(buf, static_cast<size_t>(n));
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("pass child failed (status " +
                                 std::to_string(status) + ")");
    return deserialize(text);
}

// ---------------------------------------------------------------- setup

/** The offline front half: semantics -> classes -> dictionary. */
struct Dictionary
{
    std::unique_ptr<AutoLLVMDict> dict;
    double specs_ms = 0.0;
    double similarity_ms = 0.0;
    double dict_ms = 0.0;
    long instructions = 0;
    long classes = 0;
};

Dictionary
buildDictionary()
{
    Dictionary out;
    std::vector<CanonicalSemantics> all;
    {
        trace::TraceSpan span("perfbench.specs.isa_semantics");
        Stopwatch watch;
        for (const auto &isa : builtinIsas()) {
            const IsaSemantics &sema = isaSemantics(isa);
            all.insert(all.end(), sema.insts.begin(), sema.insts.end());
        }
        out.specs_ms = watch.millis();
    }
    out.instructions = static_cast<long>(all.size());
    std::vector<EquivalenceClass> classes;
    {
        trace::TraceSpan span("perfbench.similarity.engine");
        Stopwatch watch;
        classes = runSimilarityEngine(all);
        out.similarity_ms = watch.millis();
    }
    out.classes = static_cast<long>(classes.size());
    {
        trace::TraceSpan span("perfbench.autollvm.dict");
        Stopwatch watch;
        out.dict = std::make_unique<AutoLLVMDict>(std::move(classes));
        out.dict_ms = watch.millis();
    }
    return out;
}

ResilienceOptions
compileOptions(const std::string &store_path)
{
    ResilienceOptions options;
    options.synthesis.timeout_seconds = kSafetyDeadlineSeconds;
    options.store_path = store_path;
    return options;
}

const TargetDesc &
targetFor(const std::string &isa)
{
    for (const auto &target : evaluationTargets()) {
        if (target.isa == isa)
            return target;
    }
    throw std::runtime_error("unknown ISA `" + isa + "`");
}

/**
 * The seeded draw: a random interleaving of the pool's per-ISA
 * sequences (see kPool). Each ISA keeps its pool order, so every
 * kernel meets the same per-ISA cache state whatever the seed.
 */
std::vector<Job>
drawJobs(uint64_t seed, size_t limit)
{
    std::vector<std::string> isas;
    std::map<std::string, std::vector<const PoolEntry *>> by_isa;
    for (const auto &entry : kPool) {
        isas.push_back(entry.isa);
        by_isa[entry.isa].push_back(&entry);
    }
    Rng rng(seed);
    for (size_t i = isas.size(); i > 1; --i)
        std::swap(isas[i - 1], isas[rng.nextBelow(i)]);
    std::map<std::string, size_t> next;
    std::vector<Job> jobs;
    for (const auto &isa : isas) {
        const PoolEntry &entry = *by_isa[isa][next[isa]++];
        Job job;
        job.target = &targetFor(entry.isa);
        job.kernel = entry.kernel;
        job.schedule.vector_bits = job.target->vector_bits;
        jobs.push_back(job);
    }
    if (limit > 0 && limit < jobs.size())
        jobs.resize(limit);
    return jobs;
}

/** The halide-prod simulated cycles each job is compared against. */
void
computeBaselines(const AutoLLVMDict &dict, std::vector<Job> &jobs)
{
    for (auto &job : jobs) {
        const Kernel kernel = buildKernel(job.kernel, job.schedule);
        HalideProdBackend prod(dict, job.target->isa,
                               job.target->vector_bits);
        CompiledKernel compiled;
        if (!prod.compile(kernel, compiled))
            throw std::runtime_error("halide-prod cannot compile " +
                                     job.kernel);
        job.prod_cycles = simulateCycles(compiled, kernel, job.target->sim);
    }
}

// ---------------------------------------------------------------- passes

/** One timed compile, before accounting. */
struct Compiled
{
    const Job *job = nullptr;
    Kernel kernel;
    ResilientCompilation result;
};

/**
 * Compile one job: buildKernel, then `compile` on the given compiler,
 * timed together as the job's kernel latency. Spans of one job share
 * its `kernel_id`.
 */
Compiled
compileJob(ResilientCompiler &compiler, const Job &job, int kernel_id,
           double extra_ms, Pass &pass)
{
    Compiled out;
    out.job = &job;
    Stopwatch watch;
    {
        trace::TraceSpan span("perfbench.halide.build_kernel");
        span.setAttr("kernel_id", kernel_id);
        Stopwatch build;
        out.kernel = buildKernel(job.kernel, job.schedule);
        pass.sums["halide.build_kernel_ms"] += build.millis();
    }
    {
        trace::TraceSpan span("perfbench.driver.compile");
        span.setAttr("kernel_id", kernel_id);
        out.result = compiler.compile(out.kernel);
    }
    pass.kernel_ms.push_back(watch.millis() + extra_ms);
    return out;
}

/** Fold one compiled kernel into the pass: fates, counts, digest,
 *  validation and simulation (the last two outside the timed phase). */
void
account(const AutoLLVMDict &dict, const Compiled &compiled, int kernel_id,
        bool traced, perfbench::OutputDigest &digest, Pass &pass)
{
    const Job &job = *compiled.job;
    const ResilientCompilation &result = compiled.result;
    auto &sums = pass.sums;
    digest.add(job.target->isa + "/" + job.kernel + "/" +
               std::to_string(job.schedule.unroll));
    bool kernel_failed = false;
    sums["halide.pieces"] += static_cast<double>(result.pieces.size());
    for (const auto &window : result.windows) {
        const Fate fate = perfbench::classify(window);
        const SynthesisResult &synth = window.synth;
        sums[std::string("fate.") + perfbench::fateName(fate)] += 1;
        sums[std::string("driver.rung.") + rungName(window.rung)] += 1;
        sums["driver.retries"] += window.retries;
        pass.window_ms.push_back(window.seconds * 1e3);
        digest.add(window);
        ++pass.windows;
        if (perfbench::isFailure(fate))
            ++pass.windows_failed;
        if (fate == Fate::Deadline || window.rung == Rung::Failed)
            kernel_failed = true;
        if (window.rung == Rung::Synthesized || window.rung == Rung::Cached)
            ++pass.windows_synthesized;

        const std::string &cache = window.cache_outcome;
        if (cache == "hit")
            sums["cache.hits"] += 1;
        else if (cache == "negative")
            sums["cache.negative"] += 1;
        else if (cache != "none")
            sums["cache.misses"] += 1;
        if (cache == "store_hit")
            sums["store.hits"] += 1;
        if (cache == "store_negative")
            sums["store.negative"] += 1;
        sums["store.seeds"] += window.store_seeds;
        sums["store.warm_started"] += synth.warm_started ? 1 : 0;

        if (fate == Fate::Aborted)
            sums["cegis.aborted"] += 1;
        if (perfbench::reachedDeadline(synth.note))
            sums["cegis.deadline_hits"] += 1;
        // CEGIS ran for this window when the caches missed and the
        // synthesizer filled in a result.
        const bool searched =
            cache == "miss" && (synth.ok || !synth.note.empty());
        if (searched) {
            sums["cegis.searched"] += 1;
            sums["grammar.ops"] += synth.grammar_size;
            sums["cegis.iterations"] += synth.cegis_iterations;
            sums["cegis.counterexamples"] += synth.counterexamples;
            sums["cegis.candidates_rejected"] +=
                static_cast<double>(synth.candidates_rejected);
            sums["cegis.candidates_rejected_static"] +=
                static_cast<double>(synth.candidates_rejected_static);
            sums["symbolic.refutations"] += synth.symbolic_refutations;
            sums["symbolic.unknowns"] += synth.symbolic_unknowns;
            if (synth.ok) {
                sums["cegis.solved"] += 1;
                sums["cegis.solved_ms"] += synth.seconds * 1e3;
            } else if (fate == Fate::Exhausted) {
                sums["cegis.exhausted"] += 1;
                sums["cegis.exhausted_ms"] += synth.seconds * 1e3;
            }
        }
        sums["codegen.insts"] += static_cast<double>(
            window.program.insts.size());

        if (!traced)
            continue;
        // The driver opens no span around grammar construction or
        // lowering, so the traced run repeats both on the same inputs
        // (outside the timed phase) to time them.
        if (searched && synth.scale >= 1) {
            if (HExprPtr scaled = scaleWindow(window.window, synth.scale)) {
                Stopwatch watch;
                buildGrammar(dict, job.target->isa, scaled, synth.scale,
                             GrammarOptions{});
                sums["grammar.build_ms"] += watch.millis();
            }
        }
        if (window.rung == Rung::Synthesized || window.rung == Rung::Cached) {
            Stopwatch watch;
            lowerToTarget(synth.module, dict, job.target->isa);
            sums["codegen.lower_ms"] += watch.millis();
        }
    }

    CompiledKernel kernel;
    kernel.backend = "hydride";
    kernel.kernel = job.kernel;
    kernel.isa = job.target->isa;
    kernel.windows = result.pieces;
    kernel.groups = result.piece_group;
    for (const auto &window : result.windows)
        kernel.programs.push_back(window.program);
    bool valid = false;
    {
        trace::TraceSpan span("perfbench.backends.validate");
        span.setAttr("kernel_id", kernel_id);
        Stopwatch watch;
        valid = validateCompiled(dict, kernel, compiled.kernel);
        sums["backends.validate_ms"] += watch.millis();
    }
    double cycles = 0.0;
    {
        trace::TraceSpan span("perfbench.backends.simulate");
        span.setAttr("kernel_id", kernel_id);
        Stopwatch watch;
        cycles = simulateCycles(kernel, compiled.kernel, job.target->sim);
        sums["backends.simulate_ms"] += watch.millis();
    }
    if (!valid) {
        std::fprintf(stderr, "perfbench: %s/%s does not match evalHalide\n",
                     job.target->isa.c_str(), job.kernel.c_str());
        kernel_failed = true;
    }
    ++pass.kernels;
    if (kernel_failed)
        ++pass.kernels_failed;
    if (cycles > 0.0 && job.prod_cycles > 0.0)
        pass.log_speedup += std::log(job.prod_cycles / cycles);
}

/** Self times of the traced pass, attributed to spans and layers. */
void
accountSpans(Pass &pass)
{
    const auto self = perfbench::selfTimeMs(trace::snapshotSpans());
    trace::reset();
    auto get = [&](const char *name) {
        auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
    };
    pass.sums["cegis.enumerate_ms"] = get("synthesis.cegis.enumerate");
    pass.sums["cegis.concrete_eval_ms"] = get("synthesis.cegis.concrete_eval");
    pass.sums["symbolic.verify_ms"] = get("symbolic.equiv.check");
    pass.sums["symbolic.sat_ms"] = get("symbolic.sat.solve");
    pass.sums["codegen.macro_ms"] = get("codegen.macro_expand.expand");
    for (const char *layer : {"halide", "store", "driver", "synthesis",
                              "symbolic", "codegen", "backends"})
        pass.sums[std::string("self.") + layer + "_ms"] = 0.0;
    for (const auto &[name, ms] : self)
        pass.sums["self." + perfbench::layerOf(name) + "_ms"] += ms;
    pass.sums.erase("self.other_ms");
}

/** One compiler and one in-memory cache per ISA (as in Fig. 6),
 *  built on first use, optionally on a durable store. */
struct IsaCompilers
{
    std::map<std::string, std::unique_ptr<SynthesisCache>> caches;
    std::map<std::string, std::unique_ptr<ResilientCompiler>> compilers;

    ResilientCompiler &
    get(const AutoLLVMDict &dict, const TargetDesc &target,
        const std::string &store, Pass &pass)
    {
        auto it = compilers.find(target.isa);
        if (it != compilers.end())
            return *it->second;
        auto &cache = caches[target.isa];
        cache = std::make_unique<SynthesisCache>();
        trace::TraceSpan span(store.empty() ? "perfbench.driver.construct"
                                            : "perfbench.store.open");
        Stopwatch watch;
        auto compiler = std::make_unique<ResilientCompiler>(
            dict, target.isa, target.vector_bits, compileOptions(store),
            cache.get());
        if (!store.empty())
            pass.sums["store.open_ms"] += watch.millis();
        return *compilers.emplace(target.isa, std::move(compiler))
                    .first->second;
    }
};

/** The parts of a workload the driver loop needs. */
struct Workload
{
    /** Setup after the dictionary: store/cache fill (may be empty). */
    std::function<void(const AutoLLVMDict &, const std::vector<Job> &,
                       const std::string &dir)>
        fill;
    /** One pass over the draw. */
    std::function<Pass(const AutoLLVMDict &, const std::vector<Job> &,
                       int pass_index, bool traced)>
        pass;
    /** Run each pass in a forked child. */
    bool forked = true;
};

/** Timed loop + accounting shared by every pass body. */
template <typename CompileAll>
Pass
runPass(const AutoLLVMDict &dict, bool traced, CompileAll &&compile_all)
{
    Pass pass;
    trace::reset();
    trace::setEnabled(traced);
    std::vector<Compiled> compiled;
    Stopwatch watch;
    compile_all(compiled, pass);
    pass.wall_s = watch.seconds();
    perfbench::OutputDigest digest;
    for (size_t i = 0; i < compiled.size(); ++i)
        account(dict, compiled[i], static_cast<int>(i), traced, digest, pass);
    trace::setEnabled(false);
    if (traced)
        accountSpans(pass);
    pass.digest = digest.hex();
    pass.peak_rss_mb = peakRssMb();
    return pass;
}

/** Records in the store at `path` (read outside the timed phase). */
double
storeEntries(const AutoLLVMDict &dict, const std::string &path)
{
    SynthesisStore store;
    SynthesisStore::Options options;
    options.read_only = true;
    if (!store.open(path, dict, options))
        throw std::runtime_error("cannot reopen store " + path);
    return static_cast<double>(store.size());
}

Pass
coldPass(const AutoLLVMDict &dict, const std::vector<Job> &jobs,
         const std::string &store, bool traced)
{
    return runPass(dict, traced, [&](std::vector<Compiled> &out, Pass &pass) {
        // Compilers (and the store) open before the first kernel, so a
        // kernel's latency does not depend on whether it comes first
        // for its ISA.
        IsaCompilers compilers;
        for (const auto &job : jobs)
            compilers.get(dict, *job.target, store, pass);
        for (size_t i = 0; i < jobs.size(); ++i) {
            out.push_back(compileJob(
                compilers.get(dict, *jobs[i].target, store, pass), jobs[i],
                static_cast<int>(i), 0.0, pass));
        }
        for (const auto &[isa, compiler] : compilers.compilers)
            pass.sums["store.quarantined"] += static_cast<double>(
                compiler->store().sessionQuarantined());
    });
}

Workload
coldSynth(const std::string &work_dir)
{
    Workload w;
    w.pass = [work_dir](const AutoLLVMDict &dict,
                        const std::vector<Job> &jobs, int index,
                        bool traced) {
        // A fresh, empty durable store per pass: the write side.
        const std::string store =
            work_dir + "/cold-store-" + std::to_string(index);
        fs::remove_all(store);
        Pass pass = coldPass(dict, jobs, store, traced);
        pass.sums["store.entries"] = storeEntries(dict, store);
        fs::remove_all(store);
        return pass;
    };
    return w;
}

Workload
warmStore(const std::string &work_dir)
{
    Workload w;
    w.fill = [](const AutoLLVMDict &dict, const std::vector<Job> &jobs,
                const std::string &dir) {
        const std::string store = dir + "/warm-store";
        fs::remove_all(store);
        fs::create_directories(dir);
        if (coldPass(dict, jobs, store, false).kernels_failed)
            throw std::runtime_error("store fill failed");
    };
    w.pass = [work_dir](const AutoLLVMDict &dict,
                        const std::vector<Job> &jobs, int index,
                        bool traced) {
        // Every pass reads its own copy of the filled store, so
        // appends made by one pass cannot change the next.
        const std::string store =
            work_dir + "/warm-copy-" + std::to_string(index);
        fs::remove_all(store);
        fs::copy(work_dir + "/warm-store", store,
                 fs::copy_options::recursive);
        Pass pass = runPass(dict, traced, [&](std::vector<Compiled> &out,
                                              Pass &p) {
            // A fresh compiler and cache per kernel: a fleet of
            // short-lived compiler processes sharing one store.
            for (size_t i = 0; i < jobs.size(); ++i) {
                Stopwatch open;
                IsaCompilers compilers;
                ResilientCompiler &compiler =
                    compilers.get(dict, *jobs[i].target, store, p);
                out.push_back(compileJob(compiler, jobs[i],
                                         static_cast<int>(i), open.millis(),
                                         p));
                p.sums["store.quarantined"] += static_cast<double>(
                    compiler.store().sessionQuarantined());
            }
        });
        pass.sums["store.entries"] = storeEntries(dict, store);
        fs::remove_all(store);
        return pass;
    };
    return w;
}

Workload
hotRecompile()
{
    // Long-lived per-ISA compilers, shared by setup and every pass.
    auto compilers = std::make_shared<IsaCompilers>();
    Workload w;
    w.forked = false;
    w.fill = [compilers](const AutoLLVMDict &dict,
                         const std::vector<Job> &jobs, const std::string &) {
        Pass fill;
        for (size_t i = 0; i < jobs.size(); ++i) {
            if (jobs[i].schedule.unroll != 1)
                continue; // The cold pass compiles the original schedule.
            ResilientCompiler &compiler =
                compilers->get(dict, *jobs[i].target, "", fill);
            compiler.compile(buildKernel(jobs[i].kernel, jobs[i].schedule));
        }
    };
    w.pass = [compilers](const AutoLLVMDict &dict,
                         const std::vector<Job> &jobs, int, bool traced) {
        return runPass(dict, traced,
                       [&](std::vector<Compiled> &out, Pass &pass) {
                           for (size_t i = 0; i < jobs.size(); ++i) {
                               ResilientCompiler &compiler = compilers->get(
                                   dict, *jobs[i].target, "", pass);
                               out.push_back(compileJob(
                                   compiler, jobs[i], static_cast<int>(i),
                                   0.0, pass));
                           }
                       });
    };
    return w;
}

// ---------------------------------------------------------------- driver

struct Report
{
    std::vector<Pass> passes;
    double compile_s() const
    {
        std::vector<double> walls;
        for (const auto &pass : passes)
            walls.push_back(pass.wall_s);
        return median(walls);
    }
};

/** Passes back to back until `seconds` of wall time have elapsed. */
Report
timedPhase(const Workload &workload, const AutoLLVMDict &dict,
           const std::vector<Job> &jobs, double seconds, bool traced,
           int &pass_index)
{
    Report report;
    Stopwatch watch;
    do {
        const int index = pass_index++;
        auto body = [&] { return workload.pass(dict, jobs, index, traced); };
        report.passes.push_back(workload.forked ? inChild(body) : body());
    } while (watch.seconds() < seconds);
    return report;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::runtime_error("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::stoull(value);
        else if (flag == "--seconds")
            args.seconds = std::stod(value);
        else if (flag == "--trace")
            args.trace = value == "1";
        else if (flag == "--work-dir")
            args.work_dir = value;
        else if (flag == "--pairs")
            args.pairs = std::stoul(value);
        else
            throw std::runtime_error("unknown flag " + flag);
    }
    if (args.work_dir.empty())
        throw std::runtime_error("--work-dir is required");
    return args;
}

class JsonMetrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.12g",
                      std::isfinite(value) ? value : 0.0);
        if (!body_.empty())
            body_ += ", ";
        body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
                 unit + "\"}";
    }
    std::string str() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

int
run(const Args &args)
{
    Workload workload;
    if (args.workload == "cold_synth")
        workload = coldSynth(args.work_dir);
    else if (args.workload == "warm_store")
        workload = warmStore(args.work_dir);
    else if (args.workload == "hot_recompile")
        workload = hotRecompile();
    else
        throw std::runtime_error("unknown workload `" + args.workload + "`");
    fs::create_directories(args.work_dir);

    std::vector<Job> jobs = drawJobs(args.seed, args.pairs);
    if (args.workload == "hot_recompile") {
        const size_t n = jobs.size();
        for (size_t i = 0; i < n; ++i) {
            Job again = jobs[i];
            again.schedule = reschedule(again.schedule);
            jobs.push_back(again);
        }
    }
    std::cout << "draw:";
    for (const auto &job : jobs)
        std::cout << " " << job.target->isa << "/" << job.kernel
                  << (job.schedule.unroll != 1 ? "@resched" : "");
    std::cout << "\n";

    // Set-up samples: each forked child starts from an empty process
    // (no semantics parsed yet), builds the dictionary and fills.
    // Cheap set-ups get more samples; the parent's own set-up below is
    // the last one.
    std::vector<double> setup_s;
    double setup_spent = 0.0;
    while (setup_s.empty() ||
           (setup_s.size() < kMaxSetupSamples - 1 &&
            setup_spent < kSetupSampleSeconds)) {
        const std::string dir =
            args.work_dir + "/setup-" + std::to_string(setup_s.size());
        Pass sample = inChild([&] {
            Pass p;
            Stopwatch watch;
            Dictionary dictionary = buildDictionary();
            std::vector<Job> filled = jobs;
            computeBaselines(*dictionary.dict, filled);
            if (workload.fill)
                workload.fill(*dictionary.dict, filled, dir);
            p.wall_s = watch.seconds();
            return p;
        });
        fs::remove_all(dir);
        setup_s.push_back(sample.wall_s);
        setup_spent += sample.wall_s;
    }
    // The parent's own set-up, used by the timed phase (and traced,
    // on a traced run, for the per-layer self times).
    trace::setEnabled(args.trace);
    Stopwatch setup_watch;
    Dictionary dictionary = buildDictionary();
    const AutoLLVMDict &dict = *dictionary.dict;
    trace::setEnabled(false);
    const auto setup_self = perfbench::selfTimeMs(trace::snapshotSpans());
    trace::reset();
    computeBaselines(dict, jobs);
    if (workload.fill)
        workload.fill(dict, jobs, args.work_dir);
    setup_s.push_back(setup_watch.seconds());

    int pass_index = 0;
    const Report untraced =
        timedPhase(workload, dict, jobs, args.seconds, false, pass_index);
    Report traced;
    if (args.trace)
        traced = timedPhase(workload, dict, jobs, args.seconds, true,
                            pass_index);

    // Every pass of one seed must produce the same output.
    bool correct = true;
    long attempted = 0;
    long failed = 0;
    const std::string digest = untraced.passes.front().digest;
    std::vector<double> kernel_ms;
    std::vector<double> window_ms;
    long windows = 0;
    long windows_failed = 0;
    long windows_synthesized = 0;
    double rss = 0.0;
    for (const Report *report :
         std::initializer_list<const Report *>{&untraced, &traced}) {
        for (const auto &pass : report->passes) {
            if (pass.digest != digest) {
                std::fprintf(stderr, "perfbench: output digest changed "
                                     "between passes (%s vs %s)\n",
                             pass.digest.c_str(), digest.c_str());
                correct = false;
            }
            attempted += pass.kernels;
            failed += pass.kernels_failed;
            rss = std::max(rss, pass.peak_rss_mb);
            if (report != &untraced)
                continue;
            kernel_ms.insert(kernel_ms.end(), pass.kernel_ms.begin(),
                             pass.kernel_ms.end());
            window_ms.insert(window_ms.end(), pass.window_ms.begin(),
                             pass.window_ms.end());
            windows += pass.windows;
            windows_failed += pass.windows_failed;
            windows_synthesized += pass.windows_synthesized;
        }
    }
    if (failed > 0)
        correct = false;

    const Pass &first = untraced.passes.front();
    std::cout << "passes: " << untraced.passes.size() << " untraced, "
              << traced.passes.size() << " traced; kernels/pass "
              << first.kernels << ", windows/pass " << first.windows << "\n";
    for (const auto &pass : untraced.passes)
        std::printf("pass %.4f s\n", pass.wall_s);
    for (size_t i = 0; i < jobs.size(); ++i)
        std::printf("kernel %s/%s%s %.3f ms\n", jobs[i].target->isa.c_str(),
                    jobs[i].kernel.c_str(),
                    jobs[i].schedule.unroll != 1 ? "@resched" : "",
                    first.kernel_ms[i]);
    std::cout << "fates:";
    for (const auto &[key, value] : first.sums) {
        if (key.rfind("fate.", 0) == 0)
            std::cout << " " << key.substr(5) << "=" << value;
    }
    std::cout << "\n";

    JsonMetrics metrics;
    if (!args.trace) {
        metrics.add("setup_s", median(setup_s), "s");
        metrics.add("compile_s", untraced.compile_s(), "s");
        metrics.add("speedup_vs_prod",
                    std::exp(first.log_speedup /
                             static_cast<double>(std::max(first.kernels, 1L))),
                    "ratio");
        metrics.add("synthesized_share",
                    static_cast<double>(windows_synthesized) /
                        static_cast<double>(std::max(windows, 1L)),
                    "ratio");
        metrics.add("peak_rss_mb", rss, "MB");
    } else {
        // Per-layer sums: the median pass of the untraced phase for
        // everything the result structs give, the traced phase for
        // span-derived times and the repeated grammar/lowering work.
        std::map<std::string, std::vector<double>> values;
        for (const auto &pass : untraced.passes)
            for (const auto &[key, value] : pass.sums)
                values[key].push_back(value);
        for (const auto &pass : traced.passes)
            for (const auto &[key, value] : pass.sums)
                if (!first.sums.count(key))
                    values[key].push_back(value);
        auto sum = [&](const std::string &key) {
            auto it = values.find(key);
            return it == values.end() ? 0.0 : median(it->second);
        };
        metrics.add("specs.semantics_ms", dictionary.specs_ms, "ms");
        metrics.add("specs.instructions",
                    static_cast<double>(dictionary.instructions), "count");
        metrics.add("similarity.engine_ms", dictionary.similarity_ms, "ms");
        metrics.add("similarity.classes",
                    static_cast<double>(dictionary.classes), "count");
        metrics.add("autollvm.dict_ms", dictionary.dict_ms, "ms");
        metrics.add("halide.build_kernel_ms", sum("halide.build_kernel_ms"),
                    "ms");
        metrics.add("halide.pieces", sum("halide.pieces"), "count");
        metrics.add("driver.window_ms.p50", quantile(window_ms, 0.5), "ms");
        metrics.add("driver.window_ms.p99", quantile(window_ms, 0.99), "ms");
        for (Rung rung : {Rung::Synthesized, Rung::Cached,
                          Rung::MacroExpanded, Rung::Scalarized,
                          Rung::Failed}) {
            const std::string key =
                std::string("driver.rung.") + rungName(rung);
            metrics.add(key, sum(key), "count");
        }
        for (const char *key :
             {"driver.retries", "cache.hits", "cache.misses",
              "cache.negative", "grammar.ops"})
            metrics.add(key, sum(key), "count");
        metrics.add("grammar.build_ms", sum("grammar.build_ms"), "ms");
        for (const char *key :
             {"cegis.searched", "cegis.solved", "cegis.exhausted",
              "cegis.aborted", "cegis.deadline_hits"})
            metrics.add(key, sum(key), "count");
        metrics.add("cegis.solved_ms", sum("cegis.solved_ms"), "ms");
        metrics.add("cegis.exhausted_ms", sum("cegis.exhausted_ms"), "ms");
        for (const char *key :
             {"cegis.iterations", "cegis.counterexamples",
              "cegis.candidates_rejected",
              "cegis.candidates_rejected_static"})
            metrics.add(key, sum(key), "count");
        metrics.add("cegis.solve_ratio",
                    sum("cegis.searched") > 0
                        ? sum("cegis.solved") / sum("cegis.searched")
                        : 0.0,
                    "ratio");
        metrics.add("cegis.enumerate_ms", sum("cegis.enumerate_ms"), "ms");
        metrics.add("cegis.concrete_eval_ms", sum("cegis.concrete_eval_ms"),
                    "ms");
        metrics.add("store.open_ms", sum("store.open_ms"), "ms");
        for (const char *key :
             {"store.entries", "store.hits", "store.negative", "store.seeds",
              "store.warm_started", "store.quarantined",
              "symbolic.refutations", "symbolic.unknowns"})
            metrics.add(key, sum(key), "count");
        metrics.add("symbolic.verify_ms", sum("symbolic.verify_ms"), "ms");
        metrics.add("symbolic.sat_ms", sum("symbolic.sat_ms"), "ms");
        metrics.add("codegen.insts", sum("codegen.insts"), "count");
        metrics.add("codegen.lower_ms", sum("codegen.lower_ms"), "ms");
        metrics.add("codegen.macro_ms", sum("codegen.macro_ms"), "ms");
        metrics.add("backends.validate_ms", sum("backends.validate_ms"),
                    "ms");
        metrics.add("backends.simulate_ms", sum("backends.simulate_ms"),
                    "ms");
        for (int f = 0; f < perfbench::kFateCount; ++f) {
            const std::string key =
                std::string("fate.") +
                perfbench::fateName(static_cast<Fate>(f));
            metrics.add(key, sum(key), "count");
        }
        auto self_setup = [&](const char *layer) {
            double ms = 0.0;
            for (const auto &[name, self] : setup_self)
                if (perfbench::layerOf(name) == layer)
                    ms += self;
            return ms;
        };
        for (const char *layer : {"specs", "similarity", "autollvm"})
            metrics.add(std::string("self.") + layer + "_ms",
                        self_setup(layer), "ms");
        for (const char *layer : {"halide", "store", "driver", "synthesis",
                                  "symbolic", "codegen", "backends"}) {
            const std::string key = std::string("self.") + layer + "_ms";
            metrics.add(key, sum(key), "ms");
        }
        metrics.add("trace.overhead_s",
                    traced.compile_s() - untraced.compile_s(), "s");
        // Each kernel's median over passes first, so one slow sample
        // (an fsync, a preemption) cannot move the kernel it hit.
        std::vector<double> per_kernel;
        for (size_t i = 0; i < jobs.size(); ++i) {
            std::vector<double> samples;
            for (const auto &pass : untraced.passes)
                samples.push_back(pass.kernel_ms[i]);
            per_kernel.push_back(median(samples));
        }
        metrics.add("kernel_ms.p50", median(per_kernel), "ms");
        metrics.add("kernel_ms.p90", quantile(kernel_ms, 0.9), "ms");
        metrics.add("kernel_ms.samples",
                    static_cast<double>(kernel_ms.size()), "count");
        metrics.add("ops_failed_share",
                    static_cast<double>(windows_failed) /
                        static_cast<double>(std::max(windows, 1L)),
                    "ratio");
    }

    std::cout << "digest " << digest << "\n";
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed
              << ", \"metrics\": " << metrics.str() << "}" << std::endl;
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception &err) {
        std::fprintf(stderr, "perfbench: %s\n", err.what());
        return 2;
    }
}
