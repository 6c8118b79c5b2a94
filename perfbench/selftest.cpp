/**
 * @file
 * Self-test of the benchmark's own logic: the window fate classifier
 * on synthetic `ResilientWindow`s, the output digest, and span self
 * time. Exits non-zero on the first failed check.
 */
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "fate.h"
#include "layers.h"

namespace {

using hydride::ResilientWindow;
using hydride::Rung;
using perfbench::Fate;

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
        ++failures;
    }
}

ResilientWindow
window(Rung rung, const std::string &cache, const std::string &note,
       bool recovered = false)
{
    ResilientWindow w;
    w.rung = rung;
    w.ok = rung != Rung::Failed;
    w.cache_outcome = cache;
    w.synth.note = note;
    w.recovered = recovered;
    return w;
}

void
testClassifier()
{
    struct Case
    {
        ResilientWindow window;
        Fate fate;
    };
    const std::vector<Case> cases = {
        {window(Rung::Synthesized, "miss", ""), Fate::Solved},
        {window(Rung::Synthesized, "miss", "warm-start seed"), Fate::Solved},
        {window(Rung::Cached, "hit", ""), Fate::CacheHit},
        {window(Rung::Cached, "store_hit", ""), Fate::StoreHit},
        {window(Rung::MacroExpanded, "negative", ""), Fate::Negative},
        {window(Rung::MacroExpanded, "store_negative", ""),
         Fate::StoreNegative},
        {window(Rung::MacroExpanded, "miss",
                "search exhausted; unscaled retry: search exhausted"),
         Fate::Exhausted},
        {window(Rung::MacroExpanded, "miss", "timeout"), Fate::Deadline},
        {window(Rung::MacroExpanded, "miss",
                "search exhausted; unscaled retry: timeout"),
         Fate::Deadline},
        {window(Rung::MacroExpanded, "miss",
                "synthesis aborted: bitvector argument missing during "
                "evaluation"),
         Fate::Aborted},
        // A barrier caught the error before CEGIS wrote a note.
        {window(Rung::MacroExpanded, "miss", "", true), Fate::Aborted},
        {window(Rung::MacroExpanded, "none", "", true), Fate::Aborted},
        {window(Rung::MacroExpanded, "miss", "empty grammar"),
         Fate::MacroExpanded},
        {window(Rung::MacroExpanded, "miss", "window not scalable"),
         Fate::MacroExpanded},
        {window(Rung::Scalarized, "miss", "", false), Fate::Scalarized},
        {window(Rung::Failed, "miss", "timeout", true), Fate::Failed},
    };
    for (const auto &c : cases) {
        const Fate got = perfbench::classify(c.window);
        check(got == c.fate,
              std::string("classify(") + hydride::rungName(c.window.rung) +
                  ", " + c.window.cache_outcome + ", \"" +
                  c.window.synth.note + "\") = " + perfbench::fateName(got) +
                  ", want " + perfbench::fateName(c.fate));
    }
    for (int f = 0; f < perfbench::kFateCount; ++f) {
        const Fate fate = static_cast<Fate>(f);
        const bool want = fate == Fate::Aborted || fate == Fate::Deadline ||
                          fate == Fate::Failed;
        check(perfbench::isFailure(fate) == want,
              std::string("isFailure(") + perfbench::fateName(fate) + ")");
    }
}

void
testDigest()
{
    hydride::TargetInst inst;
    inst.inst_name = "vaddq_s16";
    ResilientWindow a = window(Rung::Synthesized, "miss", "");
    a.program.insts.push_back(inst);
    ResilientWindow b = a;
    b.rung = Rung::Cached;
    perfbench::OutputDigest d1, d2, d3;
    d1.add(a);
    d2.add(a);
    d3.add(b);
    check(d1.hex() == d2.hex(), "equal outputs give equal digests");
    check(d1.hex() != d3.hex(), "a different rung changes the digest");
    check(d1.hex().size() == 16, "digest is 16 hex digits");
}

void
testSelfTime()
{
    using hydride::trace::SpanRecord;
    auto span = [](const char *name, int depth, uint64_t start,
                   uint64_t duration) {
        SpanRecord s;
        s.name = name;
        s.depth = depth;
        s.start_ns = start * 1000000;
        s.duration_ns = duration * 1000000;
        return s;
    };
    // Completion order, as the trace buffer records them.
    const std::vector<SpanRecord> spans = {
        span("perfbench.driver.compile", 1, 10, 30),
        span("synthesis.cegis.enumerate", 2, 12, 8),
        span("codegen.macro_expand.expand", 1, 50, 10),
        span("perfbench.halide.build_kernel", 0, 0, 100),
        span("perfbench.halide.build_kernel", 0, 200, 5),
    };
    auto self = perfbench::selfTimeMs(spans);
    check(std::fabs(self["perfbench.halide.build_kernel"] - 65.0) < 1e-9,
          "root self time excludes its direct children");
    check(std::fabs(self["perfbench.driver.compile"] - 22.0) < 1e-9,
          "child self time excludes the grandchild");
    check(std::fabs(self["synthesis.cegis.enumerate"] - 8.0) < 1e-9,
          "leaf self time is its duration");
    check(std::fabs(self["codegen.macro_expand.expand"] - 10.0) < 1e-9,
          "second child self time");
    check(perfbench::layerOf("perfbench.store.open") == "store",
          "benchmark span layer");
    check(perfbench::layerOf("synthesis.cegis.window") == "synthesis",
          "program span layer");
    check(perfbench::layerOf("symbolic.sat.solve") == "symbolic",
          "symbolic span layer");
    check(perfbench::layerOf("unknown.span") == "other", "unknown span");
}

} // namespace

int
main()
{
    testClassifier();
    testDigest();
    testSelfTime();
    if (failures) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("perfbench self-test: all checks passed\n");
    return 0;
}
