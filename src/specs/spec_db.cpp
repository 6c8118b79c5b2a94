#include "specs/spec_db.h"

#include "analysis/inst_verify.h"
#include "hir/canonicalize.h"
#include "observability/metrics.h"
#include "observability/trace.h"
#include "specs/arm_manual.h"
#include "specs/arm_parser.h"
#include "specs/hvx_manual.h"
#include "specs/hvx_parser.h"
#include "specs/x86_manual.h"
#include "specs/x86_parser.h"
#include "support/error.h"
#include "support/faults.h"
#include "support/parallel.h"

#include <map>
#include <mutex>

namespace hydride {

const std::vector<std::string> &
builtinIsas()
{
    static const std::vector<std::string> isas = {"x86", "hvx", "arm"};
    return isas;
}

const IsaSpec &
isaManual(const std::string &isa)
{
    static std::map<std::string, IsaSpec> cache;
    static std::mutex mutex;
    std::lock_guard<std::mutex> lock(mutex);
    auto it = cache.find(isa);
    if (it != cache.end())
        return it->second;
    trace::TraceSpan span("specs.manual.generate");
    span.setAttr("isa", isa);
    IsaSpec spec;
    if (isa == "x86")
        spec = generateX86Manual();
    else if (isa == "hvx")
        spec = generateHvxManual();
    else if (isa == "arm")
        spec = generateArmManual();
    else
        fatal("unknown ISA `" + isa + "`");
    span.setAttr("instructions", static_cast<int64_t>(spec.insts.size()));
    return cache.emplace(isa, std::move(spec)).first->second;
}

namespace {

/** The dialect parser of `isa`, with no fault seam (safe to call from
 *  parallelFor workers). */
SpecFunction
parseWithDialect(const std::string &isa, const InstDef &inst)
{
    if (isa == "x86")
        return parseX86Inst(inst);
    if (isa == "hvx")
        return parseHvxInst(inst);
    if (isa == "arm")
        return parseArmInst(inst);
    fatal("unknown ISA `" + isa + "`");
}

/** The error an injected front-half fault reads as. */
ParseError
injectedError(const std::string &isa, const InstDef &inst,
              const std::string &what)
{
    return ParseError(isa + ":" + inst.name, 1, what);
}

/** What the parallel pass leaves for one instruction; the in-order
 *  pass makes every decision from it. */
struct ParsedInst
{
    /** The dialect parser accepted the pseudocode. */
    bool parsed = false;
    /** Why the instruction is skipped ("" when it is kept). */
    std::string failure;
    CanonicalSemantics sem;
};

/** Parse, canonicalize and (when enabled) load-time verify one
 *  instruction. Pure: no fault site, no warning, no ordered counter. */
void
parseCanonical(const std::string &isa, const InstDef &inst, bool verify,
               ParsedInst &out)
{
    try {
        SpecFunction fn = parseWithDialect(isa, inst);
        out.parsed = true;
        CanonicalizeResult result = canonicalize(fn);
        if (!result.ok) {
            out.failure = "canonicalization failed: " + result.error;
            return;
        }
        if (verify) {
            // Debug-mode assertion: the cheap per-instruction passes
            // must come back clean on everything we hand downstream.
            analysis::DiagnosticReport report;
            analysis::verifyInstruction(
                result.sem, analysis::kWellFormed | analysis::kUndefined,
                {}, report);
            if (report.hasErrors()) {
                out.failure = "load-time verification failed:\n" +
                              report.renderText();
                return;
            }
        }
        out.sem = std::move(result.sem);
    } catch (const ParseError &error) {
        out.failure = error.what();
    } catch (const AssertionError &error) {
        out.failure = error.what();
    }
}

} // namespace

SpecFunction
parseInst(const std::string &isa, const InstDef &inst)
{
    metrics::counter("specs.parser." + isa + ".instructions").add();
    // Chaos seam: a keyed clause (`parser.malformed=vadd_s16`) makes
    // this one instruction read as malformed vendor pseudocode.
    if (faults::shouldFail("parser.malformed", inst.name))
        throw injectedError(isa, inst, "injected malformed pseudocode");
    return parseWithDialect(isa, inst);
}

IsaSemantics
parseIsaSemantics(const std::string &isa)
{
    trace::TraceSpan span("specs.semantics.parse");
    span.setAttr("isa", isa);
    const std::vector<InstDef> &manual = isaManual(isa).insts;
    metrics::counter("specs.parser." + isa + ".instructions")
        .add(manual.size());

    // Pure work in parallel: each worker fills its instruction's slot.
    const bool verify = analysis::loadTimeVerifyEnabled();
    std::vector<ParsedInst> slots(manual.size());
    parallelFor(manual.size(), [&](size_t i) {
        parseCanonical(isa, manual[i], verify, slots[i]);
    });

    // Every decision in manual order, so a `site@P` fault hits the
    // same instruction on every run. A malformed vendor spec must not
    // kill the process: skip the offending instruction with a
    // structured warning citing the pseudocode location and keep
    // building the database. The rest of the pipeline degrades
    // gracefully (one fewer instruction to merge / synthesize with).
    static metrics::Counter &parse_failures =
        metrics::counter("specs.parse.failures");
    IsaSemantics sema;
    sema.isa = isa;
    for (size_t i = 0; i < manual.size(); ++i) {
        const InstDef &inst = manual[i];
        ParsedInst &slot = slots[i];
        std::string failure;
        if (faults::shouldFail("parser.malformed", inst.name)) {
            failure =
                injectedError(isa, inst, "injected malformed pseudocode")
                    .what();
        } else if (slot.parsed &&
                   faults::shouldFail("specdb.corrupt", inst.name)) {
            failure =
                injectedError(isa, inst, "injected corrupt canonical form")
                    .what();
        } else {
            failure = std::move(slot.failure);
        }
        if (!failure.empty()) {
            parse_failures.add();
            warn("skipping " + isa + ":" + inst.name + ": " + failure);
            continue;
        }
        sema.insts.push_back(std::move(slot.sem));
    }
    span.setAttr("instructions", static_cast<int64_t>(sema.insts.size()));
    static metrics::Counter &parsed =
        metrics::counter("specs.parser.instructions");
    parsed.add(sema.insts.size());
    return sema;
}

const IsaSemantics &
isaSemantics(const std::string &isa)
{
    static std::map<std::string, IsaSemantics> cache;
    static std::mutex mutex;
    std::lock_guard<std::mutex> lock(mutex);
    auto it = cache.find(isa);
    if (it != cache.end())
        return it->second;
    return cache.emplace(isa, parseIsaSemantics(isa)).first->second;
}

std::vector<CanonicalSemantics>
combinedSemantics(const std::vector<std::string> &isas)
{
    std::vector<CanonicalSemantics> all;
    for (const auto &isa : isas) {
        const IsaSemantics &sema = isaSemantics(isa);
        all.insert(all.end(), sema.insts.begin(), sema.insts.end());
    }
    return all;
}

} // namespace hydride
