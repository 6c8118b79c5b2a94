/**
 * @file
 * Tests for the static verifier (src/analysis/): per-pass unit tests
 * with hand-built good/bad semantics, cross-table checks over
 * hand-built dictionaries, seeded-mutation coverage, source-location
 * threading from the parsers, and the CLI driver.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "analysis/driver.h"
#include "analysis/expr_check.h"
#include "analysis/inst_verify.h"
#include "analysis/mutate.h"
#include "analysis/symbolic/equiv.h"
#include "analysis/verifier.h"
#include "autollvm/dict.h"
#include "codegen/lowering.h"
#include "observability/bench/json.h"
#include "specs/spec_db.h"

namespace hydride {
namespace analysis {
namespace {

/** Element-wise vector add, the canonical well-formed instruction:
 *  params p0 = element width (16), p1 = element count (8). */
CanonicalSemantics
makeGoodAdd()
{
    CanonicalSemantics sem;
    sem.name = "good_add";
    sem.isa = "test";
    ExprPtr ew = param(0, "p0");
    ExprPtr count = param(1, "p1");
    ExprPtr total = mulI(ew, count);
    sem.bv_args = {{"a", total}, {"b", total}};
    sem.params = {{"p0", 16, ParamRole::ElemWidth},
                  {"p1", 8, ParamRole::Count}};
    sem.mode = TemplateMode::Uniform;
    sem.outer_count = count;
    sem.inner_count = intConst(1);
    sem.elem_width = ew;
    ExprPtr low = mulI(loopVar(0), ew);
    sem.templates = {bvBin(BVBinOp::Add, extract(argBV(0), low, ew),
                           extract(argBV(1), low, ew))};
    return sem;
}

/** Run the per-instruction passes and return the report. */
DiagnosticReport
check(const CanonicalSemantics &sem, unsigned rules = kAllInstRules,
      InstVerifyOptions options = {})
{
    DiagnosticReport report;
    verifyInstruction(sem, rules, options, report);
    return report;
}

bool
hasRule(const DiagnosticReport &report, const std::string &rule)
{
    for (const Diagnostic &d : report.diags())
        if (d.rule == rule)
            return true;
    return false;
}

// ---- Well-formedness (WF) --------------------------------------------------

TEST(WellFormed, CleanInstructionHasNoFindings)
{
    const DiagnosticReport report = check(makeGoodAdd());
    EXPECT_TRUE(report.diags().empty()) << report.renderText();
}

TEST(WellFormed, OperandWidthMismatchIsWF01)
{
    CanonicalSemantics sem = makeGoodAdd();
    // Add a 16-bit extract to an 8-bit constant.
    sem.templates = {bvBin(BVBinOp::Add,
                           extract(argBV(0), intConst(0), intConst(16)),
                           bvConst(intConst(8), intConst(1)))};
    const DiagnosticReport report = check(sem);
    EXPECT_TRUE(hasRule(report, "WF01")) << report.renderText();
    EXPECT_TRUE(report.hasErrors());
}

TEST(WellFormed, OutOfBoundsExtractIsWF02)
{
    CanonicalSemantics sem = makeGoodAdd();
    // Last lane reads [127+16, 127+32) of a 128-bit argument.
    ExprPtr low = addI(mulI(loopVar(0), param(0, "p0")), intConst(16));
    sem.templates = {extract(argBV(0), low, param(0, "p0"))};
    const DiagnosticReport report = check(sem);
    EXPECT_TRUE(hasRule(report, "WF02")) << report.renderText();
}

TEST(WellFormed, ZeroElementWidthIsWF03)
{
    CanonicalSemantics sem = makeGoodAdd();
    sem.elem_width = intConst(0);
    EXPECT_TRUE(hasRule(check(sem), "WF03"));
}

TEST(WellFormed, WideSelectConditionIsWF04)
{
    CanonicalSemantics sem = makeGoodAdd();
    ExprPtr low = mulI(loopVar(0), param(0, "p0"));
    ExprPtr elem = extract(argBV(0), low, param(0, "p0"));
    sem.templates = {select(elem, elem, elem)}; // 16-bit condition.
    EXPECT_TRUE(hasRule(check(sem), "WF04"));
}

TEST(WellFormed, NarrowingZExtIsWF05)
{
    CanonicalSemantics sem = makeGoodAdd();
    ExprPtr low = mulI(loopVar(0), param(0, "p0"));
    sem.templates = {bvCast(BVCastOp::ZExt,
                            extract(argBV(0), low, param(0, "p0")),
                            intConst(8))};
    const DiagnosticReport report = check(sem);
    EXPECT_TRUE(hasRule(report, "WF05"));
}

TEST(WellFormed, TemplateWidthMismatchIsWF07)
{
    CanonicalSemantics sem = makeGoodAdd();
    sem.elem_width = mulI(param(0, "p0"), intConst(2));
    // outer * elem_width now disagrees with what the template makes.
    EXPECT_TRUE(hasRule(check(sem), "WF07"));
}

TEST(WellFormed, OutputBeyondBitVectorLimitIsWF08)
{
    CanonicalSemantics sem = makeGoodAdd();
    sem.params[1].default_value = 4096; // 16 * 4096 bits.
    EXPECT_TRUE(hasRule(check(sem), "WF08"));
}

TEST(WellFormed, BadArgumentIndexIsWF09)
{
    CanonicalSemantics sem = makeGoodAdd();
    ExprPtr low = mulI(loopVar(0), param(0, "p0"));
    sem.templates = {extract(argBV(7), low, param(0, "p0"))};
    EXPECT_TRUE(hasRule(check(sem), "WF09"));
}

// ---- Undefined behaviour (UB) ----------------------------------------------

TEST(Undefined, FullWidthShiftIsUB01)
{
    CanonicalSemantics sem = makeGoodAdd();
    ExprPtr low = mulI(loopVar(0), param(0, "p0"));
    ExprPtr elem = extract(argBV(0), low, param(0, "p0"));
    sem.templates = {
        bvBin(BVBinOp::Shl, elem, bvConst(param(0, "p0"), intConst(16)))};
    const DiagnosticReport report = check(sem);
    EXPECT_TRUE(hasRule(report, "UB01")) << report.renderText();
    // The abstract pass proves the trap fires on every lane for every
    // input, which promotes UB01 to an error.
    EXPECT_TRUE(report.hasErrors()) << report.renderText();
}

TEST(Undefined, PartialLaneShiftIsUB01Warning)
{
    CanonicalSemantics sem = makeGoodAdd();
    ExprPtr low = mulI(loopVar(0), param(0, "p0"));
    ExprPtr elem = extract(argBV(0), low, param(0, "p0"));
    // Shift amount 4*i: lanes 4..7 shift a 16-bit value by >= 16, the
    // rest are fine, so UB01 must stay a warning.
    sem.templates = {bvBin(
        BVBinOp::Shl, elem,
        bvConst(param(0, "p0"), mulI(intConst(4), loopVar(0))))};
    const DiagnosticReport report = check(sem);
    EXPECT_TRUE(hasRule(report, "UB01")) << report.renderText();
    EXPECT_FALSE(report.hasErrors()) << report.renderText();
}

TEST(Undefined, LaneCapCannotSkipTrappingLanes)
{
    CanonicalSemantics sem = makeGoodAdd();
    // Division by (i - 5) traps only on lane 5 — beyond a cap of 2
    // and not the always-checked last lane, so the old capped
    // enumeration would have missed it.
    ExprPtr ew = param(0, "p0");
    ExprPtr poison =
        mulI(intConst(0), divI(intConst(1), subI(loopVar(0), intConst(5))));
    ExprPtr low = addI(mulI(loopVar(0), ew), poison);
    sem.templates = {extract(argBV(0), low, ew)};
    InstVerifyOptions options;
    options.max_outer_iters = 2;
    const DiagnosticReport report = check(sem, kAllInstRules, options);
    EXPECT_TRUE(hasRule(report, "UB02")) << report.renderText();
}

TEST(Undefined, EveryLaneZeroDivisorIsUB04Error)
{
    CanonicalSemantics sem = makeGoodAdd();
    ExprPtr low = mulI(loopVar(0), param(0, "p0"));
    ExprPtr elem = extract(argBV(0), low, param(0, "p0"));
    sem.templates = {bvBin(BVBinOp::UDiv, elem,
                           bvConst(param(0, "p0"), intConst(0)))};
    const DiagnosticReport report = check(sem);
    EXPECT_TRUE(hasRule(report, "UB04")) << report.renderText();
    EXPECT_TRUE(report.hasErrors()) << report.renderText();
}

TEST(Undefined, ConstantZeroDivisionIsUB02)
{
    CanonicalSemantics sem = makeGoodAdd();
    sem.inner_count = divI(intConst(4), intConst(0));
    const DiagnosticReport report = check(sem);
    EXPECT_TRUE(hasRule(report, "UB02"));
    EXPECT_TRUE(report.hasErrors());
}

TEST(Undefined, SignedOverflowIsUB03)
{
    CanonicalSemantics sem = makeGoodAdd();
    ExprPtr big = intConst(INT64_MAX / 2);
    ExprPtr low = mulI(big, mulI(big, loopVar(0)));
    sem.templates = {extract(argBV(0), low, param(0, "p0"))};
    EXPECT_TRUE(hasRule(check(sem), "UB03"));
}

TEST(Undefined, CheckedEvalIntFlagsOverflowAndDivZero)
{
    CheckEnv env;
    CheckedInt r = checkedEvalInt(
        mulI(intConst(INT64_MAX), intConst(2)), env);
    EXPECT_EQ(r.status, CheckedInt::Status::Overflow);
    r = checkedEvalInt(modI(intConst(5), intConst(0)), env);
    EXPECT_EQ(r.status, CheckedInt::Status::DivZero);
    // Unknown immediates stay unknown, never errors.
    r = checkedEvalInt(divI(namedVar("imm"), intConst(4)), env);
    EXPECT_EQ(r.status, CheckedInt::Status::Unknown);
}

// ---- Range analysis (RA) ---------------------------------------------------

TEST(RangeAnalysis, LosslessSatNarrowIsRA01)
{
    CanonicalSemantics sem = makeGoodAdd();
    ExprPtr ew = param(0, "p0");
    ExprPtr low = mulI(loopVar(0), ew);
    ExprPtr elem = extract(argBV(0), low, ew);
    // zext to 24 bits then saturating-narrow back to 16: the source
    // range [0, 0xFFFF] always fits, so the saturation is a no-op.
    sem.templates = {bvCast(
        BVCastOp::SatNarrowU,
        bvCast(BVCastOp::ZExt, elem, intConst(24)), intConst(16))};
    const DiagnosticReport report = check(sem);
    EXPECT_TRUE(hasRule(report, "RA01")) << report.renderText();
    EXPECT_FALSE(report.hasErrors()) << report.renderText();
}

TEST(RangeAnalysis, ConstantConditionSelectIsRA02)
{
    CanonicalSemantics sem = makeGoodAdd();
    ExprPtr ew = param(0, "p0");
    ExprPtr low = mulI(loopVar(0), ew);
    ExprPtr elem = extract(argBV(0), low, ew);
    ExprPtr cond = bvCmp(BVCmpOp::Ult, bvConst(intConst(8), intConst(0)),
                         bvConst(intConst(8), intConst(1)));
    sem.templates = {select(cond, elem, extract(argBV(1), low, ew))};
    EXPECT_TRUE(hasRule(check(sem), "RA02"));
}

TEST(RangeAnalysis, ProvablyUnsaturatedAddIsRA03)
{
    CanonicalSemantics sem = makeGoodAdd();
    ExprPtr ew = param(0, "p0");
    ExprPtr low = mulI(loopVar(0), ew);
    ExprPtr elem = extract(argBV(0), low, ew);
    // (elem & 0xFF) +sat 1 peaks at 0x100, far below the 16-bit
    // saturation point.
    sem.templates = {
        bvBin(BVBinOp::AddSatU,
              bvBin(BVBinOp::And, elem, bvConst(ew, intConst(255))),
              bvConst(ew, intConst(1)))};
    EXPECT_TRUE(hasRule(check(sem), "RA03"));
}

TEST(RangeAnalysis, RulesAreGatedBehindKRange)
{
    CanonicalSemantics sem = makeGoodAdd();
    ExprPtr ew = param(0, "p0");
    ExprPtr low = mulI(loopVar(0), ew);
    ExprPtr elem = extract(argBV(0), low, ew);
    sem.templates = {bvCast(
        BVCastOp::SatNarrowU,
        bvCast(BVCastOp::ZExt, elem, intConst(24)), intConst(16))};
    const DiagnosticReport report =
        check(sem, kWellFormed | kUndefined | kDeadCode);
    EXPECT_FALSE(hasRule(report, "RA01")) << report.renderText();
}

// ---- Dead code (DC) --------------------------------------------------------

TEST(DeadCode, UnreadArgumentIsDC01)
{
    CanonicalSemantics sem = makeGoodAdd();
    sem.bv_args.push_back({"ghost", intConst(32)});
    const DiagnosticReport report = check(sem);
    EXPECT_TRUE(hasRule(report, "DC01"));
    EXPECT_FALSE(report.hasErrors()); // DC01 is a warning.
}

TEST(DeadCode, UnreferencedParamIsDC02)
{
    CanonicalSemantics sem = makeGoodAdd();
    sem.params.push_back({"p2", 3, ParamRole::Value});
    EXPECT_TRUE(hasRule(check(sem), "DC02"));
}

TEST(DeadCode, UnreferencedImmediateIsDC03)
{
    CanonicalSemantics sem = makeGoodAdd();
    sem.int_args.push_back("imm8");
    EXPECT_TRUE(hasRule(check(sem), "DC03"));
}

TEST(DeadCode, UnreachableTemplateIsDC04Warning)
{
    CanonicalSemantics sem = makeGoodAdd();
    sem.templates.push_back(sem.templates[0]);
    const DiagnosticReport report = check(sem);
    EXPECT_TRUE(hasRule(report, "DC04"));
    EXPECT_FALSE(report.hasErrors());
}

TEST(DeadCode, UnderProvisionedTemplateTableIsDC04Error)
{
    CanonicalSemantics sem = makeGoodAdd();
    // ByInner with inner_count 2 but only one template: evaluation
    // would index past the table.
    sem.mode = TemplateMode::ByInner;
    sem.inner_count = intConst(2);
    sem.outer_count = intConst(4);
    const DiagnosticReport report = check(sem);
    EXPECT_TRUE(hasRule(report, "DC04"));
    EXPECT_TRUE(report.hasErrors());
}

TEST(DeadCode, PedanticPartialReadIsDC05)
{
    // Only the low half of each element is read.
    CanonicalSemantics sem = makeGoodAdd();
    ExprPtr low = mulI(loopVar(0), param(0, "p0"));
    sem.templates = {bvCast(
        BVCastOp::ZExt,
        extract(argBV(0), low, divI(param(0, "p0"), intConst(2))),
        param(0, "p0"))};
    InstVerifyOptions pedantic;
    pedantic.pedantic = true;
    const DiagnosticReport report = check(sem, kAllInstRules, pedantic);
    EXPECT_TRUE(hasRule(report, "DC05")) << report.renderText();
    // DC05 requires opting in.
    EXPECT_FALSE(hasRule(check(sem), "DC05"));
}

// ---- Diagnostics plumbing --------------------------------------------------

TEST(Diagnostics, WaiversSuppressMatchingFindings)
{
    CanonicalSemantics sem = makeGoodAdd();
    sem.bv_args.push_back({"ghost", intConst(32)});
    DiagnosticReport report;
    report.setWaivers({{"DC01", "good_"}});
    verifyInstruction(sem, kAllInstRules, {}, report);
    EXPECT_FALSE(hasRule(report, "DC01"));
    EXPECT_EQ(report.suppressed(), 1);
    // A non-matching instruction substring leaves the finding alone.
    DiagnosticReport other;
    other.setWaivers({{"DC01", "some_other_inst"}});
    verifyInstruction(sem, kAllInstRules, {}, other);
    EXPECT_TRUE(hasRule(other, "DC01"));
}

TEST(Diagnostics, JsonRenderingIsWellFormed)
{
    CanonicalSemantics sem = makeGoodAdd();
    sem.elem_width = intConst(0);
    DiagnosticReport report;
    verifyInstruction(sem, kAllInstRules, {}, report);
    const std::string json = report.renderJson();
    EXPECT_NE(json.find("\"diagnostics\":["), std::string::npos);
    EXPECT_NE(json.find("\"rule\":\"WF03\""), std::string::npos);
    EXPECT_NE(json.find("\"summary\":"), std::string::npos);
}

TEST(Diagnostics, JsonEscapesControlCharacters)
{
    DiagnosticReport report;
    Diagnostic diag;
    diag.rule = "WF01";
    diag.message = "line one\r\x01line \"two\"\n";
    report.add(diag);
    std::string error;
    const bjson::ValuePtr doc = bjson::parse(report.renderJson(), error);
    ASSERT_NE(doc, nullptr) << error;
    const bjson::Value *diags = doc->get("diagnostics");
    ASSERT_NE(diags, nullptr);
    ASSERT_EQ(diags->items.size(), 1u);
    EXPECT_EQ(diags->items[0]->getString("message", ""), diag.message);
}

TEST(Diagnostics, ExtrasAreSplicedIntoJson)
{
    DiagnosticReport report;
    report.setExtra("equiv", "{\"proved\":3,\"unknown\":1}");
    const std::string json = report.renderJson();
    EXPECT_NE(json.find("\"equiv\":{\"proved\":3,\"unknown\":1}"),
              std::string::npos)
        << json;
    // Setting the same key again replaces, not duplicates.
    report.setExtra("equiv", "{\"proved\":4}");
    const std::string again = report.renderJson();
    EXPECT_NE(again.find("\"equiv\":{\"proved\":4}"), std::string::npos);
    EXPECT_EQ(again.find("\"proved\":3"), std::string::npos);
}

// ---- Source locations ------------------------------------------------------

TEST(SourceLoc, TagAndFindRoundTrip)
{
    ExprPtr e = bvBin(BVBinOp::Add, argBV(0), argBV(1));
    EXPECT_FALSE(findSourceLoc(e).known());
    tagSourceLoc(e, SourceLoc{"x86:_mm_test", 7});
    EXPECT_EQ(findSourceLoc(e).str(), "x86:_mm_test:7");
    // Tagging never overwrites an existing location.
    tagSourceLoc(e, SourceLoc{"x86:_mm_test", 9});
    EXPECT_EQ(e->loc.line, 7);
    EXPECT_EQ(e->kids[0]->loc.line, 7);
}

TEST(SourceLoc, ParsersThreadLocationsIntoSemantics)
{
    // Every built-in ISA's parser must stamp vendor-manual lines onto
    // the parsed trees, and canonicalization must preserve them.
    for (const std::string &isa : builtinIsas()) {
        const IsaSemantics &sema = isaSemantics(isa);
        ASSERT_FALSE(sema.insts.empty());
        int located = 0;
        for (const CanonicalSemantics &inst : sema.insts)
            for (const ExprPtr &tmpl : inst.templates)
                if (findSourceLoc(tmpl).known())
                    ++located;
        EXPECT_GT(located, 0) << isa << ": no source locations survived";
    }
}

TEST(SourceLoc, DiagnosticsCarryLocationsFromRealSpecs)
{
    // Mutate a real instruction and check the finding points back at
    // the vendor pseudocode.
    IsaSemantics sema = isaSemantics("x86");
    const std::string victim = mutateSemantics(sema, "extract-oob");
    ASSERT_FALSE(victim.empty());
    DiagnosticReport report;
    for (const CanonicalSemantics &inst : sema.insts)
        if (inst.name == victim)
            verifyInstruction(inst, kAllInstRules, {}, report);
    ASSERT_TRUE(hasRule(report, "WF02")) << report.renderText();
    bool located = false;
    for (const Diagnostic &d : report.diags())
        located |= d.rule == "WF02" && d.loc.known();
    EXPECT_TRUE(located) << report.renderText();
}

// ---- Cross-table (XT) ------------------------------------------------------

/** A one-class dictionary over makeGoodAdd with the given members. */
AutoLLVMDict
makeDict(const std::vector<ClassMember> &members)
{
    EquivalenceClass cls;
    cls.rep = makeGoodAdd();
    cls.members = members;
    return AutoLLVMDict({cls});
}

ClassMember
makeMember(const std::string &name)
{
    ClassMember member;
    member.name = name;
    member.isa = "test";
    member.param_values = {16, 8};
    member.concrete = makeGoodAdd();
    member.concrete.name = name;
    return member;
}

DiagnosticReport
checkDict(const AutoLLVMDict &dict)
{
    DiagnosticReport report;
    VerifyInput input;
    input.dict = &dict;
    VerifierOptions options;
    options.pass_ids = {"crosstable"};
    runVerifier(input, options, report);
    return report;
}

TEST(CrossTable, TypeAliasesAreNotDuplicates)
{
    // Regression test for the seed-DB false positive: distinct
    // intrinsics sharing (ISA, parameters) — e.g. vand_s16/vand_u16 —
    // are proven-equivalent aliases, not table defects.
    const DiagnosticReport report =
        checkDict(makeDict({makeMember("alias_a"), makeMember("alias_b")}));
    EXPECT_FALSE(hasRule(report, "XT03")) << report.renderText();
    EXPECT_FALSE(report.hasErrors()) << report.renderText();
}

TEST(CrossTable, RepeatedEntryIsXT03)
{
    const DiagnosticReport report =
        checkDict(makeDict({makeMember("dup"), makeMember("dup")}));
    EXPECT_TRUE(hasRule(report, "XT03")) << report.renderText();
}

TEST(CrossTable, BadArgPermutationIsXT08)
{
    ClassMember member = makeMember("permuted");
    member.arg_perm = {1, 1}; // Not a permutation.
    const DiagnosticReport report = checkDict(makeDict({member}));
    EXPECT_TRUE(hasRule(report, "XT08")) << report.renderText();
}

TEST(CrossTable, ParamShapeMismatchIsXT09)
{
    ClassMember member = makeMember("short_params");
    member.param_values = {16}; // Rep has two parameters.
    const DiagnosticReport report = checkDict(makeDict({member}));
    EXPECT_TRUE(hasRule(report, "XT09")) << report.renderText();
}

TEST(CrossTable, ForwardReferenceIsXT05)
{
    TargetProgram program;
    program.isa = "test";
    program.input_widths = {128, 128};
    TargetInst inst;
    inst.inst_name = "bad";
    inst.args = {ValueRef::inst(0), ValueRef::input(1)}; // Self-reference.
    program.insts.push_back(inst);
    DiagnosticReport report;
    verifyTargetProgram(program, nullptr, report);
    EXPECT_TRUE(hasRule(report, "XT05")) << report.renderText();

    // The fixed program verifies clean.
    program.insts[0].args = {ValueRef::input(0), ValueRef::input(1)};
    DiagnosticReport clean;
    verifyTargetProgram(program, nullptr, clean);
    EXPECT_FALSE(clean.hasErrors()) << clean.renderText();
}

// ---- Seeded mutations ------------------------------------------------------

TEST(Mutations, EverySpecMutationIsCaughtByItsRule)
{
    for (const MutationInfo &mutation : allMutations()) {
        if (mutation.on_dict || mutation.on_expander)
            continue;
        IsaSemantics sema = isaSemantics("x86");
        const std::string victim = mutateSemantics(sema, mutation.kind);
        ASSERT_FALSE(victim.empty()) << mutation.kind;
        DiagnosticReport report;
        for (const CanonicalSemantics &inst : sema.insts)
            if (inst.name == victim)
                verifyInstruction(inst, kAllInstRules, {}, report);
        EXPECT_TRUE(hasRule(report, mutation.expected_rule))
            << mutation.kind << " not caught:\n"
            << report.renderText();
    }
}

TEST(Mutations, DroppedLoweringEntryIsXT07)
{
    // Dict from a hand-built class that "forgot" one spec instruction.
    IsaSemantics sema;
    sema.isa = "test";
    sema.insts = {makeGoodAdd()};
    sema.insts[0].name = "forgotten";
    const AutoLLVMDict dict = makeDict({makeMember("present")});
    DiagnosticReport report;
    VerifyInput input;
    input.isas = {&sema};
    input.dict = &dict;
    VerifierOptions options;
    options.pass_ids = {"crosstable"};
    runVerifier(input, options, report);
    EXPECT_TRUE(hasRule(report, "XT07")) << report.renderText();
    EXPECT_TRUE(hasRule(report, "XT01")) << report.renderText();
}

// ---- Symbolic semantics equivalence (EQ01 workhorse) -----------------------

TEST(Equiv, IdenticalSemanticsProve)
{
    const CanonicalSemantics sem = makeGoodAdd();
    sym::SemanticsSide a, b;
    a.sem = &sem;
    a.param_values = sem.defaultParamValues();
    b.sem = &sem;
    b.param_values = sem.defaultParamValues();
    const sym::EqResult r = sym::checkSemanticsEquiv(a, b, {});
    EXPECT_EQ(r.verdict, sym::Verdict::Proved) << r.reason;
}

TEST(Equiv, SubVsAddRefutesWithValidatedModel)
{
    const CanonicalSemantics add = makeGoodAdd();
    CanonicalSemantics sub = makeGoodAdd();
    ExprPtr low = mulI(loopVar(0), param(0, "p0"));
    sub.templates = {bvBin(BVBinOp::Sub,
                           extract(argBV(0), low, param(0, "p0")),
                           extract(argBV(1), low, param(0, "p0")))};
    sym::SemanticsSide a, b;
    a.sem = &add;
    a.param_values = add.defaultParamValues();
    b.sem = &sub;
    b.param_values = sub.defaultParamValues();
    const sym::EqResult r = sym::checkSemanticsEquiv(a, b, {});
    ASSERT_EQ(r.verdict, sym::Verdict::Refuted);
    // The model is one value per bitvector input, already concretely
    // validated by the checker; spot-check the shape here.
    ASSERT_EQ(r.model.size(), 2u);
    EXPECT_EQ(r.model[0].width(), add.outputWidth(a.param_values));
}

TEST(Equiv, ArgPermutationWiresQueryInputs)
{
    // A "reversed subtract" member whose arg_perm swaps the inputs
    // must prove against plain subtract — and refute without the
    // permutation. This pins the rep_args[k] = args[arg_perm[k]]
    // convention EQ01 relies on.
    CanonicalSemantics sub = makeGoodAdd();
    ExprPtr low = mulI(loopVar(0), param(0, "p0"));
    sub.templates = {bvBin(BVBinOp::Sub,
                           extract(argBV(0), low, param(0, "p0")),
                           extract(argBV(1), low, param(0, "p0")))};
    CanonicalSemantics rsub = makeGoodAdd();
    rsub.templates = {bvBin(BVBinOp::Sub,
                            extract(argBV(1), low, param(0, "p0")),
                            extract(argBV(0), low, param(0, "p0")))};
    sym::SemanticsSide a, b;
    a.sem = &sub;
    a.param_values = sub.defaultParamValues();
    b.sem = &rsub;
    b.param_values = rsub.defaultParamValues();
    b.arg_map = {1, 0};
    EXPECT_EQ(sym::checkSemanticsEquiv(a, b, {}).verdict,
              sym::Verdict::Proved);
    b.arg_map.clear();
    EXPECT_EQ(sym::checkSemanticsEquiv(a, b, {}).verdict,
              sym::Verdict::Refuted);
}

// ---- Load-time verification gate -------------------------------------------

TEST(LoadTime, EnvironmentVariableControlsVerification)
{
    setenv("HYDRIDE_VERIFY", "1", 1);
    EXPECT_TRUE(loadTimeVerifyEnabled());
    setenv("HYDRIDE_VERIFY", "0", 1);
    EXPECT_FALSE(loadTimeVerifyEnabled());
    unsetenv("HYDRIDE_VERIFY");
#ifdef NDEBUG
    EXPECT_FALSE(loadTimeVerifyEnabled());
#else
    EXPECT_TRUE(loadTimeVerifyEnabled());
#endif
}

// ---- CLI driver ------------------------------------------------------------

TEST(Cli, ListPassesAndUsageErrors)
{
    std::ostringstream out, err;
    EXPECT_EQ(runVerifierCli({"--list-passes"}, out, err), 0);
    EXPECT_NE(out.str().find("crosstable"), std::string::npos);

    std::ostringstream out2, err2;
    EXPECT_EQ(runVerifierCli({"--frobnicate"}, out2, err2), 2);
    std::ostringstream out3, err3;
    EXPECT_EQ(runVerifierCli({"--isas", "mips"}, out3, err3), 2);
    std::ostringstream out4, err4;
    EXPECT_EQ(runVerifierCli({"--passes", "nope"}, out4, err4), 2);
}

TEST(Cli, PerInstructionPassesRunCleanOnOneIsa)
{
    // Full-DB + dictionary runs are covered by the ctest entries
    // registered in tools/; keep the in-process test to the cheap
    // passes on one ISA.
    std::ostringstream out, err;
    const int status = runVerifierCli(
        {"--isas", "arm", "--no-dict", "--werror"}, out, err);
    EXPECT_EQ(status, 0) << out.str() << err.str();
    EXPECT_NE(out.str().find("0 error(s)"), std::string::npos);
}

} // namespace
} // namespace analysis
} // namespace hydride
