/**
 * @file
 * Pins the output of the offline front half (spec parse,
 * canonicalize, similarity engine, AutoLLVM dictionary) and the
 * instructions its fault sites pick. The front half runs its pure
 * work in parallel and its decisions in manual order; these tests fail
 * if scheduling ever leaks into the dictionary or into which
 * instruction a `site@P` fault hits.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "autollvm/dict.h"
#include "hir/printer.h"
#include "similarity/engine.h"
#include "specs/spec_db.h"
#include "support/faults.h"
#include "support/strings.h"

namespace hydride {
namespace {

/** FNV-1a of `text`, as 16 hex digits. */
std::string
hexDigest(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return format("%016llx", static_cast<unsigned long long>(h));
}

/** Everything the dictionary hands downstream about one class. */
std::string
describeClass(const EquivalenceClass &cls)
{
    std::string text = printSemantics(cls.rep);
    for (const ParamInfo &param : cls.rep.params)
        text += format("role %d\n", static_cast<int>(param.role));
    for (const ClassMember &member : cls.members) {
        text += member.name + " [" + member.isa + "] latency " +
                std::to_string(member.latency) + " params";
        for (int64_t value : member.param_values)
            text += " " + std::to_string(value);
        text += " perm";
        for (int k : member.arg_perm)
            text += " " + std::to_string(k);
        text += "\n";
    }
    return text;
}

std::string
digestOf(const std::vector<EquivalenceClass> &classes)
{
    std::string text;
    for (const EquivalenceClass &cls : classes)
        text += describeClass(cls) + "--\n";
    return hexDigest(text);
}

/** Names of the manual's instructions that a build of every builtin
 *  ISA skipped, in manual order. */
std::vector<std::string>
skippedInstructions()
{
    std::vector<std::string> skipped;
    for (const std::string &isa : builtinIsas()) {
        const IsaSemantics sema = parseIsaSemantics(isa);
        std::set<std::string> kept;
        for (const CanonicalSemantics &sem : sema.insts)
            kept.insert(sem.name);
        for (const InstDef &inst : isaManual(isa).insts)
            if (!kept.count(inst.name))
                skipped.push_back(isa + ":" + inst.name);
    }
    return skipped;
}

/** A fault configuration and what it must do to the front half, as
 *  recorded with the single-threaded front half. The 0.02 rates are
 *  the chaos harness's; at 0.5 nearly any reordering of a site's hits
 *  moves which instruction fires, so a fault decided inside a worker
 *  fails the pin. */
struct FaultPin
{
    const char *spec;
    long fires;
    const char *digest;
};

class FrontHalf : public ::testing::Test
{
  protected:
    void SetUp() override { faults::reset(); }
    void TearDown() override { faults::reset(); }

    static void
    configure(const std::string &spec)
    {
        // configure() also zeroes the per-site hit counters, so each
        // build starts from hit 1 exactly as a fresh process does.
        std::string error;
        ASSERT_TRUE(faults::configure(spec, &error)) << error;
    }
};

TEST_F(FrontHalf, DictionaryIsPinned)
{
    const AutoLLVMDict dict = AutoLLVMDict::build(builtinIsas());
    std::vector<EquivalenceClass> dict_classes;
    for (int c = 0; c < dict.classCount(); ++c)
        dict_classes.push_back(dict.cls(c));
    EXPECT_EQ(digestOf(dict_classes), "6411a1b070ed11c8");

    SimilarityStats stats;
    const std::vector<EquivalenceClass> classes = runSimilarityEngine(
        combinedSemantics(builtinIsas()), {}, &stats);
    EXPECT_EQ(digestOf(classes), digestOf(dict_classes));
    EXPECT_EQ(classes.size(), 277u);
    EXPECT_EQ(stats.instructions, 2540);
    EXPECT_EQ(stats.pairs_checked, 5932);
    EXPECT_EQ(stats.structural_merges, 2240);
    EXPECT_EQ(stats.permutation_merges, 202);
    EXPECT_EQ(stats.params_eliminated, 1362);
    EXPECT_EQ(stats.verification_failures, 0);
}

TEST_F(FrontHalf, SpecFaultsSkipTheSameInstructionsEveryBuild)
{
    const FaultPin pins[] = {
        {"parser.malformed@0.02,specdb.corrupt@0.02", 111,
         "cea557c08f1aedac"},
        {"parser.malformed@0.5,specdb.corrupt@0.5", 1873,
         "ef08d405bab2538f"},
    };
    for (const FaultPin &pin : pins) {
        SCOPED_TRACE(pin.spec);
        configure(pin.spec);
        const std::vector<std::string> first = skippedInstructions();
        const long fires = faults::fireCount("parser.malformed") +
                           faults::fireCount("specdb.corrupt");
        configure(pin.spec);
        const std::vector<std::string> second = skippedInstructions();

        EXPECT_EQ(first, second);
        EXPECT_EQ(fires, pin.fires);
        EXPECT_EQ(first.size(), static_cast<size_t>(fires));
        EXPECT_EQ(hexDigest(join(first, ",")), pin.digest);
    }
}

TEST_F(FrontHalf, VerifyFaultsSplitTheSameMembersEveryRun)
{
    const std::vector<CanonicalSemantics> insts =
        combinedSemantics(builtinIsas());
    const FaultPin pins[] = {
        {"similarity.verify@0.05", 132, "39c5197e4a943221"},
        {"similarity.verify@0.5", 1273,
         "d04f16edba1c901d"},
    };
    for (const FaultPin &pin : pins) {
        SCOPED_TRACE(pin.spec);
        SimilarityStats first_stats;
        configure(pin.spec);
        const std::string first =
            digestOf(runSimilarityEngine(insts, {}, &first_stats));
        SimilarityStats second_stats;
        configure(pin.spec);
        const std::string second =
            digestOf(runSimilarityEngine(insts, {}, &second_stats));

        EXPECT_EQ(first, second);
        EXPECT_EQ(first_stats.verification_failures,
                  second_stats.verification_failures);
        EXPECT_EQ(first_stats.verification_failures, pin.fires);
        EXPECT_EQ(first, pin.digest);
    }
}

} // namespace
} // namespace hydride
