/**
 * @file
 * Tests for the durable multi-process synthesis store
 * (src/synthesis/store/): open/initialize, append/find round trips
 * across reopen, torn-record salvage with resync, fingerprint-gated
 * quarantine of incompatible stores, durable poison tombstones,
 * signature-based approximate retrieval, forked concurrent writers
 * contending for one shard lock, and synthesized modules outliving
 * the in-memory SynthesisCache through the driver's store.
 *
 * The multi-process *crash* half (SIGKILL mid-append, stale-lock
 * takeover, poison reaching the driver) lives in hydride-chaos
 * --store-* (tools/hydride_chaos.cpp) where each scenario gets a
 * fresh process tree.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <sys/wait.h>
#include <unistd.h>

#include "codegen/lowering.h"
#include "driver/resilience.h"
#include "halide/kernels.h"
#include "support/rng.h"
#include "synthesis/store/store.h"

namespace hydride {
namespace {

const AutoLLVMDict &
dict()
{
    static const AutoLLVMDict d = AutoLLVMDict::build({"x86"});
    return d;
}

/** Distinct-keyed probe windows: hashOf covers the immediate, so each
 *  tag is a separate record, while windowSignature ignores constant
 *  values, so all tags share one signature neighborhood. */
HExprPtr
probe(int tag)
{
    return hBin(HOp::Add, hInput(0, 8, 8), hConst(tag & 0x7F, 8, 8));
}

SynthesisResult
negativeResult()
{
    SynthesisResult result;
    result.ok = false;
    result.note = "store test probe";
    return result;
}

/** A fabricated successful entry. nearest() only serves ok results;
 *  these tests exercise retrieval mechanics, not module semantics
 *  (the driver re-verifies every retrieved module anyway). */
SynthesisResult
okResult(int cost)
{
    SynthesisResult result;
    result.ok = true;
    result.cost = cost;
    result.note = "store test seed";
    return result;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
spew(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << text;
}

class StoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        root_ = std::string("/tmp/hydride_store_test_") +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                "." + std::to_string(::getpid());
        nuke();
    }
    void
    TearDown() override
    {
        nuke();
        std::system(
            ("rm -rf '" + root_ + ".quarantined.'*").c_str());
    }
    void
    nuke()
    {
        std::system(("rm -rf '" + root_ + "'").c_str());
    }
    /** The single shard file of a shards=1 store. */
    std::string
    shard0() const
    {
        return root_ + "/shards/00.log";
    }
    SynthesisStore::Options
    oneShard() const
    {
        SynthesisStore::Options options;
        options.shards = 1;
        return options;
    }
    std::string root_;
};

TEST_F(StoreTest, OpenInitializesAFreshStore)
{
    SynthesisStore store;
    ASSERT_TRUE(store.open(root_, dict()));
    EXPECT_TRUE(store.isOpen());
    EXPECT_TRUE(store.openStats().initialized);
    EXPECT_EQ(store.epoch(), 1);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_FALSE(slurp(root_ + "/meta").empty());

    // A second open of the same root is a plain (non-initializing)
    // open of the now-existing store.
    SynthesisStore again;
    ASSERT_TRUE(again.open(root_, dict()));
    EXPECT_FALSE(again.openStats().initialized);
    EXPECT_EQ(again.epoch(), 1);
}

TEST_F(StoreTest, RoundTripAcrossReopen)
{
    Schedule schedule;
    schedule.vector_bits = 512;
    Kernel kernel = buildKernel("matmul_b1", schedule);
    SynthesisResult solved =
        synthesizeWindow(dict(), "x86", kernel.windows[0]);
    ASSERT_TRUE(solved.ok);
    {
        SynthesisStore store;
        ASSERT_TRUE(store.open(root_, dict()));
        EXPECT_TRUE(store.append(kernel.windows[0], "x86", solved));
        EXPECT_TRUE(store.append(probe(1), "x86", negativeResult()));
        EXPECT_TRUE(store.append(probe(2), "x86", negativeResult()));
        EXPECT_EQ(store.size(), 3u);
    }

    SynthesisStore reopened;
    ASSERT_TRUE(reopened.open(root_, dict()));
    EXPECT_EQ(reopened.openStats().records, 3u);
    EXPECT_EQ(reopened.openStats().salvaged, 0u);

    const SynthesisResult *restored =
        reopened.find(kernel.windows[0], "x86");
    ASSERT_NE(restored, nullptr);
    ASSERT_TRUE(restored->ok);
    EXPECT_EQ(restored->cost, solved.cost);
    // The restored module must still compute and lower.
    Rng rng(2024);
    std::vector<BitVector> inputs;
    for (int w : restored->module.input_widths)
        inputs.push_back(BitVector::random(w, rng));
    EXPECT_EQ(restored->module.evaluate(dict(), inputs),
              evalHalide(kernel.windows[0], inputs));
    EXPECT_TRUE(lowerToTarget(restored->module, dict(), "x86").ok);

    const SynthesisResult *negative = reopened.find(probe(1), "x86");
    ASSERT_NE(negative, nullptr);
    EXPECT_FALSE(negative->ok);
    // Lookups are ISA-scoped.
    EXPECT_EQ(reopened.find(probe(1), "arm"), nullptr);
}

/** SynthesisCache is memory-only; a synthesized module outlives the
 *  cache that produced it through the driver's durable store. */
class CachePersistence : public StoreTest
{
};

TEST_F(CachePersistence, RoundTripPreservesModules)
{
    Schedule schedule;
    schedule.vector_bits = 512;
    Kernel kernel = buildKernel("matmul_b1", schedule);
    const HExprPtr &window = kernel.windows[0];
    ResilienceOptions options;
    options.store_path = root_;

    ResilientWindow first;
    {
        SynthesisCache cache;
        ResilientCompiler compiler(dict(), "x86", 512, options, &cache);
        first = compiler.compileWindow(window);
        ASSERT_EQ(first.rung, Rung::Synthesized);
    }

    // A fresh process-local cache: the result must come back from disk.
    SynthesisCache fresh;
    ResilientCompiler compiler(dict(), "x86", 512, options, &fresh);
    ResilientWindow second = compiler.compileWindow(window);
    EXPECT_EQ(second.cache_outcome, "store_hit");
    EXPECT_EQ(second.rung, Rung::Cached);
    EXPECT_EQ(second.synth.cost, first.synth.cost);
    EXPECT_EQ(fresh.size(), 1u);
    const SynthesisResult *restored = fresh.lookup(window, "x86");
    ASSERT_NE(restored, nullptr);
    ASSERT_TRUE(restored->ok);

    // The restored module must still compute and lower.
    Rng rng(101);
    std::vector<BitVector> inputs;
    for (int w : restored->module.input_widths)
        inputs.push_back(BitVector::random(w, rng));
    EXPECT_EQ(restored->module.evaluate(dict(), inputs),
              evalHalide(window, inputs));
    EXPECT_TRUE(lowerToTarget(restored->module, dict(), "x86").ok);
}

/** Compile `window` into a fresh store, then again through a fresh
 *  compiler and cache: the second compile must be a store hit whose
 *  re-proof the ledger reports as `proved`. */
void
expectStoreHitProved(const AutoLLVMDict &dict, const std::string &isa,
                     int vector_bits, const HExprPtr &window,
                     const std::string &root)
{
    ResilienceOptions options;
    options.store_path = root;
    {
        SynthesisCache cache;
        ResilientCompiler compiler(dict, isa, vector_bits, options, &cache);
        ASSERT_EQ(compiler.compileWindow(window).rung, Rung::Synthesized);
    }
    SynthesisCache fresh;
    ResilientCompiler compiler(dict, isa, vector_bits, options, &fresh);
    const ResilientWindow hit = compiler.compileWindow(window);
    EXPECT_EQ(hit.cache_outcome, "store_hit");
    EXPECT_EQ(hit.rung, Rung::Cached);
    EXPECT_EQ(hit.synth.symbolic_verdict, "proved");
    EXPECT_EQ(hit.synth.symbolic_unknowns, 0);
    for (const auto &diag : hit.diagnostics)
        EXPECT_NE(diag.site, "store.verify") << diag.detail;
}

TEST_F(StoreTest, CommutedStoreHitsReproveAsProved)
{
    // Both synthesized modules compute max / mul with operands in
    // another order than the window. The re-proof must still close
    // symbolically (canonical operand order in the bit-blaster), not
    // fall back to sampling after exhausting the SAT budget.
    static const AutoLLVMDict arm = AutoLLVMDict::build({"arm"});
    const HExprPtr max3 =
        hBin(HOp::MaxU, hBin(HOp::MaxU, hInput(0, 8, 16), hInput(1, 8, 16)),
             hInput(2, 8, 16));
    expectStoreHitProved(arm, "arm", 128, max3, root_ + ".arm");
    std::system(("rm -rf '" + root_ + ".arm'").c_str());

    Kernel mul = buildKernel("mul", Schedule{});
    expectStoreHitProved(dict(), "x86", 256, mul.windows[0], root_);
}

TEST_F(StoreTest, SalvageResyncsAtTheNextRecordHeader)
{
    {
        SynthesisStore store;
        ASSERT_TRUE(store.open(root_, dict(), oneShard()));
        for (int tag = 0; tag < 3; ++tag)
            ASSERT_TRUE(store.append(probe(tag), "x86",
                                     negativeResult()));
    }
    // Flip a byte in the *middle* record's body: its checksum fails,
    // but the reader must resync at the third record's header instead
    // of discarding the rest of the shard.
    std::string text = slurp(shard0());
    const size_t second = text.find("record ", text.find("record ") + 1);
    const size_t third = text.find("record ", second + 1);
    ASSERT_NE(second, std::string::npos);
    ASSERT_NE(third, std::string::npos);
    text[(second + third) / 2] ^= 0x20;
    spew(shard0(), text);

    SynthesisStore salvaged;
    ASSERT_TRUE(salvaged.open(root_, dict(), oneShard()));
    EXPECT_EQ(salvaged.openStats().records, 2u);
    EXPECT_EQ(salvaged.openStats().salvaged, 1u);
    EXPECT_NE(salvaged.find(probe(0), "x86"), nullptr);
    EXPECT_EQ(salvaged.find(probe(1), "x86"), nullptr);
    EXPECT_NE(salvaged.find(probe(2), "x86"), nullptr);
}

TEST_F(StoreTest, TornTailCostsExactlyTheTornRecord)
{
    {
        SynthesisStore store;
        ASSERT_TRUE(store.open(root_, dict(), oneShard()));
        for (int tag = 0; tag < 3; ++tag)
            ASSERT_TRUE(store.append(probe(tag), "x86",
                                     negativeResult()));
    }
    // Chop mid-way through the last record — the crash-mid-append
    // shape of damage (what a SIGKILL'd writer leaves behind).
    std::string text = slurp(shard0());
    const size_t last = text.rfind("record ");
    ASSERT_NE(last, std::string::npos);
    spew(shard0(), text.substr(0, last + 12));

    SynthesisStore salvaged;
    ASSERT_TRUE(salvaged.open(root_, dict(), oneShard()));
    EXPECT_EQ(salvaged.openStats().records, 2u);
    EXPECT_EQ(salvaged.openStats().salvaged, 1u);
}

TEST_F(StoreTest, IncompatibleStoreIsQuarantinedWithAnEpochBump)
{
    {
        SynthesisStore store;
        ASSERT_TRUE(store.open(root_, dict()));
        ASSERT_TRUE(store.append(probe(0), "x86", negativeResult()));
    }
    // A different dictionary fingerprints differently: the stale
    // store must be renamed aside (never half-loaded) and a fresh one
    // initialized under a bumped epoch.
    AutoLLVMDict other = AutoLLVMDict::build({"hvx"});
    SynthesisStore store;
    ASSERT_TRUE(store.open(root_, other));
    EXPECT_TRUE(store.openStats().incompatible_quarantined);
    EXPECT_TRUE(store.openStats().initialized);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_GT(store.epoch(), 1);
}

TEST_F(StoreTest, IncompatibleStoreIsRefusedWhenQuarantineIsOff)
{
    {
        SynthesisStore store;
        ASSERT_TRUE(store.open(root_, dict()));
    }
    AutoLLVMDict other = AutoLLVMDict::build({"hvx"});
    // A read-only open never renames the tree aside: it refuses.
    SynthesisStore::Options options;
    options.read_only = true;
    SynthesisStore store;
    EXPECT_FALSE(store.open(root_, other, options));
    EXPECT_FALSE(store.isOpen());
    EXPECT_FALSE(store.openStats().error.empty());
    // The original store must be untouched and still open cleanly.
    SynthesisStore original;
    EXPECT_TRUE(original.open(root_, dict()));
}

TEST_F(StoreTest, QuarantineTombstonesAreDurable)
{
    {
        SynthesisStore store;
        ASSERT_TRUE(store.open(root_, dict()));
        ASSERT_TRUE(store.append(probe(0), "x86", negativeResult()));
        ASSERT_TRUE(store.append(probe(1), "x86", negativeResult()));
        ASSERT_TRUE(store.quarantine(probe(0), "x86", "test poison"));
        EXPECT_EQ(store.sessionQuarantined(), 1u);
        EXPECT_EQ(store.find(probe(0), "x86"), nullptr);
        EXPECT_NE(store.find(probe(1), "x86"), nullptr);
    }
    // The tombstone survives reopen: the poisoned key is skipped at
    // load time and never served again.
    SynthesisStore reopened;
    ASSERT_TRUE(reopened.open(root_, dict()));
    EXPECT_EQ(reopened.find(probe(0), "x86"), nullptr);
    EXPECT_NE(reopened.find(probe(1), "x86"), nullptr);
    EXPECT_GE(reopened.openStats().poisoned_skipped, 1u);
    EXPECT_EQ(reopened.openStats().records, 1u);
}

TEST_F(StoreTest, NearestOrdersByDistanceAndExcludesTheExactKey)
{
    const HExprPtr base = probe(5);
    const HExprPtr near = probe(9); // Same structure, other constant.
    // Structurally different: widening multiply of two inputs.
    const HExprPtr far =
        hBin(HOp::Mul, hCast(hInput(0, 8, 8), 16, true),
             hCast(hInput(1, 8, 8), 16, true));

    EXPECT_EQ(signatureDistance(windowSignature(base),
                                windowSignature(near)),
              0);
    EXPECT_GT(signatureDistance(windowSignature(base),
                                windowSignature(far)),
              8);

    SynthesisStore store;
    ASSERT_TRUE(store.open(root_, dict()));
    ASSERT_TRUE(store.append(base, "x86", okResult(10)));
    ASSERT_TRUE(store.append(near, "x86", okResult(20)));
    ASSERT_TRUE(store.append(far, "x86", okResult(30)));
    // Negative entries are never warm-start seeds.
    ASSERT_TRUE(store.append(probe(7), "x86", negativeResult()));

    auto neighbors = store.nearest(base, "x86", 64);
    ASSERT_EQ(neighbors.size(), 2u); // base excluded, negative excluded.
    EXPECT_EQ(neighbors[0].distance, 0);
    EXPECT_EQ(neighbors[0].result->cost, 20);
    EXPECT_GT(neighbors[1].distance, 8);

    // A tight distance bound keeps only the structural twin.
    auto tight = store.nearest(base, "x86", 0);
    ASSERT_EQ(tight.size(), 1u);
    EXPECT_EQ(tight[0].result->cost, 20);
    // Other-ISA windows never match.
    EXPECT_TRUE(store.nearest(base, "arm", 64).empty());
}

TEST_F(StoreTest, RefreshPicksUpAnotherProcessesAppends)
{
    SynthesisStore reader;
    ASSERT_TRUE(reader.open(root_, dict()));
    EXPECT_EQ(reader.size(), 0u);

    SynthesisStore writer;
    ASSERT_TRUE(writer.open(root_, dict()));
    ASSERT_TRUE(writer.append(probe(3), "x86", negativeResult()));

    EXPECT_EQ(reader.find(probe(3), "x86"), nullptr);
    ASSERT_TRUE(reader.refresh());
    EXPECT_NE(reader.find(probe(3), "x86"), nullptr);
    EXPECT_EQ(reader.epoch(), 1);
}

TEST_F(StoreTest, ForkedConcurrentWritersLoseNothing)
{
    constexpr int kWriters = 4;
    constexpr int kPerWriter = 8;
    // One shard forces every append through the same writer lock.
    {
        SynthesisStore init;
        ASSERT_TRUE(init.open(root_, dict(), oneShard()));
    }
    std::vector<pid_t> children;
    for (int w = 0; w < kWriters; ++w) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            SynthesisStore store;
            if (!store.open(root_, dict(), oneShard()))
                ::_exit(1);
            for (int i = 0; i < kPerWriter; ++i) {
                if (!store.append(probe(w * kPerWriter + i), "x86",
                                  negativeResult())) {
                    ::_exit(2);
                }
            }
            ::_exit(0);
        }
        children.push_back(pid);
    }
    for (pid_t pid : children) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "writer " << pid << " status " << status;
    }

    SynthesisStore merged;
    ASSERT_TRUE(merged.open(root_, dict(), oneShard()));
    EXPECT_EQ(merged.openStats().records,
              size_t(kWriters) * kPerWriter);
    EXPECT_EQ(merged.openStats().salvaged, 0u);
    for (int tag = 0; tag < kWriters * kPerWriter; ++tag)
        EXPECT_NE(merged.find(probe(tag), "x86"), nullptr)
            << "lost record " << tag;
}

} // namespace
} // namespace hydride
