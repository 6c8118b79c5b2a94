/**
 * @file
 * Unit tests for the support utilities: strings, RNG, tables, the
 * EINTR-safe filesystem primitives (support/fsio.h) under the durable
 * store, and the spawn-and-join parallelFor (support/parallel.h).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "support/fsio.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "support/strings.h"
#include "support/table.h"

namespace hydride {
namespace {

TEST(Strings, SplitKeepsEmptyFields)
{
    auto fields = split("a,,b,", ',');
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[1], "");
    EXPECT_EQ(fields[2], "b");
    EXPECT_EQ(fields[3], "");
}

TEST(Strings, SplitSingleField)
{
    auto fields = split("hello", ',');
    ASSERT_EQ(fields.size(), 1u);
    EXPECT_EQ(fields[0], "hello");
}

TEST(Strings, TrimBothEnds)
{
    EXPECT_EQ(trim("  x y \t\n"), "x y");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strings, StartsEndsWith)
{
    EXPECT_TRUE(startsWith("_mm256_add_epi16", "_mm256"));
    EXPECT_FALSE(startsWith("_mm", "_mm256"));
    EXPECT_TRUE(endsWith("_mm256_add_epi16", "epi16"));
    EXPECT_FALSE(endsWith("epi16", "_mm256_add_epi16"));
}

TEST(Strings, JoinAndReplace)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(replaceAll("x+x+x", "+", "-"), "x-x-x");
    EXPECT_EQ(replaceAll("aaa", "aa", "b"), "ba");
}

TEST(Strings, Format)
{
    EXPECT_EQ(format("%d/%s", 42, "x"), "42/x");
    EXPECT_EQ(format("%05.1f", 2.25), "002.2");
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int differing = 0;
    for (int i = 0; i < 64; ++i)
        differing += a.next() != b.next();
    EXPECT_GT(differing, 60);
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(7);
    for (uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
        for (int i = 0; i < 50; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Table, AlignedPrinting)
{
    Table table({"name", "value"});
    table.addRow({"x", "1"});
    table.addRow({"longer", "22"});
    std::ostringstream os;
    table.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("| name   | value |"), std::string::npos);
    EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
    EXPECT_EQ(table.rowCount(), 2u);
}

TEST(Table, CsvPrinting)
{
    Table table({"a", "b"});
    table.addRow({"1", "2"});
    std::ostringstream os;
    table.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

namespace {

std::string
tmpName(const char *stem)
{
    return std::string("/tmp/hydride_fsio_") + stem + "." +
           std::to_string(::getpid());
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

} // namespace

TEST(Fsio, OpenWriteFsyncRoundTrip)
{
    const std::string path = tmpName("roundtrip");
    const int fd = fsio::openRetry(path.c_str(),
                                   O_CREAT | O_WRONLY | O_TRUNC);
    ASSERT_GE(fd, 0);
    // Large enough to span several write() calls if the kernel
    // returns short counts; writeFull must resume, not truncate.
    std::string payload;
    for (int i = 0; i < 4096; ++i)
        payload += format("line %d\n", i);
    EXPECT_TRUE(fsio::writeFull(fd, payload.data(), payload.size()));
    EXPECT_TRUE(fsio::fsyncRetry(fd));
    ::close(fd);
    EXPECT_EQ(slurp(path), payload);
    std::remove(path.c_str());
}

TEST(Fsio, HardErrorsFailWithoutLooping)
{
    EXPECT_LT(fsio::openRetry("/definitely/not/here.txt", O_RDONLY), 0);
    EXPECT_FALSE(fsio::writeFull(-1, "x", 1));
    EXPECT_FALSE(fsio::fsyncRetry(-1));
    EXPECT_FALSE(fsio::renameRetry("/definitely/not/here.txt",
                                   "/also/not/here.txt"));
    EXPECT_FALSE(fsio::writeFileAtomic("/definitely/not/here/file",
                                       "content"));
}

TEST(Fsio, RenameRetryReplacesTheTarget)
{
    const std::string from = tmpName("rename_from");
    const std::string to = tmpName("rename_to");
    ASSERT_TRUE(fsio::writeFileAtomic(from, "new"));
    ASSERT_TRUE(fsio::writeFileAtomic(to, "old"));
    EXPECT_TRUE(fsio::renameRetry(from, to));
    EXPECT_EQ(slurp(to), "new");
    // Atomic rename consumed the source.
    EXPECT_LT(fsio::openRetry(from.c_str(), O_RDONLY), 0);
    std::remove(to.c_str());
}

TEST(Fsio, WriteFileAtomicPublishesAndLeavesNoTemp)
{
    const std::string path = tmpName("atomic");
    EXPECT_TRUE(fsio::writeFileAtomic(path, "first"));
    EXPECT_EQ(slurp(path), "first");
    // Overwrite is also atomic: either the old or the new content,
    // never a mix, and the temp staging file must not linger.
    EXPECT_TRUE(fsio::writeFileAtomic(path, "second"));
    EXPECT_EQ(slurp(path), "second");
    const std::string temp =
        path + ".tmp." + std::to_string(::getpid());
    EXPECT_LT(fsio::openRetry(temp.c_str(), O_RDONLY), 0);
    EXPECT_TRUE(fsio::fsyncDir("/tmp"));
    std::remove(path.c_str());
}

/** Threads of this process right now. */
size_t
liveThreads()
{
    size_t n = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
        (void)entry;
        ++n;
    }
    return n;
}

TEST(Parallel, EveryIndexRunsExactlyOnce)
{
    for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{10000}}) {
        std::vector<std::atomic<int>> runs(n);
        parallelFor(n, [&](size_t i) { runs[i].fetch_add(1); });
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(runs[i].load(), 1) << "n=" << n << " index " << i;
    }
}

TEST(Parallel, RethrowsTheLowestThrowingIndexAfterTheJoin)
{
    constexpr size_t n = 1000;
    std::atomic<size_t> finished{0};
    try {
        parallelFor(n, [&](size_t i) {
            if (i == 300 || i == 700)
                throw std::runtime_error(std::to_string(i));
            finished.fetch_add(1);
        });
        FAIL() << "parallelFor swallowed the exceptions";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "300");
        // Every other index ran to completion before the rethrow.
        EXPECT_EQ(finished.load(), n - 2);
    }
}

TEST(Parallel, NoThreadOutlivesTheCall)
{
    const size_t before = liveThreads();
    std::atomic<size_t> most{0};
    parallelFor(64, [&](size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        const size_t now = liveThreads();
        size_t seen = most.load();
        while (now > seen && !most.compare_exchange_weak(seen, now))
            continue;
    });
    EXPECT_EQ(liveThreads(), before);
    if (std::thread::hardware_concurrency() > 1) {
        EXPECT_GT(most.load(), before) << "the loop never ran in parallel";
    }
}

} // namespace
} // namespace hydride
