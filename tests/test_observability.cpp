/**
 * @file
 * Tests for the observability layer: span nesting/ordering, Chrome
 * trace JSON well-formedness (parsed back by a minimal JSON reader),
 * histogram bucket edges, counter overflow, disabled-mode no-ops,
 * environment-variable gating and leveled logging.
 */
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "observability/log.h"
#include "observability/metrics.h"
#include "observability/trace.h"

using namespace hydride;

namespace {

// ---- Minimal JSON reader (validation only) ---------------------------------
//
// Enough of RFC 8259 to parse the exporters' output back: objects,
// arrays, strings with escapes, numbers, true/false/null. parse()
// returns false on any syntax error instead of building a document.

class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : text_(text) {}

    bool
    parse()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == text_.size();
    }

    /** Count occurrences of `"key":` seen while parsing strings. */
    int keyCount(const std::string &key) const
    {
        int count = 0;
        std::string needle = "\"" + key + "\"";
        for (size_t at = text_.find(needle); at != std::string::npos;
             at = text_.find(needle, at + 1))
            ++count;
        return count;
    }

  private:
    bool
    value()
    {
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
        case '{': return object();
        case '[': return array();
        case '"': return string();
        case 't': return literal("true");
        case 'f': return literal("false");
        case 'n': return literal("null");
        default: return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                ++pos_;
                if (pos_ >= text_.size())
                    return false;
                const char esc = text_[pos_];
                if (esc == 'u') {
                    for (int d = 0; d < 4; ++d) {
                        ++pos_;
                        if (pos_ >= text_.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                text_[pos_])))
                            return false;
                    }
                } else if (!strchr("\"\\/bfnrt", esc)) {
                    return false;
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                return false; // Unescaped control character.
            }
            ++pos_;
        }
        return false;
    }

    bool
    number()
    {
        const size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        return pos_ > start &&
               std::isdigit(static_cast<unsigned char>(text_[pos_ - 1]));
    }

    bool
    literal(const char *word)
    {
        const size_t len = std::strlen(word);
        if (text_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    const std::string &text_;
    size_t pos_ = 0;
};

/** Enable trace+metrics with a clean slate; restore on teardown. */
class ObservabilityTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        trace::reset();
        trace::setEnabled(true);
        metrics::setEnabled(true);
    }

    void
    TearDown() override
    {
        trace::setEnabled(false);
        metrics::setEnabled(false);
        trace::reset();
        unsetenv("HYDRIDE_TRACE");
        unsetenv("HYDRIDE_METRICS");
        unsetenv("HYDRIDE_LOG_LEVEL");
        logging::setLevel(logging::Level::Warn);
    }
};

const trace::SpanRecord *
findSpan(const std::vector<trace::SpanRecord> &spans,
         const std::string &name)
{
    for (const auto &span : spans)
        if (span.name == name)
            return &span;
    return nullptr;
}

// ---- Spans -----------------------------------------------------------------

TEST_F(ObservabilityTest, SpanNestingAndOrdering)
{
    {
        trace::TraceSpan outer("test.span.outer");
        outer.setAttr("kernel", "blur3x3");
        {
            trace::TraceSpan inner("test.span.inner");
            trace::TraceSpan innermost("test.span.innermost");
        }
        trace::TraceSpan sibling("test.span.sibling");
    }
    const auto spans = trace::snapshotSpans();
    ASSERT_EQ(spans.size(), 4u);

    const auto *outer = findSpan(spans, "test.span.outer");
    const auto *inner = findSpan(spans, "test.span.inner");
    const auto *innermost = findSpan(spans, "test.span.innermost");
    const auto *sibling = findSpan(spans, "test.span.sibling");
    ASSERT_TRUE(outer && inner && innermost && sibling);

    // Depths reflect the nesting hierarchy.
    EXPECT_EQ(outer->depth, 0);
    EXPECT_EQ(inner->depth, 1);
    EXPECT_EQ(innermost->depth, 2);
    EXPECT_EQ(sibling->depth, 1);

    // Children start no earlier than their parent and fit inside it.
    EXPECT_GE(inner->start_ns, outer->start_ns);
    EXPECT_LE(inner->start_ns + inner->duration_ns,
              outer->start_ns + outer->duration_ns);
    EXPECT_GE(innermost->start_ns, inner->start_ns);

    // Completion order: innermost closes before inner, inner before
    // outer, and the sibling closes after inner opened.
    EXPECT_EQ(spans[0].name, "test.span.innermost");
    EXPECT_EQ(spans[1].name, "test.span.inner");
    EXPECT_EQ(spans[2].name, "test.span.sibling");
    EXPECT_EQ(spans[3].name, "test.span.outer");

    // Attributes survive.
    ASSERT_EQ(outer->attrs.size(), 1u);
    EXPECT_EQ(outer->attrs[0].first, "kernel");
    EXPECT_EQ(outer->attrs[0].second, "blur3x3");

    // All on the same thread.
    EXPECT_EQ(inner->thread_id, outer->thread_id);
}

TEST_F(ObservabilityTest, ChromeJsonIsWellFormedAndEscaped)
{
    {
        trace::TraceSpan span("test.json.span");
        span.setAttr("quote", "say \"hi\"\n\ttabbed\\done");
        span.setAttr("count", static_cast<int64_t>(42));
        trace::TraceSpan nested("test.json.nested");
    }
    const std::string json = trace::exportChromeJson();
    JsonChecker checker(json);
    EXPECT_TRUE(checker.parse()) << json;
    // Both spans present as complete events with the required fields.
    EXPECT_EQ(checker.keyCount("name"), 2);
    EXPECT_EQ(checker.keyCount("ph"), 2);
    EXPECT_EQ(checker.keyCount("ts"), 2);
    EXPECT_EQ(checker.keyCount("dur"), 2);
    EXPECT_EQ(checker.keyCount("traceEvents"), 1);
    EXPECT_NE(json.find("test.json.span"), std::string::npos);
    EXPECT_NE(json.find("test.json.nested"), std::string::npos);
}

TEST_F(ObservabilityTest, TreeSummaryIndentsChildren)
{
    {
        trace::TraceSpan outer("test.tree.outer");
        trace::TraceSpan inner("test.tree.inner");
    }
    const std::string tree = trace::exportTreeSummary();
    const size_t outer_at = tree.find("test.tree.outer");
    const size_t inner_at = tree.find("  test.tree.inner");
    ASSERT_NE(outer_at, std::string::npos) << tree;
    ASSERT_NE(inner_at, std::string::npos) << tree;
    // Parent precedes the (indented) child.
    EXPECT_LT(outer_at, inner_at);
}

TEST_F(ObservabilityTest, DisabledModeRecordsNothing)
{
    trace::setEnabled(false);
    {
        trace::TraceSpan span("test.disabled.span");
        span.setAttr("ignored", "yes");
        EXPECT_FALSE(span.active());
    }
    EXPECT_TRUE(trace::snapshotSpans().empty());

    metrics::setEnabled(false);
    metrics::Counter &counter = metrics::counter("test.disabled.counter");
    counter.reset();
    counter.add(5);
    EXPECT_EQ(counter.value(), 0u);
    metrics::Gauge &gauge = metrics::gauge("test.disabled.gauge");
    gauge.reset();
    gauge.set(7);
    EXPECT_EQ(gauge.value(), 0);
    metrics::Histogram &hist =
        metrics::histogram("test.disabled.hist", {1.0});
    hist.reset();
    hist.observe(0.5);
    EXPECT_EQ(hist.count(), 0u);
}

TEST_F(ObservabilityTest, SpanOpenedWhileDisabledStaysInactive)
{
    trace::setEnabled(false);
    trace::TraceSpan span("test.disabled.reenabled");
    trace::setEnabled(true);
    // The span must not record on destruction: it never started.
    EXPECT_FALSE(span.active());
}

// ---- Metrics ---------------------------------------------------------------

TEST_F(ObservabilityTest, CounterAccumulatesAndWrapsOnOverflow)
{
    metrics::Counter &counter = metrics::counter("test.counter.basic");
    counter.reset();
    counter.add();
    counter.add(9);
    EXPECT_EQ(counter.value(), 10u);

    // Counters are uint64 and wrap modulo 2^64 (documented behavior).
    counter.reset();
    counter.add(UINT64_MAX);
    EXPECT_EQ(counter.value(), UINT64_MAX);
    counter.add(2);
    EXPECT_EQ(counter.value(), 1u);
}

TEST_F(ObservabilityTest, RegistryReturnsSameInstrumentByName)
{
    metrics::Counter &a = metrics::counter("test.registry.same");
    metrics::Counter &b = metrics::counter("test.registry.same");
    EXPECT_EQ(&a, &b);
    a.reset();
    a.add(3);
    EXPECT_EQ(b.value(), 3u);
}

TEST_F(ObservabilityTest, HistogramBucketEdges)
{
    metrics::Histogram &hist =
        metrics::histogram("test.hist.edges", {1.0, 10.0, 100.0});
    hist.reset();

    hist.observe(0.5);   // below first bound  -> bucket 0
    hist.observe(1.0);   // exactly on a bound -> bucket 0 (le semantics)
    hist.observe(1.0001); // just above        -> bucket 1
    hist.observe(10.0);  // on second bound    -> bucket 1
    hist.observe(99.9);  // under third        -> bucket 2
    hist.observe(100.0); // on third           -> bucket 2
    hist.observe(1e6);   // beyond every bound -> overflow bucket

    const std::vector<uint64_t> buckets = hist.bucketCounts();
    ASSERT_EQ(buckets.size(), 4u); // 3 bounds + overflow.
    EXPECT_EQ(buckets[0], 2u);
    EXPECT_EQ(buckets[1], 2u);
    EXPECT_EQ(buckets[2], 2u);
    EXPECT_EQ(buckets[3], 1u);
    EXPECT_EQ(hist.count(), 7u);
    EXPECT_DOUBLE_EQ(hist.minValue(), 0.5);
    EXPECT_DOUBLE_EQ(hist.maxValue(), 1e6);
}

TEST_F(ObservabilityTest, MetricsJsonIsWellFormed)
{
    metrics::counter("test.export.counter").add(2);
    metrics::gauge("test.export.gauge").set(-5);
    metrics::histogram("test.export.hist", {0.5}).observe(0.25);
    const std::string json = metrics::exportJson();
    JsonChecker checker(json);
    EXPECT_TRUE(checker.parse()) << json;
    EXPECT_NE(json.find("\"test.export.counter\":"), std::string::npos);
    EXPECT_NE(json.find("\"test.export.gauge\":-5"), std::string::npos);
    EXPECT_NE(json.find("\"test.export.hist\""), std::string::npos);
    EXPECT_EQ(checker.keyCount("counters"), 1);
    EXPECT_EQ(checker.keyCount("gauges"), 1);
    EXPECT_EQ(checker.keyCount("histograms"), 1);
}

// ---- Environment gating ----------------------------------------------------

TEST_F(ObservabilityTest, TraceEnvVarGatesRecording)
{
    trace::setEnabled(false);
    setenv("HYDRIDE_TRACE", "0", 1);
    trace::configureFromEnv();
    EXPECT_FALSE(trace::enabled());

    const std::string out = ::testing::TempDir() + "hydride_env_trace.json";
    setenv("HYDRIDE_TRACE", out.c_str(), 1);
    trace::configureFromEnv();
    EXPECT_TRUE(trace::enabled());

    setenv("HYDRIDE_TRACE", "0", 1);
    trace::configureFromEnv();
    EXPECT_FALSE(trace::enabled());
}

TEST_F(ObservabilityTest, MetricsEnvVarGatesRecording)
{
    metrics::setEnabled(false);
    setenv("HYDRIDE_METRICS", "0", 1);
    metrics::configureFromEnv();
    EXPECT_FALSE(metrics::enabled());

    const std::string out = ::testing::TempDir() + "hydride_env_metrics.json";
    setenv("HYDRIDE_METRICS", out.c_str(), 1);
    metrics::configureFromEnv();
    EXPECT_TRUE(metrics::enabled());
}

TEST_F(ObservabilityTest, LogLevelEnvVarIsApplied)
{
    setenv("HYDRIDE_LOG_LEVEL", "error", 1);
    logging::configureFromEnv();
    EXPECT_EQ(logging::level(), logging::Level::Error);
    EXPECT_FALSE(logging::shouldLog(logging::Level::Warn));
    EXPECT_TRUE(logging::shouldLog(logging::Level::Error));
}

TEST_F(ObservabilityTest, LogLevelFiltersAndOffSilencesAll)
{
    logging::setLevel(logging::Level::Warn);
    EXPECT_FALSE(logging::shouldLog(logging::Level::Debug));
    EXPECT_FALSE(logging::shouldLog(logging::Level::Info));
    EXPECT_TRUE(logging::shouldLog(logging::Level::Warn));
    EXPECT_TRUE(logging::shouldLog(logging::Level::Error));

    logging::setLevel(logging::Level::Off);
    EXPECT_FALSE(logging::shouldLog(logging::Level::Error));
    // Off itself is never a valid message level.
    EXPECT_FALSE(logging::shouldLog(logging::Level::Off));

    logging::Level parsed;
    EXPECT_TRUE(logging::parseLevel("debug", parsed));
    EXPECT_EQ(parsed, logging::Level::Debug);
    EXPECT_FALSE(logging::parseLevel("chatty", parsed));
}

// ---- File export -----------------------------------------------------------

TEST_F(ObservabilityTest, WriteChromeJsonRoundTripsThroughDisk)
{
    {
        trace::TraceSpan span("test.file.span");
    }
    const std::string path = ::testing::TempDir() + "hydride_trace_ut.json";
    ASSERT_TRUE(trace::writeChromeJson(path));
    std::string content;
    {
        FILE *f = fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        char buf[4096];
        size_t n;
        while ((n = fread(buf, 1, sizeof(buf), f)) > 0)
            content.append(buf, n);
        fclose(f);
    }
    std::remove(path.c_str());
    JsonChecker checker(content);
    EXPECT_TRUE(checker.parse()) << content;
    EXPECT_NE(content.find("test.file.span"), std::string::npos);
}

} // namespace
