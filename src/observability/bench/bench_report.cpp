#include "observability/bench/bench_report.h"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <map>
#include <sstream>

#include "observability/bench/json.h"

namespace hydride {
namespace bench {

const char *const kSchemaId = "hydride-bench/v1";

namespace {

/** The JSON `phases` keys after `windows`, in report order. */
const std::pair<const char *, double phases::PhaseTotals::*> kPhaseFields[] = {
    {"total_ms", &phases::PhaseTotals::total_ms},
    {"enumeration_ms", &phases::PhaseTotals::enumeration_ms},
    {"concrete_eval_ms", &phases::PhaseTotals::concrete_eval_ms},
    {"symbolic_ms", &phases::PhaseTotals::symbolic_ms},
    {"sat_ms", &phases::PhaseTotals::sat_ms},
    {"cache_lookup_ms", &phases::PhaseTotals::cache_lookup_ms},
    {"other_ms", &phases::PhaseTotals::other_ms},
};

bjson::ValuePtr
phasesToJson(const phases::PhaseTotals &totals)
{
    auto obj = bjson::Value::makeObject();
    obj->set("windows", bjson::Value::makeNumber(
                            static_cast<double>(totals.windows)));
    for (const auto &[key, field] : kPhaseFields)
        obj->set(key, bjson::Value::makeNumber(totals.*field));
    return obj;
}

phases::PhaseTotals
phasesFromJson(const bjson::Value &obj)
{
    phases::PhaseTotals totals;
    totals.windows = static_cast<uint64_t>(obj.getNumber("windows", 0.0));
    for (const auto &[key, field] : kPhaseFields)
        totals.*field = obj.getNumber(key, 0.0);
    return totals;
}

bjson::ValuePtr
reportToValue(const BenchReport &report)
{
    auto obj = bjson::Value::makeObject();
    obj->set("schema", bjson::Value::makeString(kSchemaId));
    obj->set("kind", bjson::Value::makeString("report"));
    obj->set("suite", bjson::Value::makeString(report.suite));
    obj->set("smoke", bjson::Value::makeBool(report.smoke));

    auto benchmarks = bjson::Value::makeArray();
    for (const BenchEntry &entry : report.benchmarks) {
        auto e = bjson::Value::makeObject();
        e->set("name", bjson::Value::makeString(entry.name));
        e->set("kind", bjson::Value::makeString(entry.kind));
        if (entry.kind == "ratio") {
            e->set("value", bjson::Value::makeNumber(entry.value));
        } else {
            e->set("wall_ms", bjson::Value::makeNumber(entry.wall_ms));
            if (entry.cpu_ms >= 0.0)
                e->set("cpu_ms", bjson::Value::makeNumber(entry.cpu_ms));
        }
        e->set("iterations", bjson::Value::makeNumber(
                                 static_cast<double>(entry.iterations)));
        benchmarks->push(std::move(e));
    }
    obj->set("benchmarks", std::move(benchmarks));

    if (report.has_phases)
        obj->set("phases", phasesToJson(report.phases));

    auto metrics_obj = bjson::Value::makeObject();
    auto counters = bjson::Value::makeObject();
    for (const auto &[name, value] : report.metrics.counters)
        counters->set(name, bjson::Value::makeNumber(
                                static_cast<double>(value)));
    metrics_obj->set("counters", std::move(counters));
    auto gauges = bjson::Value::makeObject();
    for (const auto &[name, value] : report.metrics.gauges)
        gauges->set(name, bjson::Value::makeNumber(
                              static_cast<double>(value)));
    metrics_obj->set("gauges", std::move(gauges));
    auto hists = bjson::Value::makeObject();
    for (const HistSummary &hist : report.metrics.histograms) {
        auto h = bjson::Value::makeObject();
        h->set("count", bjson::Value::makeNumber(
                            static_cast<double>(hist.count)));
        h->set("sum", bjson::Value::makeNumber(hist.sum));
        h->set("min", bjson::Value::makeNumber(hist.min));
        h->set("max", bjson::Value::makeNumber(hist.max));
        h->set("p50", bjson::Value::makeNumber(hist.p50));
        h->set("p90", bjson::Value::makeNumber(hist.p90));
        h->set("p99", bjson::Value::makeNumber(hist.p99));
        hists->set(hist.name, std::move(h));
    }
    metrics_obj->set("histograms", std::move(hists));
    obj->set("metrics", std::move(metrics_obj));
    return obj;
}

bool
reportFromValue(const bjson::Value &obj, BenchReport &out,
                std::string &error)
{
    const std::string schema = obj.getString("schema", "");
    if (schema != kSchemaId) {
        error = "unsupported schema '" + schema + "' (want " +
                kSchemaId + ")";
        return false;
    }
    if (obj.getString("kind", "report") != "report") {
        error = "expected kind 'report'";
        return false;
    }
    out = BenchReport();
    out.suite = obj.getString("suite", "");
    if (out.suite.empty()) {
        error = "report is missing its suite name";
        return false;
    }
    out.smoke = obj.getBool("smoke", false);

    const bjson::Value *benchmarks = obj.get("benchmarks");
    if (!benchmarks || !benchmarks->isArray()) {
        error = "report '" + out.suite + "' has no benchmarks array";
        return false;
    }
    for (const auto &item : benchmarks->items) {
        if (!item->isObject()) {
            error = "benchmark entry is not an object";
            return false;
        }
        BenchEntry entry;
        entry.name = item->getString("name", "");
        if (entry.name.empty()) {
            error = "benchmark entry without a name in '" + out.suite +
                    "'";
            return false;
        }
        entry.kind = item->getString("kind", "time");
        entry.wall_ms = item->getNumber("wall_ms", 0.0);
        entry.cpu_ms = item->getNumber("cpu_ms", -1.0);
        entry.value = item->getNumber("value", 0.0);
        entry.iterations =
            static_cast<long>(item->getNumber("iterations", 1.0));
        out.benchmarks.push_back(std::move(entry));
    }

    if (const bjson::Value *phases = obj.get("phases")) {
        if (!phases->isObject()) {
            error = "phases is not an object";
            return false;
        }
        out.has_phases = true;
        out.phases = phasesFromJson(*phases);
    }

    if (const bjson::Value *metrics_obj = obj.get("metrics")) {
        if (const bjson::Value *counters = metrics_obj->get("counters")) {
            for (size_t i = 0; i < counters->keys.size(); ++i) {
                out.metrics.counters.emplace_back(
                    counters->keys[i],
                    static_cast<uint64_t>(
                        counters->values[i]->numberOr(0.0)));
            }
        }
        if (const bjson::Value *gauges = metrics_obj->get("gauges")) {
            for (size_t i = 0; i < gauges->keys.size(); ++i) {
                out.metrics.gauges.emplace_back(
                    gauges->keys[i],
                    static_cast<int64_t>(
                        gauges->values[i]->numberOr(0.0)));
            }
        }
        if (const bjson::Value *hists = metrics_obj->get("histograms")) {
            for (size_t i = 0; i < hists->keys.size(); ++i) {
                const bjson::Value &h = *hists->values[i];
                HistSummary hist;
                hist.name = hists->keys[i];
                hist.count =
                    static_cast<uint64_t>(h.getNumber("count", 0.0));
                hist.sum = h.getNumber("sum", 0.0);
                hist.min = h.getNumber("min", 0.0);
                hist.max = h.getNumber("max", 0.0);
                hist.p50 = h.getNumber("p50", 0.0);
                hist.p90 = h.getNumber("p90", 0.0);
                hist.p99 = h.getNumber("p99", 0.0);
                out.metrics.histograms.push_back(std::move(hist));
            }
        }
    }
    return true;
}

} // namespace

MetricsSummary
MetricsSummary::fromSnapshot(const metrics::Snapshot &snap)
{
    MetricsSummary summary;
    summary.counters = snap.counters;
    summary.gauges = snap.gauges;
    for (const metrics::Snapshot::Hist &hist : snap.histograms) {
        HistSummary h;
        h.name = hist.name;
        h.count = hist.count;
        h.sum = hist.sum;
        h.min = hist.min;
        h.max = hist.max;
        h.p50 = hist.quantile(0.50);
        h.p90 = hist.quantile(0.90);
        h.p99 = hist.quantile(0.99);
        summary.histograms.push_back(std::move(h));
    }
    return summary;
}

std::string
BenchReport::toJson(bool pretty) const
{
    const bjson::ValuePtr value = reportToValue(*this);
    return pretty ? bjson::writePretty(*value) : bjson::write(*value);
}

bool
BenchReport::fromJson(const std::string &text, BenchReport &out,
                      std::string &error)
{
    const bjson::ValuePtr doc = bjson::parse(text, error);
    if (!doc)
        return false;
    if (!doc->isObject()) {
        error = "top-level JSON value is not an object";
        return false;
    }
    return reportFromValue(*doc, out, error);
}

std::string
SuiteReport::toJson(bool pretty) const
{
    auto obj = bjson::Value::makeObject();
    obj->set("schema", bjson::Value::makeString(kSchemaId));
    obj->set("kind", bjson::Value::makeString("suite"));
    obj->set("smoke", bjson::Value::makeBool(smoke));
    if (!label.empty())
        obj->set("label", bjson::Value::makeString(label));
    obj->set("phases", phasesToJson(aggregatePhases()));
    auto arr = bjson::Value::makeArray();
    for (const BenchReport &report : suites) {
        std::string sub = report.toJson(false);
        std::string error;
        // Re-embed through the value tree so pretty printing nests.
        bjson::ValuePtr v = bjson::parse(sub, error);
        arr->push(std::move(v));
    }
    obj->set("suites", std::move(arr));
    return pretty ? bjson::writePretty(*obj) : bjson::write(*obj);
}

bool
SuiteReport::fromJson(const std::string &text, SuiteReport &out,
                      std::string &error)
{
    const bjson::ValuePtr doc = bjson::parse(text, error);
    if (!doc)
        return false;
    if (!doc->isObject()) {
        error = "top-level JSON value is not an object";
        return false;
    }
    const std::string schema = doc->getString("schema", "");
    if (schema != kSchemaId) {
        error = "unsupported schema '" + schema + "' (want " +
                kSchemaId + ")";
        return false;
    }
    if (doc->getString("kind", "") != "suite") {
        error = "expected kind 'suite' (a merged BENCH_*.json)";
        return false;
    }
    out = SuiteReport();
    out.smoke = doc->getBool("smoke", false);
    out.label = doc->getString("label", "");
    const bjson::Value *suites = doc->get("suites");
    if (!suites || !suites->isArray()) {
        error = "suite artifact has no suites array";
        return false;
    }
    for (const auto &item : suites->items) {
        BenchReport report;
        if (!item->isObject()) {
            error = "suites entry is not an object";
            return false;
        }
        if (!reportFromValue(*item, report, error))
            return false;
        out.suites.push_back(std::move(report));
    }
    return true;
}

phases::PhaseTotals
SuiteReport::aggregatePhases() const
{
    phases::PhaseTotals agg;
    for (const BenchReport &report : suites) {
        if (report.has_phases)
            agg.add(report.phases);
    }
    return agg;
}

// ---- Regression gate -------------------------------------------------------

CompareResult
compareReports(const SuiteReport &baseline, const SuiteReport &current,
               const CompareOptions &options)
{
    CompareResult result;
    if (baseline.smoke != current.smoke) {
        result.error =
            "baseline and current runs use different workloads "
            "(smoke vs full); the numbers are not comparable";
        return result;
    }

    std::map<std::pair<std::string, std::string>, double> base_times;
    for (const BenchReport &report : baseline.suites) {
        for (const BenchEntry &entry : report.benchmarks) {
            if (entry.kind == "time")
                base_times[{report.suite, entry.name}] = entry.wall_ms;
        }
    }

    std::map<std::pair<std::string, std::string>, bool> seen;
    for (const BenchReport &report : current.suites) {
        for (const BenchEntry &entry : report.benchmarks) {
            if (entry.kind != "time")
                continue;
            const auto key = std::make_pair(report.suite, entry.name);
            auto it = base_times.find(key);
            if (it == base_times.end()) {
                ++result.only_current;
                continue;
            }
            seen[key] = true;
            ++result.compared;
            const double base = it->second * options.scale_baseline;
            const double cur = entry.wall_ms;
            CompareFinding finding;
            finding.suite = report.suite;
            finding.name = entry.name;
            finding.baseline_ms = base;
            finding.current_ms = cur;
            finding.ratio = base > 0.0 ? cur / base
                                       : (cur > 0.0 ? 1e9 : 1.0);
            if (cur > base * (1.0 + options.tolerance) &&
                cur - base > options.min_abs_ms) {
                result.regressions.push_back(finding);
            } else if (base > cur * (1.0 + options.tolerance) &&
                       base - cur > options.min_abs_ms) {
                result.improvements.push_back(finding);
            }
        }
    }
    result.only_baseline =
        static_cast<int>(base_times.size() - seen.size());

    auto by_ratio = [](const CompareFinding &a, const CompareFinding &b) {
        return a.ratio > b.ratio;
    };
    std::sort(result.regressions.begin(), result.regressions.end(),
              by_ratio);
    std::sort(result.improvements.begin(), result.improvements.end(),
              [](const CompareFinding &a, const CompareFinding &b) {
                  return a.ratio < b.ratio;
              });
    return result;
}

std::string
formatCompare(const CompareResult &result, const CompareOptions &options)
{
    std::ostringstream os;
    char buf[256];
    if (!result.error.empty()) {
        os << "compare error: " << result.error << "\n";
        return os.str();
    }
    std::snprintf(buf, sizeof(buf),
                  "compared %d time benchmarks (tolerance +%.0f%%, "
                  "floor %.1f ms)\n",
                  result.compared, options.tolerance * 100.0,
                  options.min_abs_ms);
    os << buf;
    if (result.only_baseline > 0) {
        os << "  " << result.only_baseline
           << " baseline entries missing from the current run\n";
    }
    if (result.only_current > 0) {
        os << "  " << result.only_current
           << " new entries not in the baseline\n";
    }
    for (const CompareFinding &f : result.regressions) {
        std::snprintf(buf, sizeof(buf),
                      "  REGRESSION %s/%s: %.2f ms -> %.2f ms (%.2fx)\n",
                      f.suite.c_str(), f.name.c_str(), f.baseline_ms,
                      f.current_ms, f.ratio);
        os << buf;
    }
    for (const CompareFinding &f : result.improvements) {
        std::snprintf(buf, sizeof(buf),
                      "  improvement %s/%s: %.2f ms -> %.2f ms (%.2fx)\n",
                      f.suite.c_str(), f.name.c_str(), f.baseline_ms,
                      f.current_ms, f.ratio);
        os << buf;
    }
    if (result.regressions.empty())
        os << "no regressions\n";
    else
        os << result.regressions.size() << " regression(s) detected\n";
    return os.str();
}

double
cpuTimeMs()
{
    return 1e3 * static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

} // namespace bench
} // namespace hydride
