/**
 * @file
 * Shared CLI handling for the benchmark binaries.
 *
 * `--trace-out out.json` enables tracing and metrics for the run and,
 * on finish(), writes
 *
 *   out.json               Chrome trace_event JSON (chrome://tracing
 *                          or https://ui.perfetto.dev)
 *   out.json.metrics.json  metrics registry snapshot
 *
 * so perf work can diff per-phase breakdowns between runs instead of
 * end-to-end totals. The HYDRIDE_TRACE / HYDRIDE_METRICS environment
 * variables (see docs/observability.md) work for any binary without
 * this flag; the flag is a convenience for explicit output paths.
 *
 * The continuous-benchmarking flags every bench binary supports (see
 * docs/benchmarking.md):
 *
 *   --json-out <file>  write a schema-versioned BenchReport: the
 *                      entries record()ed by the harness, the run's
 *                      phase profile, and the metrics snapshot
 *                      (hydride-bench merges these into the
 *                      committed BENCH_<n>.json trajectory)
 *   --smoke            reduced workload (fewer kernels / one target);
 *                      marked in the report — smoke numbers never
 *                      compare against full-run baselines
 *   --profile          print the per-phase synthesis time breakdown
 *                      (enumeration / concrete eval / symbolic / SAT /
 *                      cache lookup) on exit
 */
#ifndef HYDRIDE_BENCH_TRACE_CLI_H
#define HYDRIDE_BENCH_TRACE_CLI_H

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "observability/bench/bench_report.h"
#include "observability/metrics.h"
#include "observability/phases.h"
#include "observability/trace.h"
#include "support/timing.h"

namespace hydride {
namespace bench {

/** The bench flags (--trace-out, --json-out, --smoke, --profile).
 *  One instance per bench main(); parse() first, record() the
 *  measurements, `return finish()` last. */
class BenchCli
{
  public:
    /** Scan argv and enable metrics, which feed the deadline check,
     *  the phase profile and the histogram summaries. Tracing stays
     *  off unless --trace-out or HYDRIDE_TRACE asks for it. */
    void
    parse(int argc, char **argv)
    {
        suite_ = basename(argv[0]);
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
                trace_path_ = argv[++i];
            } else if (std::strcmp(argv[i], "--json-out") == 0 &&
                       i + 1 < argc) {
                json_path_ = argv[++i];
            } else if (std::strcmp(argv[i], "--smoke") == 0) {
                smoke_ = true;
            } else if (std::strcmp(argv[i], "--profile") == 0) {
                profile_ = true;
            }
        }
        if (!trace_path_.empty())
            trace::setEnabled(true);
        metrics::setEnabled(true);
    }

    bool smoke() const { return smoke_; }

    /** First `cap` elements under --smoke, all of them otherwise. */
    template <class Vec>
    Vec
    limited(Vec v, size_t cap) const
    {
        if (smoke_ && v.size() > cap)
            v.resize(cap);
        return v;
    }

    /** Record a wall-time measurement (what the regression gate
     *  compares). */
    void
    record(const std::string &name, double wall_ms, long iterations = 1,
           double cpu_ms = -1.0)
    {
        BenchEntry entry;
        entry.name = name;
        entry.kind = "time";
        entry.wall_ms = wall_ms;
        entry.cpu_ms = cpu_ms;
        entry.iterations = iterations;
        entries_.push_back(std::move(entry));
    }

    /** Record a dimensionless result (speedup, compression factor);
     *  informational, never gated. */
    void
    recordRatio(const std::string &name, double value)
    {
        BenchEntry entry;
        entry.name = name;
        entry.kind = "ratio";
        entry.value = value;
        entries_.push_back(std::move(entry));
    }

    /** Write every requested artifact and return the suite's exit
     *  status: 1 when a CEGIS search reached its safety-net deadline
     *  (the run's results then depend on the host's speed), else 0.
     *  Records `total_ms` (whole-run wall time since parse). */
    int
    finish()
    {
        const uint64_t deadline_hits =
            metrics::counter("synthesis.cegis.deadline_hits").value();
        std::cerr << "cegis deadline hits: " << deadline_hits << "\n";
        const int status = deadline_hits > 0 ? 1 : 0;
        if (!trace_path_.empty()) {
            const std::string metrics_path = trace_path_ + ".metrics.json";
            const bool trace_ok = trace::writeChromeJson(trace_path_);
            const bool metrics_ok = metrics::writeJson(metrics_path);
            std::cerr << "trace: "
                      << (trace_ok ? trace_path_ : "<write failed>")
                      << "\nmetrics: "
                      << (metrics_ok ? metrics_path : "<write failed>")
                      << "\n";
        }
        if (json_path_.empty() && !profile_)
            return status;
        record("total_ms", run_watch_.millis(), 1, cpuTimeMs());
        const phases::PhaseProfile profile = phases::profile();
        if (profile_)
            std::cout << "\n" << phases::formatProfile(profile);
        if (json_path_.empty())
            return status;
        BenchReport report;
        report.suite = suite_;
        report.smoke = smoke_;
        report.benchmarks = entries_;
        report.has_phases = true;
        report.phases = profile.aggregate;
        report.metrics = MetricsSummary::fromSnapshot(metrics::snapshot());
        std::ofstream out(json_path_);
        if (out) {
            out << report.toJson() << "\n";
            std::cerr << "bench report: " << json_path_ << "\n";
        } else {
            std::cerr << "bench report: cannot write " << json_path_
                      << "\n";
        }
        return status;
    }

  private:
    static std::string
    basename(const char *path)
    {
        const std::string s = path ? path : "bench";
        const size_t slash = s.find_last_of('/');
        return slash == std::string::npos ? s : s.substr(slash + 1);
    }

    std::string suite_;
    std::string trace_path_;
    std::string json_path_;
    bool smoke_ = false;
    bool profile_ = false;
    std::vector<BenchEntry> entries_;
    Stopwatch run_watch_;
};

} // namespace bench
} // namespace hydride

#endif // HYDRIDE_BENCH_TRACE_CLI_H
