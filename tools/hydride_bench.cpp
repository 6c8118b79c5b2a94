/**
 * @file
 * hydride-bench: the continuous-benchmarking orchestrator.
 *
 * Runs every bench_* binary (full suite or --smoke), collects the
 * per-binary BenchReport JSON each one writes via --json-out, merges
 * them into a single suite artifact — the committed BENCH_<n>.json
 * trajectory at the repository root — and optionally diffs the run
 * against a committed baseline, exiting non-zero on regression.
 *
 *   hydride-bench                         run full suite, write BENCH_<n>.json
 *   hydride-bench --smoke                 reduced workload (CI gate)
 *   hydride-bench --compare BENCH_0.json  run, then gate against baseline
 *   hydride-bench --input A --compare B   gate A against B without running
 *
 * Exit codes: 0 success, 1 bench binary failed, 2 usage/IO error,
 * 3 regression (or non-comparable reports).
 *
 * See docs/benchmarking.md for the schema and the gate's tolerance
 * model; tools/check_bench.py validates artifacts structurally.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "observability/bench/bench_report.h"

namespace fs = std::filesystem;
using namespace hydride;

namespace {

struct Options
{
    bool smoke = false;
    bool profile = false;
    std::string bench_dir;  ///< Directory holding the bench_* binaries.
    std::string json_out;   ///< Merged artifact path ("" = BENCH_<n>.json).
    std::string input;      ///< Pre-merged report to gate instead of running.
    std::string compare;    ///< Baseline to gate against.
    std::string label;
    bench::CompareOptions gate;
};

int
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0 << " [options]\n"
        << "  --smoke               reduced workload (not comparable "
           "against full runs)\n"
        << "  --bench-dir <dir>     bench binaries (default: "
           "<tool dir>/../bench)\n"
        << "  --json-out <file>     merged artifact (default: next "
           "BENCH_<n>.json in CWD)\n"
        << "  --input <file>        gate an existing artifact instead of "
           "running\n"
        << "  --compare <file>      baseline artifact; exit 3 on "
           "regression\n"
        << "  --tolerance <frac>    relative slowdown allowed "
           "(default 0.5)\n"
        << "  --min-abs-ms <ms>     ignore regressions below this "
           "absolute delta (default 5)\n"
        << "  --scale-baseline <f>  multiply baseline times (gate "
           "self-test hook)\n"
        << "  --profile             print the merged phase breakdown\n";
    return 2;
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](std::string &out) {
            if (i + 1 >= argc) {
                std::cerr << "hydride-bench: " << arg
                          << " needs a value\n";
                return false;
            }
            out = argv[++i];
            return true;
        };
        auto number = [&](double &out) {
            std::string text;
            if (!value(text))
                return false;
            char *end = nullptr;
            out = std::strtod(text.c_str(), &end);
            if (!end || *end != '\0') {
                std::cerr << "hydride-bench: bad number for " << arg
                          << ": " << text << "\n";
                return false;
            }
            return true;
        };
        if (arg == "--smoke") {
            opt.smoke = true;
        } else if (arg == "--profile") {
            opt.profile = true;
        } else if (arg == "--bench-dir") {
            if (!value(opt.bench_dir))
                return false;
        } else if (arg == "--json-out") {
            if (!value(opt.json_out))
                return false;
        } else if (arg == "--input") {
            if (!value(opt.input))
                return false;
        } else if (arg == "--compare") {
            if (!value(opt.compare))
                return false;
        } else if (arg == "--label") {
            if (!value(opt.label))
                return false;
        } else if (arg == "--tolerance") {
            if (!number(opt.gate.tolerance))
                return false;
        } else if (arg == "--min-abs-ms") {
            if (!number(opt.gate.min_abs_ms))
                return false;
        } else if (arg == "--scale-baseline") {
            if (!number(opt.gate.scale_baseline))
                return false;
        } else {
            std::cerr << "hydride-bench: unknown option " << arg << "\n";
            return false;
        }
    }
    return true;
}

std::string
defaultBenchDir(const char *argv0)
{
    const fs::path self(argv0 ? argv0 : "");
    const fs::path dir = self.has_parent_path() ? self.parent_path()
                                                : fs::path(".");
    return (dir / ".." / "bench").string();
}

/** Next free BENCH_<n>.json in the current directory: the trajectory
 *  grows monotonically, one artifact per measured revision. */
std::string
nextTrajectoryPath()
{
    int next = 0;
    for (const auto &entry : fs::directory_iterator(".")) {
        const std::string name = entry.path().filename().string();
        int n = -1;
        if (std::sscanf(name.c_str(), "BENCH_%d.json", &n) == 1)
            next = std::max(next, n + 1);
    }
    return "BENCH_" + std::to_string(next) + ".json";
}

std::vector<fs::path>
findBenchBinaries(const std::string &dir, std::string &error)
{
    std::vector<fs::path> binaries;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("bench_", 0) != 0)
            continue;
        if (name.find('.') != std::string::npos)
            continue; // CMake side files, not binaries.
        if (!fs::is_regular_file(entry.path()))
            continue;
        binaries.push_back(entry.path());
    }
    if (ec) {
        error = "cannot list bench dir '" + dir + "': " + ec.message();
        return {};
    }
    if (binaries.empty()) {
        error = "no bench_* binaries in '" + dir +
                "' (build them first, or pass --bench-dir)";
        return {};
    }
    std::sort(binaries.begin(), binaries.end());
    return binaries;
}

bool
readFile(const std::string &path, std::string &out, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read " + path;
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
}

bool
loadSuite(const std::string &path, bench::SuiteReport &out)
{
    std::string text;
    std::string error;
    if (!readFile(path, text, error) ||
        !bench::SuiteReport::fromJson(text, out, error)) {
        std::cerr << "hydride-bench: " << path << ": " << error << "\n";
        return false;
    }
    return true;
}

/** Run the suite; false (with a named culprit) on the first failing
 *  binary — a crashed benchmark must fail the run, not produce a
 *  silently thinner report. */
bool
runSuite(const Options &opt, const std::vector<fs::path> &binaries,
         bench::SuiteReport &merged)
{
    const fs::path workdir =
        fs::temp_directory_path() /
        ("hydride-bench." + std::to_string(::getpid()));
    std::error_code ec;
    fs::create_directories(workdir, ec);
    if (ec) {
        std::cerr << "hydride-bench: cannot create " << workdir.string()
                  << ": " << ec.message() << "\n";
        return false;
    }

    merged.smoke = opt.smoke;
    merged.label =
        !opt.label.empty() ? opt.label : (opt.smoke ? "smoke" : "full");

    for (const fs::path &binary : binaries) {
        const std::string name = binary.filename().string();
        const fs::path part = workdir / (name + ".json");
        const fs::path log = workdir / (name + ".log");
        std::string command = "\"" + binary.string() + "\" --json-out \"" +
                              part.string() + "\"";
        if (opt.smoke)
            command += " --smoke";
        command += " > \"" + log.string() + "\" 2>&1";
        std::cout << "[hydride-bench] running " << name
                  << (opt.smoke ? " (smoke)" : "") << "...\n"
                  << std::flush;
        const int rc = std::system(command.c_str());
        if (rc != 0) {
            std::cerr << "hydride-bench: FAILED: " << name
                      << " exited with status " << rc << " (log: "
                      << log.string() << ")\n";
            return false;
        }
        std::string text;
        std::string error;
        bench::BenchReport report;
        if (!readFile(part.string(), text, error) ||
            !bench::BenchReport::fromJson(text, report, error)) {
            std::cerr << "hydride-bench: " << name
                      << " produced a bad report: " << error << "\n";
            return false;
        }
        merged.suites.push_back(std::move(report));
    }
    fs::remove_all(workdir, ec);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return usage(argv[0]);

    bench::SuiteReport current;
    if (!opt.input.empty()) {
        if (!loadSuite(opt.input, current))
            return 2;
    } else {
        if (opt.bench_dir.empty())
            opt.bench_dir = defaultBenchDir(argv[0]);
        std::string error;
        const auto binaries = findBenchBinaries(opt.bench_dir, error);
        if (binaries.empty()) {
            std::cerr << "hydride-bench: " << error << "\n";
            return 2;
        }
        if (!runSuite(opt, binaries, current))
            return 1;
        const std::string out_path =
            !opt.json_out.empty() ? opt.json_out : nextTrajectoryPath();
        std::ofstream out(out_path);
        if (!out) {
            std::cerr << "hydride-bench: cannot write " << out_path
                      << "\n";
            return 2;
        }
        out << current.toJson() << "\n";
        std::cout << "[hydride-bench] wrote " << out_path << " ("
                  << current.suites.size() << " suites)\n";
    }

    if (opt.profile) {
        phases::PhaseProfile profile;
        profile.aggregate = current.aggregatePhases();
        std::cout << phases::formatProfile(profile, 0);
    }

    if (!opt.compare.empty()) {
        bench::SuiteReport baseline;
        if (!loadSuite(opt.compare, baseline))
            return 2;
        const bench::CompareResult result =
            bench::compareReports(baseline, current, opt.gate);
        std::cout << bench::formatCompare(result, opt.gate);
        if (!result.ok())
            return 3;
    }
    return 0;
}
