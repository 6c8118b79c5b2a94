/**
 * @file
 * hydride-inspect: query CLI over the synthesis provenance journal
 * (docs/observability.md).
 *
 * The journal (src/observability/journal/) records one decision
 * ledger per compiled window. This tool answers the triage questions
 * those ledgers exist for, without re-running synthesis:
 *
 *   hydride-inspect explain <window-hash> --journal run.jsonl
 *       Reconstruct the full ledger for one window: shape, cache
 *       outcome, CEGIS effort, symbolic verdict, degradation rung,
 *       chosen instructions, injected faults, wall/CPU time — plus
 *       every per-attempt "cegis" event for the same window.
 *
 *   hydride-inspect explain --all --journal run.jsonl
 *       Validate that every compiled window has a *complete* ledger;
 *       exit 1 naming the missing fields otherwise.
 *
 *   hydride-inspect top --by=time|iterations|rung -n 10 --journal ...
 *       The windows that cost the most, by wall time, CEGIS
 *       iterations, or degradation rung.
 *
 *   hydride-inspect diff a.jsonl b.jsonl
 *       Field-by-field drift between two runs, matched by
 *       (window-hash, isa); exit 1 when the runs diverge.
 *
 *   hydride-inspect list --journal run.jsonl
 *       One line per window event.
 *
 * `--json` switches any command to machine-readable output. A
 * truncated journal (process died mid-write) is salvaged with a
 * warning; a malformed one is an error. Exit codes: 0 clean,
 * 1 findings (incomplete ledger, drift), 2 usage/IO error.
 */
#include "observability/journal/journal.h"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

using namespace hydride;

namespace {

int
usage()
{
    std::cerr
        << "usage: hydride-inspect [--json] <command>\n"
        << "  explain (<window-hash> | --all) --journal <path>\n"
        << "  top [--by=time|iterations|rung] [-n N] --journal <path>\n"
        << "  diff <a.jsonl> <b.jsonl>\n"
        << "  list --journal <path>\n";
    return 2;
}

/** One window ledger, decoded from its journal event. */
struct Win
{
    uint64_t seq = 0;
    std::string hash;
    std::string isa;
    int lanes = 0;
    int elem_width = 0;
    int nodes = 0;
    std::string cache;
    std::string rung;
    int iterations = 0;
    int counterexamples = 0;
    int rejected = 0;
    int rejected_static = 0;
    int sym_refutations = 0;
    int sym_unknowns = 0;
    std::string verdict;
    std::string note;
    int retries = 0;
    bool recovered = false;
    double cost = 0.0;
    std::vector<std::string> insts;
    std::vector<std::pair<std::string, std::string>> faults;
    double wall_ms = 0.0;
    double cpu_ms = 0.0;
    /** Ledger fields the event is missing (empty == complete). */
    std::vector<std::string> missing;
};

/** Decode a "window" event, recording absent required fields. */
Win
decodeWindow(const bjson::Value &event)
{
    Win win;
    auto need = [&](const char *key) -> const bjson::Value * {
        const bjson::Value *value = event.get(key);
        if (!value)
            win.missing.push_back(key);
        return value;
    };
    win.seq = static_cast<uint64_t>(event.getNumber("seq", 0));
    win.hash = event.getString("hash", "");
    if (win.hash.empty())
        win.missing.push_back("hash");
    win.isa = event.getString("isa", "");
    if (win.isa.empty())
        win.missing.push_back("isa");
    if (const bjson::Value *shape = need("shape")) {
        win.lanes = static_cast<int>(shape->getNumber("lanes", 0));
        win.elem_width =
            static_cast<int>(shape->getNumber("elem_width", 0));
        win.nodes = static_cast<int>(shape->getNumber("nodes", 0));
    }
    win.cache = event.getString("cache", "");
    if (win.cache.empty())
        win.missing.push_back("cache");
    win.rung = event.getString("rung", "");
    if (win.rung.empty())
        win.missing.push_back("rung");
    if (const bjson::Value *cegis = need("cegis")) {
        win.iterations =
            static_cast<int>(cegis->getNumber("iterations", 0));
        win.counterexamples =
            static_cast<int>(cegis->getNumber("counterexamples", 0));
        win.rejected = static_cast<int>(cegis->getNumber("rejected", 0));
        win.rejected_static =
            static_cast<int>(cegis->getNumber("rejected_static", 0));
        win.sym_refutations = static_cast<int>(
            cegis->getNumber("symbolic_refutations", 0));
        win.sym_unknowns =
            static_cast<int>(cegis->getNumber("symbolic_unknowns", 0));
        win.verdict = cegis->getString("verdict", "");
    }
    win.note = event.getString("note", "");
    win.retries = static_cast<int>(event.getNumber("retries", -1));
    if (win.retries < 0) {
        win.missing.push_back("retries");
        win.retries = 0;
    }
    win.recovered = event.getBool("recovered", false);
    if (!event.get("recovered"))
        win.missing.push_back("recovered");
    if (const bjson::Value *cost = event.get("cost"))
        win.cost = cost->numberOr(0.0);
    else
        win.missing.push_back("cost");
    if (const bjson::Value *insts = need("insts")) {
        for (const auto &inst : insts->items)
            win.insts.push_back(inst->stringOr(""));
    }
    if (const bjson::Value *faults = need("faults")) {
        for (const auto &fault : faults->items) {
            win.faults.emplace_back(fault->getString("site", ""),
                                    fault->getString("detail", ""));
        }
    }
    if (const bjson::Value *wall = event.get("wall_ms"))
        win.wall_ms = wall->numberOr(0.0);
    else
        win.missing.push_back("wall_ms");
    if (const bjson::Value *cpu = event.get("cpu_ms"))
        win.cpu_ms = cpu->numberOr(0.0);
    else
        win.missing.push_back("cpu_ms");
    return win;
}

/** Load a journal or exit(2); warn (stderr) when salvaging. */
journal::Journal
loadOrDie(const std::string &path)
{
    journal::Journal loaded = journal::readJournal(path);
    if (!loaded.error.empty()) {
        std::cerr << "hydride-inspect: " << loaded.error << "\n";
        std::exit(2);
    }
    if (loaded.truncated) {
        std::cerr << "hydride-inspect: warning: `" << path
                  << "` is truncated (process died mid-write); salvaged "
                  << loaded.events.size() << " events\n";
    }
    return loaded;
}

std::vector<Win>
windowsOf(const journal::Journal &loaded)
{
    std::vector<Win> wins;
    for (const auto &event : loaded.events)
        if (event->getString("kind", "") == "window")
            wins.push_back(decodeWindow(*event));
    return wins;
}

/** Degradation-ladder badness (worse == larger). */
int
rungRank(const std::string &rung)
{
    if (rung == "synthesized") return 0;
    if (rung == "cached") return 1;
    if (rung == "macro_expanded") return 2;
    if (rung == "scalarized") return 3;
    if (rung == "failed") return 4;
    return 5;
}

std::string
joined(const std::vector<std::string> &parts, const char *sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

bjson::ValuePtr
winToJson(const Win &win)
{
    auto obj = bjson::Value::makeObject();
    obj->set("hash", bjson::Value::makeString(win.hash));
    obj->set("isa", bjson::Value::makeString(win.isa));
    obj->set("rung", bjson::Value::makeString(win.rung));
    obj->set("cache", bjson::Value::makeString(win.cache));
    obj->set("iterations", bjson::Value::makeNumber(win.iterations));
    obj->set("cost", bjson::Value::makeNumber(win.cost));
    obj->set("wall_ms", bjson::Value::makeNumber(win.wall_ms));
    obj->set("cpu_ms", bjson::Value::makeNumber(win.cpu_ms));
    obj->set("complete", bjson::Value::makeBool(win.missing.empty()));
    if (!win.missing.empty()) {
        auto missing = bjson::Value::makeArray();
        for (const auto &field : win.missing)
            missing->push(bjson::Value::makeString(field));
        obj->set("missing", missing);
    }
    return obj;
}

void
printWin(const Win &win, const journal::Journal &loaded)
{
    std::printf("window %s (%s)\n", win.hash.c_str(), win.isa.c_str());
    std::printf("  shape:     %d lanes x i%d, %d nodes\n", win.lanes,
                win.elem_width, win.nodes);
    std::printf("  cache:     %s\n", win.cache.c_str());
    std::printf("  rung:      %s%s\n", win.rung.c_str(),
                win.recovered ? "  (recovered from a caught error)" : "");
    std::printf("  cegis:     %d iterations, %d counterexamples, "
                "%d candidates rejected (%d statically, before any "
                "evaluation), %d retries\n",
                win.iterations, win.counterexamples, win.rejected,
                win.rejected_static, win.retries);
    std::printf("  symbolic:  verdict %s, %d refutations, %d unknowns\n",
                win.verdict.empty() ? "-" : win.verdict.c_str(),
                win.sym_refutations, win.sym_unknowns);
    if (!win.note.empty())
        std::printf("  note:      %s\n", win.note.c_str());
    std::printf("  cost:      %g\n", win.cost);
    std::printf("  insts:     %s\n",
                win.insts.empty() ? "-" : joined(win.insts, ", ").c_str());
    for (const auto &[site, detail] : win.faults)
        std::printf("  fault:     %s — %s\n", site.c_str(),
                    detail.c_str());
    std::printf("  time:      %.3f ms wall, %.3f ms cpu\n", win.wall_ms,
                win.cpu_ms);
    // The synthesis records of this window's shape: every compiler
    // that searched it (a separate cache each) left one.
    for (const auto &event : loaded.events) {
        if (event->getString("kind", "") != "cegis" ||
            event->getString("hash", "") != win.hash ||
            event->getString("isa", "") != win.isa) {
            continue;
        }
        std::printf("  attempt:   scale %d, %d iterations, ok=%s%s%s\n",
                    static_cast<int>(event->getNumber("scale", 0)),
                    static_cast<int>(event->getNumber("iterations", 0)),
                    event->getBool("ok", false) ? "true" : "false",
                    event->get("note") ? ", note: " : "",
                    event->getString("note", "").c_str());
    }
    if (!win.missing.empty())
        std::printf("  INCOMPLETE ledger; missing: %s\n",
                    joined(win.missing, ", ").c_str());
}

int
cmdExplain(const std::string &path, const std::string &hash, bool all,
           bool json)
{
    const journal::Journal loaded = loadOrDie(path);
    std::vector<Win> wins = windowsOf(loaded);
    if (!all) {
        wins.erase(std::remove_if(wins.begin(), wins.end(),
                                  [&](const Win &win) {
                                      return win.hash != hash;
                                  }),
                   wins.end());
    }
    if (wins.empty()) {
        std::cerr << "hydride-inspect: no window "
                  << (all ? "events" : ("`" + hash + "`")) << " in `"
                  << path << "`\n";
        return 1;
    }
    bool incomplete = false;
    if (json) {
        auto doc = bjson::Value::makeObject();
        auto array = bjson::Value::makeArray();
        for (const auto &win : wins) {
            incomplete = incomplete || !win.missing.empty();
            array->push(winToJson(win));
        }
        doc->set("windows", array);
        doc->set("complete", bjson::Value::makeBool(!incomplete));
        std::cout << bjson::writePretty(*doc) << "\n";
    } else {
        for (size_t w = 0; w < wins.size(); ++w) {
            if (w)
                std::printf("\n");
            printWin(wins[w], loaded);
            incomplete = incomplete || !wins[w].missing.empty();
        }
    }
    return incomplete ? 1 : 0;
}

int
cmdTop(const std::string &path, const std::string &by, int limit,
       bool json)
{
    const journal::Journal loaded = loadOrDie(path);
    std::vector<Win> wins = windowsOf(loaded);
    if (by == "time") {
        std::stable_sort(wins.begin(), wins.end(),
                         [](const Win &a, const Win &b) {
                             return a.wall_ms > b.wall_ms;
                         });
    } else if (by == "iterations") {
        std::stable_sort(wins.begin(), wins.end(),
                         [](const Win &a, const Win &b) {
                             return a.iterations > b.iterations;
                         });
    } else if (by == "rung") {
        std::stable_sort(wins.begin(), wins.end(),
                         [](const Win &a, const Win &b) {
                             return rungRank(a.rung) > rungRank(b.rung);
                         });
    } else {
        std::cerr << "hydride-inspect: unknown --by `" << by
                  << "` (want time|iterations|rung)\n";
        return 2;
    }
    if (limit > 0 && wins.size() > static_cast<size_t>(limit))
        wins.resize(static_cast<size_t>(limit));
    if (json) {
        auto doc = bjson::Value::makeObject();
        doc->set("by", bjson::Value::makeString(by));
        auto array = bjson::Value::makeArray();
        for (const auto &win : wins)
            array->push(winToJson(win));
        doc->set("windows", array);
        std::cout << bjson::writePretty(*doc) << "\n";
        return 0;
    }
    std::printf("%-18s %-5s %-14s %10s %11s %8s\n", "hash", "isa",
                "rung", "wall_ms", "iterations", "cost");
    for (const auto &win : wins) {
        std::printf("%-18s %-5s %-14s %10.3f %11d %8g\n",
                    win.hash.c_str(), win.isa.c_str(), win.rung.c_str(),
                    win.wall_ms, win.iterations, win.cost);
    }
    return 0;
}

int
cmdList(const std::string &path, bool json)
{
    const journal::Journal loaded = loadOrDie(path);
    const std::vector<Win> wins = windowsOf(loaded);
    if (json) {
        auto doc = bjson::Value::makeObject();
        auto array = bjson::Value::makeArray();
        for (const auto &win : wins)
            array->push(winToJson(win));
        doc->set("windows", array);
        std::cout << bjson::writePretty(*doc) << "\n";
        return 0;
    }
    for (const auto &win : wins) {
        std::printf("%s  %-5s %-14s cache=%-8s %8.3f ms\n",
                    win.hash.c_str(), win.isa.c_str(), win.rung.c_str(),
                    win.cache.c_str(), win.wall_ms);
    }
    return 0;
}

/** One run's windows keyed by (hash, isa); repeats keep file order. */
std::map<std::pair<std::string, std::string>, std::vector<Win>>
keyedWindows(const std::string &path)
{
    std::map<std::pair<std::string, std::string>, std::vector<Win>> keyed;
    for (auto &win : windowsOf(loadOrDie(path)))
        keyed[{win.hash, win.isa}].push_back(std::move(win));
    return keyed;
}

int
cmdDiff(const std::string &path_a, const std::string &path_b, bool json)
{
    auto a = keyedWindows(path_a);
    auto b = keyedWindows(path_b);
    struct Change
    {
        std::string hash;
        std::string isa;
        std::string what; ///< "" for added/removed.
        std::string kind; ///< "changed" | "only_a" | "only_b".
    };
    std::vector<Change> changes;
    for (const auto &[key, wins_a] : a) {
        auto it = b.find(key);
        if (it == b.end()) {
            changes.push_back({key.first, key.second, "", "only_a"});
            continue;
        }
        const Win &wa = wins_a.front();
        const Win &wb = it->second.front();
        std::vector<std::string> drift;
        if (wa.rung != wb.rung)
            drift.push_back("rung " + wa.rung + " -> " + wb.rung);
        if (wa.cache != wb.cache)
            drift.push_back("cache " + wa.cache + " -> " + wb.cache);
        if (wa.cost != wb.cost) {
            drift.push_back("cost " + std::to_string(wa.cost) + " -> " +
                            std::to_string(wb.cost));
        }
        if (wa.insts != wb.insts)
            drift.push_back("instruction sequence changed");
        if (wa.verdict != wb.verdict) {
            drift.push_back("symbolic verdict " +
                            (wa.verdict.empty() ? "-" : wa.verdict) +
                            " -> " +
                            (wb.verdict.empty() ? "-" : wb.verdict));
        }
        if (!drift.empty()) {
            changes.push_back(
                {key.first, key.second, joined(drift, "; "), "changed"});
        }
    }
    for (const auto &[key, wins_b] : b) {
        (void)wins_b;
        if (!a.count(key))
            changes.push_back({key.first, key.second, "", "only_b"});
    }
    if (json) {
        auto doc = bjson::Value::makeObject();
        auto array = bjson::Value::makeArray();
        for (const auto &change : changes) {
            auto obj = bjson::Value::makeObject();
            obj->set("hash", bjson::Value::makeString(change.hash));
            obj->set("isa", bjson::Value::makeString(change.isa));
            obj->set("kind", bjson::Value::makeString(change.kind));
            if (!change.what.empty())
                obj->set("detail", bjson::Value::makeString(change.what));
            array->push(obj);
        }
        doc->set("changes", array);
        doc->set("identical", bjson::Value::makeBool(changes.empty()));
        std::cout << bjson::writePretty(*doc) << "\n";
        return changes.empty() ? 0 : 1;
    }
    for (const auto &change : changes) {
        if (change.kind == "only_a")
            std::printf("- %s (%s) only in %s\n", change.hash.c_str(),
                        change.isa.c_str(), path_a.c_str());
        else if (change.kind == "only_b")
            std::printf("+ %s (%s) only in %s\n", change.hash.c_str(),
                        change.isa.c_str(), path_b.c_str());
        else
            std::printf("~ %s (%s): %s\n", change.hash.c_str(),
                        change.isa.c_str(), change.what.c_str());
    }
    if (changes.empty()) {
        std::printf("journals agree on every (window, isa)\n");
        return 0;
    }
    std::printf("%zu divergent window(s)\n", changes.size());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    std::string journal_path;
    std::string by = "time";
    int limit = 10;
    bool all = false;
    std::vector<std::string> positional;
    for (int a = 1; a < argc; ++a) {
        const std::string arg = argv[a];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--all") {
            all = true;
        } else if (arg == "--journal" && a + 1 < argc) {
            journal_path = argv[++a];
        } else if (arg.rfind("--by=", 0) == 0) {
            by = arg.substr(5);
        } else if (arg == "-n" && a + 1 < argc) {
            limit = std::atoi(argv[++a]);
        } else if (!arg.empty() && arg[0] == '-' && arg != "--all") {
            std::cerr << "hydride-inspect: unknown flag `" << arg
                      << "`\n";
            return usage();
        } else {
            positional.push_back(arg);
        }
    }
    if (positional.empty())
        return usage();
    const std::string command = positional[0];

    if (command == "diff") {
        if (positional.size() != 3)
            return usage();
        return cmdDiff(positional[1], positional[2], json);
    }
    if (journal_path.empty()) {
        std::cerr << "hydride-inspect: " << command
                  << " needs --journal <path>\n";
        return usage();
    }
    if (command == "explain") {
        if (!all && positional.size() != 2)
            return usage();
        return cmdExplain(journal_path,
                          all ? std::string() : positional[1], all, json);
    }
    if (command == "top")
        return cmdTop(journal_path, by, limit, json);
    if (command == "list")
        return cmdList(journal_path, json);
    return usage();
}
