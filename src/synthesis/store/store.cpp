#include "synthesis/store/store.h"

#include "observability/journal/journal.h"
#include "observability/log.h"
#include "observability/metrics.h"
#include "support/faults.h"
#include "support/fsio.h"
#include "support/strings.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

namespace hydride {

namespace {

/** Pause between lock attempts. */
constexpr useconds_t kLockBackoffUs = 2000;

/** FNV-1a step used by the signature feature hash. */
uint64_t
mixFeature(uint64_t h, uint64_t value)
{
    return (h ^ value) * 0x100000001B3ull;
}

void
signatureWalk(const HExprPtr &expr, int counts[64])
{
    if (!expr)
        return;
    // Width-affecting immediates shape the solution (a shift-by-3
    // needs a different program than shift-by-8); constant *values*
    // and input indices do not shape the instruction sequence nearly
    // as much, so they stay out of the feature and similar windows
    // stay within a small Hamming distance.
    const bool imm_matters =
        expr->op == HOp::ShlC || expr->op == HOp::AShrC ||
        expr->op == HOp::LShrC || expr->op == HOp::ReduceAdd ||
        expr->op == HOp::Slice;
    uint64_t h = 0xCBF29CE484222325ull;
    h = mixFeature(h, static_cast<uint64_t>(expr->op));
    h = mixFeature(h, static_cast<uint64_t>(expr->elem_width));
    h = mixFeature(h, static_cast<uint64_t>(expr->lanes));
    h = mixFeature(h, imm_matters ? static_cast<uint64_t>(expr->imm) : 0u);
    h = mixFeature(h, expr->sign ? 1u : 2u);
    for (int b = 0; b < 64; ++b)
        counts[b] += ((h >> b) & 1) ? 1 : -1;
    for (const auto &kid : expr->kids)
        signatureWalk(kid, counts);
}

/** Parse "pid <pid> t <seconds>" lock-file content. */
bool
parseLockFile(const std::string &text, long &pid, long &when)
{
    std::istringstream in(text);
    std::string pid_tag;
    std::string time_tag;
    return (in >> pid_tag >> pid >> time_tag >> when) &&
           pid_tag == "pid" && time_tag == "t" && pid > 0;
}

bool
makeDir(const std::string &path)
{
    return ::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST;
}

std::string
readWholeFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
journalEvent(const char *kind,
             const std::vector<std::pair<std::string, std::string>> &strs,
             const std::vector<std::pair<std::string, double>> &nums)
{
    if (!journal::enabled())
        return;
    auto fields = bjson::Value::makeObject();
    for (const auto &[key, value] : strs)
        fields->set(key, bjson::Value::makeString(value));
    for (const auto &[key, value] : nums)
        fields->set(key, bjson::Value::makeNumber(value));
    journal::emitEvent(kind, fields);
}

} // namespace

uint64_t
windowSignature(const HExprPtr &window)
{
    int counts[64] = {0};
    signatureWalk(window, counts);
    uint64_t signature = 0;
    for (int b = 0; b < 64; ++b)
        if (counts[b] > 0)
            signature |= uint64_t(1) << b;
    return signature;
}

int
signatureDistance(uint64_t a, uint64_t b)
{
    return __builtin_popcountll(a ^ b);
}

std::string
SynthesisStore::shardPath(int shard) const
{
    return root_ + "/shards/" + format("%02x", shard) + ".log";
}

std::string
SynthesisStore::lockPath(const std::string &base) const
{
    // shards/00.log -> shards/00.lock; quarantine.log -> quarantine.lock
    if (endsWith(base, ".log"))
        return base.substr(0, base.size() - 4) + ".lock";
    return base + ".lock";
}

bool
SynthesisStore::acquireLock(const std::string &base, std::string &why)
{
    if (faults::shouldFail("store.lock")) {
        why = "injected store.lock fault";
        metrics::counter("store.lock.failures").add();
        return false;
    }
    const std::string lock = lockPath(base);
    for (int attempt = 0; attempt < options_.lock_attempts; ++attempt) {
        const int fd = fsio::openRetry(lock.c_str(),
                                       O_CREAT | O_EXCL | O_WRONLY, 0644);
        if (fd >= 0) {
            const std::string body =
                "pid " + std::to_string(static_cast<long>(::getpid())) +
                " t " + std::to_string(static_cast<long>(::time(nullptr))) +
                "\n";
            const bool wrote =
                fsio::writeFull(fd, body.data(), body.size()) &&
                fsio::fsyncRetry(fd);
            ::close(fd);
            if (wrote)
                return true;
            ::unlink(lock.c_str());
            why = "lock body write failed";
            metrics::counter("store.lock.failures").add();
            return false;
        }
        if (errno != EEXIST) {
            why = std::string("lock create failed: ") +
                  std::strerror(errno);
            metrics::counter("store.lock.failures").add();
            return false;
        }

        // Someone holds it. Dead-owner and age heuristics decide
        // between takeover and waiting.
        long pid = 0;
        long when = 0;
        bool stale = false;
        if (parseLockFile(readWholeFile(lock), pid, when)) {
            const bool owner_dead =
                ::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH;
            const bool too_old =
                ::time(nullptr) - when >
                static_cast<long>(options_.stale_lock_age_seconds);
            stale = owner_dead || too_old;
        } else {
            // Unreadable body: a writer between create and write, or
            // leftover damage. Age (mtime) breaks the tie.
            struct stat st{};
            stale = ::stat(lock.c_str(), &st) == 0 &&
                    ::time(nullptr) - st.st_mtime >
                        static_cast<long>(options_.stale_lock_age_seconds);
        }
        if (stale) {
            // Takeover: unlink and retry immediately. Two concurrent
            // takers race benignly — the loser's unlink misses or
            // removes a lock the winner already replaced and the
            // O_EXCL create rearbitrates.
            ::unlink(lock.c_str());
            ++lock_takeovers_;
            metrics::counter("store.lock.takeovers").add();
            HYD_LOG(Warn, format("store: took over stale lock `%s` "
                                 "(owner pid %ld)",
                                 lock.c_str(), pid));
            journalEvent("store_takeover", {{"lock", lock}},
                         {{"owner_pid", static_cast<double>(pid)}});
            continue;
        }
        ::usleep(kLockBackoffUs);
    }
    why = "lock wait exhausted";
    metrics::counter("store.lock.failures").add();
    return false;
}

void
SynthesisStore::releaseLock(const std::string &base)
{
    ::unlink(lockPath(base).c_str());
}

bool
SynthesisStore::writeMeta(uint64_t fingerprint, long epoch)
{
    std::ostringstream out;
    out << "hydride-store v1 " << fingerprint << " " << epoch << "\n";
    return fsio::writeFileAtomic(root_ + "/meta", out.str());
}

bool
SynthesisStore::appendDurable(const std::string &base_path,
                              const std::string &payload, std::string &why)
{
    if (options_.read_only) {
        why = "store is read-only";
        return false;
    }
    if (!acquireLock(base_path, why))
        return false;
    const int fd = fsio::openRetry(base_path.c_str(),
                                   O_CREAT | O_WRONLY | O_APPEND, 0644);
    if (fd < 0) {
        releaseLock(base_path);
        why = std::string("append open failed: ") + std::strerror(errno);
        return false;
    }
    if (faults::shouldFail("store.append")) {
        // The crash shape: half the record reaches the disk and the
        // writer "dies" holding its lock — the torn tail exercises
        // resync salvage, the leaked lock exercises takeover.
        (void)fsio::writeFull(fd, payload.data(), payload.size() / 2);
        ::close(fd);
        why = "injected store.append fault (torn record, leaked lock)";
        metrics::counter("store.append_failures").add();
        return false;
    }
    const bool wrote = fsio::writeFull(fd, payload.data(), payload.size()) &&
                       fsio::fsyncRetry(fd);
    ::close(fd);
    releaseLock(base_path);
    if (!wrote) {
        why = "append write/fsync failed";
        metrics::counter("store.append_failures").add();
        return false;
    }
    return true;
}

bool
SynthesisStore::loadQuarantine()
{
    std::ifstream in(root_ + "/quarantine.log");
    if (!in)
        return true; // Nothing quarantined yet.
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string tag;
        uint64_t hash = 0;
        std::string isa;
        if ((fields >> tag >> hash >> isa) && tag == "poison")
            poisoned_.insert({hash, isa});
    }
    return true;
}

bool
SynthesisStore::loadShards()
{
    for (int shard = 0; shard < options_.shards; ++shard) {
        std::ifstream in(shardPath(shard));
        if (!in)
            continue; // Shard never written.
        std::string line;
        bool in_record = false;
        uint64_t signature = 0;
        std::string body;    // "record ..." line + entry block.
        std::string block;   // The cachefmt entry block alone.

        auto abandon = [&](const char *what) {
            ++open_stats_.salvaged;
            metrics::counter("store.salvaged_records").add();
            HYD_LOG(Debug, format("store: shard %02x: skipped damaged "
                                  "record (%s)",
                                  shard, what));
            in_record = false;
        };

        while (std::getline(in, line)) {
            if (line.rfind("record ", 0) == 0) {
                if (in_record)
                    abandon("new header before checksum");
                std::istringstream hdr(line.substr(7));
                if (!(hdr >> signature)) {
                    abandon("bad header");
                    continue;
                }
                in_record = true;
                body = line + "\n";
                block.clear();
                continue;
            }
            if (!in_record) {
                // Torn tails and the writers' framing newlines leave
                // junk between records; resync at the next header.
                continue;
            }
            if (line.rfind("check ", 0) == 0) {
                in_record = false;
                uint64_t recorded = 0;
                std::istringstream chk(line.substr(6));
                if (!(chk >> recorded) ||
                    recorded != cachefmt::checksum(body) ||
                    faults::shouldFail("store.load")) {
                    abandon("checksum mismatch");
                    continue;
                }
                SynthesisCache::Key key;
                SynthesisResult result;
                if (!cachefmt::parseEntry(block, *dict_, key, result)) {
                    abandon("unparseable entry");
                    continue;
                }
                if (poisoned_.count(key)) {
                    ++open_stats_.poisoned_skipped;
                    continue;
                }
                StoredEntry &entry = entries_[key];
                entry.result = std::move(result);
                entry.signature = signature;
                continue;
            }
            body += line + "\n";
            block += line + "\n";
        }
        if (in_record)
            abandon("truncated final record");
    }
    open_stats_.records = entries_.size();
    metrics::counter("store.records_loaded").add(entries_.size());
    return true;
}

bool
SynthesisStore::open(const std::string &root, const AutoLLVMDict &dict,
                     Options options)
{
    open_ = false;
    root_ = root;
    dict_ = &dict;
    options_ = options;
    if (options_.shards < 1)
        options_.shards = 1;
    if (options_.shards > 256)
        options_.shards = 256;
    open_stats_ = OpenStats{};
    entries_.clear();
    poisoned_.clear();

    const uint64_t fingerprint = cachefmt::dictFingerprint(dict);
    const std::string meta_path = root_ + "/meta";
    std::string magic;
    std::string version;
    uint64_t found_fp = 0;
    long found_epoch = 0;
    bool have_meta = false;
    {
        std::ifstream meta(meta_path);
        std::string header;
        if (meta && std::getline(meta, header)) {
            std::istringstream hdr(header);
            have_meta = static_cast<bool>(hdr >> magic >> version >>
                                          found_fp >> found_epoch);
        }
    }

    const bool compatible = have_meta && magic == "hydride-store" &&
                            version == "v1" && found_fp == fingerprint;
    if (have_meta && !compatible) {
        // Never half-load an incompatible store: rename the whole tree
        // aside (bumping the epoch for the replacement), or refuse
        // outright when read-only.
        if (options_.read_only) {
            open_stats_.error =
                "incompatible store (dictionary fingerprint mismatch)";
            return false;
        }
        const std::string dest =
            root_ + ".quarantined." + std::to_string(found_fp) + "." +
            std::to_string(static_cast<long>(::getpid()));
        if (!fsio::renameRetry(root_, dest)) {
            open_stats_.error = "cannot quarantine incompatible store";
            return false;
        }
        open_stats_.incompatible_quarantined = true;
        metrics::counter("store.incompatible_quarantined").add();
        HYD_LOG(Warn, format("store: quarantined incompatible store to "
                             "`%s`",
                             dest.c_str()));
        journalEvent("store_quarantined_incompatible",
                     {{"root", root_}, {"moved_to", dest}},
                     {{"found_fingerprint",
                       static_cast<double>(found_fp)}});
        have_meta = false;
        found_epoch = found_epoch > 0 ? found_epoch : 0;
    }

    if (!have_meta || !compatible) {
        if (options_.read_only) {
            open_stats_.error = "store does not exist (read-only open)";
            return false;
        }
        if (!makeDir(root_) || !makeDir(root_ + "/shards")) {
            open_stats_.error =
                std::string("cannot create store directories: ") +
                std::strerror(errno);
            return false;
        }
        open_stats_.epoch =
            open_stats_.incompatible_quarantined ? found_epoch + 1 : 1;
        if (!writeMeta(fingerprint, open_stats_.epoch)) {
            open_stats_.error = "cannot publish store meta";
            return false;
        }
        open_stats_.initialized = true;
    } else {
        open_stats_.epoch = found_epoch;
    }

    loadQuarantine();
    loadShards();
    open_ = true;
    open_stats_.ok = true;
    metrics::counter("store.opens").add();
    journalEvent("store_open", {{"root", root_}},
                 {{"records", static_cast<double>(open_stats_.records)},
                  {"salvaged", static_cast<double>(open_stats_.salvaged)},
                  {"epoch", static_cast<double>(open_stats_.epoch)},
                  {"initialized", open_stats_.initialized ? 1.0 : 0.0}});
    return true;
}

bool
SynthesisStore::refresh()
{
    if (!open_)
        return false;
    const AutoLLVMDict &dict = *dict_;
    Options options = options_;
    return open(root_, dict, options);
}

const SynthesisResult *
SynthesisStore::find(const HExprPtr &window, const std::string &isa) const
{
    if (!open_)
        return nullptr;
    const SynthesisCache::Key key{HExpr::hashOf(window), isa};
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second.result;
}

std::vector<SynthesisStore::Neighbor>
SynthesisStore::nearest(const HExprPtr &window, const std::string &isa,
                        int max_distance, size_t limit) const
{
    std::vector<Neighbor> matches;
    if (!open_)
        return matches;
    const uint64_t target = windowSignature(window);
    const uint64_t exact_hash = HExpr::hashOf(window);
    for (const auto &[key, entry] : entries_) {
        if (key.second != isa || key.first == exact_hash ||
            !entry.result.ok) {
            continue;
        }
        const int distance = signatureDistance(target, entry.signature);
        if (distance > max_distance)
            continue;
        matches.push_back({key, entry.signature, distance, &entry.result});
    }
    std::sort(matches.begin(), matches.end(),
              [](const Neighbor &a, const Neighbor &b) {
                  return a.distance != b.distance
                             ? a.distance < b.distance
                             : a.key < b.key;
              });
    if (matches.size() > limit)
        matches.resize(limit);
    return matches;
}

bool
SynthesisStore::append(const HExprPtr &window, const std::string &isa,
                       const SynthesisResult &result)
{
    if (!open_ || options_.read_only)
        return false;
    const SynthesisCache::Key key{HExpr::hashOf(window), isa};
    if (poisoned_.count(key))
        return false; // Never resurrect a quarantined key.
    if (entries_.count(key))
        return true; // Already durable (ours or another worker's).

    const uint64_t signature = windowSignature(window);
    std::ostringstream record;
    record << "record " << signature << "\n"
           << cachefmt::serializeEntry(key, result);
    const std::string body = record.str();
    // The leading newline re-frames the stream after any torn tail a
    // crashed writer left: this record still starts on a fresh line.
    const std::string payload =
        "\n" + body + "check " + std::to_string(cachefmt::checksum(body)) +
        "\n";

    const int shard = static_cast<int>(
        key.first & static_cast<uint64_t>(options_.shards - 1));
    std::string why;
    if (!appendDurable(shardPath(shard), payload, why)) {
        HYD_LOG(Warn, format("store: append to shard %02x failed: %s",
                             shard, why.c_str()));
        return false;
    }
    StoredEntry &entry = entries_[key];
    entry.result = result;
    entry.signature = signature;
    metrics::counter("store.appends").add();
    return true;
}

bool
SynthesisStore::quarantine(const HExprPtr &window, const std::string &isa,
                           const std::string &reason)
{
    if (!open_)
        return false;
    const SynthesisCache::Key key{HExpr::hashOf(window), isa};
    entries_.erase(key);
    poisoned_.insert(key);
    ++session_quarantined_;
    metrics::counter("store.poisoned").add();
    HYD_LOG(Warn, format("store: quarantined poisoned entry %016llx/%s: %s",
                         static_cast<unsigned long long>(key.first),
                         isa.c_str(), reason.c_str()));
    journalEvent("store_poisoned",
                 {{"hash", journal::hashHex(key.first)},
                  {"isa", isa},
                  {"reason", reason}},
                 {});

    std::ostringstream line;
    line << "\npoison " << key.first << " " << isa << " " << reason << "\n";
    std::string why;
    if (!appendDurable(root_ + "/quarantine.log", line.str(), why)) {
        // The in-memory demotion already protects this process; the
        // tombstone not landing only means a future process re-runs
        // the verification and demotes again.
        HYD_LOG(Warn,
                format("store: quarantine tombstone not durable: %s",
                       why.c_str()));
        return false;
    }
    return true;
}

} // namespace hydride
