#include "serve/sharded_store.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string_view>
#include <unordered_map>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/log.hpp"
#include "trace/trace_sink.hpp"

namespace hpe::serve {

namespace fs = std::filesystem;

namespace {

/** Parse "shard-<index>" (strict decimal); nullopt otherwise. */
std::optional<unsigned>
parseShardDirName(const std::string &name)
{
    constexpr std::string_view prefix = "shard-";
    if (name.size() <= prefix.size() || name.rfind(prefix, 0) != 0)
        return std::nullopt;
    unsigned index = 0;
    for (std::size_t i = prefix.size(); i < name.size(); ++i) {
        const char c = name[i];
        if (c < '0' || c > '9')
            return std::nullopt;
        if (index > 100'000'000)
            return std::nullopt;
        index = index * 10 + static_cast<unsigned>(c - '0');
    }
    return index;
}

bool
isJournalSegmentName(const std::string &name)
{
    return name.rfind("journal-", 0) == 0 && name.size() > 12
           && name.compare(name.size() - 4, 4, ".log") == 0;
}

} // namespace

ShardedResultStore::ShardedResultStore(const ResultStoreConfig &cfg,
                                       unsigned shards)
    : cfg_(cfg), shardCount_(std::max(shards, 1u))
{}

ShardedResultStore::~ShardedResultStore()
{
    close();
}

unsigned
ShardedResultStore::shardOf(const std::string &fingerprint, unsigned shards)
{
    // FNV-1a over the fingerprint text.  The fingerprint is itself a
    // hash, but of different bytes — hashing again keeps the routing
    // independent of how fingerprints are spelled.
    trace::Fnv1a fnv(ResultStore::kHashBasis);
    fnv.fold(fingerprint);
    return static_cast<unsigned>(fnv.value() % std::max(shards, 1u));
}

std::string
ShardedResultStore::shardDir(unsigned index) const
{
    return strformat("{}/shard-{}", cfg_.dir, index);
}

bool
ShardedResultStore::open(std::string &error)
{
    HPE_ASSERT(!opened_, "sharded result store opened twice");
    if (cfg_.dir.empty()) {
        error = "store directory is empty";
        return false;
    }
    if (::mkdir(cfg_.dir.c_str(), 0777) != 0 && errno != EEXIST) {
        error = strformat("mkdir('{}'): {}", cfg_.dir, std::strerror(errno));
        return false;
    }

    // The root lock is the same `<dir>/LOCK` a legacy single-store
    // daemon takes, so sharded and unsharded incarnations pointed at
    // one root exclude each other exactly like two unsharded ones do.
    const std::string lockPath = cfg_.dir + "/LOCK";
    rootLockFd_ = ::open(lockPath.c_str(), O_RDWR | O_CREAT | O_CLOEXEC,
                         0666);
    if (rootLockFd_ < 0) {
        error = strformat("open('{}'): {}", lockPath, std::strerror(errno));
        return false;
    }
    if (::flock(rootLockFd_, LOCK_EX | LOCK_NB) != 0) {
        error = strformat("store directory '{}' is locked (is another "
                          "hpe_serve already serving this store?)",
                          cfg_.dir);
        ::close(rootLockFd_);
        rootLockFd_ = -1;
        return false;
    }

    // Scan the root once: current shard dirs, orphans from a larger
    // previous --shards count, and bare legacy segments.
    std::vector<std::string> orphanDirs;
    bool legacyJournal = false;
    {
        std::error_code ec;
        for (const auto &entry : fs::directory_iterator(cfg_.dir, ec)) {
            const std::string name = entry.path().filename().string();
            if (const auto index = parseShardDirName(name);
                index.has_value() && *index >= shardCount_)
                orphanDirs.push_back(entry.path().string());
            else if (isJournalSegmentName(name))
                legacyJournal = true;
        }
        if (ec) {
            error = strformat("scan('{}'): {}", cfg_.dir, ec.message());
            close();
            return false;
        }
    }

    // Open the current shards first — they are the migration targets.
    shards_.reserve(shardCount_);
    for (unsigned i = 0; i < shardCount_; ++i) {
        ResultStoreConfig sub = cfg_;
        sub.dir = shardDir(i);
        sub.lockDir = true;
        shards_.push_back(std::make_unique<ResultStore>(sub));
        if (!shards_.back()->open(error)) {
            close();
            return false;
        }
    }

    // Drain strays into the shards that own their fingerprints now.
    // Re-append before the source is touched and delete the source
    // last, so a crash anywhere in between redoes the migration
    // instead of losing frames (re-appends supersede harmlessly).
    std::vector<ResultStore::Record> migrants;
    for (const std::string &dir : orphanDirs) {
        if (!migrateDir(dir, /*lockDir=*/true, migrants, error)) {
            close();
            return false;
        }
        std::error_code ec;
        fs::remove_all(dir, ec);
        if (ec)
            warn("hpe_serve store: cannot remove migrated '{}': {}", dir,
                 ec.message());
    }
    if (legacyJournal) {
        // The legacy store locks the same `<dir>/LOCK` we already
        // hold, so it opens lock-free under our lock.
        if (!migrateDir(cfg_.dir, /*lockDir=*/false, migrants, error)) {
            close();
            return false;
        }
        std::error_code ec;
        for (const auto &entry : fs::directory_iterator(cfg_.dir, ec))
            if (isJournalSegmentName(entry.path().filename().string()))
                fs::remove(entry.path(), ec);
    }

    // Records already resident in a current shard but owned by another
    // one (the --shards count changed): re-home, then tombstone the
    // stale copy so the next replay sees exactly one home per record.
    for (unsigned i = 0; i < shardCount_; ++i) {
        for (const ResultStore::Record &rec : shards_[i]->recovered()) {
            const unsigned owner = shardOf(rec.fingerprint, shardCount_);
            if (owner == i)
                continue;
            shards_[owner]->append(rec.fingerprint, rec.payload, rec.failed);
            shards_[i]->appendTombstone(rec.fingerprint);
            ++migrated_;
        }
    }

    // The warm-start union: every shard's snapshot (re-homed records
    // included — they still live in the source snapshot) plus the
    // drained strays, one record per fingerprint.
    std::unordered_map<std::string, bool> seen;
    recovered_.clear();
    for (const auto &shard : shards_)
        for (const ResultStore::Record &rec : shard->recovered())
            if (seen.emplace(rec.fingerprint, true).second)
                recovered_.push_back(rec);
    for (ResultStore::Record &rec : migrants)
        if (seen.emplace(rec.fingerprint, true).second)
            recovered_.push_back(std::move(rec));
    recoveredCount_ = recovered_.size();
    for (const auto &shard : shards_)
        shard->releaseRecovered();

    opened_ = true;
    return true;
}

bool
ShardedResultStore::migrateDir(const std::string &dir, bool lockDir,
                               std::vector<ResultStore::Record> &migrants,
                               std::string &error)
{
    ResultStoreConfig sub = cfg_;
    sub.dir = dir;
    sub.lockDir = lockDir;
    ResultStore source(sub);
    if (!source.open(error))
        return false;
    for (const ResultStore::Record &rec : source.recovered()) {
        shards_[shardOf(rec.fingerprint, shardCount_)]->append(
            rec.fingerprint, rec.payload, rec.failed);
        migrants.push_back(rec);
        ++migrated_;
    }
    source.close();
    return true;
}

void
ShardedResultStore::close()
{
    for (const auto &shard : shards_)
        if (shard != nullptr)
            shard->close();
    if (rootLockFd_ >= 0) {
        ::close(rootLockFd_); // releases the root flock
        rootLockFd_ = -1;
    }
    opened_ = false;
}

void
ShardedResultStore::releaseRecovered()
{
    recovered_.clear();
    recovered_.shrink_to_fit();
}

void
ShardedResultStore::append(const std::string &fingerprint,
                           const std::string &payload, bool failed)
{
    // No wrapper lock: the shard vector is immutable after open(), and
    // each shard serializes its own appends.  After close() the shard
    // itself turns the append into a no-op.
    if (shards_.empty())
        return;
    shards_[shardOf(fingerprint, shardCount_)]->append(fingerprint, payload,
                                                       failed);
}

void
ShardedResultStore::appendTombstone(const std::string &fingerprint)
{
    if (shards_.empty())
        return;
    shards_[shardOf(fingerprint, shardCount_)]->appendTombstone(fingerprint);
}

std::uint64_t
ShardedResultStore::appendCount() const
{
    std::uint64_t sum = 0;
    for (const auto &shard : shards_)
        sum += shard->appendCount();
    return sum;
}

std::uint64_t
ShardedResultStore::tombstoneCount() const
{
    std::uint64_t sum = 0;
    for (const auto &shard : shards_)
        sum += shard->tombstoneCount();
    return sum;
}

std::uint64_t
ShardedResultStore::tornTruncations() const
{
    std::uint64_t sum = 0;
    for (const auto &shard : shards_)
        sum += shard->tornTruncations();
    return sum;
}

std::uint64_t
ShardedResultStore::compactions() const
{
    std::uint64_t sum = 0;
    for (const auto &shard : shards_)
        sum += shard->compactions();
    return sum;
}

std::uint64_t
ShardedResultStore::segmentCount() const
{
    std::uint64_t sum = 0;
    for (const auto &shard : shards_)
        sum += shard->segmentCount();
    return sum;
}

std::uint64_t
ShardedResultStore::liveCount() const
{
    std::uint64_t sum = 0;
    for (const auto &shard : shards_)
        sum += shard->liveCount();
    return sum;
}

bool
ShardedResultStore::healthy() const
{
    for (const auto &shard : shards_)
        if (!shard->healthy())
            return false;
    return true;
}

} // namespace hpe::serve
