#include "serve/result_store.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string_view>

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "common/log.hpp"
#include "trace/trace_sink.hpp"

namespace hpe::serve {

namespace {

/** The frame checksum: FNV-1a 64 over raw bytes. */
std::uint64_t
checksum(std::string_view bytes)
{
    trace::Fnv1a fnv(ResultStore::kHashBasis);
    fnv.fold(bytes);
    return fnv.value();
}

void
putU32(std::string &out, std::uint32_t v)
{
    for (unsigned i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

std::uint32_t
getU32(const char *p)
{
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    return v;
}

std::uint64_t
getU64(const char *p)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    return v;
}

/** Write all of @p data to @p fd; false on any error. */
bool
writeAll(int fd, const char *data, std::size_t size)
{
    std::size_t off = 0;
    while (off < size) {
        const ssize_t n = ::write(fd, data + off, size - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/** fsync the directory so renames/creates within it are durable. */
void
syncDir(const std::string &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
}

/** Parse "journal-<seq>.log"; nullopt for anything else. */
std::optional<std::uint64_t>
parseSegmentName(const std::string &name)
{
    constexpr const char *kPrefix = "journal-";
    constexpr const char *kSuffix = ".log";
    if (name.rfind(kPrefix, 0) != 0)
        return std::nullopt;
    const std::size_t prefixLen = std::strlen(kPrefix);
    const std::size_t suffixLen = std::strlen(kSuffix);
    if (name.size() <= prefixLen + suffixLen)
        return std::nullopt;
    if (name.compare(name.size() - suffixLen, suffixLen, kSuffix) != 0)
        return std::nullopt;
    const std::string digits =
        name.substr(prefixLen, name.size() - prefixLen - suffixLen);
    if (digits.find_first_not_of("0123456789") != std::string::npos)
        return std::nullopt;
    return std::strtoull(digits.c_str(), nullptr, 10);
}

} // namespace

ResultStore::ResultStore(const ResultStoreConfig &cfg) : cfg_(cfg) {}

ResultStore::~ResultStore() { close(); }

std::string
ResultStore::encodeFrame(const std::string &fingerprint,
                         const std::string &payload, std::uint8_t flags)
{
    // The frame header stores both lengths as u32: longer sections
    // would encode truncated lengths and replay as a torn frame,
    // discarding every frame after them.
    constexpr std::size_t kMaxSection =
        std::numeric_limits<std::uint32_t>::max();
    HPE_ASSERT(fingerprint.size() <= kMaxSection
                   && payload.size() <= kMaxSection,
               "frame section exceeds the u32 length field");
    std::string frame;
    frame.reserve(frameSize(fingerprint.size(), payload.size()));
    frame.append(kMagic, sizeof kMagic);
    frame.push_back(static_cast<char>(kVersion));
    frame.push_back(static_cast<char>(flags));
    frame.push_back('\0');
    frame.push_back('\0');
    putU32(frame, static_cast<std::uint32_t>(fingerprint.size()));
    putU32(frame, static_cast<std::uint32_t>(payload.size()));
    frame += fingerprint;
    frame += payload;
    putU64(frame, checksum(frame));
    return frame;
}

std::string
ResultStore::segmentPath(std::uint64_t seq) const
{
    return strformat("{}/journal-{}.log", cfg_.dir, seq);
}

bool
ResultStore::open(std::string &error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return openLocked(error);
}

bool
ResultStore::openLocked(std::string &error)
{
    HPE_ASSERT(!opened_, "result store opened twice");
    if (cfg_.dir.empty()) {
        error = "store directory is empty";
        return false;
    }
    if (::mkdir(cfg_.dir.c_str(), 0777) != 0 && errno != EEXIST) {
        error = strformat("mkdir('{}'): {}", cfg_.dir, std::strerror(errno));
        return false;
    }

    // Exclusive directory lock *before* the first read: replay
    // truncates torn tails and may compact, and doing either under a
    // live owner would destroy its journal.  Fail fast with the store
    // untouched instead.  (cfg_.lockDir false = the caller already
    // holds a lock covering this directory; see ShardedResultStore.)
    if (cfg_.lockDir) {
        const std::string lockPath = cfg_.dir + "/LOCK";
        lockFd_ = ::open(lockPath.c_str(), O_RDWR | O_CREAT | O_CLOEXEC,
                         0666);
        if (lockFd_ < 0) {
            error = strformat("open('{}'): {}", lockPath,
                              std::strerror(errno));
            return false;
        }
        if (::flock(lockFd_, LOCK_EX | LOCK_NB) != 0) {
            error = strformat("store directory '{}' is locked (is another "
                              "hpe_serve already serving this store?)",
                              cfg_.dir);
            ::close(lockFd_);
            lockFd_ = -1;
            return false;
        }
    }

    // Scan for existing segments, ascending sequence order.
    DIR *dir = ::opendir(cfg_.dir.c_str());
    if (dir == nullptr) {
        error = strformat("opendir('{}'): {}", cfg_.dir,
                          std::strerror(errno));
        return false;
    }
    segments_.clear();
    while (const dirent *entry = ::readdir(dir)) {
        if (const auto seq = parseSegmentName(entry->d_name);
            seq.has_value())
            segments_.push_back(*seq);
    }
    ::closedir(dir);
    std::sort(segments_.begin(), segments_.end());

    // Replay oldest-to-newest: later frames supersede earlier ones, so
    // replay order *is* the conflict-resolution order.
    for (const std::uint64_t seq : segments_)
        if (!replaySegment(segmentPath(seq), error))
            return false;

    // Surviving records in last-write order (oldest first): the cache
    // warm-start inserts in this order, so under capacity pressure the
    // most recently written results are the ones retained.
    recovered_.clear();
    recovered_.reserve(live_.size());
    for (const auto &[fp, entry] : live_)
        recovered_.push_back({fp, entry.payload, entry.failed});
    std::sort(recovered_.begin(), recovered_.end(),
              [this](const Record &a, const Record &b) {
                  return live_.at(a.fingerprint).lastWrite
                         < live_.at(b.fingerprint).lastWrite;
              });
    recoveredCount_ = recovered_.size();

    const std::uint64_t nextSeq =
        segments_.empty() ? 1 : segments_.back() + 1;
    if (!openActive(segments_.empty() ? nextSeq : segments_.back(), error))
        return false;
    opened_ = true;

    // A restart after heavy churn can leave mostly-dead segments;
    // compact before serving rather than carrying them forward.
    if (frames_ > 0
        && static_cast<double>(deadFrames_) / static_cast<double>(frames_)
               > ResultStoreConfig::kCompactDeadRatio)
        compactLocked();
    return true;
}

bool
ResultStore::openActive(std::uint64_t seq, std::string &error)
{
    const std::string path = segmentPath(seq);
    activeFd_ = ::open(path.c_str(),
                       O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0666);
    if (activeFd_ < 0) {
        error = strformat("open('{}'): {}", path, std::strerror(errno));
        return false;
    }
    struct stat st{};
    if (::fstat(activeFd_, &st) != 0) {
        error = strformat("fstat('{}'): {}", path, std::strerror(errno));
        ::close(activeFd_);
        activeFd_ = -1;
        return false;
    }
    activeSeq_ = seq;
    activeBytes_ = static_cast<std::size_t>(st.st_size);
    if (segments_.empty() || segments_.back() != seq)
        segments_.push_back(seq);
    return true;
}

bool
ResultStore::replaySegment(const std::string &path, std::string &error)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        error = strformat("open('{}'): {}", path, std::strerror(errno));
        return false;
    }
    std::string data;
    char chunk[1u << 16];
    for (;;) {
        const ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            error = strformat("read('{}'): {}", path, std::strerror(errno));
            ::close(fd);
            return false;
        }
        if (n == 0)
            break;
        data.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);

    std::size_t off = 0;
    while (off < data.size()) {
        const std::size_t remaining = data.size() - off;
        bool intact = remaining >= kHeaderBytes
                      && std::memcmp(data.data() + off, kMagic,
                                     sizeof kMagic) == 0
                      && static_cast<std::uint8_t>(data[off + 4]) == kVersion;
        std::size_t total = 0;
        if (intact) {
            const std::uint32_t fpLen = getU32(data.data() + off + 8);
            const std::uint32_t payLen = getU32(data.data() + off + 12);
            total = frameSize(fpLen, payLen);
            intact = remaining >= total
                     && getU64(data.data() + off + total - kChecksumBytes)
                            == checksum(std::string_view(data).substr(
                                off, total - kChecksumBytes));
        }
        if (!intact) {
            // Torn tail (or bit rot): keep the intact prefix, drop the
            // rest.  The journal is best-effort durability — a shorter
            // journal is a cold cache entry, not a failure to start.
            warn("result store: truncating '{}' at byte {} ({} trailing "
                 "bytes fail to verify)",
                 path, off, remaining);
            if (::truncate(path.c_str(), static_cast<off_t>(off)) != 0)
                warn("result store: truncate('{}'): {}", path,
                     std::strerror(errno));
            ++tornTruncations_;
            break;
        }
        const std::uint8_t flags = static_cast<std::uint8_t>(data[off + 5]);
        const std::uint32_t fpLen = getU32(data.data() + off + 8);
        const std::uint32_t payLen = getU32(data.data() + off + 12);
        std::string fingerprint(data, off + kHeaderBytes, fpLen);
        std::string payload(data, off + kHeaderBytes + fpLen, payLen);
        applyFrame(fingerprint, std::move(payload), flags);
        off += total;
    }
    return true;
}

void
ResultStore::applyFrame(const std::string &fingerprint, std::string payload,
                        std::uint8_t flags)
{
    ++frames_;
    auto it = live_.find(fingerprint);
    if ((flags & kFlagTombstone) != 0) {
        // The tombstone itself is dead weight, plus the write it kills.
        ++deadFrames_;
        if (it != live_.end()) {
            ++deadFrames_;
            live_.erase(it);
        }
        return;
    }
    if (it != live_.end()) {
        ++deadFrames_; // the superseded older write
        it->second.payload = std::move(payload);
        it->second.failed = (flags & kFlagFailed) != 0;
        it->second.lastWrite = ++writeSeq_;
        return;
    }
    live_.emplace(fingerprint,
                  LiveEntry{std::move(payload), (flags & kFlagFailed) != 0,
                            ++writeSeq_});
}

void
ResultStore::append(const std::string &fingerprint,
                    const std::string &payload, bool failed)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!opened_ || !healthy_)
        return;
    constexpr std::size_t kMaxSection =
        std::numeric_limits<std::uint32_t>::max();
    if (fingerprint.size() > kMaxSection || payload.size() > kMaxSection) {
        // A section longer than the u32 length field would journal a
        // frame that replays as torn and truncates everything after it.
        // Serve it memory-only instead.
        warn("result store: not journaling '{}' ({} payload bytes exceed "
             "the frame limit); the result is served but not durable",
             fingerprint.substr(0, 64), payload.size());
        return;
    }
    ++appends_;
    appendFrame(fingerprint, payload,
                failed ? kFlagFailed : std::uint8_t{0});
    applyFrame(fingerprint, payload, failed ? kFlagFailed : std::uint8_t{0});
    maybeRotateAndCompact();
}

void
ResultStore::appendTombstone(const std::string &fingerprint)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!opened_ || !healthy_)
        return;
    // No point journaling a delete for a fingerprint the journal does
    // not hold — it would be pure dead weight.
    if (!live_.contains(fingerprint))
        return;
    ++tombstones_;
    appendFrame(fingerprint, "", kFlagTombstone);
    applyFrame(fingerprint, "", kFlagTombstone);
    maybeRotateAndCompact();
}

void
ResultStore::appendFrame(const std::string &fingerprint,
                         const std::string &payload, std::uint8_t flags)
{
    const std::string frame = encodeFrame(fingerprint, payload, flags);
    if (!writeAll(activeFd_, frame.data(), frame.size())) {
        warn("result store: append to '{}' failed ({}); continuing "
             "memory-only",
             segmentPath(activeSeq_), std::strerror(errno));
        healthy_ = false;
        return;
    }
    if (cfg_.syncEveryAppend)
        ::fdatasync(activeFd_);
    activeBytes_ += frame.size();
}

void
ResultStore::maybeRotateAndCompact()
{
    if (activeBytes_ < cfg_.segmentBytes)
        return;
    if (frames_ > 0
        && static_cast<double>(deadFrames_) / static_cast<double>(frames_)
               > ResultStoreConfig::kCompactDeadRatio) {
        compactLocked();
        return;
    }
    ::close(activeFd_);
    std::string error;
    if (!openActive(activeSeq_ + 1, error)) {
        warn("result store: rotation failed ({}); continuing memory-only",
             error);
        healthy_ = false;
    }
}

void
ResultStore::compact()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (opened_ && healthy_)
        compactLocked();
}

void
ResultStore::compactLocked()
{
    // Write the live set (in last-write order, so a recovery of the
    // compacted segment preserves warm-start order) into a fresh
    // segment via tmp + fsync + rename: a crash mid-compaction leaves
    // either the old segments or the complete new one, never a half.
    const std::uint64_t newSeq = activeSeq_ + 1;
    const std::string finalPath = segmentPath(newSeq);
    const std::string tmpPath = finalPath + ".tmp";
    const int fd = ::open(tmpPath.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
    if (fd < 0) {
        warn("result store: compaction open('{}'): {}", tmpPath,
             std::strerror(errno));
        return;
    }

    std::vector<const std::pair<const std::string, LiveEntry> *> ordered;
    ordered.reserve(live_.size());
    for (const auto &kv : live_)
        ordered.push_back(&kv);
    std::sort(ordered.begin(), ordered.end(),
              [](const auto *a, const auto *b) {
                  return a->second.lastWrite < b->second.lastWrite;
              });

    std::size_t bytes = 0;
    for (const auto *kv : ordered) {
        const std::string frame = encodeFrame(
            kv->first, kv->second.payload,
            kv->second.failed ? kFlagFailed : std::uint8_t{0});
        if (!writeAll(fd, frame.data(), frame.size())) {
            warn("result store: compaction write failed ({}); keeping "
                 "existing segments",
                 std::strerror(errno));
            ::close(fd);
            ::unlink(tmpPath.c_str());
            return;
        }
        bytes += frame.size();
    }
    ::fsync(fd);
    ::close(fd);
    if (::rename(tmpPath.c_str(), finalPath.c_str()) != 0) {
        warn("result store: compaction rename('{}'): {}", finalPath,
             std::strerror(errno));
        ::unlink(tmpPath.c_str());
        return;
    }
    syncDir(cfg_.dir);

    // The compacted segment is now the journal; drop the superseded
    // ones (crash between rename and these unlinks is benign: replay
    // order makes the compacted segment's frames win).
    ::close(activeFd_);
    for (const std::uint64_t seq : segments_)
        if (seq != newSeq)
            ::unlink(segmentPath(seq).c_str());
    segments_.clear();

    std::string error;
    if (!openActive(newSeq, error)) {
        warn("result store: compaction reopen failed ({}); continuing "
             "memory-only",
             error);
        healthy_ = false;
        return;
    }
    activeBytes_ = bytes;
    frames_ = live_.size();
    deadFrames_ = 0;
    ++compactions_;
}

void
ResultStore::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    closeLocked();
}

void
ResultStore::closeLocked()
{
    if (activeFd_ >= 0) {
        ::fdatasync(activeFd_);
        ::close(activeFd_);
        activeFd_ = -1;
    }
    if (lockFd_ >= 0) {
        ::close(lockFd_); // releases the flock
        lockFd_ = -1;
    }
    opened_ = false;
}

void
ResultStore::releaseRecovered()
{
    std::lock_guard<std::mutex> lock(mutex_);
    recovered_.clear();
    recovered_.shrink_to_fit();
}

std::uint64_t
ResultStore::appendCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return appends_;
}

std::uint64_t
ResultStore::tombstoneCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return tombstones_;
}

std::uint64_t
ResultStore::recoveredCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return recoveredCount_;
}

std::uint64_t
ResultStore::tornTruncations() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return tornTruncations_;
}

std::uint64_t
ResultStore::compactions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return compactions_;
}

std::uint64_t
ResultStore::segmentCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return segments_.size();
}

std::uint64_t
ResultStore::liveCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return live_.size();
}

std::uint64_t
ResultStore::frameCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return frames_;
}

bool
ResultStore::healthy() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return healthy_;
}

} // namespace hpe::serve
