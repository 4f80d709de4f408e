/**
 * @file
 * Durable, crash-recoverable backing store for the hpe_serve result
 * cache: an append-only write-ahead journal of completed experiment
 * results.
 *
 * The store owns a directory of journal segments
 * (`journal-<seq>.log`).  Every completed computation appends one
 * framed record — (fingerprint, canonical result JSON payload, failed
 * flag) — protected by a trailing FNV-1a checksum; every cache
 * eviction appends a tombstone frame for the evicted fingerprint.
 * Frames are written with a single write(2), so a SIGKILL can tear at
 * most the frame in flight, never a committed one.
 *
 * Recovery (open()) replays the segments in sequence order, applying
 * supersede (latest write of a fingerprint wins) and tombstone
 * (latest write is a delete) semantics, and hands back the surviving
 * records in last-write order so the daemon can warm-start its
 * in-memory cache before the socket binds.  A frame that fails to
 * verify — torn tail after a crash, or bit rot — *truncates* the
 * segment at the last intact frame boundary instead of refusing to
 * start: durability degrades to "everything up to the tear", never to
 * "nothing".
 *
 * Segments rotate at a size threshold, and compaction rewrites the
 * live set into one fresh segment (tmp + fsync + rename, so a crash
 * mid-compaction leaves either the old segments or the complete new
 * one) and deletes the superseded ones.  All methods are thread-safe;
 * an append failure (disk full, directory removed) degrades the store
 * to memory-only with a warning rather than killing the daemon.
 *
 * open() takes an exclusive flock(2) on `<dir>/LOCK` before reading a
 * byte, so a second process pointed at the same directory fails fast
 * instead of misreading the owner's in-flight append as a torn tail
 * and truncating (or compacting away) a live journal.
 */

#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace hpe::serve {

/** Store configuration (defaults match `hpe_sim serve`'s). */
struct ResultStoreConfig
{
    /** Journal directory; created (one level) when missing. */
    std::string dir;
    /** Rotate the active segment once it exceeds this many bytes. */
    std::size_t segmentBytes = 4u << 20;
    /** fdatasync(2) after every append.  A plain write(2) already
     *  survives SIGKILL (the bytes are the kernel's); syncing buys
     *  power-loss durability at a per-record latency cost. */
    bool syncEveryAppend = false;
    /** Compact when dead frames (superseded + tombstoned) exceed this
     *  fraction of all frames, checked at rotation and open(). */
    static constexpr double kCompactDeadRatio = 0.5;
    /** Take the exclusive flock on `<dir>/LOCK` at open().  Disabled
     *  only by ShardedResultStore when it migrates a legacy
     *  single-store journal out of a root directory whose lock it
     *  already holds — never by a store with an independent owner. */
    bool lockDir = true;
};

/** Append-only journal of experiment results; see file comment. */
class ResultStore
{
  public:
    /** One live (fingerprint, result) pair surviving recovery. */
    struct Record
    {
        std::string fingerprint;
        std::string payload;
        bool failed = false;
    };

    explicit ResultStore(const ResultStoreConfig &cfg);
    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /**
     * Create/scan the directory, replay every segment (truncating torn
     * tails), open the active segment for appending, and compact first
     * if the dead ratio warrants it.  @return false with @p error
     * filled when the directory cannot be created or a segment cannot
     * be opened; checksum failures are never an error.
     */
    bool open(std::string &error);

    /** Flush and close the active segment (idempotent). */
    void close();

    /** The live records recovery produced, in last-write order
     *  (oldest first) — the cache warm-start order.  Empty after
     *  releaseRecovered(). */
    const std::vector<Record> &recovered() const { return recovered_; }

    /** Drop the recovery snapshot once the cache has been seeded — the
     *  payloads otherwise stay resident for the daemon's lifetime on
     *  top of live_'s and the cache's copies.  recoveredCount() keeps
     *  reporting how many records recovery produced. */
    void releaseRecovered();

    /** Append one completed result; called on computation completion. */
    void append(const std::string &fingerprint, const std::string &payload,
                bool failed);

    /** Append a delete marker; called when the cache evicts an entry. */
    void appendTombstone(const std::string &fingerprint);

    /** Rewrite the live set into one fresh segment and delete the old
     *  ones.  Normally triggered automatically at rotation. */
    void compact();

    /** @{ Observability counters (monotonic since construction unless
     *  noted). */
    std::uint64_t appendCount() const;
    std::uint64_t tombstoneCount() const;
    std::uint64_t recoveredCount() const;
    std::uint64_t tornTruncations() const;
    std::uint64_t compactions() const;
    /** Segment files currently on disk. */
    std::uint64_t segmentCount() const;
    /** Fingerprints currently live (not superseded or tombstoned). */
    std::uint64_t liveCount() const;
    /** Frames in all segments, dead ones included. */
    std::uint64_t frameCount() const;
    /** False once an append failed and the store went memory-only. */
    bool healthy() const;
    /** @} */

    /** @{ Frame-format constants, shared with the tests. */
    static constexpr char kMagic[4] = {'H', 'P', 'E', 'J'};
    static constexpr std::uint8_t kVersion = 1;
    static constexpr std::uint8_t kFlagFailed = 1u << 0;
    static constexpr std::uint8_t kFlagTombstone = 1u << 1;
    /** Bytes of the fixed header preceding the variable sections. */
    static constexpr std::size_t kHeaderBytes = 16;
    /** Bytes of the trailing checksum. */
    static constexpr std::size_t kChecksumBytes = 8;
    /**
     * FNV-1a basis of the frame checksum and of shard routing.  It is one
     * digit short of the standard basis (trace::Fnv1a::kOffsetBasis), and
     * it is part of the on-disk format: with any other basis every
     * existing frame would fail its checksum and recovery would truncate
     * it.
     */
    static constexpr std::uint64_t kHashBasis = 1469598103934665603ULL;

    /** Total on-disk bytes of a frame with these section lengths. */
    static constexpr std::size_t
    frameSize(std::size_t fingerprintLen, std::size_t payloadLen)
    {
        return kHeaderBytes + fingerprintLen + payloadLen + kChecksumBytes;
    }

    /** Serialize one frame (appended verbatim by append()). */
    static std::string encodeFrame(const std::string &fingerprint,
                                   const std::string &payload,
                                   std::uint8_t flags);
    /** @} */

  private:
    struct LiveEntry
    {
        std::string payload;
        bool failed = false;
        /** Write sequence of the latest write (orders recovered()). */
        std::uint64_t lastWrite = 0;
    };

    bool openLocked(std::string &error);
    void closeLocked();
    /** Replay one segment; truncate at the first bad frame. */
    bool replaySegment(const std::string &path, std::string &error);
    /** Open (creating) the segment with sequence @p seq for append. */
    bool openActive(std::uint64_t seq, std::string &error);
    void appendFrame(const std::string &fingerprint,
                     const std::string &payload, std::uint8_t flags);
    void applyFrame(const std::string &fingerprint, std::string payload,
                    std::uint8_t flags);
    void maybeRotateAndCompact();
    void compactLocked();
    std::string segmentPath(std::uint64_t seq) const;

    const ResultStoreConfig cfg_;

    mutable std::mutex mutex_;
    bool opened_ = false;
    bool healthy_ = true;
    /** Holds the exclusive flock on `<dir>/LOCK` while open. */
    int lockFd_ = -1;
    int activeFd_ = -1;
    std::uint64_t activeSeq_ = 0;
    std::size_t activeBytes_ = 0;
    /** Sequence numbers of every segment on disk, ascending. */
    std::vector<std::uint64_t> segments_;

    std::unordered_map<std::string, LiveEntry> live_;
    std::uint64_t writeSeq_ = 0;
    std::uint64_t frames_ = 0;
    std::uint64_t deadFrames_ = 0;

    std::vector<Record> recovered_;
    /** recovered_.size() at open(); survives releaseRecovered(). */
    std::uint64_t recoveredCount_ = 0;

    std::uint64_t appends_ = 0;
    std::uint64_t tombstones_ = 0;
    std::uint64_t tornTruncations_ = 0;
    std::uint64_t compactions_ = 0;
};

} // namespace hpe::serve
