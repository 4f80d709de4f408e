/**
 * @file
 * Tests for the ResultStore write-ahead journal: append/recover round
 * trips, supersede and tombstone semantics, segment rotation,
 * compaction, degradation to memory-only on append failure, and the
 * crash-recovery property the kill-9 proof rests on — a journal
 * truncated at *any* byte offset (the randomized torn-tail property)
 * recovers exactly the records whose frames are intact and truncates
 * the tear instead of refusing to start.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "serve/result_store.hpp"

namespace hpe::serve {
namespace {

namespace fs = std::filesystem;

/** A fresh store directory under the test temp dir, wiped up front. */
fs::path
freshDir(const std::string &name)
{
    const fs::path dir = fs::path(::testing::TempDir()) / ("store_" + name);
    fs::remove_all(dir);
    return dir;
}

ResultStoreConfig
config(const fs::path &dir)
{
    ResultStoreConfig cfg;
    cfg.dir = dir.string();
    return cfg;
}

/** Journal segment files in @p dir, sorted by name (= sequence). */
std::vector<fs::path>
segmentFiles(const fs::path &dir)
{
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().filename().string().rfind("journal-", 0) == 0)
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    return files;
}

TEST(ResultStore, AppendsRecoverAcrossReopenInLastWriteOrder)
{
    const fs::path dir = freshDir("roundtrip");
    {
        ResultStore store(config(dir));
        std::string error;
        ASSERT_TRUE(store.open(error)) << error;
        EXPECT_EQ(store.recoveredCount(), 0u);
        store.append("fp-a", "payload-a", false);
        store.append("fp-b", "payload-b", true);
        store.append("fp-c", "payload-c", false);
        EXPECT_EQ(store.appendCount(), 3u);
        EXPECT_EQ(store.liveCount(), 3u);
        EXPECT_TRUE(store.healthy());
    }
    ResultStore store(config(dir));
    std::string error;
    ASSERT_TRUE(store.open(error)) << error;
    const auto &records = store.recovered();
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].fingerprint, "fp-a");
    EXPECT_EQ(records[0].payload, "payload-a");
    EXPECT_FALSE(records[0].failed);
    EXPECT_EQ(records[1].fingerprint, "fp-b");
    EXPECT_TRUE(records[1].failed);
    EXPECT_EQ(records[2].fingerprint, "fp-c");
    EXPECT_EQ(store.tornTruncations(), 0u);
}

TEST(ResultStore, LatestWriteOfAFingerprintWins)
{
    const fs::path dir = freshDir("supersede");
    {
        ResultStore store(config(dir));
        std::string error;
        ASSERT_TRUE(store.open(error)) << error;
        store.append("fp", "stale", false);
        store.append("other", "other-payload", false);
        store.append("fp", "fresh", false);
        EXPECT_EQ(store.liveCount(), 2u);
        EXPECT_EQ(store.frameCount(), 3u);
    }
    ResultStore store(config(dir));
    std::string error;
    ASSERT_TRUE(store.open(error)) << error;
    const auto &records = store.recovered();
    ASSERT_EQ(records.size(), 2u);
    // "fp" was rewritten after "other", so it recovers last, fresh.
    EXPECT_EQ(records[0].fingerprint, "other");
    EXPECT_EQ(records[1].fingerprint, "fp");
    EXPECT_EQ(records[1].payload, "fresh");
}

TEST(ResultStore, TombstoneDeletesAcrossReopen)
{
    const fs::path dir = freshDir("tombstone");
    {
        ResultStore store(config(dir));
        std::string error;
        ASSERT_TRUE(store.open(error)) << error;
        store.append("keep", "kept", false);
        store.append("drop", "dropped", false);
        store.appendTombstone("drop");
        EXPECT_EQ(store.liveCount(), 1u);
        EXPECT_EQ(store.tombstoneCount(), 1u);
    }
    ResultStore store(config(dir));
    std::string error;
    ASSERT_TRUE(store.open(error)) << error;
    ASSERT_EQ(store.recovered().size(), 1u);
    EXPECT_EQ(store.recovered()[0].fingerprint, "keep");
}

TEST(ResultStore, TombstoneForUnknownFingerprintWritesNoFrame)
{
    const fs::path dir = freshDir("tombstone_unknown");
    ResultStore store(config(dir));
    std::string error;
    ASSERT_TRUE(store.open(error)) << error;
    store.append("fp", "payload", false);
    const std::uint64_t frames = store.frameCount();
    // A tombstone for a fingerprint the journal does not hold would be
    // pure dead weight; it is suppressed.
    store.appendTombstone("never-written");
    EXPECT_EQ(store.frameCount(), frames);
    EXPECT_EQ(store.tombstoneCount(), 0u);
}

TEST(ResultStore, RotatesSegmentsAtThresholdAndRecoversAll)
{
    const fs::path dir = freshDir("rotate");
    ResultStoreConfig cfg = config(dir);
    cfg.segmentBytes = 256; // a few frames per segment
    cfg.compactDeadRatio = 2.0; // never auto-compact: pure rotation
    {
        ResultStore store(cfg);
        std::string error;
        ASSERT_TRUE(store.open(error)) << error;
        for (int i = 0; i < 32; ++i)
            store.append("fp-" + std::to_string(i),
                         "payload-" + std::to_string(i), false);
        EXPECT_GT(store.segmentCount(), 1u);
    }
    EXPECT_GT(segmentFiles(dir).size(), 1u);
    ResultStore store(cfg);
    std::string error;
    ASSERT_TRUE(store.open(error)) << error;
    ASSERT_EQ(store.recovered().size(), 32u);
    EXPECT_EQ(store.recovered()[0].fingerprint, "fp-0");
    EXPECT_EQ(store.recovered()[31].fingerprint, "fp-31");
}

TEST(ResultStore, CompactionDropsDeadFramesAndPreservesTheLiveSet)
{
    const fs::path dir = freshDir("compact");
    ResultStoreConfig cfg = config(dir);
    cfg.compactDeadRatio = 2.0; // compact only when asked
    {
        ResultStore store(cfg);
        std::string error;
        ASSERT_TRUE(store.open(error)) << error;
        for (int round = 0; round < 8; ++round)
            for (int i = 0; i < 4; ++i)
                store.append("fp-" + std::to_string(i),
                             "round-" + std::to_string(round), false);
        store.append("doomed", "doomed-payload", false);
        store.appendTombstone("doomed");
        EXPECT_EQ(store.frameCount(), 34u);
        EXPECT_EQ(store.liveCount(), 4u);

        store.compact();
        EXPECT_EQ(store.compactions(), 1u);
        EXPECT_EQ(store.frameCount(), 4u);
        EXPECT_EQ(store.liveCount(), 4u);
        EXPECT_EQ(store.segmentCount(), 1u);
    }
    EXPECT_EQ(segmentFiles(dir).size(), 1u);
    ResultStore store(cfg);
    std::string error;
    ASSERT_TRUE(store.open(error)) << error;
    ASSERT_EQ(store.recovered().size(), 4u);
    for (const auto &record : store.recovered())
        EXPECT_EQ(record.payload, "round-7");
}

TEST(ResultStore, AppendsKeepWorkingAfterCompaction)
{
    const fs::path dir = freshDir("compact_append");
    ResultStore store(config(dir));
    std::string error;
    ASSERT_TRUE(store.open(error)) << error;
    store.append("a", "1", false);
    store.append("a", "2", false);
    store.compact();
    store.append("b", "3", false);
    store.close();

    ResultStore reopened(config(dir));
    ASSERT_TRUE(reopened.open(error)) << error;
    ASSERT_EQ(reopened.recovered().size(), 2u);
    EXPECT_EQ(reopened.recovered()[0].fingerprint, "a");
    EXPECT_EQ(reopened.recovered()[0].payload, "2");
    EXPECT_EQ(reopened.recovered()[1].fingerprint, "b");
}

TEST(ResultStore, OpenFailsCleanlyWhenDirectoryCannotBeCreated)
{
    ResultStoreConfig cfg;
    cfg.dir = "/nonexistent-root/nested/store";
    ResultStore store(cfg);
    std::string error;
    EXPECT_FALSE(store.open(error));
    EXPECT_FALSE(error.empty());
}

TEST(ResultStore, AppendFailureDegradesToMemoryOnlyNotACrash)
{
    const fs::path dir = freshDir("degrade");
    ResultStore store(config(dir));
    std::string error;
    ASSERT_TRUE(store.open(error)) << error;
    store.append("before", "payload", false);
    EXPECT_TRUE(store.healthy());
    // Yank the directory out from under the store; the open fd keeps
    // plain appends working, so force rotation to a path that now
    // cannot be created.
    fs::remove_all(dir);
    ResultStoreConfig tiny = config(dir);
    // (fresh store whose directory vanishes before the first append)
    fs::remove_all(dir);
    ResultStore gone(tiny);
    // Not opened: appends are no-ops, never a crash.
    gone.append("fp", "payload", false);
    gone.appendTombstone("fp");
    gone.compact();
    EXPECT_EQ(gone.appendCount(), 0u);
}

TEST(ResultStore, SecondOpenOnALockedDirectoryFailsWithTheStoreUntouched)
{
    const fs::path dir = freshDir("lock");
    ResultStore owner(config(dir));
    std::string error;
    ASSERT_TRUE(owner.open(error)) << error;
    owner.append("fp", "payload", false);

    // The loser must fail before reading a byte: no torn-tail
    // truncation of the owner's active segment, no compaction.
    ResultStore intruder(config(dir));
    std::string intruderError;
    EXPECT_FALSE(intruder.open(intruderError));
    EXPECT_NE(intruderError.find("locked"), std::string::npos)
        << intruderError;
    EXPECT_EQ(intruder.recoveredCount(), 0u);

    owner.append("fp-2", "payload-2", false);
    owner.close();

    // close() released the flock; the journal held both appends.
    ResultStore reopened(config(dir));
    ASSERT_TRUE(reopened.open(error)) << error;
    EXPECT_EQ(reopened.recovered().size(), 2u);
    EXPECT_EQ(reopened.tornTruncations(), 0u);
}

TEST(ResultStore, ReleaseRecoveredDropsTheSnapshotButKeepsTheCount)
{
    const fs::path dir = freshDir("release");
    {
        ResultStore store(config(dir));
        std::string error;
        ASSERT_TRUE(store.open(error)) << error;
        store.append("a", "1", false);
        store.append("b", "2", false);
    }
    ResultStore store(config(dir));
    std::string error;
    ASSERT_TRUE(store.open(error)) << error;
    ASSERT_EQ(store.recovered().size(), 2u);
    store.releaseRecovered();
    EXPECT_TRUE(store.recovered().empty());
    EXPECT_EQ(store.recoveredCount(), 2u);
    // The store keeps journaling normally after the release.
    store.append("c", "3", false);
    EXPECT_EQ(store.liveCount(), 3u);
    EXPECT_TRUE(store.healthy());
}

// ------------------------------------------------- crash recovery proof

/** The frames of a reference journal, in append order. */
struct Frame
{
    std::string fingerprint;
    std::string payload;
    std::size_t size; // on-disk bytes
};

TEST(ResultStore, TornTailIsTruncatedAtEveryRandomizedOffset)
{
    // Property: for a journal of K intact frames truncated at ANY byte
    // offset, recovery yields exactly the frames wholly before the cut,
    // reports a torn truncation iff the cut is not on a frame boundary,
    // and leaves the file truncated to the last intact boundary.
    std::vector<Frame> frames;
    for (int i = 0; i < 6; ++i) {
        Frame f;
        f.fingerprint = "fp-" + std::to_string(i);
        f.payload = "payload-" + std::to_string(i * 37) + "-"
                    + std::string(static_cast<std::size_t>(i * 11), 'x');
        f.size = ResultStore::frameSize(f.fingerprint.size(),
                                        f.payload.size());
        frames.push_back(std::move(f));
    }

    std::mt19937_64 rng(20260807);
    for (int trial = 0; trial < 40; ++trial) {
        const fs::path dir = freshDir("torn_" + std::to_string(trial));
        {
            ResultStore store(config(dir));
            std::string error;
            ASSERT_TRUE(store.open(error)) << error;
            for (const Frame &f : frames)
                store.append(f.fingerprint, f.payload, false);
        }
        const auto files = segmentFiles(dir);
        ASSERT_EQ(files.size(), 1u);
        const std::uintmax_t fullSize = fs::file_size(files[0]);

        // Cut anywhere in (0, fullSize]; fullSize itself = no tear.
        const std::uintmax_t cut = 1 + rng() % fullSize;
        fs::resize_file(files[0], cut);

        // How many frames survive the cut, and where is the last
        // intact frame boundary?
        std::size_t intact = 0;
        std::uintmax_t boundary = 0;
        while (intact < frames.size()
               && boundary + frames[intact].size <= cut)
            boundary += frames[intact++].size;

        ResultStore store(config(dir));
        std::string error;
        ASSERT_TRUE(store.open(error)) << error; // a tear never refuses
        ASSERT_EQ(store.recovered().size(), intact) << "cut=" << cut;
        for (std::size_t i = 0; i < intact; ++i) {
            EXPECT_EQ(store.recovered()[i].fingerprint,
                      frames[i].fingerprint);
            EXPECT_EQ(store.recovered()[i].payload, frames[i].payload);
        }
        const bool torn = cut != boundary;
        EXPECT_EQ(store.tornTruncations(), torn ? 1u : 0u)
            << "cut=" << cut << " boundary=" << boundary;
        // The tear is gone from disk: the file ends at the boundary.
        EXPECT_EQ(fs::file_size(files[0]), boundary) << "cut=" << cut;
    }
}

TEST(ResultStore, CorruptedMidFrameTruncatesFromTheCorruptionOn)
{
    const fs::path dir = freshDir("corrupt");
    {
        ResultStore store(config(dir));
        std::string error;
        ASSERT_TRUE(store.open(error)) << error;
        store.append("first", "first-payload", false);
        store.append("second", "second-payload", false);
        store.append("third", "third-payload", false);
    }
    const auto files = segmentFiles(dir);
    ASSERT_EQ(files.size(), 1u);
    // Flip one payload byte inside the second frame: its checksum fails,
    // and replay must stop there — the third (intact) frame is after the
    // corruption and is dropped with it, never trusted blindly.
    const std::size_t first =
        ResultStore::frameSize(std::string("first").size(),
                               std::string("first-payload").size());
    std::fstream file(files[0],
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>(first
                                           + ResultStore::kHeaderBytes + 8));
    file.put('X');
    file.close();

    ResultStore store(config(dir));
    std::string error;
    ASSERT_TRUE(store.open(error)) << error;
    ASSERT_EQ(store.recovered().size(), 1u);
    EXPECT_EQ(store.recovered()[0].fingerprint, "first");
    EXPECT_EQ(store.tornTruncations(), 1u);
}

TEST(ResultStore, EncodeFrameMatchesTheDocumentedLayout)
{
    const std::string frame = ResultStore::encodeFrame("fp", "payload", 0);
    ASSERT_EQ(frame.size(), ResultStore::frameSize(2, 7));
    EXPECT_EQ(frame[0], 'H');
    EXPECT_EQ(frame[1], 'P');
    EXPECT_EQ(frame[2], 'E');
    EXPECT_EQ(frame[3], 'J');
    EXPECT_EQ(static_cast<std::uint8_t>(frame[4]), ResultStore::kVersion);
    // Little-endian section lengths at offsets 8 and 12.
    EXPECT_EQ(static_cast<std::uint8_t>(frame[8]), 2);
    EXPECT_EQ(static_cast<std::uint8_t>(frame[12]), 7);
    EXPECT_EQ(frame.substr(ResultStore::kHeaderBytes, 2), "fp");
    EXPECT_EQ(frame.substr(ResultStore::kHeaderBytes + 2, 7), "payload");
    // The little-endian FNV-1a checksum of everything before it.  Its
    // basis is part of the on-disk format: different bytes here would
    // fail every existing frame, and recovery would empty the store.
    std::uint64_t checksum = 0;
    for (std::size_t i = 0; i < ResultStore::kChecksumBytes; ++i)
        checksum |= std::uint64_t{static_cast<std::uint8_t>(
                        frame[frame.size() - ResultStore::kChecksumBytes + i])}
                    << (8 * i);
    EXPECT_EQ(checksum, 0xae6f18395433f440ULL);
}

} // namespace
} // namespace hpe::serve
