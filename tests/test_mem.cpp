/**
 * @file
 * Unit tests for the mem module: set-associative array, data caches,
 * FR-FCFS DRAM, page table, and frame allocator.  The single-probe fill
 * paths and the DRAM request ring are each checked against the code they
 * replaced: find() then insert(), and a std::deque request queue.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "common/event_queue.hpp"
#include "common/small_function.hpp"
#include "common/stats.hpp"
#include "mem/data_cache.hpp"
#include "mem/dram.hpp"
#include "mem/page_table.hpp"
#include "mem/set_assoc.hpp"

namespace hpe {
namespace {

TEST(SetAssoc, InsertAndFind)
{
    SetAssocArray<int> arr(16, 4);
    arr.insert(0x10).data = 7;
    auto *e = arr.find(0x10);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->data, 7);
}

TEST(SetAssoc, MissReturnsNull)
{
    SetAssocArray<int> arr(16, 4);
    EXPECT_EQ(arr.find(0x99), nullptr);
}

TEST(SetAssoc, LruEvictionWithinSet)
{
    // 8 entries, 4 ways -> 2 sets; even keys map to set 0.
    SetAssocArray<int> arr(8, 4);
    for (std::uint64_t k = 0; k < 8; k += 2)
        arr.insert(k); // fills set 0: keys 0,2,4,6
    arr.find(0);       // refresh key 0
    SetAssocArray<int>::Entry victim;
    arr.insert(8, &victim); // set 0 overflows
    EXPECT_EQ(victim.tag, 2u); // LRU among {2,4,6}
    EXPECT_EQ(arr.probe(0) != nullptr, true);
    EXPECT_EQ(arr.probe(2), nullptr);
}

TEST(SetAssoc, ConflictEvictionsCounted)
{
    SetAssocArray<int> arr(4, 2); // 2 sets
    arr.insert(0);
    arr.insert(2);
    arr.insert(4); // evicts in set 0
    EXPECT_EQ(arr.conflictEvictions(), 1u);
}

TEST(SetAssoc, EraseRemoves)
{
    SetAssocArray<int> arr(16, 4);
    arr.insert(5);
    EXPECT_TRUE(arr.erase(5));
    EXPECT_FALSE(arr.erase(5));
    EXPECT_EQ(arr.probe(5), nullptr);
}

TEST(SetAssoc, ClearEmptiesEverything)
{
    SetAssocArray<int> arr(16, 4);
    arr.insert(1);
    arr.insert(2);
    arr.clear();
    EXPECT_EQ(arr.occupancy(), 0u);
}

TEST(SetAssoc, NonPowerOfTwoSetCount)
{
    // 12 sets (like the 1.5 MB L2): modulo indexing must still work.
    SetAssocArray<int> arr(96, 8);
    for (std::uint64_t k = 0; k < 96; ++k)
        arr.insert(k * 12 + 5); // all map to set 5
    EXPECT_EQ(arr.occupancy(), 8u);
}

TEST(SetAssoc, ForEachVisitsValidOnly)
{
    SetAssocArray<int> arr(16, 4);
    arr.insert(1);
    arr.insert(9);
    int n = 0;
    arr.forEach([&](auto &) { ++n; });
    EXPECT_EQ(n, 2);
}

/**
 * Drive one array through findOrInsert()/insertIfAbsent() and a twin
 * through find()/probe() then insert(), on random keys that hit, miss,
 * and straddle 2^32 (where the set index switches to the hardware `%`).
 * Every outcome, victim and final (tag, stamp, payload) must agree.
 */
void
expectFillPathsMatchFindThenInsert(std::size_t entries, std::size_t ways)
{
    SetAssocArray<int> fused(entries, ways);
    SetAssocArray<int> twin(entries, ways);
    std::mt19937_64 rng(entries * 31 + ways);
    const std::uint64_t spread = 3 * entries;
    const auto randomKey = [&]() -> std::uint64_t {
        switch (rng() % 4) {
        case 0:
            return rng() % spread;
        case 1:
            return (std::uint64_t{1} << 32) - 8 + rng() % 16;
        case 2:
            return (std::uint64_t{1} << 40) + rng() % spread;
        default:
            return (std::uint64_t{1} << 52) | (rng() % spread);
        }
    };
    using Entry = SetAssocArray<int>::Entry;
    for (int op = 0; op < 40000; ++op) {
        const std::uint64_t key = randomKey();
        ASSERT_EQ(fused.setIndex(key), key % fused.numSets());
        switch (rng() % 4) {
        case 0:
        case 1: {
            Entry got_victim, want_victim;
            const auto [got, got_hit] = fused.findOrInsert(key, &got_victim);
            Entry *want = twin.find(key);
            const bool want_hit = want != nullptr;
            if (!want_hit)
                want = &twin.insert(key, &want_victim);
            ASSERT_EQ(got_hit, want_hit) << "key " << key;
            ASSERT_EQ(got->data, want->data);
            ASSERT_EQ(std::tie(got_victim.valid, got_victim.tag, got_victim.data),
                      std::tie(want_victim.valid, want_victim.tag, want_victim.data));
            got->data = want->data = op;
            break;
        }
        case 2:
            fused.insertIfAbsent(key);
            if (twin.probe(key) == nullptr)
                twin.insert(key);
            break;
        default:
            ASSERT_EQ(fused.erase(key), twin.erase(key));
        }
    }
    std::vector<std::tuple<std::uint64_t, std::uint64_t, int>> got, want;
    fused.forEach([&](const Entry &e) { got.emplace_back(e.tag, e.lastUse, e.data); });
    twin.forEach([&](const Entry &e) { want.emplace_back(e.tag, e.lastUse, e.data); });
    EXPECT_EQ(got, want);
    EXPECT_EQ(fused.conflictEvictions(), twin.conflictEvictions());
    EXPECT_GT(fused.conflictEvictions(), 0u);
}

TEST(SetAssocDifferential, FillPathsMatchFindThenInsert)
{
    expectFillPathsMatchFindThenInsert(128, 128);    // one set: way index
    expectFillPathsMatchFindThenInsert(512, 16);     // 32 sets: mask
    expectFillPathsMatchFindThenInsert(1536 * 8, 8); // the L2D: 1,536 sets
}

TEST(DataCache, HitAfterFill)
{
    StatRegistry stats;
    DataCache cache({.sizeBytes = 1024, .ways = 4, .lineBytes = 64,
                     .hitLatency = 1},
                    stats, "c");
    EXPECT_FALSE(cache.access(0x100));
    EXPECT_TRUE(cache.access(0x100));
    EXPECT_TRUE(cache.access(0x13f)); // same 64 B line as 0x100
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(DataCache, DistinctLinesMiss)
{
    StatRegistry stats;
    DataCache cache({.sizeBytes = 1024, .ways = 4, .lineBytes = 64,
                     .hitLatency = 1},
                    stats, "c");
    cache.access(0x000);
    EXPECT_FALSE(cache.access(0x040));
}

TEST(DataCache, InvalidatePageDropsItsLines)
{
    StatRegistry stats;
    DataCache cache({.sizeBytes = 64 * 1024, .ways = 4, .lineBytes = 128,
                     .hitLatency = 1},
                    stats, "c");
    const Addr in_page = addrOf(3) + 256;
    const Addr other = addrOf(7);
    cache.access(in_page);
    cache.access(other);
    cache.invalidatePage(3);
    EXPECT_FALSE(cache.access(in_page));
    EXPECT_TRUE(cache.access(other));
}

TEST(PageTable, MapLookupUnmap)
{
    PageTable pt;
    EXPECT_FALSE(pt.resident(4));
    pt.map(4, 9);
    EXPECT_TRUE(pt.resident(4));
    EXPECT_EQ(pt.lookup(4), 9u);
    EXPECT_EQ(pt.unmap(4), 9u);
    EXPECT_EQ(pt.lookup(4), kInvalidId);
}

TEST(PageTable, SizeTracksMappings)
{
    PageTable pt;
    pt.map(1, 1);
    pt.map(2, 2);
    EXPECT_EQ(pt.size(), 2u);
    pt.unmap(1);
    EXPECT_EQ(pt.size(), 1u);
}

TEST(FrameAllocator, AllocatesAllFramesOnce)
{
    FrameAllocator alloc(4);
    std::vector<FrameId> frames;
    for (int i = 0; i < 4; ++i)
        frames.push_back(alloc.allocate());
    EXPECT_TRUE(alloc.full());
    std::sort(frames.begin(), frames.end());
    EXPECT_EQ(frames, (std::vector<FrameId>{0, 1, 2, 3}));
}

TEST(FrameAllocator, ReleaseMakesFrameAvailable)
{
    FrameAllocator alloc(1);
    const FrameId f = alloc.allocate();
    EXPECT_TRUE(alloc.full());
    alloc.release(f);
    EXPECT_FALSE(alloc.full());
    EXPECT_EQ(alloc.allocate(), f);
}

TEST(FrameAllocator, AscendingFirstHandout)
{
    FrameAllocator alloc(3);
    EXPECT_EQ(alloc.allocate(), 0u);
    EXPECT_EQ(alloc.allocate(), 1u);
}

class DramTest : public ::testing::Test
{
  protected:
    DramTest() : dram_(cfg_, eq_, stats_, "dram") {}

    DramConfig cfg_{.channels = 2,
                    .banksPerChannel = 2,
                    .rowBytes = 1024,
                    .lineBytes = 128,
                    .rowHitLatency = 10,
                    .rowMissLatency = 50,
                    .burstCycles = 4};
    EventQueue eq_;
    StatRegistry stats_;
    Dram dram_;
};

TEST_F(DramTest, SingleReadCompletes)
{
    bool done = false;
    dram_.read(0, [&] { done = true; });
    eq_.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(eq_.now(), cfg_.rowMissLatency + cfg_.burstCycles);
}

TEST_F(DramTest, RowHitIsFaster)
{
    Cycle first = 0, second = 0;
    dram_.read(0, [&] { first = eq_.now(); });
    eq_.run();
    dram_.read(64, [&] { second = eq_.now(); }); // same row
    eq_.run();
    EXPECT_EQ(second - first, cfg_.rowHitLatency + cfg_.burstCycles);
    EXPECT_EQ(dram_.rowHits(), 1u);
    EXPECT_EQ(dram_.rowMisses(), 1u);
}

TEST_F(DramTest, FrFcfsPrefersRowHitOverOlder)
{
    // Address layout: channel = (addr/128)%2, bank = (addr/1024)%2,
    // row = addr/1024/2.  Use channel-0 addresses only (line index even).
    const Addr row0 = 0;         // ch0, bank0, row0
    const Addr row1 = 4096;      // ch0, bank0, row1
    const Addr row0_b = 256;     // ch0, bank0, row0 (second line)
    std::vector<int> order;
    dram_.read(row0, [&] { order.push_back(0); });
    // Queue while busy: an older row-miss request and a younger row-hit.
    dram_.read(row1, [&] { order.push_back(1); });
    dram_.read(row0_b, [&] { order.push_back(2); });
    eq_.run();
    // FR-FCFS services the row0 hit (younger) before the row1 miss.
    EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST_F(DramTest, ChannelsServiceInParallel)
{
    Cycle a = 0, b = 0;
    dram_.read(0, [&] { a = eq_.now(); });   // channel 0
    dram_.read(128, [&] { b = eq_.now(); }); // channel 1
    eq_.run();
    EXPECT_EQ(a, b); // independent channels, same completion cycle
}

TEST_F(DramTest, IdleReflectsState)
{
    EXPECT_TRUE(dram_.idle());
    dram_.read(0, [] {});
    EXPECT_FALSE(dram_.idle());
    eq_.run();
    EXPECT_TRUE(dram_.idle());
}

/** The FR-FCFS DRAM as it was before its request ring: a std::deque queue. */
class DequeDram
{
  public:
    using Callback = SmallFunction<32>;

    DequeDram(const DramConfig &cfg, EventQueue &eq, StatRegistry &stats,
              const std::string &name)
        : cfg_(cfg), eq_(eq),
          rowHits_(stats.counter(name + ".rowHits")),
          rowMisses_(stats.counter(name + ".rowMisses")),
          channels_(cfg.channels)
    {
        for (auto &ch : channels_)
            ch.openRow.assign(cfg_.banksPerChannel, kInvalidId);
    }

    void
    read(Addr addr, Callback done)
    {
        const std::size_t chan = (addr / cfg_.lineBytes) % cfg_.channels;
        Channel &ch = channels_[chan];
        ch.queue.push_back(Request{addr, (addr / cfg_.rowBytes) % cfg_.banksPerChannel,
                                   addr / cfg_.rowBytes / cfg_.banksPerChannel,
                                   std::move(done), true});
        if (!ch.busy)
            serviceNext(chan);
    }

    std::uint64_t rowHits() const { return rowHits_.value(); }
    std::uint64_t rowMisses() const { return rowMisses_.value(); }

  private:
    struct Request
    {
        Addr addr;
        std::size_t bank;
        std::uint64_t row;
        Callback done;
        bool live;
    };

    struct Channel
    {
        std::deque<Request> queue;
        std::vector<std::uint64_t> openRow;
        bool busy = false;
    };

    void
    serviceNext(std::size_t chan_idx)
    {
        Channel &ch = channels_[chan_idx];
        while (!ch.queue.empty() && !ch.queue.front().live)
            ch.queue.pop_front();
        if (ch.queue.empty())
            return;
        std::size_t pick = 0;
        bool hit = false;
        for (std::size_t i = 0; i < ch.queue.size(); ++i) {
            const Request &r = ch.queue[i];
            if (r.live && ch.openRow[r.bank] == r.row) {
                pick = i;
                hit = true;
                break;
            }
        }
        Request req = std::move(ch.queue[pick]);
        if (pick == 0)
            ch.queue.pop_front();
        else
            ch.queue[pick].live = false;

        Cycle latency = cfg_.burstCycles + (hit ? cfg_.rowHitLatency : cfg_.rowMissLatency);
        if (hit)
            ++rowHits_;
        else
            ++rowMisses_;
        ch.openRow[req.bank] = req.row;
        ch.busy = true;
        eq_.scheduleIn(latency, [this, chan_idx, done = std::move(req.done)]() {
            done();
            Channel &c = channels_[chan_idx];
            c.busy = false;
            serviceNext(chan_idx);
        });
    }

    DramConfig cfg_;
    EventQueue &eq_;
    Counter &rowHits_;
    Counter &rowMisses_;
    std::vector<Channel> channels_;
};

/** (read id, completion cycle) in completion order, then row hits and misses. */
using DramLog = std::pair<std::vector<std::pair<std::size_t, Cycle>>,
                          std::pair<std::uint64_t, std::uint64_t>>;

template <typename Model>
DramLog
replayReads(const DramConfig &cfg, const std::vector<std::pair<Cycle, Addr>> &reads)
{
    EventQueue eq;
    StatRegistry stats;
    Model dram(cfg, eq, stats, "dram");
    DramLog log;
    auto &done = log.first;
    for (std::size_t i = 0; i < reads.size(); ++i)
        eq.schedule(reads[i].first, [&, i] {
            dram.read(reads[i].second, [&done, &eq, i] { done.emplace_back(i, eq.now()); });
        });
    eq.run();
    log.second = {dram.rowHits(), dram.rowMisses()};
    return log;
}

TEST(DramDifferential, RingMatchesDequePickOrder)
{
    // Bursts of up to 96 reads within four cycles, mostly to one channel,
    // queue far past the ring's first 16 slots (growth); the gaps drain
    // it, so later bursts wrap around.  Forty hot lines per channel make
    // row hits pick out of FIFO order (tombstones), and some addresses
    // sit above 2^32 lines (the channel count's `%` fallback).
    const DramConfig configs[] = {
        DramConfig{.channels = 2, .banksPerChannel = 2, .rowBytes = 1024,
                   .lineBytes = 128, .rowHitLatency = 10, .rowMissLatency = 50,
                   .burstCycles = 4},
        DramConfig{},
    };
    for (const DramConfig &cfg : configs) {
        std::mt19937_64 rng(cfg.channels);
        std::vector<std::pair<Cycle, Addr>> reads;
        Cycle when = 0;
        for (int burst = 0; burst < 60; ++burst) {
            const std::size_t n = 1 + rng() % 96;
            const Addr channel = rng() % cfg.channels;
            for (std::size_t i = 0; i < n; ++i) {
                const Addr line = (rng() % 40) * cfg.channels
                    + (rng() % 4 == 0 ? rng() % cfg.channels : channel);
                Addr addr = line * cfg.lineBytes;
                if (rng() % 8 == 0)
                    addr |= Addr{1} << 52;
                reads.emplace_back(when + rng() % 4, addr);
            }
            when += 200 + rng() % 4000;
        }
        const DramLog ring = replayReads<Dram>(cfg, reads);
        const DramLog deque = replayReads<DequeDram>(cfg, reads);
        ASSERT_EQ(ring.first.size(), reads.size());
        EXPECT_EQ(ring, deque) << cfg.channels << " channels";
        EXPECT_GT(ring.second.first, reads.size() / 10) << "too few row hits";
    }
}

} // namespace
} // namespace hpe
