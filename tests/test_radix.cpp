/**
 * @file
 * Tests for the multi-level translation substrate: the page table's
 * per-region page counts (and the DenseRegionCounter behind them), the
 * four-level radix view the walker reads from them, the page walk cache,
 * the multi-level walker, and their integration with the UVM manager and
 * the timing simulator.
 *
 * MultiLevelWalkerDifferential replays random map/unmap/walk sequences
 * against reference::TreeWalker, a copy of the pruned radix tree and the
 * walk the walker made over it before it read the page table's region
 * counts, and requires identical hits, frames and latencies.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "driver/uvm_manager.hpp"
#include "gpu/gpu_system.hpp"
#include "mem/page_index.hpp"
#include "mem/page_table.hpp"
#include "mem/set_assoc.hpp"
#include "policy/lru.hpp"
#include "sim/experiment.hpp"
#include "tlb/multi_level_walker.hpp"
#include "workload/apps.hpp"

namespace hpe {
namespace {

namespace reference {

/**
 * The pruned four-level radix tree (9 bits per level) the multi-level
 * walker used to read, kept as it was with its geometry fixed at the
 * defaults every caller used.  Do not "improve" it: its value is that it
 * is the old code.
 */
class RadixTree
{
  public:
    static constexpr unsigned kLevels = 4;
    static constexpr unsigned kBitsPerLevel = 9;

    RadixTree() : root_(std::make_unique<Node>()) {}

    /** Index of @p page within its level-@p level node. */
    std::uint32_t
    indexAt(PageId page, unsigned level) const
    {
        const unsigned shift = kBitsPerLevel * (level - 1);
        return static_cast<std::uint32_t>((page >> shift)
                                          & ((1u << kBitsPerLevel) - 1));
    }

    /**
     * The page-number prefix identifying the level-@p level node that a
     * walk for @p page traverses (usable as a walk-cache tag).
     */
    PageId
    prefixAt(PageId page, unsigned level) const
    {
        return page >> (kBitsPerLevel * (level - 1));
    }

    /** Install a mapping, allocating interior nodes as needed. */
    void
    map(PageId page, FrameId frame)
    {
        Node *node = root_.get();
        for (unsigned level = kLevels; level >= 2; --level) {
            ++node->population;
            auto &child = node->children[indexAt(page, level)];
            if (!child) {
                child = std::make_unique<Node>();
                ++nodeCount_;
            }
            node = child.get();
        }
        const auto [it, inserted] = node->leaves.emplace(indexAt(page, 1), frame);
        (void)it;
        HPE_ASSERT(inserted, "double map of page {:#x}", page);
        ++node->population;
        ++size_;
    }

    /** Remove a mapping, pruning emptied interior nodes. */
    FrameId
    unmap(PageId page)
    {
        FrameId frame = kInvalidId;
        prune(*root_, page, kLevels, frame);
        HPE_ASSERT(frame != kInvalidId, "unmap of non-resident page {:#x}", page);
        --size_;
        return frame;
    }

    /**
     * Walk the tree for @p page invoking @p visit(level) top-down for
     * every level the walker actually touches (it stops at the first
     * absent entry, like real hardware).
     * @return the frame, or kInvalidId on a fault.
     */
    template <typename Fn>
    FrameId
    walk(PageId page, Fn &&visit) const
    {
        const Node *node = root_.get();
        for (unsigned level = kLevels; level >= 2; --level) {
            visit(level);
            auto it = node->children.find(indexAt(page, level));
            if (it == node->children.end())
                return kInvalidId;
            node = it->second.get();
        }
        visit(1u);
        auto it = node->leaves.find(indexAt(page, 1));
        return it == node->leaves.end() ? kInvalidId : it->second;
    }

    std::size_t size() const { return size_; }

    /** Interior nodes currently allocated (excluding the root). */
    std::size_t nodeCount() const { return nodeCount_; }

  private:
    struct Node
    {
        std::unordered_map<std::uint32_t, std::unique_ptr<Node>> children;
        std::unordered_map<std::uint32_t, FrameId> leaves;
        /** Mappings reachable through this node (for pruning). */
        std::size_t population = 0;
    };

    /** Recursive unmap with empty-node pruning. */
    void
    prune(Node &node, PageId page, unsigned level, FrameId &frame)
    {
        if (level == 1) {
            auto it = node.leaves.find(indexAt(page, 1));
            if (it == node.leaves.end())
                return;
            frame = it->second;
            node.leaves.erase(it);
            --node.population;
            return;
        }
        auto it = node.children.find(indexAt(page, level));
        if (it == node.children.end())
            return;
        prune(*it->second, page, level - 1, frame);
        if (frame == kInvalidId)
            return;
        --node.population;
        if (it->second->population == 0) {
            node.children.erase(it);
            --nodeCount_;
        }
    }

    std::unique_ptr<Node> root_;
    std::size_t size_ = 0;
    std::size_t nodeCount_ = 0;
};

/** The multi-level walker's walk over RadixTree, as it was. */
class TreeWalker
{
  public:
    explicit TreeWalker(const RadixTree &table)
        : table_(table), pwc_(64, 8)
    {}

    WalkResult
    walk(PageId page)
    {
        Cycle latency = 0;
        const FrameId frame = table_.walk(page, [&](unsigned level) {
            if (level >= 2) {
                const std::uint64_t key = pwcKey(page, level);
                if (pwc_.findOrInsert(key).second) {
                    latency += 1;
                    return;
                }
            }
            latency += 40;
        });
        return WalkResult{.hit = frame != kInvalidId, .frame = frame,
                          .latency = latency};
    }

  private:
    std::uint64_t
    pwcKey(PageId page, unsigned level) const
    {
        // Level in the top bits, node prefix below: distinct per level.
        return (static_cast<std::uint64_t>(level) << 56)
            | table_.prefixAt(page, level);
    }

    const RadixTree &table_;
    SetAssocArray<std::monostate> pwc_;
};

} // namespace reference

/** The region orders of the walker's nodes below the root: L3, L2, L1. */
constexpr unsigned kNodeOrders[] = {27, 18, 9};

/** A page table armed with the walker's node orders. */
PageTable
radixArmedTable()
{
    PageTable pt;
    for (unsigned order : kNodeOrders)
        pt.trackRegions(order);
    return pt;
}

/** Interior radix nodes implied by @p pt: nonempty regions per order. */
std::size_t
nodeCount(const PageTable &pt)
{
    std::size_t nodes = 0;
    for (const DenseRegionCounter &counter : pt.regionCounters())
        nodes += counter.size();
    return nodes;
}

// ------------------------------------------------------ DenseRegionCounter

TEST(DenseRegionCounter, CountsPerRegionAndErasesAtZero)
{
    DenseRegionCounter counter(4); // 16-page regions
    EXPECT_EQ(counter.increment(0), 1u);
    EXPECT_EQ(counter.increment(15), 2u);
    EXPECT_EQ(counter.increment(16), 1u);
    EXPECT_EQ(counter.count(7), 2u);
    EXPECT_EQ(counter.count(31), 1u);
    EXPECT_EQ(counter.count(32), 0u);
    EXPECT_EQ(counter.size(), 2u);

    EXPECT_EQ(counter.decrement(16), 0u);
    EXPECT_EQ(counter.size(), 1u); // an empty region keeps no entry
    EXPECT_EQ(counter.decrement(0), 1u);
    std::vector<std::pair<PageId, std::uint32_t>> seen;
    counter.forEach([&](PageId region, std::uint32_t n) {
        seen.emplace_back(region, n);
    });
    EXPECT_EQ(seen, (std::vector<std::pair<PageId, std::uint32_t>>{{0, 1}}));
}

TEST(DenseRegionCounterDeathTest, OverfullAndUnderflowDie)
{
    DenseRegionCounter counter(1); // 2-page regions
    counter.increment(0);
    counter.increment(1);
    EXPECT_DEATH({ counter.increment(0); }, "overfull");
    EXPECT_DEATH({ counter.decrement(2); }, "underflow");
    EXPECT_DEATH({ DenseRegionCounter bad(32); }, "bad region order");
}

// ------------------------------------------------------ PageTable regions

TEST(PageTableRegions, CountsFollowMapUnmapAndRemap)
{
    PageTable pt;
    pt.trackRegions(4);
    pt.trackRegions(9);
    pt.map(0, 10);
    pt.map(3, 11);
    pt.map(16, 12);
    EXPECT_EQ(pt.regionCount(1, 4), 2u);
    EXPECT_EQ(pt.regionCount(17, 4), 1u);
    EXPECT_EQ(pt.regionCount(511, 9), 3u);
    EXPECT_EQ(pt.regionCount(512, 9), 0u);

    // A remap (the coalescer's unmap/map pair) leaves every count alone.
    pt.map(3, pt.unmap(3) + 100);
    EXPECT_EQ(pt.lookup(3), 111u);
    EXPECT_EQ(pt.regionCount(3, 4), 2u);
    EXPECT_EQ(pt.regionCount(3, 9), 3u);

    pt.unmap(0);
    pt.unmap(3);
    EXPECT_EQ(pt.regionCount(0, 4), 0u);
    EXPECT_EQ(pt.regionCount(0, 9), 1u);
    EXPECT_EQ(pt.regionCounters()[0].size(), 1u); // region 0 erased
}

TEST(PageTableRegions, ArmingAnOrderTwiceIsANoOp)
{
    PageTable pt;
    pt.trackRegions(9);
    pt.trackRegions(9);
    ASSERT_EQ(pt.regionCounters().size(), 1u);
    pt.map(5, 0);
    EXPECT_EQ(pt.regionCount(5, 9), 1u); // counted once, not twice
    pt.trackRegions(9); // still a no-op once mappings exist
    EXPECT_EQ(pt.regionCounters().size(), 1u);
}

TEST(PageTableRegionsDeathTest, ArmingAfterTheFirstMappingDies)
{
    PageTable pt;
    pt.map(5, 0);
    EXPECT_DEATH({ pt.trackRegions(4); }, "after the first mapping");
}

TEST(PageTableRegionsDeathTest, ReadingAnUnarmedOrderDies)
{
    PageTable pt;
    pt.trackRegions(4);
    EXPECT_DEATH({ (void)pt.regionCount(0, 9); }, "never armed");
}

// ------------------------------------------------- the radix view's nodes

TEST(RadixTable, NodesAllocatedPerDistinctPath)
{
    PageTable pt = radixArmedTable();
    pt.map(0, 0);
    EXPECT_EQ(nodeCount(pt), 3u); // L3, L2, L1 nodes under the root
    pt.map(1, 1);                 // same leaf node
    EXPECT_EQ(nodeCount(pt), 3u);
    pt.map(1ull << 9, 2); // new L1 node
    EXPECT_EQ(nodeCount(pt), 4u);
}

TEST(RadixTable, UnmapPrunesEmptyNodes)
{
    PageTable pt = radixArmedTable();
    pt.map(0, 0);
    pt.map(1ull << 27, 1); // a second full path
    EXPECT_EQ(nodeCount(pt), 6u);
    pt.unmap(0);
    EXPECT_EQ(nodeCount(pt), 3u);
    pt.unmap(1ull << 27);
    EXPECT_EQ(nodeCount(pt), 0u);
}

TEST(RadixTable, WalkVisitsEveryLevelOnHit)
{
    StatRegistry stats;
    PageTable pt;
    MultiLevelWalker walker(pt, stats, "w");
    pt.map(5, 9);
    // Cold: three upper levels miss the PWC, then the leaf.
    EXPECT_EQ(walker.walk(5).latency, 4 * MultiLevelWalker::kLevelAccessCycles);
    EXPECT_EQ(stats.findCounter("w.pwcMisses").value(), 3u);
    // Warm: the same three levels hit the PWC; the leaf is read again.
    EXPECT_EQ(walker.walk(5).latency, 3 * MultiLevelWalker::kPwcHitCycles
                                          + MultiLevelWalker::kLevelAccessCycles);
    EXPECT_EQ(stats.findCounter("w.pwcHits").value(), 3u);
}

TEST(RadixTable, WalkStopsAtFirstAbsentEntry)
{
    // Page 5 is the only mapping.  A page that leaves its path below
    // level L touches levels 4..L, each a cold memory access.
    const struct
    {
        PageId page;
        Cycle levels;
    } cases[] = {{1ull << 27, 1}, {1ull << 18, 2}, {1ull << 9, 3}, {6, 4}};
    for (const auto &c : cases) {
        StatRegistry stats;
        PageTable pt;
        MultiLevelWalker walker(pt, stats, "w");
        pt.map(5, 9);
        const WalkResult r = walker.walk(c.page);
        EXPECT_FALSE(r.hit) << c.page;
        EXPECT_EQ(r.latency, c.levels * MultiLevelWalker::kLevelAccessCycles)
            << c.page;
    }
}

// ------------------------------------------------------- the walker itself

TEST(MultiLevelWalker, ColdWalkPaysFullDepth)
{
    StatRegistry stats;
    PageTable pt;
    MultiLevelWalker walker(pt, stats, "w");
    pt.map(5, 9);
    const WalkResult r = walker.walk(5);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.frame, 9u);
    EXPECT_EQ(r.latency, 4 * MultiLevelWalker::kLevelAccessCycles);
}

TEST(MultiLevelWalker, PwcAcceleratesWarmWalks)
{
    StatRegistry stats;
    PageTable pt;
    MultiLevelWalker walker(pt, stats, "w");
    pt.map(5, 9);
    pt.map(6, 10);
    walker.walk(5);
    // Page 6 shares all upper levels with page 5: only the leaf access
    // costs a full memory access.
    const WalkResult r = walker.walk(6);
    EXPECT_EQ(r.latency, 3 * MultiLevelWalker::kPwcHitCycles
                             + MultiLevelWalker::kLevelAccessCycles);
    EXPECT_GT(walker.pwcHitRate(), 0.0);
}

TEST(MultiLevelWalker, FaultLatencyStopsAtMissingLevel)
{
    StatRegistry stats;
    PageTable pt;
    MultiLevelWalker walker(pt, stats, "w");
    pt.map(5, 9);
    walker.walk(5); // warm the PWC
    // Different level-4 subtree: one cold level-4 access, then stop.
    const WalkResult r = walker.walk(1ull << 27);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.latency, MultiLevelWalker::kLevelAccessCycles);
    EXPECT_EQ(stats.findCounter("w.faults").value(), 1u);
}

TEST(MultiLevelWalker, HitObserverFires)
{
    StatRegistry stats;
    PageTable pt;
    MultiLevelWalker walker(pt, stats, "w");
    pt.map(5, 9);
    std::vector<PageId> observed;
    walker.setHitObserver([&](PageId p) { observed.push_back(p); });
    walker.walk(5);
    walker.walk(99); // fault: no notification
    EXPECT_EQ(observed, (std::vector<PageId>{5}));
}

TEST(MultiLevelWalkerDifferential, MatchesTheTreeWalkOnRandomSequences)
{
    // Pages (a, b, c, d) = a<<27 | b<<18 | c<<9 | d: three level-3
    // subtrees, three level-2 nodes each, eight leaf nodes each, so maps
    // and unmaps create, share and prune nodes at every level, and the
    // 81 upper-level entries overflow the 64-entry PWC.  Fill and drain
    // phases alternate so whole subtrees empty out and come back.
    std::vector<PageId> universe;
    for (PageId a = 0; a < 3; ++a)
        for (PageId b = 0; b < 3; ++b)
            for (PageId c = 0; c < 8; ++c)
                for (PageId d = 0; d < 4; ++d)
                    universe.push_back(a << 27 | b << 18 | c << 9 | d);

    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed);
        StatRegistry stats;
        PageTable pt;
        MultiLevelWalker walker(pt, stats, "w");
        reference::RadixTree tree;
        reference::TreeWalker oracle(tree);
        std::vector<PageId> mapped;
        FrameId nextFrame = 0;
        for (int op = 0; op < 4000; ++op) {
            const bool filling = (op / 500) % 2 == 0;
            const double r = rng.uniform();
            if (r < (filling ? 0.45 : 0.10)) {
                const PageId page = universe[rng.below(universe.size())];
                if (pt.resident(page))
                    continue;
                pt.map(page, nextFrame);
                tree.map(page, nextFrame);
                ++nextFrame;
                mapped.push_back(page);
            } else if (r < 0.55 && !mapped.empty()) {
                const std::size_t i = rng.below(mapped.size());
                const PageId page = mapped[i];
                mapped[i] = mapped.back();
                mapped.pop_back();
                ASSERT_EQ(pt.unmap(page), tree.unmap(page));
            } else {
                const PageId page = universe[rng.below(universe.size())];
                const WalkResult got = walker.walk(page);
                const WalkResult want = oracle.walk(page);
                ASSERT_EQ(got.hit, want.hit) << "seed " << seed << " op " << op;
                ASSERT_EQ(got.frame, want.frame) << "seed " << seed << " op " << op;
                ASSERT_EQ(got.latency, want.latency)
                    << "seed " << seed << " op " << op << " page " << page;
            }
            ASSERT_EQ(pt.size(), tree.size());
            ASSERT_EQ(nodeCount(pt), tree.nodeCount())
                << "seed " << seed << " op " << op;
        }
    }
}

// --------------------------------------------------------- integration

TEST(UvmManager, RegionCountsFollowFaultsAndEvictions)
{
    StatRegistry stats;
    LruPolicy lru;
    UvmMemoryManager uvm(3, lru, stats, "uvm");
    const PageTable &pt = uvm.pageTable();
    uvm.pageTable().trackRegions(1); // two-page regions
    uvm.handleFault(1);
    uvm.handleFault(2);
    ASSERT_EQ(uvm.prefetchIn(0), PrefetchOutcome::Prefetched);
    EXPECT_EQ(pt.regionCount(0, 1), 2u); // pages 0 and 1
    EXPECT_EQ(pt.regionCount(2, 1), 1u);
    uvm.handleFault(3); // LRU evicts the prefetched page 0 (its cold end)
    EXPECT_FALSE(uvm.resident(0));
    EXPECT_EQ(pt.regionCount(0, 1), 1u);
    EXPECT_EQ(pt.regionCount(2, 1), 2u);
}

TEST(MultiLevelMode, TimingRunCompletes)
{
    const Trace t = buildApp("STN", 0.5);
    RunConfig cfg;
    cfg.gpu.walkerMode = WalkerMode::MultiLevel;
    const auto r = runTiming(t, PolicyKind::Lru, cfg);
    EXPECT_GT(r.instructions, 0u);
    EXPECT_GT(r.faults, 0u);
}

TEST(MultiLevelMode, SameFaultShapeAsFixedLatency)
{
    // The walker design changes walk latency, not which pages fault; the
    // fault counts should be close (small divergence from timing skew).
    const Trace t = buildApp("HSD", 0.5);
    RunConfig fixed, multi;
    multi.gpu.walkerMode = WalkerMode::MultiLevel;
    const auto a = runTiming(t, PolicyKind::Lru, fixed);
    const auto b = runTiming(t, PolicyKind::Lru, multi);
    EXPECT_NEAR(static_cast<double>(b.faults) / static_cast<double>(a.faults),
                1.0, 0.15);
}

TEST(MultiLevelMode, PwcSeesTraffic)
{
    const Trace t = buildApp("MRQ");
    RunConfig cfg;
    cfg.gpu.walkerMode = WalkerMode::MultiLevel;
    const auto run = runTimingInspect(t, PolicyKind::Hpe, cfg);
    EXPECT_GT(run.stats->findCounter("gpu.walker.pwcHits").value(), 0u);
    EXPECT_GT(run.stats->findCounter("gpu.walker.pwcMisses").value(), 0u);
}

TEST(MultiLevelMode, HpeStillBeatsLruOnThrash)
{
    const Trace t = buildApp("HSD", 0.5);
    RunConfig cfg;
    cfg.gpu.walkerMode = WalkerMode::MultiLevel;
    const auto lru = runTiming(t, PolicyKind::Lru, cfg);
    const auto hpe = runTiming(t, PolicyKind::Hpe, cfg);
    EXPECT_GT(hpe.ipc, lru.ipc * 1.2);
}

} // namespace
} // namespace hpe
