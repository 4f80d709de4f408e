/**
 * @file
 * Edge-case and failure-injection tests across modules: invariant
 * violations must die loudly (HPE_ASSERT), and boundary geometries must
 * work.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/event_queue.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "driver/pcie.hpp"
#include "mem/dram.hpp"
#include "mem/page_table.hpp"
#include "mem/set_assoc.hpp"
#include "policy/lru.hpp"
#include "sim/experiment.hpp"

namespace hpe {
namespace {

/** A POSIX extended regex that matches @p text literally. */
std::string
literalRegex(const std::string &text)
{
    std::string out;
    for (const char c : text) {
        if (std::string_view(".[]{}()\\*+?|^$").find(c) != std::string_view::npos)
            out += '\\';
        out += c;
    }
    return out;
}

TEST(Death, AssertPrintsABracedConditionAsWritten)
{
    // The condition is an argument of the message, not part of its format
    // string, so its braces are not read as a placeholder.
    const int line = __LINE__ + 4;
    const std::string message = "assertion `std::uint32_t{1} == 2` failed at "
        + std::string(__FILE__) + ":" + std::to_string(line) + ": value 7";
    // One line: the assertion reports the line it is written on.
    EXPECT_DEATH(HPE_ASSERT(std::uint32_t{1} == 2, "value {}", 7), literalRegex(message));
}

TEST(Death, PageTableDoubleMap)
{
    PageTable pt;
    pt.map(1, 1);
    EXPECT_DEATH({ pt.map(1, 2); }, "double map");
}

TEST(Death, PageTableUnmapMissing)
{
    PageTable pt;
    EXPECT_DEATH({ pt.unmap(1); }, "non-resident");
}

TEST(Death, FrameAllocatorExhausted)
{
    FrameAllocator alloc(1);
    alloc.allocate();
    EXPECT_DEATH({ alloc.allocate(); }, "exhausted");
}

TEST(Death, SetAssocDuplicateInsert)
{
    SetAssocArray<int> arr(8, 2);
    arr.insert(1);
    EXPECT_DEATH({ arr.insert(1); }, "duplicate insert");
}

TEST(Death, EventQueueSchedulingIntoThePast)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_DEATH({ eq.schedule(5, [] {}); }, "into the past");
}

TEST(Death, TableRowArityMismatch)
{
    TextTable t({"a", "b"});
    EXPECT_DEATH({ t.addRow({"only one"}); }, "row has 1 cells");
}

TEST(Death, LruEvictUntracked)
{
    LruPolicy lru;
    lru.onMigrateIn(1);
    EXPECT_DEATH({ lru.onEvict(99); }, "untracked");
}

TEST(Death, UvmFaultOnResidentPage)
{
    StatRegistry stats;
    LruPolicy lru;
    UvmMemoryManager uvm(4, lru, stats, "uvm");
    uvm.handleFault(1);
    EXPECT_DEATH({ uvm.handleFault(1); }, "resident");
}

TEST(Death, MarkDirtyNonResident)
{
    StatRegistry stats;
    LruPolicy lru;
    UvmMemoryManager uvm(4, lru, stats, "uvm");
    EXPECT_DEATH({ uvm.markDirty(7); }, "non-resident");
}

TEST(EventQueueEdge, NextEventCycle)
{
    EventQueue eq;
    eq.schedule(42, [] {});
    EXPECT_EQ(eq.nextEventCycle(), 42u);
}

TEST(SetAssocEdge, DirectMappedGeometry)
{
    SetAssocArray<int> arr(8, 1); // direct-mapped
    arr.insert(0);
    arr.insert(8); // same set: conflict
    EXPECT_EQ(arr.probe(0), nullptr);
    EXPECT_NE(arr.probe(8), nullptr);
    EXPECT_EQ(arr.conflictEvictions(), 1u);
}

TEST(SetAssocEdge, FullyAssociativeGeometry)
{
    SetAssocArray<int> arr(4, 4); // one set
    for (std::uint64_t k = 100; k < 104; ++k)
        arr.insert(k);
    EXPECT_EQ(arr.occupancy(), 4u);
    arr.insert(999); // evicts LRU = 100
    EXPECT_EQ(arr.probe(100), nullptr);
}

TEST(DramEdge, ManyRequestsOneBankAllComplete)
{
    EventQueue eq;
    StatRegistry stats;
    DramConfig cfg;
    cfg.channels = 1;
    cfg.banksPerChannel = 1;
    Dram dram(cfg, eq, stats, "d");
    int done = 0;
    for (Addr a = 0; a < 64 * cfg.lineBytes; a += cfg.lineBytes)
        dram.read(a, [&] { ++done; });
    eq.run();
    EXPECT_EQ(done, 64);
    EXPECT_TRUE(dram.idle());
    // Sequential lines in one row: mostly row hits after the opener.
    EXPECT_GT(dram.rowHits(), dram.rowMisses());
}

TEST(ExperimentEdge, OversubBoundsChecked)
{
    Trace t("X", "x", "s", PatternType::I);
    t.add(1);
    EXPECT_DEATH({ framesFor(t, 0.0); }, "oversubscription");
    EXPECT_DEATH({ framesFor(t, 1.5); }, "oversubscription");
}

TEST(ExperimentEdge, MinimumOneFrame)
{
    Trace t("X", "x", "s", PatternType::I);
    t.add(1);
    EXPECT_EQ(framesFor(t, 1.0), 1u);
}

TEST(Death, ZeroFramePoolRejected)
{
    EXPECT_DEATH({ FrameAllocator alloc(0); }, "empty frame pool");
}

TEST(Death, ZeroFrameUvmRejected)
{
    StatRegistry stats;
    LruPolicy lru;
    EXPECT_DEATH({ UvmMemoryManager uvm(0, lru, stats, "uvm"); },
                 "empty frame pool");
}

TEST(EdgeGeometry, OneFramePoolUnderEveryPolicy)
{
    // With a single frame the policy has no real choice: every distinct
    // page faults, every back-to-back revisit hits, and each migration
    // past the first evicts.  Those counts are policy-independent, so the
    // whole roster (validator on) must agree on them.
    Trace t("X", "x", "s", PatternType::I);
    for (PageId p : {1, 1, 2, 2, 3, 1})
        t.add(p);
    for (PolicyKind kind : extendedPolicyKinds()) {
        StatRegistry stats;
        auto policy = makePolicy(kind, t, stats);
        const PagingOptions opts{.validate = true};
        const PagingResult r = runPaging(t, *policy, 1, stats, opts);
        EXPECT_EQ(r.references, 6u) << policyKindName(kind);
        EXPECT_EQ(r.faults, 4u) << policyKindName(kind);
        EXPECT_EQ(r.hits, 2u) << policyKindName(kind);
        EXPECT_EQ(r.evictions, 3u) << policyKindName(kind);
    }
}

TEST(PcieEdge, ZeroByteTransferIsANoOp)
{
    StatRegistry stats;
    PcieLink link(stats, "p");
#ifdef NDEBUG
    // Release builds: no link hold, no transfer counted.
    link.transfer(0, kPageBytes);
    const Cycle horizon = link.horizon();
    EXPECT_EQ(link.transfer(horizon + 5, 0), horizon + 5);
    EXPECT_EQ(link.horizon(), horizon);
    EXPECT_EQ(stats.findCounter("p.transfers").value(), 1u);
#else
    // Debug builds: the caller bug is asserted on.
    EXPECT_DEATH({ link.transfer(0, 0); }, "zero-byte");
#endif
}

} // namespace
} // namespace hpe
