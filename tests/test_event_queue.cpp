/**
 * @file
 * Tests for the bucketed-wheel event engine: deterministic (cycle, seq)
 * ordering across the wheel/overflow split, wheel wraparound, arena
 * recycling, and a differential replay against a reference heap model.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <random>
#include <utility>
#include <vector>

#include "common/event_queue.hpp"

using namespace hpe;

namespace {

TEST(EventQueue, SameCycleFifoAcrossManySchedulers)
{
    EventQueue eq;
    std::vector<int> order;
    // Interleave two cycles so same-cycle FIFO has to survive bucket
    // appends that are not contiguous in schedule order.
    for (int i = 0; i < 50; ++i) {
        eq.schedule(100, [&order, i] { order.push_back(i); });
        eq.schedule(200, [&order, i] { order.push_back(1000 + i); });
    }
    eq.run();
    ASSERT_EQ(order.size(), 100u);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(50 + i)], 1000 + i);
}

TEST(EventQueue, WheelWraparoundKeepsOrder)
{
    EventQueue eq;
    std::vector<Cycle> fired;
    // March time past several wheel spans; each event schedules the next
    // just under one span ahead, exercising cursor wrap continuously.
    const Cycle hop = EventQueue::kWheelSpan - 3;
    std::uint64_t remaining = 10;
    std::function<void()> next = [&] {
        fired.push_back(eq.now());
        if (--remaining > 0)
            eq.scheduleIn(hop, next);
    };
    eq.schedule(1, next);
    eq.run();
    ASSERT_EQ(fired.size(), 10u);
    for (std::size_t i = 1; i < fired.size(); ++i)
        EXPECT_EQ(fired[i], fired[i - 1] + hop);
    EXPECT_GT(eq.now(), EventQueue::kWheelSpan * 8);
}

TEST(EventQueue, FarFutureEventsPromoteFromOverflow)
{
    EventQueue eq;
    std::vector<int> order;
    const Cycle far = EventQueue::kWheelSpan * 3 + 17;
    eq.schedule(far, [&] { order.push_back(2); });
    eq.schedule(5, [&] { order.push_back(1); });
    EXPECT_EQ(eq.stats().overflowScheduled, 1u);
    EXPECT_EQ(eq.nextEventCycle(), 5u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.now(), far);
    // With the wheel drained the overflow event pops directly — no
    // promotion detour (promotion is covered below).
    EXPECT_EQ(eq.stats().overflowPromoted, 0u);
}

TEST(EventQueue, OverflowPromotionPreservesSameCycleFifo)
{
    EventQueue eq;
    std::vector<int> order;
    const Cycle target = EventQueue::kWheelSpan + 100;
    // First event lands in overflow (beyond the window from now=0)...
    eq.schedule(target, [&] { order.push_back(0); });
    // ...then time advances far enough that the same cycle is schedulable
    // straight into the wheel, with larger seqs.
    eq.schedule(200, [&] {
        eq.schedule(target, [&] { order.push_back(1); });
        eq.schedule(target, [&] { order.push_back(2); });
    });
    eq.run();
    // The overflow event carries the smallest seq and must fire first —
    // it was promoted into a bucket already holding larger-seq events.
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(eq.stats().overflowPromoted, 1u);
}

TEST(EventQueue, ScheduleIntoTheCycleBeingDrained)
{
    EventQueue eq;
    std::vector<int> order;
    const Cycle target = EventQueue::kWheelSpan + 100;
    // 0 waits in overflow; 1 and 2 join its cycle from the wheel.  Each
    // callback schedules into the cycle being drained, which must run
    // after every peer already pending there: (cycle, seq) order.
    eq.schedule(target, [&] {
        order.push_back(0);
        eq.schedule(target, [&] {
            order.push_back(3);
            eq.scheduleIn(0, [&] { order.push_back(5); });
        });
    });
    eq.schedule(200, [&] {
        eq.schedule(target, [&] {
            order.push_back(1);
            eq.scheduleIn(0, [&] { order.push_back(4); });
        });
        eq.schedule(target, [&] { order.push_back(2); });
    });
    eq.schedule(target + 1, [&] { order.push_back(6); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
    EXPECT_EQ(eq.now(), target + 1);
}

TEST(EventQueue, SchedulingIntoThePastDies)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_DEATH({ eq.schedule(5, [] {}); }, "into the past");
}

TEST(EventQueue, ArenaRecyclesNodesUnderChurn)
{
    EventQueue eq;
    // Steady-state churn: a handful of events in flight at a time, far
    // more events total.  The arena must serve this from recycled nodes,
    // not grow with the event count.
    std::uint64_t fired = 0;
    std::deque<std::function<void()>> chains; // stable addresses for self-capture
    for (int chain = 0; chain < 8; ++chain) {
        chains.emplace_back();
        std::function<void()> &self = chains.back();
        self = [&eq, &fired, &self] {
            if (++fired < 8 * 2500)
                eq.scheduleIn(3, self);
        };
        eq.scheduleIn(1, self);
    }
    eq.run();
    // Once the shared budget is hit, up to 7 sibling events drain without
    // rescheduling.
    EXPECT_GE(eq.stats().fired, 8u * 2500u);
    EXPECT_LE(eq.stats().fired, 8u * 2500u + 7u);
    // At most the initial in-flight population plus one block of slack.
    EXPECT_LE(eq.stats().arenaNodes, 1024u);
    EXPECT_EQ(eq.stats().peakPending, 8u);
}

TEST(EventQueue, StatsCountSchedulesAndFires)
{
    EventQueue eq;
    eq.schedule(1, [] {});
    eq.schedule(1, [] {});
    eq.schedule(EventQueue::kWheelSpan * 2, [] {});
    EXPECT_EQ(eq.stats().scheduled, 3u);
    EXPECT_EQ(eq.stats().peakPending, 3u);
    eq.run();
    EXPECT_EQ(eq.stats().fired, 3u);
    EXPECT_EQ(eq.stats().overflowScheduled, 1u);
    EXPECT_EQ(eq.stats().heapCallbacks, 0u);
}

TEST(EventQueue, PendingCallbacksDestroyedOnTeardown)
{
    auto token = std::make_shared<int>(7);
    std::weak_ptr<int> watch = token;
    {
        EventQueue eq;
        eq.schedule(50, [keep = std::move(token)] { (void)keep; });
        eq.schedule(EventQueue::kWheelSpan * 4, [] {});
        // Destroyed with both events (wheel and overflow) still pending.
    }
    EXPECT_TRUE(watch.expired());
}

/**
 * Differential test: replay a randomized schedule-and-fire workload —
 * including callback-driven rescheduling, same-cycle bursts, and
 * far-future overflow events — against a reference (cycle, seq) min-heap.
 * Pop order must match seq for seq, which is exactly the old
 * priority-queue engine's total order (golden digests depend on it).
 */
TEST(EventQueueDifferential, MatchesReferenceHeapOrder)
{
    using Key = std::pair<Cycle, std::uint64_t>; // (when, seq)

    EventQueue eq;
    std::priority_queue<Key, std::vector<Key>, std::greater<Key>> model;
    std::vector<Key> engineOrder;
    std::uint64_t nextSeq = 0;
    std::mt19937 rng(12345);

    // Delays mix same-cycle (0), near, the last wheel cycle, the first
    // overflow cycle and beyond, taken relative to the span so that both
    // tiers and their boundary stay covered at any wheel geometry.
    const auto randomDelay = [&rng]() -> Cycle {
        constexpr Cycle span = EventQueue::kWheelSpan;
        static const Cycle choices[] = {0,        1,        3,
                                        97,       span - 1, span,
                                        span + 1, 2 * span + 11};
        return choices[rng() % (sizeof(choices) / sizeof(choices[0]))];
    };

    // Each fired event records its identity and occasionally schedules
    // more work, so scheduling happens at many distinct "now" values.
    std::function<void(int)> spawn = [&](int fanout) {
        const Cycle when = eq.now() + randomDelay();
        const std::uint64_t seq = nextSeq++;
        model.emplace(when, seq);
        eq.schedule(when, [&, when, seq, fanout] {
            engineOrder.emplace_back(when, seq);
            for (int i = 0; i < fanout; ++i)
                spawn(engineOrder.size() < 3000 ? static_cast<int>(rng() % 3)
                                                : 0);
        });
    };
    for (int i = 0; i < 64; ++i)
        spawn(2);
    eq.run();

    ASSERT_EQ(engineOrder.size(), nextSeq);
    for (const Key &got : engineOrder) {
        ASSERT_FALSE(model.empty());
        EXPECT_EQ(got, model.top());
        model.pop();
    }
    EXPECT_TRUE(model.empty());
}

} // namespace
