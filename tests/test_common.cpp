/**
 * @file
 * Unit tests for the common module: intrusive list, RNG, saturating
 * counter, event queue, fixed-divisor remainder, formatting, the
 * comma-list splitter, stats, and the table printer.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/comma_list.hpp"
#include "common/event_queue.hpp"
#include "common/fast_mod.hpp"
#include "common/format.hpp"
#include "common/intrusive_list.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"

namespace hpe {
namespace {

struct Node : IntrusiveNode
{
    explicit Node(int v) : value(v) {}
    int value;
};

TEST(IntrusiveList, StartsEmpty)
{
    IntrusiveList<Node> list;
    EXPECT_TRUE(list.empty());
    EXPECT_EQ(list.size(), 0u);
}

TEST(IntrusiveList, PushBackOrdersFrontToBack)
{
    IntrusiveList<Node> list;
    Node a(1), b(2), c(3);
    list.pushBack(a);
    list.pushBack(b);
    list.pushBack(c);
    EXPECT_EQ(list.size(), 3u);
    EXPECT_EQ(list.front().value, 1);
    EXPECT_EQ(list.back().value, 3);
}

TEST(IntrusiveList, PushFrontPrepends)
{
    IntrusiveList<Node> list;
    Node a(1), b(2);
    list.pushBack(a);
    list.pushFront(b);
    EXPECT_EQ(list.front().value, 2);
}

TEST(IntrusiveList, RemoveUnlinksNode)
{
    IntrusiveList<Node> list;
    Node a(1), b(2), c(3);
    list.pushBack(a);
    list.pushBack(b);
    list.pushBack(c);
    list.remove(b);
    EXPECT_FALSE(b.linked());
    EXPECT_EQ(list.size(), 2u);
    EXPECT_EQ(list.next(a), &c);
}

TEST(IntrusiveList, MoveToBackReorders)
{
    IntrusiveList<Node> list;
    Node a(1), b(2), c(3);
    list.pushBack(a);
    list.pushBack(b);
    list.pushBack(c);
    list.moveToBack(a);
    EXPECT_EQ(list.front().value, 2);
    EXPECT_EQ(list.back().value, 1);
}

TEST(IntrusiveList, IterationVisitsInOrder)
{
    IntrusiveList<Node> list;
    Node a(1), b(2), c(3);
    list.pushBack(a);
    list.pushBack(b);
    list.pushBack(c);
    std::vector<int> seen;
    for (Node &n : list)
        seen.push_back(n.value);
    EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
}

TEST(IntrusiveList, PrevNextNavigation)
{
    IntrusiveList<Node> list;
    Node a(1), b(2);
    list.pushBack(a);
    list.pushBack(b);
    EXPECT_EQ(list.prev(a), nullptr);
    EXPECT_EQ(list.next(a), &b);
    EXPECT_EQ(list.prev(b), &a);
    EXPECT_EQ(list.next(b), nullptr);
}

TEST(IntrusiveList, SpliceBackMovesAllPreservingOrder)
{
    IntrusiveList<Node> x, y;
    Node a(1), b(2), c(3), d(4);
    x.pushBack(a);
    x.pushBack(b);
    y.pushBack(c);
    y.pushBack(d);
    x.spliceBack(y);
    EXPECT_TRUE(y.empty());
    EXPECT_EQ(x.size(), 4u);
    std::vector<int> seen;
    for (Node &n : x)
        seen.push_back(n.value);
    EXPECT_EQ(seen, (std::vector<int>{1, 2, 3, 4}));
}

TEST(IntrusiveList, SpliceBackFromEmptyIsNoop)
{
    IntrusiveList<Node> x, y;
    Node a(1);
    x.pushBack(a);
    x.spliceBack(y);
    EXPECT_EQ(x.size(), 1u);
}

TEST(IntrusiveList, SpliceBackIntoEmpty)
{
    IntrusiveList<Node> x, y;
    Node a(1), b(2);
    y.pushBack(a);
    y.pushBack(b);
    x.spliceBack(y);
    EXPECT_EQ(x.size(), 2u);
    EXPECT_EQ(x.front().value, 1);
    EXPECT_EQ(x.back().value, 2);
}

TEST(IntrusiveList, InsertBefore)
{
    IntrusiveList<Node> list;
    Node a(1), c(3), b(2);
    list.pushBack(a);
    list.pushBack(c);
    list.insertBefore(c, b);
    std::vector<int> seen;
    for (Node &n : list)
        seen.push_back(n.value);
    EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
}

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(equal, 4);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BetweenInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.between(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceRespectsProbability)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(2); });
    eq.schedule(5, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 20u);
}

TEST(EventQueue, SimultaneousEventsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(7, [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbacksCanScheduleMore)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.scheduleIn(4, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty)
{
    EventQueue eq;
    EXPECT_FALSE(eq.step());
}

TEST(FastMod, MatchesHardwareRemainder)
{
    constexpr std::uint64_t k32 = std::uint64_t{1} << 32;
    std::mt19937_64 rng(17);
    for (const std::uint64_t d :
         {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3}, std::uint64_t{12},
          std::uint64_t{64}, std::uint64_t{1536}, std::uint64_t{1000003}, k32 - 2,
          k32 - 1}) {
        const FastMod mod(d);
        // Both sides of the 2^32 switch to the hardware remainder.
        for (const std::uint64_t x :
             {std::uint64_t{0}, std::uint64_t{1}, d - 1, d, d + 1, k32 - 2, k32 - 1, k32,
              k32 + 1, (std::uint64_t{1} << 52) | 12345, UINT64_MAX})
            EXPECT_EQ(mod(x), x % d) << x << " % " << d;
        for (int i = 0; i < 20000; ++i) {
            const std::uint64_t x = rng() >> (rng() % 64);
            ASSERT_EQ(mod(x), x % d) << x << " % " << d;
        }
    }
    EXPECT_DEATH({ FastMod zero(0); }, "bad divisor");
}

TEST(EventQueue, RunHonorsMaxEvents)
{
    EventQueue eq;
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        eq.schedule(i, [&] { ++fired; });
    EXPECT_EQ(eq.run(3), 3u);
    EXPECT_EQ(fired, 3);
}

TEST(Format, PlainSubstitution)
{
    EXPECT_EQ(strformat("a {} c {}", "b", 42), "a b c 42");
}

TEST(Format, HexSpec)
{
    EXPECT_EQ(strformat("{:#x}", 255), "0xff");
    EXPECT_EQ(strformat("{:x}", 255), "ff");
}

TEST(Format, FixedPrecision)
{
    EXPECT_EQ(strformat("{:.2f}", 3.14159), "3.14");
}

TEST(Format, EscapedBraces)
{
    EXPECT_EQ(strformat("{{}} {}", 1), "{} 1");
}

TEST(Format, SurplusPlaceholders)
{
    EXPECT_EQ(strformat("{} {}", 1), "1 {}");
}

TEST(CommaList, SkipsEmptyItems)
{
    using Items = std::vector<std::string_view>;
    EXPECT_EQ(splitCommaList(""), Items{});
    EXPECT_EQ(splitCommaList(","), Items{});
    EXPECT_EQ(splitCommaList("4k"), Items{"4k"});
    EXPECT_EQ(splitCommaList(",a,,bc,"), (Items{"a", "bc"}));
    EXPECT_EQ(splitCommaList("unix:/s,tcp:h:1"), (Items{"unix:/s", "tcp:h:1"}));
}

TEST(Stats, CounterAccumulates)
{
    StatRegistry stats;
    Counter &c = stats.counter("x.hits");
    ++c;
    c += 4;
    EXPECT_EQ(stats.findCounter("x.hits").value(), 5u);
}

TEST(Stats, DuplicateCounterRegistrationRejected)
{
    StatRegistry stats;
    ++stats.counter("n");
    // A second registration under the same name is a wiring bug (two
    // components would silently alias one counter), not a lookup.
    EXPECT_EXIT({ stats.counter("n"); }, testing::ExitedWithCode(1),
                "already registered");
    EXPECT_EQ(stats.findCounter("n").value(), 1u);
}

TEST(Stats, DuplicateDistributionRegistrationRejected)
{
    StatRegistry stats;
    stats.distribution("lat");
    EXPECT_EXIT({ stats.distribution("lat"); }, testing::ExitedWithCode(1),
                "already registered");
}

TEST(Stats, DistributionMoments)
{
    StatRegistry stats;
    Distribution &d = stats.distribution("lat");
    d.sample(1);
    d.sample(2);
    d.sample(6);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 3.0);
    EXPECT_DOUBLE_EQ(d.minimum(), 1.0);
    EXPECT_DOUBLE_EQ(d.maximum(), 6.0);
}

TEST(Stats, DumpContainsEntries)
{
    StatRegistry stats;
    stats.counter("z.faults") += 7;
    std::ostringstream os;
    stats.dump(os);
    EXPECT_NE(os.str().find("z.faults 7"), std::string::npos);
}

TEST(Stats, DumpCsvFormat)
{
    StatRegistry stats;
    stats.counter("a.b") += 3;
    stats.distribution("c.d").sample(2.0);
    std::ostringstream os;
    stats.dumpCsv(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name,count,value,mean,min,max"), std::string::npos);
    EXPECT_NE(out.find("a.b,1,3"), std::string::npos);
    EXPECT_NE(out.find("c.d,1,,2"), std::string::npos);
}

TEST(Table, AlignsColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Header separator line exists.
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(Types, PageArithmeticRoundTrips)
{
    const Addr addr = 0x12345678;
    EXPECT_EQ(addrOf(pageOf(addr)), addr & ~(kPageBytes - 1));
    EXPECT_EQ(pageOf(addrOf(42)), 42u);
}

TEST(Types, MicrosCycleConversion)
{
    EXPECT_EQ(microsToCycles(20.0), 28000u);
    EXPECT_NEAR(cyclesToMicros(28000), 20.0, 1e-9);
}

} // namespace
} // namespace hpe
