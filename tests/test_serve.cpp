/**
 * @file
 * Tests for the hpe_serve daemon: the ResultCache protocol (coalescing,
 * admission control, eviction, warm-start seeding), and in-process
 * socket round trips — request/response framing, content-addressed
 * cache hits with identical bytes, error responses that never kill the
 * daemon, request deadlines, stats counters, tiered load shedding,
 * store-backed restart warm hits, stale-socket reclamation, and
 * graceful shutdown.
 * (The ResultStore journal itself is covered in test_store.cpp.)
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "api/json.hpp"
#include "serve/client.hpp"
#include "serve/result_cache.hpp"
#include "serve/result_store.hpp"
#include "serve/server.hpp"

namespace hpe::serve {
namespace {

using api::json::Value;

// ------------------------------------------------------------ ResultCache

TEST(ResultCache, ComputeThenHit)
{
    ResultCache cache(8, 4);
    const auto first = cache.acquire("fp");
    ASSERT_EQ(first.role, ResultCache::Role::Compute);
    cache.complete(first.entry, "payload");

    const auto second = cache.acquire("fp");
    EXPECT_EQ(second.role, ResultCache::Role::Hit);
    EXPECT_EQ(second.entry->payload, "payload");
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.pending(), 0u);
}

TEST(ResultCache, ConcurrentDuplicatesCoalesceOntoOneComputation)
{
    ResultCache cache(8, 4);
    const auto owner = cache.acquire("fp");
    ASSERT_EQ(owner.role, ResultCache::Role::Compute);

    // A duplicate arriving while the computation runs waits on the same
    // entry instead of computing again; its responder parks on whenDone(),
    // as the daemon's do.
    const auto dup = cache.acquire("fp");
    ASSERT_EQ(dup.role, ResultCache::Role::Wait);
    EXPECT_EQ(dup.entry, owner.entry);

    std::promise<std::string> parked;
    std::future<std::string> answer = parked.get_future();
    cache.whenDone(dup.entry,
                   [&] { parked.set_value(dup.entry->payload); });
    EXPECT_EQ(answer.wait_for(std::chrono::milliseconds(0)),
              std::future_status::timeout); // not before completion

    std::thread completer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        cache.complete(owner.entry, "once");
    });
    const std::future_status status = answer.wait_for(std::chrono::seconds(10));
    completer.join();
    ASSERT_EQ(status, std::future_status::ready);
    EXPECT_EQ(answer.get(), "once");

    // A responder registered after completion runs at once.
    bool late = false;
    cache.whenDone(dup.entry, [&] { late = true; });
    EXPECT_TRUE(late);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.coalesced(), 1u);
}

TEST(ResultCache, RejectsNewWorkWhenSaturatedButStillServesHits)
{
    ResultCache cache(8, 1);
    const auto done = cache.acquire("done");
    cache.complete(done.entry, "ready");

    const auto inflight = cache.acquire("inflight");
    ASSERT_EQ(inflight.role, ResultCache::Role::Compute);

    // The pending bound is reached: new fingerprints are rejected...
    const auto overflow = cache.acquire("overflow");
    EXPECT_EQ(overflow.role, ResultCache::Role::Rejected);
    EXPECT_EQ(overflow.entry, nullptr);
    EXPECT_EQ(cache.rejected(), 1u);
    // ...but hits and coalesced waits are always admitted.
    EXPECT_EQ(cache.acquire("done").role, ResultCache::Role::Hit);
    EXPECT_EQ(cache.acquire("inflight").role, ResultCache::Role::Wait);

    cache.complete(inflight.entry, "now done");
    EXPECT_EQ(cache.acquire("overflow").role, ResultCache::Role::Compute);
}

TEST(ResultCache, EvictsOldestCompletedFirst)
{
    ResultCache cache(2, 4);
    for (const char *fp : {"a", "b", "c"})
        cache.complete(cache.acquire(fp).entry, fp);
    EXPECT_EQ(cache.size(), 2u);
    // "a" (oldest) was evicted; "c" (newest) survives.
    EXPECT_EQ(cache.acquire("a").role, ResultCache::Role::Compute);
    EXPECT_EQ(cache.acquire("c").role, ResultCache::Role::Hit);
}

TEST(ResultCache, NeverEvictsPendingEntries)
{
    ResultCache cache(1, 4);
    const auto pending = cache.acquire("pending");
    // Completing other entries overflows capacity, but the pending entry
    // (whose waiters hold the pointer) must survive.
    cache.complete(cache.acquire("x").entry, "x");
    cache.complete(cache.acquire("y").entry, "y");
    EXPECT_EQ(cache.acquire("pending").role, ResultCache::Role::Wait);
    cache.complete(pending.entry, "done");
    EXPECT_EQ(cache.acquire("pending").role, ResultCache::Role::Hit);
}

TEST(ResultCache, FailedComputationsAreCachedAsFailures)
{
    ResultCache cache(8, 4);
    cache.complete(cache.acquire("fp").entry, "boom", true);
    const auto hit = cache.acquire("fp");
    EXPECT_EQ(hit.role, ResultCache::Role::Hit);
    EXPECT_TRUE(hit.entry->failed);
}

TEST(ResultCache, CapacityOneKeepsExactlyTheNewestCompletedEntry)
{
    ResultCache cache(1, 4);
    cache.complete(cache.acquire("a").entry, "a");
    cache.complete(cache.acquire("b").entry, "b");
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.acquire("b").role, ResultCache::Role::Hit);
    EXPECT_EQ(cache.acquire("a").role, ResultCache::Role::Compute);
    EXPECT_EQ(cache.evictions(), 1u);
}

TEST(ResultCache, EvictionPressureWithPendingEntriesEvictsOnlyCompleted)
{
    ResultCache cache(2, 8);
    // Two pending entries occupy the cache...
    const auto p1 = cache.acquire("p1");
    const auto p2 = cache.acquire("p2");
    // ...and a stream of completions overflows capacity repeatedly.
    for (const char *fp : {"c1", "c2", "c3"})
        cache.complete(cache.acquire(fp).entry, fp);
    // Only completed entries were evicted; both pending survive.
    EXPECT_EQ(cache.acquire("p1").role, ResultCache::Role::Wait);
    EXPECT_EQ(cache.acquire("p2").role, ResultCache::Role::Wait);
    cache.complete(p1.entry, "done1");
    cache.complete(p2.entry, "done2");
    EXPECT_EQ(cache.acquire("p2").role, ResultCache::Role::Hit);
}

TEST(ResultCache, FailedResultEvictedThenReadmittedAsFreshComputation)
{
    ResultCache cache(1, 4);
    cache.complete(cache.acquire("flaky").entry, "boom", true);
    const auto failedHit = cache.acquire("flaky");
    ASSERT_EQ(failedHit.role, ResultCache::Role::Hit);
    EXPECT_TRUE(failedHit.entry->failed);

    // Push the failed entry out, then ask again: a fresh computation,
    // not a stale failure.
    cache.complete(cache.acquire("pusher").entry, "fine");
    const auto retry = cache.acquire("flaky");
    ASSERT_EQ(retry.role, ResultCache::Role::Compute);
    cache.complete(retry.entry, "recovered");
    EXPECT_FALSE(cache.acquire("flaky").entry->failed);
}

TEST(ResultCache, AdmitNewFalseRejectsOnlyUnknownFingerprints)
{
    ResultCache cache(8, 4);
    cache.complete(cache.acquire("done").entry, "ready");
    const auto inflight = cache.acquire("inflight");

    // Hit-and-coalesce mode: known fingerprints answer as usual...
    EXPECT_EQ(cache.acquire("done", false).role, ResultCache::Role::Hit);
    EXPECT_EQ(cache.acquire("inflight", false).role, ResultCache::Role::Wait);
    // ...an unknown one is rejected without consuming a pending slot.
    const std::uint64_t pendingBefore = cache.pending();
    EXPECT_EQ(cache.acquire("unknown", false).role,
              ResultCache::Role::Rejected);
    EXPECT_EQ(cache.pending(), pendingBefore);
    cache.complete(inflight.entry, "done");
}

TEST(ResultCache, SeedWarmStartsWithoutCountingHitsOrMisses)
{
    ResultCache cache(2, 4);
    cache.seed("warm", "from-journal");
    EXPECT_EQ(cache.seeded(), 1u);
    EXPECT_EQ(cache.misses(), 0u);

    const auto hit = cache.acquire("warm");
    ASSERT_EQ(hit.role, ResultCache::Role::Hit);
    EXPECT_EQ(hit.entry->payload, "from-journal");

    // An existing entry wins over a later seed (live state beats the
    // journal)...
    cache.seed("warm", "stale-journal");
    EXPECT_EQ(cache.acquire("warm").entry->payload, "from-journal");
    // ...and seeding respects capacity: the oldest entry is evicted.
    cache.seed("w2", "p2");
    cache.seed("w3", "p3");
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.acquire("warm").role, ResultCache::Role::Compute);
}

TEST(ResultCache, EvictionObserverSeesEveryEvictedFingerprint)
{
    ResultCache cache(1, 4);
    std::vector<std::string> observed;
    cache.setEvictionObserver(
        [&](const std::string &fp) { observed.push_back(fp); });
    cache.complete(cache.acquire("a").entry, "a");
    cache.complete(cache.acquire("b").entry, "b");
    cache.seed("c", "c");
    ASSERT_EQ(observed.size(), 2u);
    EXPECT_EQ(observed[0], "a");
    EXPECT_EQ(observed[1], "b");
    EXPECT_EQ(cache.evictions(), 2u);
}

// ------------------------------------------------------------- the daemon

/** A started server on a unique socket; tears down on destruction. */
struct TestServer
{
    explicit TestServer(const std::string &name, std::size_t maxQueue = 64)
    {
        cfg.socketPath = ::testing::TempDir() + "/hpe_" + name + ".sock";
        cfg.maxQueue = maxQueue;
        server = std::make_unique<Server>(cfg);
        std::string error;
        EXPECT_TRUE(server->start(error)) << error;
    }

    ~TestServer() { server->stop(); }

    /** One request line over a fresh connection; EXPECT success. */
    Value
    roundTrip(const std::string &request)
    {
        std::string response, error;
        EXPECT_TRUE(submitLine(cfg.socketPath, request, response, error))
            << error;
        api::json::ParseError perr;
        const auto v = api::json::parse(response, &perr);
        EXPECT_TRUE(v.has_value()) << perr.message << ": " << response;
        return v.value_or(Value{});
    }

    ServeConfig cfg;
    std::unique_ptr<Server> server;
};

/** A tiny run request (fast functional cell). */
std::string
runRequest()
{
    return R"({"type":"run","request":{"app":"STN","policy":"LRU",)"
           R"("functional":true,"scale":0.1,"trace_digest":true}})";
}

TEST(Serve, PingPongRoundTrip)
{
    TestServer ts("ping");
    const Value response = ts.roundTrip(R"({"type":"ping","id":"tag"})");
    EXPECT_TRUE(response.find("ok")->asBool());
    EXPECT_EQ(response.find("type")->asString(), "pong");
    // The id echoes back so clients can match responses to requests.
    EXPECT_EQ(response.find("id")->asString(), "tag");
}

TEST(Serve, RepeatedRequestIsServedFromCacheWithIdenticalBytes)
{
    TestServer ts("cache");
    const Value first = ts.roundTrip(runRequest());
    ASSERT_TRUE(first.find("ok")->asBool());
    EXPECT_FALSE(first.find("cached")->asBool());

    const Value second = ts.roundTrip(runRequest());
    ASSERT_TRUE(second.find("ok")->asBool());
    EXPECT_TRUE(second.find("cached")->asBool());
    // The cached payload is byte-identical to the computed one.
    EXPECT_EQ(second.find("result")->dump(), first.find("result")->dump());
    EXPECT_EQ(second.find("fingerprint")->asString(),
              first.find("fingerprint")->asString());
    EXPECT_EQ(ts.server->cache().hits(), 1u);
    EXPECT_EQ(ts.server->cache().misses(), 1u);
}

TEST(Serve, CaseDifferingSpellingsShareOneCacheSlot)
{
    TestServer ts("spelling");
    const Value canonical = ts.roundTrip(runRequest());
    const Value lower = ts.roundTrip(
        R"({"type":"run","request":{"app":"stn","policy":"lru",)"
        R"("functional":true,"scale":0.1,"trace_digest":true}})");
    ASSERT_TRUE(lower.find("ok")->asBool());
    // Content addressing: same experiment, same fingerprint, cache hit.
    EXPECT_TRUE(lower.find("cached")->asBool());
    EXPECT_EQ(lower.find("fingerprint")->asString(),
              canonical.find("fingerprint")->asString());
    EXPECT_EQ(lower.find("result")->dump(), canonical.find("result")->dump());
}

TEST(Serve, ConcurrentIdenticalSubmitsComputeOnce)
{
    TestServer ts("concurrent");
    constexpr int kClients = 4;
    std::vector<std::string> results(kClients);
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i)
        clients.emplace_back([&, i] {
            std::string response, error;
            ASSERT_TRUE(submitLine(ts.cfg.socketPath, runRequest(), response,
                                   error))
                << error;
            results[static_cast<std::size_t>(i)] = response;
        });
    for (std::thread &t : clients)
        t.join();

    // Exactly one computation; every other client hit or coalesced, and
    // all of them received the same result bytes.
    const ResultCache &cache = ts.server->cache();
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits() + cache.coalesced(),
              static_cast<std::uint64_t>(kClients - 1));
    api::json::ParseError perr;
    const std::string expected =
        api::json::parse(results[0], &perr)->find("result")->dump();
    for (const std::string &r : results)
        EXPECT_EQ(api::json::parse(r, &perr)->find("result")->dump(),
                  expected);
}

TEST(Serve, InvalidRequestsGetErrorResponsesNotCrashes)
{
    TestServer ts("errors");
    const Value badJson = ts.roundTrip("this is not json");
    EXPECT_FALSE(badJson.find("ok")->asBool());
    EXPECT_NE(badJson.find("error")->asString().find("parse error"),
              std::string::npos);

    const Value badName = ts.roundTrip(
        R"({"type":"run","request":{"policy":"NOPE"}})");
    EXPECT_FALSE(badName.find("ok")->asBool());
    EXPECT_NE(badName.find("error")->asString().find(
                  "unknown policy 'NOPE' (valid: "),
              std::string::npos);

    const Value badType = ts.roundTrip(R"({"type":"transmogrify"})");
    EXPECT_FALSE(badType.find("ok")->asBool());
    EXPECT_NE(badType.find("error")->asString().find("unknown request type"),
              std::string::npos);

    // An event list naming no kind is refused before anything runs.
    const Value badEvents = ts.roundTrip(
        R"({"type":"run","request":{"app":"STN","scale":0.05,)"
        R"("functional":true,"trace_digest":true,"trace_events":","}})");
    EXPECT_FALSE(badEvents.find("ok")->asBool());
    EXPECT_NE(badEvents.find("error")->asString().find(
                  "empty trace event list"),
              std::string::npos);
    EXPECT_EQ(ts.server->cache().misses(), 0u);

    // A 2 MiB page spans 512 frames; STN at 75% gets 480.  Only the
    // built trace tells, so the run itself fails (experiment_failed).
    const Value tooLarge = ts.roundTrip(
        R"({"type":"run","request":{"app":"STN","page_sizes":"4k,2m"}})");
    EXPECT_FALSE(tooLarge.find("ok")->asBool());
    EXPECT_NE(tooLarge.find("error")->asString().find(
                  "page size 2m spans 512 frames but the pool holds only 480"),
              std::string::npos);

    // The daemon survived all of it.
    EXPECT_TRUE(ts.roundTrip(R"({"type":"ping"})").find("ok")->asBool());
}

TEST(Serve, StatsSurfaceCacheAndQueueCounters)
{
    TestServer ts("stats");
    ts.roundTrip(runRequest());
    ts.roundTrip(runRequest());
    const Value stats = ts.roundTrip(R"({"type":"stats"})");
    ASSERT_TRUE(stats.find("ok")->asBool());
    const Value *body = stats.find("stats");
    ASSERT_NE(body, nullptr);
    EXPECT_EQ(body->find("cache_hits")->asUint(), 1u);
    EXPECT_EQ(body->find("cache_misses")->asUint(), 1u);
    EXPECT_EQ(body->find("served")->asUint(), 2u);
    EXPECT_EQ(body->find("queue_depth")->asUint(), 0u);
    EXPECT_EQ(body->find("in_flight")->asUint(), 0u);
    // The same counters ride the StatRegistry CSV machinery.
    const std::string csv = body->find("stats_csv")->asString();
    EXPECT_NE(csv.find("serve.cache.hits,1,1"), std::string::npos);
    EXPECT_NE(csv.find("serve.cache.misses,1,1"), std::string::npos);
}

TEST(Serve, ShutdownRequestDrainsGracefully)
{
    TestServer ts("shutdown");
    const Value ack = ts.roundTrip(R"({"type":"shutdown"})");
    EXPECT_TRUE(ack.find("ok")->asBool());
    EXPECT_EQ(ack.find("type")->asString(), "shutting_down");

    ts.server->wait(); // returns because the request stopped the daemon
    ts.server->stop();
    // The socket file is gone; new connections are refused.
    std::string response, error;
    EXPECT_FALSE(
        submitLine(ts.cfg.socketPath, R"({"type":"ping"})", response, error));
}

TEST(Serve, DeadlineExceededEchoesIdAndRetryGetsTheResult)
{
    TestServer ts("deadline");
    // A timing cell of about 200 ms: far longer than its 1 ms deadline.
    const std::string cell = R"("request":{"app":"MXR","policy":"Meta-duel",)"
                             R"("scale":1}})";
    const Value late = ts.roundTrip(
        R"({"v":2,"type":"run","id":"slow","deadline_ms":1,)" + cell);
    EXPECT_FALSE(late.find("ok")->asBool());
    EXPECT_EQ(late.find("id")->asString(), "slow");
    ASSERT_NE(late.find("error"), nullptr);
    ASSERT_TRUE(late.find("error")->isObject());
    EXPECT_EQ(late.find("error")->find("code")->asString(),
              "deadline_exceeded");

    // The computation kept running; a retry without a deadline gets it.
    const Value retry =
        ts.roundTrip(R"({"v":2,"type":"run","id":"again",)" + cell);
    ASSERT_TRUE(retry.find("ok")->asBool());
    EXPECT_EQ(retry.find("id")->asString(), "again");
    EXPECT_EQ(retry.find("type")->asString(), "result");
    EXPECT_NE(retry.find("result"), nullptr);
}

TEST(Serve, SaturatedDaemonRejectsWithRetryHint)
{
    // maxQueue = 0 is clamped to 1 by the server; use a cache primed with
    // an in-flight entry to hold the only slot, then submit new work.
    TestServer ts("saturated", 1);
    const auto holder = ts.server->cache().acquire("held-slot");
    ASSERT_EQ(holder.role, ResultCache::Role::Compute);

    const Value rejected = ts.roundTrip(runRequest());
    EXPECT_FALSE(rejected.find("ok")->asBool());
    // The held slot pushes the load depth past the hit-only threshold,
    // so the cold fingerprint is shed (tiered shedding, PR 6).
    EXPECT_NE(rejected.find("error")->asString().find("shedding load"),
              std::string::npos);
    ASSERT_NE(rejected.find("retry_after_ms"), nullptr);
    EXPECT_GT(rejected.find("retry_after_ms")->asUint(), 0u);

    // Releasing the slot re-admits the same request.
    ts.server->cache().complete(holder.entry, "freed");
    EXPECT_TRUE(ts.roundTrip(runRequest()).find("ok")->asBool());
}

TEST(Serve, StartFailsCleanlyOnUnusableSocketPath)
{
    ServeConfig cfg;
    cfg.socketPath = "/nonexistent-dir/hpe.sock";
    Server server(cfg);
    std::string error;
    EXPECT_FALSE(server.start(error));
    EXPECT_NE(error.find("bind"), std::string::npos);
}

// -------------------------------------------- shedding, durability, sockets

/** A cold run request nothing else submits (seed varies the fingerprint). */
std::string
coldRequest(std::uint64_t seed)
{
    return R"({"type":"run","request":{"app":"STN","policy":"LRU",)"
           R"("functional":true,"scale":0.1,"trace_digest":true,"seed":)"
           + std::to_string(seed) + "}}";
}

TEST(Serve, ShedTiersDegradeUnderDepthAndRecoverWhenItDrains)
{
    ServeConfig cfg;
    cfg.socketPath = ::testing::TempDir() + "/hpe_shed.sock";
    cfg.maxQueue = 8;
    cfg.shedHitOnlyDepth = 2;
    cfg.shedRejectDepth = 4;
    Server server(cfg);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    auto roundTrip = [&](const std::string &request) {
        std::string response, err;
        EXPECT_TRUE(submitLine(cfg.socketPath, request, response, err)) << err;
        return api::json::parse(response).value_or(Value{});
    };

    // Prime the cache while the daemon is idle (depth 1 <= 2: full).
    ASSERT_TRUE(roundTrip(runRequest()).find("ok")->asBool());
    EXPECT_EQ(server.shedMode(), ShedMode::Full);

    // Hold two computation slots: depth = 1 + 2 = 3 > 2 -> hit_only.
    const auto h1 = server.cache().acquire("hold-1");
    const auto h2 = server.cache().acquire("hold-2");
    const Value cold = roundTrip(coldRequest(777));
    EXPECT_FALSE(cold.find("ok")->asBool());
    EXPECT_NE(cold.find("error")->asString().find("hit_only"),
              std::string::npos);
    ASSERT_NE(cold.find("retry_after_ms"), nullptr);
    EXPECT_GT(cold.find("retry_after_ms")->asUint(), 0u);
    // The cached fingerprint still answers in hit_only mode.
    const Value warm = roundTrip(runRequest());
    EXPECT_TRUE(warm.find("ok")->asBool());
    EXPECT_TRUE(warm.find("cached")->asBool());

    // Two more holds: depth = 1 + 4 = 5 > 4 -> reject, even for hits.
    const auto h3 = server.cache().acquire("hold-3");
    const auto h4 = server.cache().acquire("hold-4");
    const Value rejected = roundTrip(runRequest());
    EXPECT_FALSE(rejected.find("ok")->asBool());
    EXPECT_NE(rejected.find("error")->asString().find("reject"),
              std::string::npos);
    EXPECT_EQ(server.shedMode(), ShedMode::Reject);

    const Value stats = roundTrip(R"({"type":"stats"})");
    const Value *body = stats.find("stats");
    ASSERT_NE(body, nullptr);
    EXPECT_EQ(body->find("shed_mode")->asString(), "reject");
    EXPECT_GE(body->find("shed_transitions")->asUint(), 2u);
    EXPECT_GE(body->find("shed_cold_rejections")->asUint(), 1u);
    EXPECT_GE(body->find("shed_rejections")->asUint(), 1u);

    // Drain the holds: the next request is served in full mode again.
    for (const auto &hold : {h1, h2, h3, h4})
        server.cache().complete(hold.entry, "freed");
    EXPECT_TRUE(roundTrip(runRequest()).find("ok")->asBool());
    EXPECT_EQ(server.shedMode(), ShedMode::Full);
    server.stop();
}

TEST(Serve, StoreBackedRestartServesWarmHitsWithIdenticalBytes)
{
    ServeConfig cfg;
    cfg.socketPath = ::testing::TempDir() + "/hpe_warm.sock";
    cfg.storeDir = ::testing::TempDir() + "/hpe_warm_store";
    std::filesystem::remove_all(cfg.storeDir);

    std::string firstResult, fingerprint;
    {
        Server server(cfg);
        std::string error;
        ASSERT_TRUE(server.start(error)) << error;
        std::string response, err;
        ASSERT_TRUE(submitLine(cfg.socketPath, runRequest(), response, err))
            << err;
        const Value v = api::json::parse(response).value_or(Value{});
        ASSERT_TRUE(v.find("ok")->asBool());
        EXPECT_FALSE(v.find("cached")->asBool());
        firstResult = v.find("result")->dump();
        fingerprint = v.find("fingerprint")->asString();
        ASSERT_NE(server.store(), nullptr);
        EXPECT_EQ(server.store()->appendCount(), 1u);
        server.stop();
    }

    // A new daemon over the same store directory answers the same
    // request as a warm cache hit with byte-identical result payload —
    // without recomputing anything.
    Server server(cfg);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    ASSERT_NE(server.store(), nullptr);
    EXPECT_EQ(server.store()->recoveredCount(), 1u);
    EXPECT_EQ(server.cache().seeded(), 1u);

    std::string response, err;
    ASSERT_TRUE(submitLine(cfg.socketPath, runRequest(), response, err))
        << err;
    const Value v = api::json::parse(response).value_or(Value{});
    ASSERT_TRUE(v.find("ok")->asBool());
    EXPECT_TRUE(v.find("cached")->asBool());
    EXPECT_EQ(v.find("result")->dump(), firstResult);
    EXPECT_EQ(v.find("fingerprint")->asString(), fingerprint);
    EXPECT_EQ(server.cache().misses(), 0u);
    server.stop();
}

TEST(Serve, SecondDaemonOnTheSameStoreDirFailsFastWithoutTouchingIt)
{
    ServeConfig cfg;
    cfg.socketPath = ::testing::TempDir() + "/hpe_dualstore_a.sock";
    cfg.storeDir = ::testing::TempDir() + "/hpe_dualstore";
    std::filesystem::remove_all(cfg.storeDir);

    Server live(cfg);
    std::string error;
    ASSERT_TRUE(live.start(error)) << error;
    std::string response, err;
    ASSERT_TRUE(submitLine(cfg.socketPath, runRequest(), response, err))
        << err;

    // A second daemon on a *different* socket but the same store dir
    // must fail at the store lock — before any replay could misread
    // the live daemon's journal tail and truncate it.
    ServeConfig second = cfg;
    second.socketPath = ::testing::TempDir() + "/hpe_dualstore_b.sock";
    Server intruder(second);
    std::string intruderError;
    EXPECT_FALSE(intruder.start(intruderError));
    EXPECT_NE(intruderError.find("locked"), std::string::npos)
        << intruderError;
    // The loser cleaned up its freshly bound socket path.
    EXPECT_NE(::access(second.socketPath.c_str(), F_OK), 0);

    // The live daemon's journal is intact: a restart over it recovers
    // the computed cell with no torn-tail truncation.
    live.stop();
    Server restarted(cfg);
    ASSERT_TRUE(restarted.start(error)) << error;
    ASSERT_NE(restarted.store(), nullptr);
    EXPECT_EQ(restarted.store()->recoveredCount(), 1u);
    EXPECT_EQ(restarted.store()->tornTruncations(), 0u);
    restarted.stop();
}

TEST(Serve, FailedResultsSurviveRestartAsCachedFailures)
{
    ServeConfig cfg;
    cfg.socketPath = ::testing::TempDir() + "/hpe_warmfail.sock";
    cfg.storeDir = ::testing::TempDir() + "/hpe_warmfail_store";
    std::filesystem::remove_all(cfg.storeDir);

    // Journal a failed computation directly (the daemon does this for
    // experiments that throw), then boot a daemon over it.
    {
        ResultStoreConfig storeCfg;
        storeCfg.dir = cfg.storeDir;
        ResultStore store(storeCfg);
        std::string error;
        ASSERT_TRUE(store.open(error)) << error;
        store.append("fail-fp", "experiment failed: boom", true);
    }
    Server server(cfg);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    const auto hit = server.cache().acquire("fail-fp");
    ASSERT_EQ(hit.role, ResultCache::Role::Hit);
    EXPECT_TRUE(hit.entry->failed);
    EXPECT_EQ(hit.entry->payload, "experiment failed: boom");
    server.stop();
}

TEST(Serve, StaleSocketIsReclaimedOnStart)
{
    const std::string path = ::testing::TempDir() + "/hpe_stale.sock";
    ::unlink(path.c_str());
    // Fake a crashed daemon: a bound socket file with no listener behind
    // it (bind creates the file; closing the fd does not remove it).
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
                     sizeof addr),
              0);
    ::close(fd);

    ServeConfig cfg;
    cfg.socketPath = path;
    Server server(cfg);
    std::string error;
    // start() probes the socket, finds nobody home, reclaims the path.
    ASSERT_TRUE(server.start(error)) << error;
    std::string response, err;
    EXPECT_TRUE(submitLine(path, R"({"type":"ping"})", response, err)) << err;
    server.stop();
}

TEST(Serve, LiveDaemonSocketIsNeverStolen)
{
    TestServer ts("live");
    Server second(ts.cfg);
    std::string error;
    // The probe pings the live daemon, gets an answer, and keeps the
    // bind error instead of unlinking a working socket.
    EXPECT_FALSE(second.start(error));
    EXPECT_NE(error.find("bind"), std::string::npos);
    // The original daemon is untouched.
    EXPECT_TRUE(ts.roundTrip(R"({"type":"ping"})").find("ok")->asBool());
}

} // namespace
} // namespace hpe::serve
