/**
 * @file
 * Tests for the networked, sharded face of hpe_serve: the endpoint
 * grammar, TCP listeners on ephemeral ports, the versioned wire
 * protocol (the pinned v1 shape and the structured v2 shape),
 * robustness against hostile or broken TCP clients (malformed frames,
 * oversized lines, slowloris senders, mid-request disconnects), the
 * fingerprint→shard routing property, and reshard-on-restart journal
 * migration.  (Single-socket daemon behaviour lives in test_serve.cpp;
 * the journal format in test_store.cpp.)
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "api/json.hpp"
#include "api/protocol.hpp"
#include "serve/client.hpp"
#include "serve/endpoint.hpp"
#include "serve/server.hpp"
#include "serve/sharded_store.hpp"

namespace hpe::serve {
namespace {

using api::json::Value;
namespace protocol = api::protocol;

// -------------------------------------------------------- endpoint grammar

TEST(EndpointGrammar, ParsesEverySpelling)
{
    Endpoint ep;
    std::string error;

    ASSERT_TRUE(parseEndpoint("unix:/tmp/hpe.sock", ep, error)) << error;
    EXPECT_EQ(ep.kind, Endpoint::Kind::Unix);
    EXPECT_EQ(ep.path, "/tmp/hpe.sock");
    EXPECT_EQ(ep.spell(), "unix:/tmp/hpe.sock");

    // Back-compat: a bare path is a Unix socket.
    ASSERT_TRUE(parseEndpoint("/tmp/bare.sock", ep, error)) << error;
    EXPECT_EQ(ep.kind, Endpoint::Kind::Unix);
    EXPECT_EQ(ep.path, "/tmp/bare.sock");

    ASSERT_TRUE(parseEndpoint("tcp:127.0.0.1:8080", ep, error)) << error;
    EXPECT_EQ(ep.kind, Endpoint::Kind::Tcp);
    EXPECT_EQ(ep.host, "127.0.0.1");
    EXPECT_EQ(ep.port, 8080);
    EXPECT_EQ(ep.spell(), "tcp:127.0.0.1:8080");

    // Port 0 = "pick an ephemeral port" (daemon side).
    ASSERT_TRUE(parseEndpoint("tcp:localhost:0", ep, error)) << error;
    EXPECT_EQ(ep.port, 0);
}

TEST(EndpointGrammar, RejectsMalformedSpellings)
{
    Endpoint ep;
    for (const char *bad : {"", "unix:", "tcp:", "tcp:hostonly",
                            "tcp::1234", "tcp:host:", "tcp:host:notaport",
                            "tcp:host:70000", "tcp:host:-1"}) {
        std::string error;
        EXPECT_FALSE(parseEndpoint(bad, ep, error)) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

// ----------------------------------------------------------- test fixtures

/** A started server; listeners given by the caller; tears down on
 *  destruction.  `endpoint()` is the first bound spelling (ephemeral
 *  TCP ports resolved), which is what clients should dial. */
struct NetServer
{
    explicit NetServer(std::vector<std::string> listen, unsigned shards = 1,
                       std::size_t maxQueue = 64)
    {
        cfg.listen = std::move(listen);
        cfg.shards = shards;
        cfg.maxQueue = maxQueue;
        server = std::make_unique<Server>(cfg);
        std::string error;
        EXPECT_TRUE(server->start(error)) << error;
    }

    ~NetServer() { server->stop(); }

    const std::string &endpoint() const
    {
        return server->boundEndpoints().front();
    }

    /** One request line over a fresh connection; EXPECT success. */
    Value
    roundTrip(const std::string &request,
              const std::string &endpointText = "")
    {
        std::string response, error;
        EXPECT_TRUE(submitLine(
            endpointText.empty() ? endpoint() : endpointText, request,
            response, error))
            << error;
        api::json::ParseError perr;
        const auto v = api::json::parse(response, &perr);
        EXPECT_TRUE(v.has_value()) << perr.message << ": " << response;
        return v.value_or(Value{});
    }

    /** Like roundTrip but returning the raw response bytes (for the
     *  byte-for-byte v1 shape pins). */
    std::string
    rawRoundTrip(const std::string &request)
    {
        std::string response, error;
        EXPECT_TRUE(submitLine(endpoint(), request, response, error))
            << error;
        return response;
    }

    ServeConfig cfg;
    std::unique_ptr<Server> server;
};

/** A tcp:127.0.0.1:0 listener spelling (every test binds ephemeral). */
std::vector<std::string>
tcpOnly()
{
    return {"tcp:127.0.0.1:0"};
}

/** A tiny run request (fast functional cell); seed varies the cell. */
std::string
runRequest(std::uint64_t seed = 0, int version = 0)
{
    std::string line = R"({"type":"run",)";
    if (version != 0)
        line += "\"v\":" + std::to_string(version) + ",";
    line += R"("request":{"app":"STN","policy":"LRU","functional":true,)"
            R"("scale":0.1,"trace_digest":true)";
    if (seed != 0)
        line += ",\"seed\":" + std::to_string(seed);
    return line + "}}";
}

/** Blocking connect to @p endpointText; returns the raw fd (>= 0). */
int
rawConnect(const std::string &endpointText)
{
    Endpoint ep;
    std::string error;
    EXPECT_TRUE(parseEndpoint(endpointText, ep, error)) << error;
    const int fd = connectEndpoint(ep, error);
    EXPECT_GE(fd, 0) << error;
    return fd;
}

/** Read one '\n'-terminated line from @p fd (newline stripped); ""
 *  on EOF-before-newline.  A receive timeout bounds hangs. */
std::string
rawReadLine(int fd)
{
    timeval tv{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    std::string line;
    char ch = 0;
    while (true) {
        const ssize_t n = ::recv(fd, &ch, 1, 0);
        if (n <= 0)
            return "";
        if (ch == '\n')
            return line;
        line.push_back(ch);
    }
}

// ---------------------------------------------------------- TCP listeners

TEST(ServeTcp, EphemeralPortRoundTripsPingAndRun)
{
    NetServer ts(tcpOnly());
    // The bound spelling resolved port 0 to a real port.
    ASSERT_EQ(ts.server->boundEndpoints().size(), 1u);
    EXPECT_EQ(ts.endpoint().rfind("tcp:127.0.0.1:", 0), 0u);
    EXPECT_NE(ts.endpoint(), "tcp:127.0.0.1:0");

    const Value pong = ts.roundTrip(R"({"type":"ping","id":"tcp"})");
    EXPECT_TRUE(pong.find("ok")->asBool());
    EXPECT_EQ(pong.find("id")->asString(), "tcp");

    const Value first = ts.roundTrip(runRequest());
    ASSERT_TRUE(first.find("ok")->asBool());
    const Value second = ts.roundTrip(runRequest());
    ASSERT_TRUE(second.find("ok")->asBool());
    // Cache hits over TCP return the same bytes as the computation.
    EXPECT_TRUE(second.find("cached")->asBool());
    EXPECT_EQ(second.find("result")->dump(), first.find("result")->dump());
}

TEST(ServeTcp, MixedUnixAndTcpListenersShareOneCache)
{
    NetServer ts({"unix:" + ::testing::TempDir() + "/hpe_mixed.sock",
                  "tcp:127.0.0.1:0"});
    ASSERT_EQ(ts.server->boundEndpoints().size(), 2u);
    const std::string &unixEp = ts.server->boundEndpoints()[0];
    const std::string &tcpEp = ts.server->boundEndpoints()[1];

    const Value viaUnix = ts.roundTrip(runRequest(), unixEp);
    ASSERT_TRUE(viaUnix.find("ok")->asBool());
    const Value viaTcp = ts.roundTrip(runRequest(), tcpEp);
    ASSERT_TRUE(viaTcp.find("ok")->asBool());
    // One experiment, one computation, whatever socket family asked.
    EXPECT_TRUE(viaTcp.find("cached")->asBool());
    EXPECT_EQ(viaTcp.find("result")->dump(), viaUnix.find("result")->dump());

    // stats reports both bound endpoints, canonical spelling.
    const Value stats = ts.roundTrip(R"({"type":"stats"})");
    const Value *endpoints = stats.find("stats")->find("endpoints");
    ASSERT_NE(endpoints, nullptr);
    ASSERT_EQ(endpoints->asArray().size(), 2u);
    EXPECT_EQ(endpoints->asArray()[0].asString(), unixEp);
    EXPECT_EQ(endpoints->asArray()[1].asString(), tcpEp);
}

// ------------------------------------------------------- protocol v1 pins

TEST(ProtocolV1, ResponsesNeverCarryVersionOrStructuredErrors)
{
    NetServer ts(tcpOnly());
    // Success path: no "v" member on an unversioned request.
    const Value pong = ts.roundTrip(R"({"type":"ping","id":"tag"})");
    EXPECT_EQ(pong.find("v"), nullptr);
    const Value run = ts.roundTrip(runRequest());
    ASSERT_TRUE(run.find("ok")->asBool());
    EXPECT_EQ(run.find("v"), nullptr);

    // The v1 error shape is pinned byte for byte: a bare string
    // "error", no version echo, and *no id echo* even when the
    // request carried one — exactly what pre-v2 clients parse.
    EXPECT_EQ(ts.rawRoundTrip(R"({"type":"transmogrify","id":"tag"})"),
              R"x({"error":"unknown request type 'transmogrify' )x"
              R"x((valid: run, stats, ping, shutdown)","ok":false})x");
}

TEST(ProtocolV1, ShedResponsesSpellRetryHintTopLevel)
{
    NetServer ts(tcpOnly(), 1, 1);
    // Hold the only computation slot so a cold run request is shed.
    const auto holder = ts.server->cache().acquire("held-slot");
    ASSERT_EQ(holder.role, ResultCache::Role::Compute);

    const Value shed = ts.roundTrip(runRequest());
    EXPECT_FALSE(shed.find("ok")->asBool());
    ASSERT_NE(shed.find("error"), nullptr);
    EXPECT_TRUE(shed.find("error")->isString());
    // v1 spells the backoff hint at the top level...
    ASSERT_NE(shed.find("retry_after_ms"), nullptr);
    EXPECT_GT(shed.find("retry_after_ms")->asUint(), 0u);
    EXPECT_EQ(shed.find("v"), nullptr);
    // ...and the version-blind accessor still finds it.
    EXPECT_GT(protocol::retryAfterMs(shed).value_or(0), 0u);
    ts.server->cache().complete(holder.entry, "freed");
}

// ------------------------------------------------------------ protocol v2

TEST(ProtocolV2, ResponsesEchoVersionAndId)
{
    NetServer ts(tcpOnly());
    EXPECT_EQ(ts.rawRoundTrip(R"({"v":2,"type":"ping","id":"x"})"),
              R"({"id":"x","ok":true,"type":"pong","v":2})");

    const Value run = ts.roundTrip(
        R"({"v":2,"type":"run","id":7,"request":{"app":"STN",)"
        R"("policy":"LRU","functional":true,"scale":0.1,)"
        R"("trace_digest":true}})");
    ASSERT_TRUE(run.find("ok")->asBool());
    EXPECT_EQ(run.find("v")->asUint(), 2u);
    EXPECT_EQ(run.find("id")->asUint(), 7u);
}

TEST(ProtocolV2, ErrorsAreStructuredObjectsWithCodeAndId)
{
    NetServer ts(tcpOnly(), 1, 1);
    const Value bad =
        ts.roundTrip(R"({"v":2,"type":"transmogrify","id":"tag"})");
    EXPECT_FALSE(bad.find("ok")->asBool());
    EXPECT_EQ(bad.find("v")->asUint(), 2u);
    EXPECT_EQ(bad.find("id")->asString(), "tag");
    const Value *error = bad.find("error");
    ASSERT_NE(error, nullptr);
    ASSERT_TRUE(error->isObject());
    EXPECT_EQ(error->find("code")->asString(), protocol::kErrUnknownType);
    EXPECT_NE(error->find("message")->asString().find("transmogrify"),
              std::string::npos);

    // Retryable failures nest the hint inside the error object — and
    // nowhere else.
    const auto holder = ts.server->cache().acquire("held-slot");
    const Value shed = ts.roundTrip(runRequest(0, 2));
    EXPECT_FALSE(shed.find("ok")->asBool());
    ASSERT_TRUE(shed.find("error")->isObject());
    EXPECT_GT(shed.find("error")->find("retry_after_ms")->asUint(), 0u);
    EXPECT_EQ(shed.find("retry_after_ms"), nullptr);
    EXPECT_GT(protocol::retryAfterMs(shed).value_or(0), 0u);
    ts.server->cache().complete(holder.entry, "freed");
}

TEST(ProtocolV2, UnsupportedVersionsAreRefusedInV2Shape)
{
    NetServer ts(tcpOnly());
    const Value tooNew = ts.roundTrip(R"({"v":3,"type":"ping","id":"n"})");
    EXPECT_FALSE(tooNew.find("ok")->asBool());
    EXPECT_EQ(tooNew.find("id")->asString(), "n");
    ASSERT_TRUE(tooNew.find("error")->isObject());
    EXPECT_EQ(tooNew.find("error")->find("code")->asString(),
              protocol::kErrUnsupportedVersion);
    EXPECT_NE(tooNew.find("error")->find("message")->asString().find(
                  "unsupported protocol version 3"),
              std::string::npos);

    const Value notANumber = ts.roundTrip(R"({"v":"two","type":"ping"})");
    EXPECT_FALSE(notANumber.find("ok")->asBool());
    EXPECT_EQ(notANumber.find("error")->find("code")->asString(),
              protocol::kErrUnsupportedVersion);

    // The daemon survived; v1 and v2 still speak.
    EXPECT_TRUE(ts.roundTrip(R"({"type":"ping"})").find("ok")->asBool());
}

TEST(ProtocolV2, VersionLivesOutsideTheFingerprint)
{
    NetServer ts(tcpOnly());
    const Value v1 = ts.roundTrip(runRequest());
    ASSERT_TRUE(v1.find("ok")->asBool());
    EXPECT_FALSE(v1.find("cached")->asBool());

    // The same experiment asked for by a v2 client is a cache hit with
    // identical bytes: "v" rides the envelope, never the fingerprint.
    const Value v2 = ts.roundTrip(runRequest(0, 2));
    ASSERT_TRUE(v2.find("ok")->asBool());
    EXPECT_TRUE(v2.find("cached")->asBool());
    EXPECT_EQ(v2.find("fingerprint")->asString(),
              v1.find("fingerprint")->asString());
    EXPECT_EQ(v2.find("result")->dump(), v1.find("result")->dump());
}

// --------------------------------------------- hostile / broken TCP peers

TEST(ServeTcpRobustness, MalformedFrameGetsErrorAndDaemonSurvives)
{
    NetServer ts(tcpOnly());
    const int fd = rawConnect(ts.endpoint());
    // Binary junk with an embedded NUL (sized explicitly: the NUL
    // must go over the wire, not truncate the literal).
    constexpr char kGarbage[] = "\x01\x02\xff not a frame \x00!\n";
    const std::string garbage(kGarbage, sizeof kGarbage - 1);
    ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(garbage.size()));
    const std::string response = rawReadLine(fd);
    api::json::ParseError perr;
    const auto v = api::json::parse(response, &perr);
    ASSERT_TRUE(v.has_value()) << response;
    EXPECT_FALSE(v->find("ok")->asBool());
    EXPECT_NE(protocol::errorMessage(*v).find("parse error"),
              std::string::npos);
    // Same connection keeps working after the bad frame...
    const std::string ping = "{\"type\":\"ping\"}\n";
    ASSERT_EQ(::send(fd, ping.data(), ping.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(ping.size()));
    EXPECT_NE(rawReadLine(fd).find("pong"), std::string::npos);
    ::close(fd);
    // ...and so does the daemon.
    EXPECT_TRUE(ts.roundTrip(R"({"type":"ping"})").find("ok")->asBool());
}

TEST(ServeTcpRobustness, OversizedLineIsRefusedAndConnectionClosed)
{
    NetServer ts(tcpOnly());
    const int fd = rawConnect(ts.endpoint());
    // One byte over the limit and no newline anywhere: the daemon reads
    // all of it before it refuses, so no unread byte turns its close into
    // a reset that could drop the error response.
    const std::string flood(ServeConfig::kMaxLineBytes + 1, 'x');
    ASSERT_EQ(::send(fd, flood.data(), flood.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(flood.size()));
    const std::string response = rawReadLine(fd);
    api::json::ParseError perr;
    const auto v = api::json::parse(response, &perr);
    ASSERT_TRUE(v.has_value()) << response;
    EXPECT_FALSE(v->find("ok")->asBool());
    EXPECT_NE(protocol::errorMessage(*v).find(
                  "exceeds " + std::to_string(ServeConfig::kMaxLineBytes) + " bytes"),
              std::string::npos);
    // After the error the daemon hangs up: EOF, not a second response.
    EXPECT_EQ(rawReadLine(fd), "");
    ::close(fd);
    EXPECT_TRUE(ts.roundTrip(R"({"type":"ping"})").find("ok")->asBool());
}

TEST(ServeTcpRobustness, SlowlorisByteAtATimeSenderStillGetsAnswered)
{
    NetServer ts(tcpOnly());
    const int fd = rawConnect(ts.endpoint());
    const std::string request = "{\"type\":\"ping\",\"id\":\"slow\"}\n";
    for (const char ch : request) {
        ASSERT_EQ(::send(fd, &ch, 1, MSG_NOSIGNAL), 1);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const std::string response = rawReadLine(fd);
    EXPECT_NE(response.find("pong"), std::string::npos) << response;
    EXPECT_NE(response.find("slow"), std::string::npos) << response;
    ::close(fd);
}

TEST(ServeTcpRobustness, MidRequestDisconnectLeavesDaemonHealthy)
{
    NetServer ts(tcpOnly());
    // A client that dies mid-line: half a request, no newline, gone.
    int fd = rawConnect(ts.endpoint());
    const std::string half = R"({"type":"run","request":{"app":)";
    ASSERT_EQ(::send(fd, half.data(), half.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(half.size()));
    ::close(fd);

    // A client that sends a full run request and vanishes before the
    // answer: the computation must not take the daemon down with it.
    fd = rawConnect(ts.endpoint());
    const std::string full = runRequest(99) + "\n";
    ASSERT_EQ(::send(fd, full.data(), full.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(full.size()));
    ::close(fd);

    // The daemon answers the next client as if nothing happened, and
    // the abandoned computation still landed in the cache.
    EXPECT_TRUE(ts.roundTrip(R"({"type":"ping"})").find("ok")->asBool());
    for (int i = 0; i < 200; ++i) {
        if (ts.server->cache().misses() >= 1
            && ts.server->cache().pending() == 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const Value retry = ts.roundTrip(runRequest(99));
    ASSERT_TRUE(retry.find("ok")->asBool());
    EXPECT_TRUE(retry.find("cached")->asBool());
}

// ---------------------------------------------------------------- sharding

TEST(Sharding, FingerprintRoutingIsDeterministicAndCoversEveryShard)
{
    constexpr unsigned kShards = 4;
    std::set<unsigned> seen;
    for (int i = 0; i < 1000; ++i) {
        const std::string fp = "fingerprint-" + std::to_string(i);
        const unsigned shard = ShardedResultStore::shardOf(fp, kShards);
        ASSERT_LT(shard, kShards);
        // Same fingerprint, same shard — every time.
        EXPECT_EQ(ShardedResultStore::shardOf(fp, kShards), shard);
        EXPECT_EQ(ShardedResultStore::shardOf(fp, 1), 0u);
        seen.insert(shard);
    }
    // FNV-1a spreads arbitrary fingerprints over all shards.
    EXPECT_EQ(seen.size(), kShards);
    // A result lives in its owning shard's journal, so the routing is
    // part of the on-disk layout: pin literal shards.
    const std::map<std::string, std::vector<unsigned>> pinned = {
        {"fingerprint-0", {0, 1, 0}},
        {"fingerprint-1", {1, 2, 3}},
        {"fingerprint-2", {0, 0, 2}},
        {"fingerprint-3", {1, 1, 1}},
    };
    for (const auto &[fp, shards] : pinned)
        for (unsigned n = 2; n <= 4; ++n)
            EXPECT_EQ(ShardedResultStore::shardOf(fp, n), shards[n - 2])
                << fp << " at " << n << " shards";
}

TEST(Sharding, RequestsLandOnTheOwningShardCache)
{
    constexpr unsigned kShards = 4;
    NetServer ts(tcpOnly(), kShards);
    ASSERT_EQ(ts.server->shards(), kShards);

    constexpr std::uint64_t kCells = 8;
    for (std::uint64_t seed = 1; seed <= kCells; ++seed) {
        const Value first = ts.roundTrip(runRequest(seed));
        ASSERT_TRUE(first.find("ok")->asBool());
        const std::string fp = first.find("fingerprint")->asString();
        const unsigned owner = ShardedResultStore::shardOf(fp, kShards);

        // The repeat hits — and the hit lands on the owning shard.
        const std::uint64_t hitsBefore =
            ts.server->shardCache(owner).hits();
        const Value again = ts.roundTrip(runRequest(seed));
        EXPECT_TRUE(again.find("cached")->asBool());
        EXPECT_EQ(ts.server->shardCache(owner).hits(), hitsBefore + 1);
    }

    std::uint64_t misses = 0, hits = 0;
    for (unsigned i = 0; i < kShards; ++i) {
        misses += ts.server->shardCache(i).misses();
        hits += ts.server->shardCache(i).hits();
    }
    EXPECT_EQ(misses, kCells);
    EXPECT_EQ(hits, kCells);
}

TEST(Sharding, StatsExposePerShardRowsBesideAggregates)
{
    NetServer ts(tcpOnly(), 2);
    ts.roundTrip(runRequest(1));
    ts.roundTrip(runRequest(1));

    const Value stats = ts.roundTrip(R"({"type":"stats"})");
    const Value *body = stats.find("stats");
    ASSERT_NE(body, nullptr);
    EXPECT_EQ(body->find("shard_count")->asUint(), 2u);
    // Aggregates keep their pre-sharding names and meanings...
    EXPECT_EQ(body->find("cache_hits")->asUint(), 1u);
    EXPECT_EQ(body->find("cache_misses")->asUint(), 1u);
    // ...the per-shard array sums to them...
    const auto &shards = body->find("shards")->asArray();
    ASSERT_EQ(shards.size(), 2u);
    std::uint64_t hits = 0, misses = 0;
    for (const Value &shard : shards) {
        hits += shard.find("cache_hits")->asUint();
        misses += shard.find("cache_misses")->asUint();
    }
    EXPECT_EQ(hits, 1u);
    EXPECT_EQ(misses, 1u);
    // ...and the CSV carries both aggregate and per-shard rows.
    const std::string csv = body->find("stats_csv")->asString();
    EXPECT_NE(csv.find("serve.cache.hits,1,1"), std::string::npos);
    EXPECT_NE(csv.find("serve.shard0.cache."), std::string::npos);
    EXPECT_NE(csv.find("serve.shard1.cache."), std::string::npos);
    EXPECT_NE(csv.find("serve.shards,1,2"), std::string::npos);
}

TEST(Sharding, ReshardRestartRecoversEveryFrame)
{
    ServeConfig cfg;
    cfg.listen = tcpOnly();
    cfg.shards = 3;
    cfg.storeDir = ::testing::TempDir() + "/hpe_reshard_store";
    std::filesystem::remove_all(cfg.storeDir);

    constexpr std::uint64_t kCells = 6;
    std::map<std::string, std::string> expected; // fingerprint -> result
    {
        Server server(cfg);
        std::string error;
        ASSERT_TRUE(server.start(error)) << error;
        const std::string endpoint = server.boundEndpoints().front();
        for (std::uint64_t seed = 1; seed <= kCells; ++seed) {
            std::string response, err;
            ASSERT_TRUE(submitLine(endpoint, runRequest(seed), response,
                                   err))
                << err;
            const Value v = api::json::parse(response).value_or(Value{});
            ASSERT_TRUE(v.find("ok")->asBool());
            expected[v.find("fingerprint")->asString()] =
                v.find("result")->dump();
        }
        ASSERT_NE(server.store(), nullptr);
        EXPECT_EQ(server.store()->appendCount(), kCells);
        server.stop();
    }
    ASSERT_EQ(expected.size(), kCells);

    // Restart over the same journals with a different shard count: the
    // stray shard-2 journal is migrated, every frame survives, and
    // every cell answers as a warm hit with identical bytes.
    cfg.shards = 2;
    Server server(cfg);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    ASSERT_NE(server.store(), nullptr);
    EXPECT_EQ(server.store()->recoveredCount(), kCells);
    EXPECT_EQ(server.store()->shards(), 2u);
    EXPECT_FALSE(
        std::filesystem::exists(cfg.storeDir + "/shard-2"));

    const std::string endpoint = server.boundEndpoints().front();
    for (std::uint64_t seed = 1; seed <= kCells; ++seed) {
        std::string response, err;
        ASSERT_TRUE(submitLine(endpoint, runRequest(seed), response, err))
            << err;
        const Value v = api::json::parse(response).value_or(Value{});
        ASSERT_TRUE(v.find("ok")->asBool());
        EXPECT_TRUE(v.find("cached")->asBool());
        const std::string fp = v.find("fingerprint")->asString();
        ASSERT_EQ(expected.count(fp), 1u);
        EXPECT_EQ(v.find("result")->dump(), expected.at(fp));
    }
    std::uint64_t misses = 0;
    for (unsigned i = 0; i < server.shards(); ++i)
        misses += server.shardCache(i).misses();
    EXPECT_EQ(misses, 0u); // nothing was recomputed
    server.stop();
}

} // namespace
} // namespace hpe::serve
