/**
 * @file
 * hpe_serve — the persistent, sharded experiment-serving daemon.
 *
 * A Server listens on any mix of Unix-domain and TCP endpoints
 * (`unix:/path` | `tcp:host:port`; see serve/endpoint.hpp) and speaks
 * a newline-delimited JSON request/response protocol, versioned since
 * v2 (one JSON object per line in each direction; see docs/api.md):
 *
 *   {"v":2,"type":"run","request":{...ExperimentRequest...},"id":"tag",
 *    "deadline_ms":5000}
 *   {"type":"stats"} | {"type":"ping"} | {"type":"shutdown"}
 *
 * Request handling funnels through the stable hpe::api façade, so a
 * cell served over any socket is byte-identical (same digests, same
 * stat values) to the same cell run via the CLI or a sweep.
 *
 * Architecture — one event-driven IO thread, N independent shards:
 *
 *  - the IO thread owns every socket: an epoll loop accepts, reads,
 *    frames request lines, writes buffered responses, and expires
 *    per-request deadlines.  It never computes: `run` work is posted
 *    to the owning shard and the response comes back through a
 *    completion queue (workers never touch a socket, the IO thread
 *    never blocks on a computation);
 *  - a shard = one ResultCache + one worker pool + one journal
 *    directory, selected by fingerprint hash
 *    (ShardedResultStore::shardOf).  Cache hits, cold computes, and
 *    journal appends on different shards share no lock;
 *  - durability: with a store directory configured, completed results
 *    journal to `<dir>/shard-<i>/` *before* waiters see them, and
 *    start() warm-starts every shard cache from the recovered union
 *    after the sockets bind but before they listen.  Restarting with
 *    a different --shards count migrates the journals (see
 *    serve/sharded_store.hpp);
 *  - tiered load shedding: admission degrades through full →
 *    hit-and-coalesce-only → reject, keyed on *aggregate* depth
 *    (outstanding run requests + computations pending across all
 *    shards), so one hot shard cannot flip the whole daemon into
 *    reject mode; what it can do is saturate its own pending bound,
 *    which sheds only the requests routed to it.  Per-shard gauges
 *    and shed counters surface in `stats` next to the aggregates;
 *  - per-request deadlines: a waiter whose deadline passes gets a
 *    deadline_exceeded error from the IO thread's timer wheel; the
 *    computation continues and lands in the cache for the retry;
 *  - robustness: request lines are capped (oversized lines get an
 *    error and a close), half-written requests and mid-request
 *    disconnects clean up silently, byte-at-a-time senders just
 *    accumulate in the read buffer;
 *  - stale-socket recovery (Unix endpoints): a dead daemon's leftover
 *    socket file is probed, unlinked, and rebound; a live daemon's is
 *    never stolen;
 *  - graceful drain: SIGTERM/SIGINT or a `shutdown` request close the
 *    listeners, answer every in-flight request, flush every response,
 *    then tear the sockets down.
 */

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/json.hpp"
#include "common/thread_pool.hpp"
#include "serve/endpoint.hpp"
#include "serve/result_cache.hpp"
#include "serve/sharded_store.hpp"

namespace hpe::serve {

/** Daemon configuration (defaults match `hpe_sim serve`'s). */
struct ServeConfig
{
    /** Primary endpoint (endpoint grammar; a bare path = Unix socket). */
    std::string socketPath;
    /** Additional listener endpoints (same grammar). */
    std::vector<std::string> listen;
    /** Cache/store/worker shards; requests route by fingerprint. */
    unsigned shards = 1;
    /** Worker parallelism across all shards; 0 resolves via
     *  resolveJobs().  Every shard gets at least one worker. */
    unsigned jobs = 0;
    /** Bound on computations queued or running (admission control),
     *  split evenly across shards (at least 1 each). */
    std::size_t maxQueue = 64;
    /** Completed results retained, split evenly across shard caches. */
    std::size_t cacheCapacity = 1024;
    /** Deadline applied to requests that carry none; 0 = unbounded. */
    std::uint64_t defaultDeadlineMs = 0;
    /** Durable result-store root; empty = memory-only daemon. */
    std::string storeDir;
    /** Journal segment rotation threshold (bytes, per shard). */
    std::size_t storeSegmentBytes = 4u << 20;
    /** fdatasync every journal append (power-loss durability). */
    bool storeSync = false;
    /** Load depth (exclusive) beyond which shedding enters
     *  hit-and-coalesce-only mode; 0 = derive (maxQueue). */
    std::size_t shedHitOnlyDepth = 0;
    /** Load depth (exclusive) beyond which shedding rejects every run
     *  request; 0 = derive (4 * maxQueue). */
    std::size_t shedRejectDepth = 0;
    /** Longest accepted request line; longer ones get an error and a
     *  close (a stream with no newline is not a client). */
    static constexpr std::size_t kMaxLineBytes = 1u << 20;
};

/** The admission tiers of the load-shedding path, mildest first. */
enum class ShedMode { Full = 0, HitOnly = 1, Reject = 2 };

/** Wire-visible name of a shed mode ("full" / "hit_only" / "reject"). */
const char *shedModeName(ShedMode mode);

/** The daemon; construct, start(), wait(), stop().  See file comment. */
class Server
{
  public:
    explicit Server(const ServeConfig &cfg);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind every endpoint and start the IO thread.  @return false
     * (with @p error filled) when an endpoint cannot be parsed or
     * bound — e.g. a live daemon still owns a socket — or the store
     * cannot be opened.
     */
    bool start(std::string &error);

    /** Block until a stop is requested (signal, shutdown request, or
     *  requestStop()).  Does not tear down — call stop() after. */
    void wait();

    /**
     * Ask the daemon to stop; safe from any thread (signal handlers
     * included), idempotent.  The drain runs on the IO thread; stop()
     * joins it.
     */
    void requestStop();

    /** Graceful drain: close the listeners, answer and flush every
     *  in-flight request, join the IO thread, close the store
     *  (releasing its locks), remove Unix socket files.  Idempotent.
     *  Must not be called from the IO thread or a worker. */
    void stop();

    /**
     * Route SIGTERM/SIGINT to requestStop() of @p server (one server
     * per process), and ignore SIGPIPE so a vanished client cannot
     * kill the daemon.  Call before start(); pass nullptr to detach.
     */
    static void installSignalHandlers(Server *server);

    /** Serialized stats object (the `stats` response's "stats" member). */
    std::string statsJson();

    const ServeConfig &config() const { return cfg_; }
    /** The endpoints actually bound, canonical spelling, ephemeral TCP
     *  ports resolved — valid after start(). */
    const std::vector<std::string> &boundEndpoints() const
    {
        return boundEndpoints_;
    }
    unsigned shards() const { return static_cast<unsigned>(shards_.size()); }
    /** Shard 0's cache (the whole cache when --shards 1). */
    ResultCache &cache() { return shardCache(0); }
    ResultCache &shardCache(unsigned index);
    /** The durable store; nullptr when running memory-only. */
    ShardedResultStore *store() { return store_.get(); }
    /** Resolved worker parallelism (dedicated workers, all shards). */
    unsigned jobs() const { return jobsTotal_; }
    /** The shed mode the last admission decision ran under. */
    ShedMode shedMode() const
    {
        return static_cast<ShedMode>(shedMode_.load());
    }

  private:
    using Clock = std::chrono::steady_clock;

    /** One cache + worker-pool + shed-gauge unit; see file comment. */
    struct Shard
    {
        Shard(std::size_t capacity, std::size_t maxPending,
              unsigned workers)
            : cache(capacity, maxPending), pool(workers)
        {}
        ResultCache cache;
        ThreadPool pool;
        /** Cold fingerprints shed here in hit-and-coalesce-only mode. */
        std::atomic<std::uint64_t> shedColdRejections{0};
    };

    /** Per-connection state; owned and touched by the IO thread only. */
    struct Connection
    {
        std::uint64_t id = 0;
        int fd = -1;
        std::string rbuf;
        /** Unwritten response bytes (offset woff already sent). */
        std::string wbuf;
        std::size_t woff = 0;
        /** EPOLLOUT currently armed. */
        bool wantWrite = false;
        /** A run request is awaiting its async response (responses per
         *  connection stay in request order: buffered lines park until
         *  the in-flight one answers). */
        bool awaiting = false;
        /** Close as soon as wbuf flushes; stop reading now. */
        bool closing = false;
    };

    /** One in-flight async run request, shared between the IO thread
     *  (deadline timer) and the completing worker.  Whoever flips
     *  `answered` first owns the response. */
    struct Ticket
    {
        std::atomic<bool> answered{false};
        std::uint64_t connId = 0;
        int version = 1;
        std::optional<api::json::Value> id;
        std::string fingerprint;
        bool cached = false;
        bool coalesced = false;
        std::uint64_t deadlineMs = 0;
        ResultCache::EntryPtr entry;
    };
    using TicketPtr = std::shared_ptr<Ticket>;

    bool bindEndpoint(const Endpoint &endpoint, int &fd,
                      std::string &error);
    void closeListeners();
    void ioLoop();
    void beginDrain();
    void acceptFrom(int listenFd);
    /** @return false when the connection must be closed. */
    bool handleReadable(Connection &conn);
    bool handleWritable(Connection &conn);
    bool processLines(Connection &conn);
    bool flushWrite(Connection &conn);
    void enqueueResponse(Connection &conn, const std::string &line);
    void updateEpollInterest(Connection &conn);
    void closeConn(std::uint64_t id);
    void sweepClosable();
    void deliverCompletions();
    void expireDeadlines(Clock::time_point now);
    int epollTimeoutMs(Clock::time_point now) const;

    void handleLine(Connection &conn, const std::string &line);
    void handleRun(Connection &conn, const api::json::Value &envelope,
                   int version);
    /** The worker-side response for an answered ticket. */
    std::string buildRunResponse(const Ticket &ticket);
    /** Workers hand finished responses back to the IO thread here. */
    void pushCompletion(std::uint64_t connId, std::string line);
    /** Current shed mode for @p depth, recording transitions. */
    ShedMode updateShedMode(std::size_t depth);
    /** Aggregate depth gauge: outstanding + every shard's pending. */
    std::size_t loadDepth() const;

    ServeConfig cfg_;
    /** Resolved shedding thresholds (see ServeConfig). */
    std::size_t shedHitOnlyDepth_;
    std::size_t shedRejectDepth_;
    unsigned jobsTotal_ = 0;
    // store_ before shards_: shard pool destructors join in-flight
    // tasks, which append to the store and complete into the caches —
    // both must outlive the pools.
    std::unique_ptr<ShardedResultStore> store_;
    std::vector<std::unique_ptr<Shard>> shards_;

    std::vector<Endpoint> endpoints_;
    std::vector<std::string> boundEndpoints_;
    std::vector<int> listenFds_;
    int epollFd_ = -1;
    int stopPipe_[2] = {-1, -1};
    /** Wakes the epoll loop when a worker queues a completion. */
    int notifyFd_ = -1;
    std::thread ioThread_;

    std::mutex stateMutex_;
    std::condition_variable stopCv_;
    bool stopRequested_ = false;
    bool stopped_ = false;
    bool started_ = false;

    /** @{ IO-thread-only state. */
    std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
    std::uint64_t nextConnId_ = 1;
    bool draining_ = false;
    struct DeadlineLater
    {
        bool operator()(const std::pair<Clock::time_point, TicketPtr> &a,
                        const std::pair<Clock::time_point, TicketPtr> &b)
            const
        {
            return a.first > b.first;
        }
    };
    std::priority_queue<std::pair<Clock::time_point, TicketPtr>,
                        std::vector<std::pair<Clock::time_point, TicketPtr>>,
                        DeadlineLater>
        deadlines_;
    /** @} */

    /** Completed responses awaiting IO-thread delivery. */
    std::mutex doneMutex_;
    std::vector<std::pair<std::uint64_t, std::string>> done_;

    std::atomic<std::uint64_t> served_{0};
    std::atomic<std::uint64_t> errors_{0};
    std::atomic<std::uint64_t> connectionsTotal_{0};
    std::atomic<std::uint64_t> running_{0};
    /** Run requests admitted and not yet answered (the load gauge the
     *  shed tiers key on, together with the caches' pending counts).
     *  Coalesced waiters release their token once they park. */
    std::atomic<std::uint64_t> outstanding_{0};
    std::atomic<int> shedMode_{0};
    std::atomic<std::uint64_t> shedTransitions_{0};
    /** Run requests shed outright in reject mode (pre-routing, so a
     *  daemon-level counter; the hit-only sheds count per shard). */
    std::atomic<std::uint64_t> shedRejections_{0};
};

} // namespace hpe::serve
