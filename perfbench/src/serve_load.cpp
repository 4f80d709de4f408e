#include "serve_load.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "api/json.hpp"
#include "serve/endpoint.hpp"
#include "serve/sharded_store.hpp"
#include "sim/policy_factory.hpp"
#include "sim/sweep.hpp"
#include "workload/apps.hpp"

namespace perfbench {

namespace {

namespace json = hpe::api::json;
namespace fs = std::filesystem;
using hpe::api::ExperimentRequest;

/** Offered load: well below saturation of two workers (see README). */
constexpr double kRatePerSecond = 300.0;
constexpr double kHotShare = 0.85;
constexpr unsigned kConnections = 3;
constexpr unsigned kShards = 2;
constexpr unsigned kWorkers = 2;
constexpr std::size_t kCacheCapacity = 1024;
constexpr double kScale = 1.0;
/** Each latency class needs this many samples so p99 has 10 beyond it. */
constexpr std::size_t kMinClassSamples = 1000;
/** Daemon warm starts before the window and after the in-process check. */
constexpr unsigned kSetupsBefore = 10;
constexpr unsigned kSetupsAfter = 10;

/** SplitMix64: the one seeded generator of the workload. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }
    /** Uniform in [0, 1). */
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
    std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

  private:
    std::uint64_t state_;
};

/** The request object of one functional cell, as a client sends it. */
std::string
cellRequest(const std::string &app, const char *policy, double oversub, std::uint64_t seed)
{
    return json::Value(json::Object{{"app", app},
                                    {"functional", true},
                                    {"oversub", oversub},
                                    {"policy", policy},
                                    {"scale", kScale},
                                    {"seed", seed}})
        .dump();
}

/** The 92 hot cells: every app x {LRU, HPE} x {0.75, 0.5}. */
std::vector<std::string>
hotSet(std::uint64_t seed)
{
    std::vector<std::string> out;
    for (const hpe::AppSpec &spec : hpe::appSpecs())
        for (double oversub : {0.75, 0.5})
            for (const char *policy : {"LRU", "HPE"})
                out.push_back(cellRequest(spec.abbr, policy, oversub, seed));
    return out;
}

/** Unique cold cells: app and policy drawn by @p rng, seed from a
 *  counter in a range no hot cell uses. */
class ColdCells
{
  public:
    explicit ColdCells(std::uint64_t seed)
        : rng_(seed ^ 0xC01DC0DEULL), nextSeed_((Rng(seed).next() >> 24) | (1ULL << 40))
    {
    }
    std::string
    next()
    {
        static const char *const kPolicies[] = {"LRU", "HPE", "CLOCK-Pro", "RRIP"};
        const auto &apps = hpe::appSpecs();
        const std::string app = apps[rng_.below(apps.size())].abbr;
        const char *policy = kPolicies[rng_.below(4)];
        return cellRequest(app, policy, 0.75, nextSeed_++);
    }

  private:
    Rng rng_;
    std::uint64_t nextSeed_;
};

/** `hpe_sim serve` as a child process; stopped and reaped on destruction. */
class Daemon
{
  public:
    Daemon(const std::string &hpeSim, const std::string &dir)
    {
        fs::create_directories(dir);
        const std::string endpointFile = dir + "/endpoint";
        const std::string log = dir + "/daemon.log";
        const std::string storeDir = dir + "/store";
        const std::string shards = std::to_string(kShards);
        const std::string jobs = std::to_string(kWorkers);
        const std::string capacity = std::to_string(kCacheCapacity);
        std::vector<const char *> argv{hpeSim.c_str(), "serve",
                                       "--listen",     "tcp:127.0.0.1:0",
                                       "--endpoint-file", endpointFile.c_str(),
                                       "--shards",     shards.c_str(),
                                       "--jobs",       jobs.c_str(),
                                       "--store-dir",  storeDir.c_str(),
                                       "--cache-capacity", capacity.c_str(),
                                       nullptr};
        const pid_t parent = getpid();
        pid_ = fork();
        if (pid_ < 0)
            throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
        if (pid_ == 0) {
            // The daemon must not outlive the benchmark, even on a crash.
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (getppid() != parent)
                _exit(1);
            const int out = open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
            const int in = open("/dev/null", O_RDONLY);
            if (out >= 0) {
                dup2(out, 1);
                dup2(out, 2);
            }
            if (in >= 0)
                dup2(in, 0);
            execv(argv[0], const_cast<char *const *>(argv.data()));
            _exit(127);
        }
        const std::int64_t deadline = nowNs() + 30'000'000'000LL;
        while (endpoint_.empty()) {
            int status = 0;
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("daemon exited during start-up; see " + log);
            }
            std::ifstream in(endpointFile);
            std::getline(in, endpoint_);
            if (endpoint_.empty()) {
                if (nowNs() > deadline)
                    throw std::runtime_error("daemon did not publish its endpoint");
                usleep(100); // fine enough not to quantize setup_s
            }
        }
    }

    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    int pid() const { return pid_; }
    const std::string &endpoint() const { return endpoint_; }

    /** SIGTERM (graceful drain), then SIGKILL after 10 s; always reaps. */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        kill(pid_, SIGTERM);
        const std::int64_t deadline = nowNs() + 10'000'000'000LL;
        int status = 0;
        while (waitpid(pid_, &status, WNOHANG) == 0) {
            if (nowNs() > deadline) {
                kill(pid_, SIGKILL);
                waitpid(pid_, &status, 0);
                break;
            }
            usleep(2000);
        }
        pid_ = -1;
    }

  private:
    pid_t pid_ = -1;
    std::string endpoint_;
};

/** One request of the workload and what became of it. */
struct Job
{
    Job(std::int64_t due, bool isHot, std::string text)
        : dueNs(due), hot(isHot), request(std::move(text))
    {
    }

    std::int64_t dueNs; ///< absolute; 0 = as soon as a connection is free
    bool hot;
    std::string request; ///< the request object's JSON text
    std::int64_t sentNs = 0;
    std::int64_t recvNs = 0;
    bool ok = false;
    bool cached = false;
};

/** What a fingerprint was served as, for the after-run byte check. */
struct Served
{
    std::string request;
    std::string result;
    bool cold = false;
};

/**
 * The generator: up to kConnections connections, one request in flight
 * on each.  Due requests queue in arrival order until a connection is
 * free.  Responses are matched per connection.
 */
class Generator
{
  public:
    explicit Generator(const std::string &endpointText)
    {
        hpe::serve::Endpoint ep;
        std::string error;
        if (!hpe::serve::parseEndpoint(endpointText, ep, error))
            throw std::runtime_error("bad endpoint '" + endpointText + "': " + error);
        for (unsigned i = 0; i < kConnections; ++i) {
            const int fd = hpe::serve::connectEndpoint(ep, error);
            if (fd < 0)
                throw std::runtime_error("connect: " + error);
            const int one = 1;
            setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
            fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
            conns_.push_back(Conn{fd, {}, -1});
        }
    }
    ~Generator()
    {
        for (Conn &c : conns_)
            close(c.fd);
    }
    Generator(const Generator &) = delete;
    Generator &operator=(const Generator &) = delete;

    /**
     * Send every job at or after its due time (jobs must be sorted by
     * due time) and wait for every response.  Served results are checked
     * against earlier responses for the same fingerprint and recorded in
     * @p served.
     */
    void
    run(std::vector<Job> &jobs, std::map<std::string, Served> &served, RunReport &report)
    {
        std::size_t next = 0, done = 0;
        std::deque<std::size_t> pending;
        std::int64_t lastProgress = nowNs();
        while (done < jobs.size()) {
            std::int64_t now = nowNs();
            while (next < jobs.size() && jobs[next].dueNs <= now)
                pending.push_back(next++);
            for (Conn &c : conns_) {
                if (c.job >= 0 || pending.empty())
                    continue;
                const std::size_t j = pending.front();
                pending.pop_front();
                if (!send(c, j, jobs[j])) {
                    report.fail("transport failure sending a request");
                    ++done;
                }
            }
            std::vector<pollfd> fds;
            std::vector<Conn *> polled;
            for (Conn &c : conns_) {
                if (c.job >= 0) {
                    fds.push_back(pollfd{c.fd, POLLIN, 0});
                    polled.push_back(&c);
                }
            }
            // Spin rather than sleep: waking an idle vCPU takes a
            // host-dependent time that would land in every latency.
            const timespec zero{0, 0};
            const int ready = ppoll(fds.data(), fds.size(), &zero, nullptr);
            if (ready < 0 && errno != EINTR)
                throw std::runtime_error(std::string("ppoll: ") + std::strerror(errno));
            for (std::size_t i = 0; i < fds.size(); ++i) {
                if (fds[i].revents == 0)
                    continue;
                const std::size_t finished = receive(*polled[i], jobs, served, report);
                done += finished;
                if (finished > 0)
                    lastProgress = nowNs();
            }
            if (nowNs() - lastProgress > 60'000'000'000LL && !fds.empty()) {
                report.fail("daemon stopped answering");
                throw std::runtime_error("daemon stopped answering for 60 s");
            }
        }
    }

    /** One `stats` round trip on an idle connection. */
    json::Value
    stats()
    {
        Conn &c = conns_.front();
        const std::string line = "{\"type\":\"stats\",\"v\":2}\n";
        writeAll(c.fd, line);
        std::string response;
        while (!takeLine(c, response)) {
            pollfd p{c.fd, POLLIN, 0};
            poll(&p, 1, 10'000);
            if (!fill(c))
                throw std::runtime_error("stats: connection closed");
        }
        json::ParseError err;
        auto v = json::parse(response, &err);
        if (!v || !v->isObject() || v->find("stats") == nullptr)
            throw std::runtime_error("stats: malformed response");
        return *v->find("stats");
    }

  private:
    struct Conn
    {
        int fd;
        std::string rbuf;
        long job; ///< index of the job in flight, -1 when idle
    };

    static bool
    writeAll(int fd, const std::string &line)
    {
        std::size_t off = 0;
        while (off < line.size()) {
            const ssize_t n = ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
            if (n > 0) {
                off += static_cast<std::size_t>(n);
            } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
                pollfd p{fd, POLLOUT, 0};
                poll(&p, 1, 1000);
            } else {
                return false;
            }
        }
        return true;
    }

    bool
    send(Conn &c, std::size_t j, Job &job)
    {
        const std::string line = "{\"id\":\"" + std::to_string(j) + "\",\"request\":"
                                 + job.request + ",\"type\":\"run\",\"v\":2}\n";
        job.sentNs = nowNs();
        if (job.dueNs == 0)
            job.dueNs = job.sentNs;
        if (!writeAll(c.fd, line))
            return false;
        c.job = static_cast<long>(j);
        return true;
    }

    /** Read what is available; false on EOF or a hard error. */
    static bool
    fill(Conn &c)
    {
        char buf[65536];
        for (;;) {
            const ssize_t n = recv(c.fd, buf, sizeof buf, 0);
            if (n > 0) {
                c.rbuf.append(buf, static_cast<std::size_t>(n));
                continue;
            }
            if (n == 0)
                return false;
            return errno == EAGAIN || errno == EINTR;
        }
    }

    static bool
    takeLine(Conn &c, std::string &line)
    {
        const std::size_t nl = c.rbuf.find('\n');
        if (nl == std::string::npos)
            return false;
        line = c.rbuf.substr(0, nl);
        c.rbuf.erase(0, nl + 1);
        return true;
    }

    std::size_t
    receive(Conn &c, std::vector<Job> &jobs, std::map<std::string, Served> &served,
            RunReport &report)
    {
        const bool open = fill(c);
        std::size_t finished = 0;
        std::string line;
        while (c.job >= 0 && takeLine(c, line)) {
            Job &job = jobs[static_cast<std::size_t>(c.job)];
            job.recvNs = nowNs();
            c.job = -1;
            ++finished;
            json::ParseError err;
            const auto v = json::parse(line, &err);
            const json::Value *ok = v ? v->find("ok") : nullptr;
            if (ok == nullptr || !ok->isBool() || !ok->asBool() || v->find("result") == nullptr) {
                report.fail("request failed: " + line.substr(0, 200));
                continue;
            }
            job.ok = true;
            job.cached = v->find("cached")->asBool();
            const std::string fingerprint = v->find("fingerprint")->asString();
            std::string result = v->find("result")->dump();
            auto [it, inserted] = served.try_emplace(fingerprint);
            if (inserted)
                it->second = Served{job.request, std::move(result), !job.hot};
            else if (it->second.result != result)
                report.fail("fingerprint " + fingerprint + " served two different results");
        }
        if (!open && c.job >= 0) {
            report.fail("connection closed with a request in flight");
            c.job = -1;
            ++finished;
        }
        return finished;
    }

    std::vector<Conn> conns_;
};

std::uint64_t
statU(const json::Value &stats, const char *key)
{
    const json::Value *v = stats.find(key);
    return v != nullptr && v->isNumber() ? v->asUint() : 0;
}

/** Start a daemon and fill its cache to capacity with a closed loop. */
struct Running
{
    std::unique_ptr<Daemon> daemon;
    std::unique_ptr<Generator> gen;
};

Running
startAndFill(const ServeSetup &setup, const std::string &dir,
             const std::vector<std::string> &hot, ColdCells &cold, Rng &rng,
             std::map<std::string, Served> &served, RunReport &report)
{
    Running r;
    r.daemon = std::make_unique<Daemon>(setup.hpeSim, dir);
    r.gen = std::make_unique<Generator>(r.daemon->endpoint());
    // Hot cells land at random positions among the fillers, so their
    // ages in the FIFO cache are spread as in steady state.
    std::vector<Job> jobs;
    for (const std::string &h : hot)
        jobs.emplace_back(0, true, h);
    for (std::size_t i = 0; i < kCacheCapacity + kCacheCapacity / 8; ++i)
        jobs.emplace_back(0, false, cold.next());
    for (std::size_t i = jobs.size(); i > 1; --i)
        std::swap(jobs[i - 1], jobs[rng.below(i)]);
    for (int round = 0; round < 20; ++round) {
        report.attempted += jobs.size();
        r.gen->run(jobs, served, report);
        if (statU(r.gen->stats(), "cache_entries") >= kCacheCapacity)
            return r;
        jobs.clear();
        for (int i = 0; i < 64; ++i)
            jobs.emplace_back(0, false, cold.next());
    }
    report.fail("daemon cache did not fill to capacity");
    return r;
}

/**
 * Report one latency class (`hit` or `cold`, samples in ms) and its
 * sample support in a detail line.  Only the hit p50 is an end-to-end
 * metric (`latency_ms`): on a shared VM the cold p50 (mostly compute,
 * which memory contention slows) and both p99s (host scheduling stalls)
 * moved too far between runs for a bound to hold, so they are per-layer
 * metrics.
 */
void
reportClass(const std::string &cls, std::vector<double> ms, RunReport &report)
{
    std::sort(ms.begin(), ms.end());
    const Percentile p50 = percentileOf(ms, 50.0);
    const Percentile p99 = percentileOf(ms, 99.0);
    const auto best = highestSupported(ms);
    char buf[240];
    std::snprintf(buf, sizeof buf,
                  "serve %s: %zu samples, p50 %.4f ms, p99 %.4f ms (%zu beyond), highest "
                  "percentile with 10 beyond: p%.1f = %.4f ms",
                  cls.c_str(), ms.size(), p50.value, p99.value, p99.beyond,
                  best ? best->percent : 0.0, best ? best->value : 0.0);
    report.details.push_back(buf);
    std::string deciles = "serve " + cls + " deciles (ms):";
    for (double pct = 10.0; pct < 100.0; pct += 10.0) {
        std::snprintf(buf, sizeof buf, " %.4f", percentileOf(ms, pct).value);
        deciles += buf;
    }
    report.details.push_back(deciles);
    if (ms.size() < kMinClassSamples)
        report.fail("serve " + cls + ": fewer than 1000 samples, p99 is unsupported");
    report.set(cls == "hit" ? "latency_ms" : "serve.cold_p50_ms", p50.value, "ms");
    report.set("serve." + cls + "_p99_ms", p99.value, "ms");
}

double
dirBytes(const std::string &dir)
{
    double total = 0.0;
    for (const auto &entry : fs::recursive_directory_iterator(dir))
        if (entry.is_regular_file() && entry.path().filename() != "LOCK")
            total += static_cast<double>(entry.file_size());
    return total;
}

} // namespace

void
runServe(const WorkloadOptions &opt, const ServeSetup &setup, RunReport &report)
{
    fs::remove_all(setup.workDir);
    fs::create_directories(setup.workDir);
    Rng rng(opt.seed);
    ColdCells cold(opt.seed);
    const std::vector<std::string> hot = hotSet(opt.seed);
    std::map<std::string, Served> served;

    // The store every set-up starts from: one daemon fills its cache to
    // capacity with computed cells, which it journals.  That is request
    // work (the cold path), so it is timed apart, in a detail line.
    const std::string fillDir = setup.workDir + "/fill";
    {
        const std::int64_t t0 = nowNs();
        Running fill = startAndFill(setup, fillDir, hot, cold, rng, served, report);
        fill.gen.reset();
        fill.daemon->stop();
        report.details.push_back("cache fill (computed, journaled): "
                                 + std::to_string(seconds(t0, nowNs())) + " s");
    }

    // A set-up is a fresh daemon over its own copy of that store: process
    // start, store open and recovery, cache warm start, and the
    // generator's connections.  Set-ups before the window (the last one
    // serves it) and after the in-process check span the run; setup_s is
    // their median, as for a grid's builds (see SetupTimes).
    SetupTimes setupTimes;
    const auto warmStart = [&](unsigned s) {
        const std::string dir = setup.workDir + "/setup-" + std::to_string(s);
        fs::create_directories(dir);
        fs::copy(fillDir + "/store", dir + "/store", fs::copy_options::recursive);
        Running r;
        const std::int64_t t0 = nowNs();
        r.daemon = std::make_unique<Daemon>(setup.hpeSim, dir);
        r.gen = std::make_unique<Generator>(r.daemon->endpoint());
        setupTimes.add(seconds(t0, nowNs()));
        if (statU(r.gen->stats(), "cache_entries") < kCacheCapacity)
            report.fail("daemon warm start left its cache below capacity");
        return r;
    };
    Running live;
    for (unsigned s = 0; s < kSetupsBefore; ++s) {
        live = Running{}; // stops the previous daemon before timing the next
        live = warmStart(s);
    }

    // The open-loop schedule for the window.
    std::vector<Job> jobs;
    const std::int64_t windowNs = static_cast<std::int64_t>(opt.seconds * 1e9);
    const json::Value before = live.gen->stats();
    const double cpuBefore = cpuTimeMs(live.daemon->pid());
    const std::int64_t start = nowNs() + 1'000'000;
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - rng.uniform()) / kRatePerSecond;
        const std::int64_t due = static_cast<std::int64_t>(t * 1e9);
        if (due >= windowNs)
            break;
        const bool isHot = rng.uniform() < kHotShare;
        jobs.emplace_back(start + due, isHot,
                          isHot ? hot[rng.below(hot.size())] : cold.next());
    }
    report.attempted += jobs.size();
    live.gen->run(jobs, served, report);
    const json::Value after = live.gen->stats();
    const double cpuMs = cpuTimeMs(live.daemon->pid()) - cpuBefore;
    report.set("peak_rss_mb", peakRssMiB(live.daemon->pid()), "MiB");
    live.gen.reset();
    live.daemon->stop();

    std::vector<double> hitMs, coldMs, lateMs, hitServiceMs, coldServiceMs;
    std::uint64_t hotRequests = 0, hotMisses = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const Job &job = jobs[i];
        lateMs.push_back(static_cast<double>(job.sentNs - job.dueNs) * 1e-6);
        if (job.hot) {
            ++hotRequests;
            hotMisses += job.ok && !job.cached;
        }
        if (!job.ok)
            continue;
        (job.cached ? hitMs : coldMs).push_back(static_cast<double>(job.recvNs - job.dueNs) * 1e-6);
        (job.cached ? hitServiceMs : coldServiceMs)
            .push_back(static_cast<double>(job.recvNs - job.sentNs) * 1e-6);
        if (opt.spans != nullptr)
            opt.spans->record("serve.request", job.dueNs, job.recvNs, std::to_string(i));
    }
    reportClass("hit", hitMs, report);
    reportClass("cold", coldMs, report);
    // Where the tail comes from: the wait for a send versus the round trip.
    for (auto *v : {&lateMs, &hitServiceMs, &coldServiceMs})
        std::sort(v->begin(), v->end());
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "send lateness p50 %.4f p99 %.4f ms; round trip p99 hit %.4f cold %.4f ms",
                  percentileOf(lateMs, 50.0).value, percentileOf(lateMs, 99.0).value,
                  percentileOf(hitServiceMs, 99.0).value,
                  percentileOf(coldServiceMs, 99.0).value);
    report.details.push_back(buf);

    // Every served result must equal the in-process api result, byte for
    // byte; computed after the window so it does not disturb it.
    std::vector<const Served *> checks;
    for (const auto &[fp, s] : served)
        checks.push_back(&s);
    std::vector<double> computeMs(checks.size(), -1.0);
    const auto verify = [&](std::size_t i) {
        std::string error;
        json::ParseError perr;
        const auto v = json::parse(checks[i]->request, &perr);
        const auto req = v ? ExperimentRequest::fromJson(*v, error) : std::nullopt;
        if (!req)
            return std::string("unparsable request");
        const std::int64_t t0 = nowNs();
        std::string local = hpe::api::runExperiment(*req).toJson().dump();
        computeMs[i] = static_cast<double>(nowNs() - t0) * 1e-6;
        return local;
    };
    std::vector<std::string> local;
    if (opt.trace) {
        for (std::size_t i = 0; i < checks.size(); ++i)
            local.push_back(verify(i));
    } else {
        hpe::SweepRunner runner(opt.jobs);
        local = runner.map(checks.size(), verify);
    }
    for (std::size_t i = 0; i < checks.size(); ++i)
        if (local[i] != checks[i]->result)
            report.fail("served result differs from in-process api::runExperiment");
    report.details.push_back("verified " + std::to_string(checks.size())
                             + " distinct served results against api::runExperiment");

    for (unsigned s = kSetupsBefore; s < kSetupsBefore + kSetupsAfter; ++s)
        warmStart(s); // the daemon stops at once
    setupTimes.reportTo("setup (daemon warm start)", report);

    if (opt.trace) {
        const double requests = static_cast<double>(jobs.size());
        report.set("serve.hot_miss_share",
                   hotRequests == 0 ? 0.0 : static_cast<double>(hotMisses) / hotRequests, "ratio");
        report.set("serve.coalesced",
                   static_cast<double>(statU(after, "coalesced") - statU(before, "coalesced")),
                   "count");
        report.set("serve.shed",
                   static_cast<double>(statU(after, "shed_rejections")
                                       + statU(after, "shed_cold_rejections")
                                       - statU(before, "shed_rejections")
                                       - statU(before, "shed_cold_rejections")),
                   "count");
        report.set("serve.errors",
                   static_cast<double>(statU(after, "errors") - statU(before, "errors")), "count");
        report.set("serve.daemon_cpu_ms_per_req", cpuMs / requests, "ms/req");
        std::sort(lateMs.begin(), lateMs.end());
        report.set("serve.gen_late_p99_ms", percentileOf(lateMs, 99.0).value, "ms");

        // The api layer on the workload's own requests.
        std::vector<double> parseUs, fpUs, resultUs, coldComputeMs;
        std::vector<std::optional<ExperimentRequest>> parsed;
        for (const Served *s : checks) {
            json::ParseError perr;
            const auto v = json::parse(s->request, &perr);
            std::string error;
            const std::int64_t t0 = nowNs();
            auto req = ExperimentRequest::fromJson(*v, error);
            const std::int64_t t1 = nowNs();
            const std::string fp = req->fingerprint();
            const std::int64_t t2 = nowNs();
            parseUs.push_back(static_cast<double>(t1 - t0) * 1e-3);
            fpUs.push_back(static_cast<double>(t2 - t1) * 1e-3);
        }
        for (std::size_t i = 0; i < checks.size(); ++i) {
            std::string error;
            auto result = hpe::api::ExperimentResult::fromJson(
                *json::parse(checks[i]->result), error);
            const std::int64_t t0 = nowNs();
            const std::string text = result->toJson().dump();
            resultUs.push_back(static_cast<double>(nowNs() - t0) * 1e-3);
            if (checks[i]->cold)
                coldComputeMs.push_back(computeMs[i]);
        }
        report.set("api.parse_us", median(parseUs), "us");
        report.set("api.fingerprint_us", median(fpUs), "us");
        report.set("api.result_json_us", median(resultUs), "us");
        const double compute = median(coldComputeMs);
        report.set("api.compute_ms", compute, "ms");
        report.set("serve.cold_overhead_ms", report.metrics["serve.cold_p50_ms"].value - compute,
                   "ms");

        // The traced run builds its spans after the window from the
        // timestamps every run takes: tracing adds nothing to the served
        // path.
        report.set("trace.overhead", 0.0, "ratio");

        // The store layer: replay the cold results through a throwaway store.
        const std::string storeDir = setup.workDir + "/replay-store";
        hpe::serve::ShardedResultStore store(hpe::serve::ResultStoreConfig{.dir = storeDir},
                                             kShards);
        std::string error;
        if (!store.open(error)) {
            report.fail("replay store: " + error);
        } else {
            std::vector<double> appendUs;
            std::size_t appended = 0;
            for (const auto &[fp, s] : served) {
                if (!s.cold)
                    continue;
                const std::int64_t t0 = nowNs();
                store.append(fp, s.result, false);
                appendUs.push_back(static_cast<double>(nowNs() - t0) * 1e-3);
                ++appended;
            }
            store.close();
            report.set("store.append_us", median(appendUs), "us");
            report.set("store.bytes_per_result",
                       appended == 0 ? 0.0 : dirBytes(storeDir) / static_cast<double>(appended),
                       "B/result");
        }

        // The workload layer: the hot set's traces.
        double buildS = 0.0;
        for (const hpe::AppSpec &spec : hpe::appSpecs()) {
            const int span = opt.spans->begin("workload.build", -1, spec.abbr);
            const std::int64_t t0 = nowNs();
            const hpe::Trace trace = hpe::buildApp(spec.abbr, kScale, opt.seed);
            buildS += seconds(t0, nowNs());
            opt.spans->end(span);
        }
        report.set("workload.build_s", buildS, "s");
    }
    fs::remove_all(setup.workDir);
}

} // namespace perfbench
