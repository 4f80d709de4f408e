#include "cli/commands.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "api/protocol.hpp"
#include "api/registry.hpp"
#include "common/comma_list.hpp"
#include "common/table.hpp"
#include "serve/client.hpp"
#include "serve/endpoint.hpp"
#include "serve/server.hpp"
#include "sim/sweep.hpp"
#include "sim/tournament.hpp"
#include "trace/exporters.hpp"
#include "workload/apps.hpp"
#include "workload/trace_io.hpp"

namespace hpe::cli {

namespace {

/**
 * Build the ExperimentRequest a command line denotes — the one funnel
 * shared by `run`, `report`, `compare`, `sweep`, and `submit`, so every
 * entry point resolves options (and therefore fingerprints) identically.
 *
 * Name lookups go through the hpe::api registry: case-insensitive, with
 * unknown names exiting through usageFatal() (distinct exit code, uniform
 * "unknown <what> '<name>' (valid: ...)" message).  Every other problem
 * is found by ExperimentRequest::check(), the daemon's validator, and
 * exits through fatal() with the daemon's message.  The caller decides
 * the interval/trace attachment fields, which are command-specific.
 */
api::ExperimentRequest
requestFromArgs(const Args &args)
{
    api::ExperimentRequest req;
    req.app = args.get("app", "HSD");
    req.scale = args.getDouble("scale", 1.0);
    req.seed = args.getUint("seed", 1);
    req.policy = args.get("policy", "HPE");
    req.oversub = args.getDouble("oversub", 0.75);
    req.functional = args.has("functional");
    req.walkLatency =
        static_cast<unsigned>(args.getUint("walk-latency", 8));
    req.multiLevelWalker = args.has("multi-level-walker");

    if (args.has("prefetch")) {
        req.prefetch = args.get("prefetch", "none");
        // Deprecated numeric spelling: still honoured (normalize() folds
        // it onto the canonical form), but steer users to the named one.
        if (api::allDigits(req.prefetch))
            warn("--prefetch {} is deprecated; use --prefetch sequential "
                 "--prefetch-degree {}",
                 req.prefetch, req.prefetch);
    }
    req.prefetchDegree =
        static_cast<unsigned>(args.getUint("prefetch-degree", 4));
    req.faultBatch = static_cast<unsigned>(args.getUint("fault-batch", 1));
    // Page-size axis; normalize() canonicalizes the spelling and rejects
    // unknown size tokens through usageFatal().
    if (args.has("page-sizes"))
        req.pageSizes = args.get("page-sizes", "4k");
    req.coalesce = args.has("coalesce");

    // Chaos mode: any --chaos-* option arms the injector; --chaos-seed
    // alone replays the default event mix under a chosen seed.
    req.chaos.enabled =
        args.has("chaos-seed") || args.has("chaos-pcie-fail")
        || args.has("chaos-pcie-stall") || args.has("chaos-service-timeout")
        || args.has("chaos-shootdown-drop") || args.has("chaos-walk-error");
    if (req.chaos.enabled) {
        req.chaos.seed = args.getUint("chaos-seed", req.seed);
        req.chaos.pcieFail = args.getDouble("chaos-pcie-fail", 0.0);
        req.chaos.pcieStall = args.getDouble("chaos-pcie-stall", 0.0);
        req.chaos.serviceTimeout =
            args.getDouble("chaos-service-timeout", 0.0);
        req.chaos.shootdownDrop =
            args.getDouble("chaos-shootdown-drop", 0.0);
        req.chaos.walkError = args.getDouble("chaos-walk-error", 0.0);
    }
    req.degrade = args.has("degrade");
    req.validate = args.has("validate");

    req.traceDigest = args.has("trace-digest");
    req.traceEvents = args.get("trace-events", "all");
    req.traceRing =
        static_cast<std::size_t>(args.getUint("trace-ring", 1u << 16));
    req.stats = args.has("stats");

    req.normalize();
    if (std::string error; !req.check(error))
        fatal("{}", error);
    return req;
}

/** The chaos/resilience options shared by run and compare. */
const std::vector<std::string> kChaosOptions = {
    "chaos-seed",          "chaos-pcie-fail",     "chaos-pcie-stall",
    "chaos-service-timeout", "chaos-shootdown-drop", "chaos-walk-error",
    "degrade",             "validate",
};

/** @return @p base extended with the chaos/resilience options. */
std::vector<std::string>
withChaosOptions(std::vector<std::string> base)
{
    base.insert(base.end(), kChaosOptions.begin(), kChaosOptions.end());
    return base;
}

/** The trace/interval options shared by run and submit. */
const std::vector<std::string> kTraceOptions = {
    "trace", "trace-chrome", "trace-events", "trace-ring", "trace-digest",
    "interval-stats", "interval",
};

std::vector<std::string>
withTraceOptions(std::vector<std::string> base)
{
    base.insert(base.end(), kTraceOptions.begin(), kTraceOptions.end());
    return base;
}

/**
 * Write through @p emit to @p path, where "-" means @p os (the command's
 * stdout stream).  fatal() when the file cannot be created.
 */
void
writeOutput(const std::string &path, std::ostream &os,
            const std::function<void(std::ostream &)> &emit)
{
    if (path == "-") {
        emit(os);
        return;
    }
    std::ofstream file(path);
    if (!file)
        fatal("cannot write '{}'", path);
    emit(file);
}

} // namespace

int
runCommand(const Args &args, std::ostream &os)
{
    args.allowOnly(withTraceOptions(withChaosOptions(
        {"app", "policy", "oversub", "scale", "seed", "functional", "csv",
         "stats", "walk-latency", "prefetch", "prefetch-degree",
         "fault-batch", "multi-level-walker", "page-sizes", "coalesce"})));
    api::ExperimentRequest req = requestFromArgs(args);

    const bool exportEvents = args.has("trace") || args.has("trace-chrome");
    if (!exportEvents && !req.traceDigest
        && (args.has("trace-events") || args.has("trace-ring")))
        fatal("--trace-events/--trace-ring need --trace, --trace-chrome, "
              "or --trace-digest");
    if (args.has("interval-stats"))
        req.interval = args.getUint("interval", 1000);
    else if (args.has("interval"))
        fatal("--interval needs --interval-stats (or use the report command)");

    api::ExperimentArtifacts artifacts;
    const api::ExperimentResult result =
        api::runExperimentInspect(req, artifacts, nullptr, exportEvents);

    if (args.has("trace"))
        writeOutput(args.get("trace"), os, [&](std::ostream &o) {
            trace::writeJsonl(*artifacts.sink, o);
        });
    if (args.has("trace-chrome"))
        writeOutput(args.get("trace-chrome"), os, [&](std::ostream &o) {
            trace::writeChromeTrace(*artifacts.sink, o);
        });
    if (req.traceDigest)
        os << "trace digest " << result.traceDigest << " ("
           << result.traceEvents << " events)\n";
    if (artifacts.intervals != nullptr)
        writeOutput(args.get("interval-stats"), os,
                    [&](std::ostream &o) { o << result.intervalsCsv; });

    if (args.has("csv")) {
        os << "app,policy,mode,oversub,faults,evictions,ipc\n"
           << req.app << "," << req.policy << ","
           << (req.functional ? "functional" : "timing") << "," << req.oversub
           << "," << result.faults << "," << result.evictions << ","
           << result.ipc << "\n";
    } else {
        os << req.app << " under " << req.policy << " ("
           << (req.functional ? "functional" : "timing") << ", "
           << req.oversub * 100 << "% oversubscription)\n";
        if (req.functional) {
            os << "  faults " << result.faults << ", evictions "
               << result.evictions << ", fault rate "
               << TextTable::num(result.faultRate, 3) << "\n";
        } else {
            os << "  faults " << result.faults << ", evictions "
               << result.evictions << ", IPC "
               << TextTable::num(result.ipc, 4) << ", host load "
               << TextTable::num(result.hostLoad * 100, 1) << "%\n";
        }
    }
    if (req.stats)
        os << result.statsCsv;
    return 0;
}

int
compareCommand(const Args &args, std::ostream &os)
{
    args.allowOnly(withChaosOptions(
        {"app", "oversub", "scale", "seed", "extended", "csv", "jobs",
         "prefetch", "prefetch-degree", "fault-batch", "page-sizes",
         "coalesce"}));
    const api::ExperimentRequest base = requestFromArgs(args);
    const auto &kinds =
        args.has("extended") ? extendedPolicyKinds() : allPolicyKinds();

    const Trace trace = buildApp(base.app, base.scale, base.seed);

    // One job per policy; collection by policy index keeps the table
    // byte-identical for every --jobs value.
    struct Row
    {
        api::ExperimentResult functional;
        api::ExperimentResult timing;
    };
    SweepRunner runner(static_cast<unsigned>(args.getUint("jobs", 0)));
    const auto rows = runner.map(kinds.size(), [&](std::size_t i) {
        api::ExperimentRequest cell = base;
        cell.policy = policyKindName(kinds[i]);
        cell.functional = true;
        Row row;
        row.functional = api::runExperiment(cell, &trace);
        cell.functional = false;
        row.timing = api::runExperiment(cell, &trace);
        return row;
    });

    if (args.has("csv"))
        os << "policy,faults,evictions,ipc\n";
    TextTable t({"policy", "faults", "evictions", "IPC"});
    for (std::size_t i = 0; i < kinds.size(); ++i) {
        const Row &row = rows[i];
        if (args.has("csv")) {
            os << policyKindName(kinds[i]) << "," << row.functional.faults
               << "," << row.functional.evictions << "," << row.timing.ipc
               << "\n";
        } else {
            t.addRow({policyKindName(kinds[i]),
                      std::to_string(row.functional.faults),
                      std::to_string(row.functional.evictions),
                      TextTable::num(row.timing.ipc, 4)});
        }
    }
    if (!args.has("csv"))
        t.print(os);
    return 0;
}

int
reportCommand(const Args &args, std::ostream &os)
{
    args.allowOnly(withChaosOptions(
        {"app", "policy", "oversub", "scale", "seed", "functional",
         "interval", "csv", "walk-latency", "prefetch", "prefetch-degree",
         "fault-batch", "multi-level-walker", "page-sizes", "coalesce"}));
    api::ExperimentRequest req = requestFromArgs(args);
    req.interval = args.getUint("interval", 1000);

    api::ExperimentArtifacts artifacts;
    const api::ExperimentResult result =
        api::runExperimentInspect(req, artifacts);
    const trace::IntervalRecorder &rec = *artifacts.intervals;

    if (args.has("csv")) {
        os << result.intervalsCsv;
        return 0;
    }
    os << req.app << " under " << req.policy << " ("
       << (req.functional ? "functional" : "timing") << ", "
       << req.oversub * 100 << "% oversubscription, interval "
       << rec.intervalLength() << " refs)\n";
    std::vector<std::string> header = {"interval", "refs"};
    for (const std::string &col : rec.columns())
        header.push_back(col);
    TextTable t(header);
    for (const trace::IntervalRecorder::Sample &s : rec.samples()) {
        std::vector<std::string> row = {
            std::to_string(s.index),
            std::to_string(s.startRef) + ".." + std::to_string(s.endRef)};
        for (std::uint64_t v : s.values)
            row.push_back(std::to_string(v));
        t.addRow(row);
    }
    t.print(os);
    // Timing runs: event-engine footprint, so profiling sweeps have
    // first-class numbers without scraping the full stats CSV.
    if (!req.functional && artifacts.run.stats != nullptr
        && artifacts.run.stats->hasCounter("gpu.eq.scheduled")) {
        const StatRegistry &st = *artifacts.run.stats;
        os << "event engine: "
           << st.findCounter("gpu.eq.scheduled").value() << " scheduled, "
           << st.findCounter("gpu.eq.fired").value() << " fired, "
           << st.findCounter("gpu.eq.overflowPromoted").value()
           << " overflow promotions, peak pending "
           << st.findCounter("gpu.eq.peakPending").value() << ", arena "
           << st.findCounter("gpu.eq.arenaBytes").value() << " bytes ("
           << st.findCounter("gpu.eq.arenaNodes").value() << " nodes)\n";
    }
    return 0;
}

int
sweepCommand(const Args &args, std::ostream &os)
{
    args.allowOnly({"oversub", "scale", "seed", "extended", "csv",
                    "functional", "jobs", "trace-digests", "prefetch",
                    "prefetch-degree", "fault-batch", "page-sizes",
                    "coalesce"});
    api::ExperimentRequest base = requestFromArgs(args);
    const bool digests = args.has("trace-digests");
    base.traceDigest = digests;
    const auto &kinds =
        args.has("extended") ? extendedPolicyKinds() : allPolicyKinds();

    std::vector<std::string> apps;
    for (const AppSpec &spec : appSpecs())
        apps.push_back(spec.abbr);

    SweepRunner runner(static_cast<unsigned>(args.getUint("jobs", 0)));
    // Traces are built once, in parallel, then shared read-only by the
    // (app x policy) cells — the same sharing `prebuilt` gives the daemon.
    const auto traces = runner.mapItems(apps, [&](const std::string &abbr) {
        return buildApp(abbr, base.scale, base.seed);
    });

    const auto outcomes =
        runner.map(apps.size() * kinds.size(), [&](std::size_t i) {
            api::ExperimentRequest cell = base;
            cell.app = apps[i / kinds.size()];
            cell.policy = policyKindName(kinds[i % kinds.size()]);
            return api::runExperiment(cell, &traces[i / kinds.size()]);
        });

    // Serial reduction in cell order: output is independent of --jobs.
    if (args.has("csv")) {
        os << "app,policy,oversub,faults,evictions,ipc";
        if (digests)
            os << ",trace_digest";
        os << "\n";
    }
    std::vector<std::string> header = {"app", "policy", "faults", "evictions",
                                       "IPC"};
    if (digests)
        header.push_back("trace digest");
    TextTable t(header);
    std::vector<std::uint64_t> jobDigests;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const std::string &app = apps[i / kinds.size()];
        const PolicyKind kind = kinds[i % kinds.size()];
        const api::ExperimentResult &res = outcomes[i];
        if (digests)
            jobDigests.push_back(
                std::strtoull(res.traceDigest.c_str(), nullptr, 16));
        if (args.has("csv")) {
            os << app << "," << policyKindName(kind) << "," << base.oversub
               << "," << res.faults << "," << res.evictions << "," << res.ipc;
            if (digests)
                os << "," << res.traceDigest;
            os << "\n";
        } else {
            std::vector<std::string> row = {
                app, policyKindName(kind), std::to_string(res.faults),
                std::to_string(res.evictions),
                base.functional ? "-" : TextTable::num(res.ipc, 4)};
            if (digests)
                row.push_back(res.traceDigest);
            t.addRow(row);
        }
    }
    if (!args.has("csv"))
        t.print(os);
    if (digests)
        // Goes to stderr (inform), keeping --csv stdout machine-readable.
        inform("combined trace digest {}",
               trace::digestHex(trace::combineDigests(jobDigests)));
    return 0;
}

int
traceCommand(const Args &args, std::ostream &os)
{
    args.allowOnly({"app", "scale", "seed", "out"});
    const AppSpec &spec = api::appOrDie(args.get("app", "HSD"));
    const Trace trace = buildApp(spec.abbr, args.getDouble("scale", 1.0),
                                 args.getUint("seed", 1));
    const std::string out = args.get("out");
    if (out.empty())
        fatal("trace requires --out FILE");
    saveTraceFile(trace, out);
    os << "wrote " << trace.size() << " visits (" << trace.footprintPages()
       << " pages, " << trace.kernelCount() << " kernels) to " << out << "\n";
    return 0;
}

int
tournamentCommand(const Args &args, std::ostream &os)
{
    args.allowOnly({"quick", "full", "scale", "seed", "jobs", "json", "md"});
    if (args.has("quick") && args.has("full"))
        fatal("--quick and --full are mutually exclusive");
    TournamentConfig cfg = args.has("full") ? TournamentConfig::full()
                                            : TournamentConfig::quick();
    cfg.scale = args.getDouble("scale", cfg.scale);
    cfg.seed = args.getUint("seed", cfg.seed);
    cfg.jobs = static_cast<unsigned>(args.getUint("jobs", 0));

    const Leaderboard board = runTournament(cfg);

    bool wrote = false;
    if (args.has("json")) {
        writeOutput(args.get("json"), os, [&](std::ostream &o) {
            o << board.toJson().dump() << "\n";
        });
        wrote = true;
    }
    if (args.has("md")) {
        writeOutput(args.get("md"), os,
                    [&](std::ostream &o) { o << board.toMarkdown(); });
        wrote = true;
    }
    if (!wrote)
        os << board.toMarkdown();
    return 0;
}

int
listCommand(const Args &args, std::ostream &os)
{
    args.allowOnly({});
    os << "applications (Table II):";
    for (const AppSpec &spec : appSpecs())
        os << " " << spec.abbr;
    os << "\nextra applications:";
    for (const AppSpec &spec : extraAppSpecs())
        os << " " << spec.abbr;
    os << "\nco-run schedules:";
    for (const AppSpec &spec : mixSpecs())
        os << " " << spec.abbr;
    os << "\npolicies:";
    for (const std::string &name : api::policyNames())
        os << " " << name;
    os << "\nprefetchers:";
    for (const std::string &name : api::prefetchNames())
        os << " " << name;
    os << "\n";
    return 0;
}

int
serveCommand(const Args &args, std::ostream &os)
{
    args.allowOnly({"socket", "listen", "shards", "endpoint-file", "jobs",
                    "max-queue", "cache-capacity", "deadline-ms", "store-dir",
                    "no-store", "store-segment-bytes", "store-sync",
                    "shed-hit-only", "shed-reject"});
    serve::ServeConfig cfg;
    cfg.socketPath = args.get("socket");
    // --listen accepts a comma-separated endpoint list (the option map
    // keeps one value per key), each in the endpoint grammar.
    const std::string listen = args.get("listen");
    for (const std::string_view item : splitCommaList(listen))
        cfg.listen.emplace_back(item);
    if (cfg.socketPath.empty() && cfg.listen.empty())
        fatal("serve requires --socket ENDPOINT or --listen ENDPOINTS");
    cfg.shards = static_cast<unsigned>(args.getUint("shards", 1));
    if (cfg.shards == 0)
        fatal("--shards must be at least 1");
    cfg.jobs = static_cast<unsigned>(args.getUint("jobs", 0));
    cfg.maxQueue = args.getUint("max-queue", 64);
    cfg.cacheCapacity = args.getUint("cache-capacity", 1024);
    cfg.defaultDeadlineMs = args.getUint("deadline-ms", 0);
    if (cfg.maxQueue == 0)
        fatal("--max-queue must be at least 1");
    if (cfg.cacheCapacity == 0)
        fatal("--cache-capacity must be at least 1");

    // Durable store: --store-dir, else the HPE_STORE_DIR environment
    // (deployment default); --no-store forces memory-only over both.
    cfg.storeDir = args.get("store-dir");
    if (cfg.storeDir.empty())
        if (const char *env = std::getenv("HPE_STORE_DIR"); env != nullptr)
            cfg.storeDir = env;
    if (args.has("no-store"))
        cfg.storeDir.clear();
    cfg.storeSegmentBytes = args.getUint("store-segment-bytes", 4u << 20);
    if (!cfg.storeDir.empty() && cfg.storeSegmentBytes == 0)
        fatal("--store-segment-bytes must be positive");
    cfg.storeSync = args.has("store-sync");
    cfg.shedHitOnlyDepth = args.getUint("shed-hit-only", 0);
    cfg.shedRejectDepth = args.getUint("shed-reject", 0);

    serve::raiseFdLimit();
    serve::Server server(cfg);
    serve::Server::installSignalHandlers(&server);
    std::string error;
    if (!server.start(error))
        fatal("{}", error);
    std::string where;
    for (const std::string &endpoint : server.boundEndpoints()) {
        if (!where.empty())
            where += ", ";
        where += endpoint;
    }
    // Ephemeral TCP ports (tcp:host:0) resolve at bind time; scripts
    // and tests learn the real endpoints from this file.  tmp+rename,
    // so a poller never reads a half-written list.
    if (const std::string file = args.get("endpoint-file"); !file.empty()) {
        const std::string tmp = file + ".tmp";
        {
            std::ofstream out(tmp);
            if (!out)
                fatal("cannot write '{}'", tmp);
            for (const std::string &endpoint : server.boundEndpoints())
                out << endpoint << "\n";
        }
        if (std::rename(tmp.c_str(), file.c_str()) != 0)
            fatal("cannot rename '{}' to '{}'", tmp, file);
    }
    inform("hpe_serve listening on {} ({} shards, {} jobs, queue {}, "
           "cache {}, store {})",
           where, server.shards(), server.jobs(), cfg.maxQueue,
           cfg.cacheCapacity, cfg.storeDir.empty() ? "off" : cfg.storeDir);
    server.wait();
    inform("hpe_serve draining");
    server.stop();
    os << "hpe_serve stopped\n";
    return 0;
}

int
submitCommand(const Args &args, std::ostream &os)
{
    args.allowOnly(withChaosOptions(
        {"socket", "type", "deadline-ms", "id", "retries", "app", "policy",
         "oversub", "scale", "seed", "functional", "stats", "walk-latency",
         "prefetch", "prefetch-degree", "fault-batch", "multi-level-walker",
         "page-sizes", "coalesce", "trace-digest", "trace-events",
         "trace-ring", "interval"}));
    const std::string socket = args.get("socket");
    if (socket.empty())
        fatal("submit requires --socket ENDPOINT "
              "(unix:/path, tcp:host:port, or a bare socket path)");

    // submit speaks v2; the daemon answers v1 clients (no "v" field)
    // in the legacy shape forever — see docs/api.md.
    const std::string type = args.get("type", "run");
    api::json::Object envelope{{"type", type},
                               {"v", api::protocol::kVersionCurrent}};
    if (args.has("id"))
        envelope.emplace("id", args.get("id"));
    if (args.has("deadline-ms"))
        envelope.emplace("deadline_ms", args.getUint("deadline-ms", 0));
    if (type == "run") {
        api::ExperimentRequest req = requestFromArgs(args);
        req.interval = args.getUint("interval", 0);
        envelope.emplace("request", req.toJson());
    }
    const std::string line = api::json::Value(std::move(envelope)).dump();

    // A shedding daemon answers ok:false with a retry_after_ms hint;
    // honour it with bounded, jittered backoff instead of surfacing the
    // first rejection (--retries 0 restores fail-fast).
    const std::uint64_t maxRetries = args.getUint("retries", 5);
    std::mt19937_64 jitterRng(static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count()));
    std::string response;
    std::optional<api::json::Value> parsed;
    for (std::uint64_t attempt = 0;; ++attempt) {
        std::string error;
        if (!serve::submitLine(socket, line, response, error))
            fatal("{}", error);
        api::json::ParseError perr;
        parsed = api::json::parse(response, &perr);
        if (!parsed.has_value() || !parsed->isObject())
            fatal("malformed response from daemon: {}", response);
        const api::json::Value *ok = parsed->find("ok");
        // The hint lives in the v2 error object (or top-level in a v1
        // response); retryAfterMs() reads both shapes.
        const auto retryAfter = api::protocol::retryAfterMs(*parsed);
        if ((ok != nullptr && ok->isBool() && ok->asBool())
            || !retryAfter.has_value() || attempt >= maxRetries)
            break;
        // Hint + up to 50% jitter, capped so a pathological hint cannot
        // wedge the CLI; decorrelated retries spread the thundering herd.
        const std::uint64_t hint = std::min<std::uint64_t>(
            std::max<std::uint64_t>(*retryAfter, 1), 2000);
        const std::uint64_t sleepMs = hint + jitterRng() % (hint / 2 + 1);
        inform("daemon busy (attempt {}/{}); retrying in {} ms",
               attempt + 1, maxRetries, sleepMs);
        std::this_thread::sleep_for(std::chrono::milliseconds(sleepMs));
    }
    os << response << "\n";

    const api::json::Value *ok = parsed->find("ok");
    return ok != nullptr && ok->isBool() && ok->asBool() ? 0 : 1;
}

void
printUsage(std::ostream &os)
{
    os << "hpe_sim — GPU unified-memory eviction simulator\n"
          "\n"
          "usage: hpe_sim <command> [options]\n"
          "\n"
          "commands:\n"
          "  run      one (app, policy) simulation\n"
          "           --app HSD --policy HPE --oversub 0.75 [--functional]\n"
          "           [--scale 1.0] [--seed 1] [--csv] [--stats]\n"
          "           [--walk-latency 8] [--multi-level-walker]\n"
          "           [--prefetch none|sequential|stride|density]\n"
          "           [--prefetch-degree N] [--fault-batch N]\n"
          "           [--page-sizes 4k,64k,2m] [--coalesce]\n"
          "           [--validate] [--degrade] [--chaos-seed N]\n"
          "           [--chaos-pcie-fail P] [--chaos-pcie-stall P]\n"
          "           [--chaos-service-timeout P] [--chaos-shootdown-drop P]\n"
          "           [--chaos-walk-error P]\n"
          "           [--trace FILE|-] [--trace-chrome FILE|-]\n"
          "           [--trace-events far_fault,eviction,...] [--trace-ring N]\n"
          "           [--trace-digest] [--interval-stats FILE|-] [--interval N]\n"
          "  compare  every policy on one app\n"
          "           --app HSD [--oversub 0.75] [--extended] [--csv]\n"
          "           [--jobs N] [--prefetch KIND] [--prefetch-degree N]\n"
          "           [--fault-batch N] [chaos options as for run]\n"
          "  sweep    every policy on every Table II app, in parallel\n"
          "           [--oversub 0.75] [--functional] [--extended] [--csv]\n"
          "           [--scale 1.0] [--seed 1] [--jobs N] [--trace-digests]\n"
          "           [--prefetch KIND] [--prefetch-degree N] [--fault-batch N]\n"
          "  report   per-interval metrics timeline of one (app, policy) run\n"
          "           --app HSD --policy HPE [--interval 1000] [--functional]\n"
          "           [--csv] [chaos options as for run]\n"
          "  trace    write an application's page-visit trace to a file\n"
          "           --app HSD --out hsd.trace\n"
          "  serve    sharded experiment-serving daemon (docs/api.md)\n"
          "           --socket ENDPOINT [--listen EP1,EP2,...] [--shards N]\n"
          "           endpoints: unix:/path | tcp:host:port | bare unix path\n"
          "           (tcp:host:0 = ephemeral; see --endpoint-file FILE)\n"
          "           [--jobs N] [--max-queue 64] [--cache-capacity 1024]\n"
          "           [--deadline-ms N] [--store-dir DIR|--no-store]\n"
          "           [--store-sync] [--store-segment-bytes N]\n"
          "           [--shed-hit-only N] [--shed-reject N]\n"
          "  submit   send one request to a running daemon, print the response\n"
          "           --socket ENDPOINT [run options] [--trace-digest]\n"
          "           [--interval N] [--type run|stats|ping|shutdown]\n"
          "           [--deadline-ms N] [--id TAG] [--retries 5]\n"
          "  tournament  policy-tournament leaderboard over (app, policy,\n"
          "           prefetcher, oversubscription) cells; docs/adaptive-\n"
          "           policies.md explains the standings\n"
          "           [--quick|--full] [--scale 0.1] [--seed 1] [--jobs N]\n"
          "           [--json FILE|-] [--md FILE|-]\n"
          "  list     available applications, policies, and prefetchers\n"
          "\n"
          "names (apps, policies, prefetchers) are case-insensitive; `list`\n"
          "prints the canonical spellings.  --prefetch N (numeric) is\n"
          "deprecated: use --prefetch sequential --prefetch-degree N.\n"
          "\n"
          "--page-sizes enables the multi-page-size GMMU axis (docs/\n"
          "page-sizes.md): 4k always, plus optional 64k/2m large-page\n"
          "classes; --coalesce lets the GMMU promote fully-resident runs\n"
          "(without it the axis is observe-only).  Accepted on run,\n"
          "compare, report, sweep, and submit.\n"
          "\n"
          "--trace writes JSONL events (one per line + digest summary);\n"
          "--trace-chrome writes the Chrome about://tracing format; a FILE\n"
          "of '-' writes to stdout.  --trace-digests (sweep) appends a\n"
          "per-job digest column that is byte-identical for every --jobs.\n"
          "\n"
          "--jobs N fans independent simulations across N threads (default:\n"
          "HPE_JOBS env, else all hardware threads); results are collected\n"
          "in job order, so output is byte-identical for every N.\n";
}

int
dispatch(const Args &args, std::ostream &os)
try {
    if (args.command() == "run")
        return runCommand(args, os);
    if (args.command() == "compare")
        return compareCommand(args, os);
    if (args.command() == "sweep")
        return sweepCommand(args, os);
    if (args.command() == "report")
        return reportCommand(args, os);
    if (args.command() == "trace")
        return traceCommand(args, os);
    if (args.command() == "serve")
        return serveCommand(args, os);
    if (args.command() == "submit")
        return submitCommand(args, os);
    if (args.command() == "tournament")
        return tournamentCommand(args, os);
    if (args.command() == "list")
        return listCommand(args, os);
    printUsage(os);
    return args.command().empty() ? 0 : 1;
} catch (const std::invalid_argument &e) {
    // A request that passes check() can still be refused once its trace
    // exists (a large page class that does not fit in GPU memory).  The
    // parallel cells of sweep and compare rethrow it here too.
    fatal("{}", e.what());
}

} // namespace hpe::cli
