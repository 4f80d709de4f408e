/**
 * @file
 * The stable hpe::api façade: one value-typed request, one value-typed
 * result, one entry point.
 *
 * The layering: the `run`/`compare`/`sweep`/`report`/`submit` CLI
 * subcommands, the tournament and the hpe_serve daemon describe an
 * experiment as an ExperimentRequest and execute it through
 * runExperiment().  The benches and examples, which need HPE knobs no
 * request exposes, call runFunctional()/runTiming() with a RunConfig.
 * Both reach the one execution path, runFunctionalInspect() /
 * runTimingInspect() in sim/experiment.hpp.
 *
 * A request is a pure value with JSON (de)serialization, one validator
 * (check(), shared by fromJson() and the CLI) and a **canonical
 * fingerprint**: normalize() folds every accepted spelling (name case,
 * the legacy numeric --prefetch) onto one canonical form, toJson() emits
 * it with every field explicit and keys sorted, and fingerprint() hashes
 * exactly those bytes.  Two requests that mean the same experiment
 * therefore hash identically — which is what makes the daemon's
 * content-addressed result cache sound.
 *
 * The contract the equivalence test suite pins: a given request produces
 * byte-identical results (same trace digests, same stat values) whether
 * it is executed via the CLI, a parallel sweep, or the daemon, because
 * all three paths go through buildRunConfig()/runExperimentInspect().
 */

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "api/json.hpp"
#include "sim/experiment.hpp"
#include "trace/interval_recorder.hpp"
#include "trace/trace_sink.hpp"

namespace hpe::api {

/** Chaos-injection slice of a request (mirrors ChaosConfig's knobs). */
struct ChaosRequest
{
    bool enabled = false;
    /** Injector seed; 0 = derive from the experiment seed (CLI rule). */
    std::uint64_t seed = 0;
    double pcieFail = 0.0;
    double pcieStall = 0.0;
    double serviceTimeout = 0.0;
    double shootdownDrop = 0.0;
    double walkError = 0.0;
};

/**
 * Everything one experiment depends on, as a serializable value.
 * Defaults equal the CLI defaults, so a request built from a bare
 * `hpe_sim run` and one parsed from `{}` JSON mean the same run.
 */
struct ExperimentRequest
{
    std::string app = "HSD";
    double scale = 1.0;
    std::uint64_t seed = 1;
    std::string policy = "HPE";
    double oversub = 0.75;
    /** Functional (exact counts) or timing (IPC, host load) simulator. */
    bool functional = false;
    unsigned walkLatency = 8;
    bool multiLevelWalker = false;
    /** Prefetcher kind name; normalize() lowers the legacy numeric
     *  spelling onto "sequential" + prefetchDegree. */
    std::string prefetch = "none";
    unsigned prefetchDegree = 4;
    unsigned faultBatch = 1;
    /**
     * Page-size axis, canonical "4k[,64k[,2m]]" spelling; "4k" = the
     * baseline.  Emitted into the canonical JSON only when non-default so
     * every pre-existing fingerprint is unchanged.
     */
    std::string pageSizes = "4k";
    /** Let the coalescer actually promote (else observe-only). */
    bool coalesce = false;
    ChaosRequest chaos{};
    bool degrade = false;
    bool validate = false;
    /** Compute the event-stream digest (attaches a TraceSink). */
    bool traceDigest = false;
    /** Event-kind filter of the attached sink (affects the digest). */
    std::string traceEvents = "all";
    std::size_t traceRing = 1u << 16;
    /** Interval length for the metrics timeline; 0 = no timeline. */
    std::uint64_t interval = 0;
    /** Include the full stats-registry CSV dump in the result. */
    bool stats = false;

    /**
     * Fold every accepted spelling onto the canonical one: registry-
     * canonical app/policy/prefetch names (case-insensitive input) and
     * the numeric legacy prefetch.  usageFatal() on unknown names —
     * callers that must not exit call check() first.
     */
    void normalize();

    /**
     * The one request validator: known names, a valid event list and
     * page-size spelling, in-range values and chaos probabilities.  On
     * false, @p error holds the message the daemon answers with.  Either
     * spelling of a name passes, so this may run before or after
     * normalize().
     */
    bool check(std::string &error) const;

    /** Canonical JSON object (call normalize() first for canonical
     *  name spellings); every field explicit, keys sorted. */
    json::Value toJson() const;

    /**
     * Parse a request object, check() it, and normalize it; unknown
     * keys, type errors and check() failures are reported through
     * @p error instead of exiting.
     */
    static std::optional<ExperimentRequest> fromJson(const json::Value &v,
                                                     std::string &error);

    /**
     * Content fingerprint: FNV-1a over the canonical JSON bytes of the
     * normalized request, as 16 hex digits.  Equal fingerprints mean
     * "the same experiment" — the daemon's cache key.
     */
    std::string fingerprint() const;
};

/** Everything an experiment produces, as a serializable value. */
struct ExperimentResult
{
    bool functional = false;
    /** @{ functional-mode counters (PagingResult) */
    std::uint64_t references = 0;
    std::uint64_t hits = 0;
    std::uint64_t faults = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirtyEvictions = 0;
    std::uint64_t prefetches = 0;
    std::uint64_t prefetchUseful = 0;
    std::uint64_t prefetchWasted = 0;
    std::uint64_t prefetchLate = 0;
    double faultRate = 0.0;
    /** @} */
    /** @{ timing-mode metrics (TimingResult) */
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    double ipc = 0.0;
    double hostLoad = 0.0;
    /** @} */
    /** @{ requested attachments ("" / 0 when not requested) */
    std::string traceDigest;
    std::uint64_t traceEvents = 0;
    std::string intervalsCsv;
    std::string statsCsv;
    /** @} */

    json::Value toJson() const;
    static std::optional<ExperimentResult> fromJson(const json::Value &v,
                                                    std::string &error);
};

/** Is @p s entirely decimal digits (the legacy --prefetch N spelling)? */
bool allDigits(const std::string &s);

/** The RunConfig a normalized request denotes (the one config funnel). */
RunConfig buildRunConfig(const ExperimentRequest &req);

/**
 * Owned observability objects of one run, for callers that need more
 * than the serializable result (the CLI exports JSONL/Chrome traces from
 * the sink; `report` renders the recorder's samples as a table).
 */
struct ExperimentArtifacts
{
    std::unique_ptr<trace::TraceSink> sink;
    std::unique_ptr<trace::IntervalRecorder> intervals;
    InspectableRun run;
};

/**
 * Execute @p req and return its result.  @p prebuilt optionally supplies
 * the workload trace (the sweep builds each app's trace once and shares
 * it read-only across cells); it must match req.app/scale/seed.  Throws
 * std::invalid_argument when a large page class does not fit in the GPU
 * memory the trace's footprint yields (the one check needing the trace).
 */
ExperimentResult runExperiment(const ExperimentRequest &req,
                               const Trace *prebuilt = nullptr);

/**
 * runExperiment() keeping the sink/recorder/policy alive in @p artifacts.
 * @p forceSink attaches a TraceSink even when req.traceDigest is false
 * (the CLI's --trace/--trace-chrome need the events, not the digest).
 */
ExperimentResult runExperimentInspect(const ExperimentRequest &req,
                                      ExperimentArtifacts &artifacts,
                                      const Trace *prebuilt = nullptr,
                                      bool forceSink = false);

} // namespace hpe::api
