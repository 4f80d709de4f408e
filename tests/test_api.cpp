/**
 * @file
 * Tests for the hpe::api façade: the name registry (case-insensitive
 * canonical lookups, uniform unknown-name errors, distinct usage exit
 * code), ExperimentRequest JSON round trips and fingerprint semantics,
 * and the cross-entry-point equivalence grid — the API must reproduce
 * the checked-in golden digests and the CLI's output for every
 * (policy x workload) cell.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "api/registry.hpp"
#include "cli/args.hpp"
#include "cli/commands.hpp"

namespace hpe::api {
namespace {

// ---------------------------------------------------------------- registry

TEST(Registry, PolicyLookupIsCaseInsensitive)
{
    ASSERT_TRUE(findPolicy("HPE").has_value());
    EXPECT_EQ(findPolicy("hpe"), findPolicy("HPE"));
    EXPECT_EQ(findPolicy("Hpe"), findPolicy("HPE"));
    EXPECT_EQ(findPolicy("clock-pro"), findPolicy("CLOCK-Pro"));
    EXPECT_FALSE(findPolicy("NOPE").has_value());
}

TEST(Registry, AppLookupIsCaseInsensitive)
{
    const AppSpec *upper = findApp("HSD");
    ASSERT_NE(upper, nullptr);
    EXPECT_EQ(findApp("hsd"), upper);
    EXPECT_EQ(findApp("b+t"), findApp("B+T"));
    EXPECT_EQ(findApp("NOPE"), nullptr);
}

TEST(Registry, PrefetchLookupIsCaseInsensitive)
{
    ASSERT_TRUE(findPrefetchKind("sequential").has_value());
    EXPECT_EQ(findPrefetchKind("SEQUENTIAL"), findPrefetchKind("sequential"));
    EXPECT_FALSE(findPrefetchKind("NOPE").has_value());
}

TEST(Registry, NameListsAreCanonicalAndComplete)
{
    const auto policies = policyNames();
    EXPECT_NE(std::find(policies.begin(), policies.end(), "HPE"),
              policies.end());
    EXPECT_NE(std::find(policies.begin(), policies.end(), "CLOCK-Pro"),
              policies.end());
    const auto apps = appNames();
    EXPECT_NE(std::find(apps.begin(), apps.end(), "HSD"), apps.end());
    const auto prefetchers = prefetchNames();
    EXPECT_EQ(prefetchers.size(), 4u);
    EXPECT_EQ(prefetchers.front(), "none");
}

TEST(Registry, UnknownNameMessageIsUniform)
{
    EXPECT_EQ(unknownNameMessage("policy", "NOPE", {"a", "b"}),
              "unknown policy 'NOPE' (valid: a, b)");
}

TEST(Registry, OrDieExitsWithUsageCode)
{
    EXPECT_EXIT({ policyOrDie("NOPE"); },
                ::testing::ExitedWithCode(kUsageExitCode),
                "unknown policy 'NOPE' \\(valid: ");
    EXPECT_EXIT({ appOrDie("NOPE"); },
                ::testing::ExitedWithCode(kUsageExitCode),
                "unknown application 'NOPE' \\(valid: ");
    EXPECT_EXIT({ prefetchKindOrDie("NOPE"); },
                ::testing::ExitedWithCode(kUsageExitCode),
                "unknown prefetcher 'NOPE' \\(valid: ");
}

// ---------------------------------------------------------------- requests

std::optional<ExperimentRequest>
fromText(const std::string &text, std::string &error)
{
    json::ParseError perr;
    const auto v = json::parse(text, &perr);
    EXPECT_TRUE(v.has_value()) << perr.message;
    return ExperimentRequest::fromJson(*v, error);
}

TEST(Request, DefaultsRoundTripThroughJson)
{
    ExperimentRequest req;
    req.normalize();
    std::string error;
    const auto back = ExperimentRequest::fromJson(req.toJson(), error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->toJson().dump(), req.toJson().dump());
    EXPECT_EQ(back->fingerprint(), req.fingerprint());
}

TEST(Request, EmptyObjectMeansTheDefaultRun)
{
    std::string error;
    const auto req = fromText("{}", error);
    ASSERT_TRUE(req.has_value()) << error;
    ExperimentRequest def;
    def.normalize();
    EXPECT_EQ(req->fingerprint(), def.fingerprint());
}

TEST(Request, FingerprintIsSpellingStable)
{
    ExperimentRequest canonical;
    canonical.app = "HSD";
    canonical.policy = "HPE";

    ExperimentRequest lower = canonical;
    lower.app = "hsd";
    lower.policy = "hpe";
    EXPECT_EQ(lower.fingerprint(), canonical.fingerprint());

    // The deprecated numeric prefetch folds onto the canonical spelling.
    ExperimentRequest named = canonical;
    named.prefetch = "sequential";
    named.prefetchDegree = 8;
    ExperimentRequest numeric = canonical;
    numeric.prefetch = "8";
    numeric.prefetchDegree = 4; // overridden by the numeric spelling
    EXPECT_EQ(numeric.fingerprint(), named.fingerprint());

    // "0" means no prefetching at all.
    ExperimentRequest zero = canonical;
    zero.prefetch = "0";
    EXPECT_EQ(zero.fingerprint(), canonical.fingerprint());
}

TEST(Request, FingerprintSeparatesDifferentExperiments)
{
    ExperimentRequest a;
    ExperimentRequest b;
    b.seed = 2;
    EXPECT_NE(a.fingerprint(), b.fingerprint());
    ExperimentRequest c;
    c.policy = "LRU";
    EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(Request, DisabledChaosKnobsDoNotPerturbTheFingerprint)
{
    ExperimentRequest plain;
    ExperimentRequest noisy;
    noisy.chaos.enabled = false;
    noisy.chaos.seed = 99;
    noisy.chaos.pcieFail = 0.5;
    EXPECT_EQ(noisy.fingerprint(), plain.fingerprint());
}

TEST(Request, FromJsonRejectsUnknownFields)
{
    std::string error;
    EXPECT_FALSE(fromText(R"({"bogus":1})", error).has_value());
    EXPECT_NE(error.find("unknown field 'bogus'"), std::string::npos);
    // The deadline lives in the protocol envelope, not the request —
    // it must not be able to perturb the fingerprint.
    EXPECT_FALSE(fromText(R"({"deadline_ms":5})", error).has_value());
}

TEST(Request, FromJsonReportsUnknownNamesWithoutExiting)
{
    std::string error;
    EXPECT_FALSE(fromText(R"({"policy":"NOPE"})", error).has_value());
    EXPECT_NE(error.find("unknown policy 'NOPE' (valid: "),
              std::string::npos);
    EXPECT_FALSE(fromText(R"({"app":"NOPE"})", error).has_value());
    EXPECT_NE(error.find("unknown application 'NOPE'"), std::string::npos);
    EXPECT_FALSE(fromText(R"({"prefetch":"NOPE"})", error).has_value());
    EXPECT_NE(error.find("unknown prefetcher 'NOPE'"), std::string::npos);
}

TEST(Request, FromJsonValidatesRanges)
{
    std::string error;
    EXPECT_FALSE(fromText(R"({"oversub":0})", error).has_value());
    EXPECT_FALSE(fromText(R"({"oversub":1.5})", error).has_value());
    EXPECT_FALSE(fromText(R"({"scale":-1})", error).has_value());
    EXPECT_FALSE(fromText(R"({"fault_batch":0})", error).has_value());
    EXPECT_FALSE(fromText(R"({"trace_ring":0})", error).has_value());
    EXPECT_FALSE(fromText(R"({"policy":7})", error).has_value());
    EXPECT_FALSE(
        fromText(R"({"chaos":{"pcie_fail":2.0}})", error).has_value());
    EXPECT_FALSE(
        fromText(R"({"chaos":{"walk_error":1.0}})", error).has_value());
    EXPECT_FALSE(fromText(R"({"trace_events":"bogus"})", error).has_value());
    EXPECT_NE(error.find("unknown trace event"), std::string::npos);
    // Separators only name no event kind.
    EXPECT_FALSE(fromText(R"({"trace_events":","})", error).has_value());
    EXPECT_NE(error.find("empty trace event list"), std::string::npos);
}

TEST(Request, IntegerTooLargeForItsFieldIsRefused)
{
    // 2^32 + 8 used to run as walk latency 8, and the legacy numeric
    // prefetch "2^32 + 4" as a sequential prefetch of degree 4.
    std::string error;
    EXPECT_FALSE(
        fromText(R"({"walk_latency":4294967304})", error).has_value());
    EXPECT_EQ(error, "field 'walk_latency' must be at most 4294967295");
    EXPECT_FALSE(
        fromText(R"({"prefetch":"4294967300"})", error).has_value());
    EXPECT_EQ(error,
              "field 'prefetch' must be at most 4294967295, got '4294967300'");
    EXPECT_FALSE(
        fromText(R"({"seed":18446744073709551616})", error).has_value());
    EXPECT_EQ(error, "field 'seed' must be at most 18446744073709551615");

    const auto widest = fromText(
        R"({"walk_latency":4294967295,"prefetch":"4294967295"})", error);
    ASSERT_TRUE(widest.has_value()) << error;
    EXPECT_EQ(widest->walkLatency, 4294967295u);
    EXPECT_EQ(widest->prefetch, "sequential");
    EXPECT_EQ(widest->prefetchDegree, 4294967295u);

    // The CLI normalizes before it checks, so normalize() refuses too.
    ExperimentRequest cli;
    cli.prefetch = "4294967296";
    EXPECT_EXIT(cli.normalize(), ::testing::ExitedWithCode(1),
                "field 'prefetch' must be at most 4294967295");
}

TEST(Request, ChaosObjectPresenceArmsInjection)
{
    std::string error;
    const auto req = fromText(R"({"seed":5,"chaos":{"pcie_fail":0.1}})", error);
    ASSERT_TRUE(req.has_value()) << error;
    EXPECT_TRUE(req->chaos.enabled);
    // The injector seed defaults to the experiment seed (the CLI rule).
    EXPECT_EQ(req->chaos.seed, 5u);
}

TEST(Result, RoundTripsThroughJson)
{
    ExperimentResult r;
    r.functional = true;
    r.references = 100;
    r.faults = 42;
    r.faultRate = 0.42;
    r.traceDigest = "00ff00ff00ff00ff";
    r.intervalsCsv = "a,b\n1,2\n";
    std::string error;
    const auto back = ExperimentResult::fromJson(r.toJson(), error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->toJson().dump(), r.toJson().dump());
}

// ------------------------------------------------- cross-entry equivalence

/** The ci/golden grid: every cell has a checked-in digest file. */
const char *const kGridApps[] = {"HSD", "BFS", "KMN"};
const char *const kGridPolicies[] = {"LRU", "HPE", "Ideal"};

/** The request every ci/golden cell was generated from. */
ExperimentRequest
goldenRequest(const std::string &app, const std::string &policy)
{
    ExperimentRequest req;
    req.app = app;
    req.policy = policy;
    req.functional = true;
    req.scale = 0.1;
    req.seed = 1;
    req.traceDigest = true;
    return req;
}

std::string
goldenDigestLine(const std::string &app, const std::string &policy)
{
    const std::string path = std::string(HPE_REPO_ROOT) + "/ci/golden/" + app
                             + "_" + policy + ".digest";
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::string line;
    std::getline(in, line);
    return line;
}

TEST(Equivalence, ApiReproducesEveryGoldenCell)
{
    for (const char *app : kGridApps) {
        for (const char *policy : kGridPolicies) {
            const ExperimentResult result =
                runExperiment(goldenRequest(app, policy));
            const std::string line =
                "trace digest " + result.traceDigest + " ("
                + std::to_string(result.traceEvents) + " events)";
            EXPECT_EQ(line, goldenDigestLine(app, policy))
                << app << "/" << policy;
        }
    }
}

TEST(Equivalence, CliRunMatchesApiForEveryGridCell)
{
    for (const char *app : kGridApps) {
        for (const char *policy : kGridPolicies) {
            const ExperimentResult viaApi =
                runExperiment(goldenRequest(app, policy));

            std::vector<const char *> argv = {
                "hpe_sim", "run",     "--app",          app,
                "--policy", policy,   "--functional",   "--scale",
                "0.1",      "--seed", "1",              "--trace-digest",
                "--csv"};
            const cli::Args args = cli::Args::parse(
                static_cast<int>(argv.size()), argv.data());
            std::ostringstream os;
            ASSERT_EQ(cli::dispatch(args, os), 0);
            const std::string out = os.str();

            // Same digest line, same stat values, via the CLI path.
            const std::string digestLine = "trace digest " + viaApi.traceDigest
                                           + " ("
                                           + std::to_string(viaApi.traceEvents)
                                           + " events)";
            EXPECT_NE(out.find(digestLine), std::string::npos)
                << app << "/" << policy << "\n"
                << out;
            const std::string csvRow =
                std::string(app) + "," + policy + ",functional,0.75,"
                + std::to_string(viaApi.faults) + ","
                + std::to_string(viaApi.evictions) + ",0";
            EXPECT_NE(out.find(csvRow), std::string::npos)
                << app << "/" << policy << "\n"
                << out;
        }
    }
}

TEST(Equivalence, PrebuiltTraceDoesNotChangeTheResult)
{
    // The sweep and the daemon may pass a shared prebuilt trace; it must
    // be indistinguishable from letting the API build its own.
    const ExperimentRequest req = goldenRequest("HSD", "HPE");
    const Trace trace = buildApp(req.app, req.scale, req.seed);
    const ExperimentResult own = runExperiment(req);
    const ExperimentResult shared = runExperiment(req, &trace);
    EXPECT_EQ(own.toJson().dump(), shared.toJson().dump());
}

TEST(Equivalence, IntervalCsvMatchesGolden)
{
    ExperimentRequest req = goldenRequest("HSD", "HPE");
    req.interval = 500;
    const ExperimentResult result = runExperiment(req);
    const std::string path =
        std::string(HPE_REPO_ROOT) + "/ci/golden/HSD_HPE.intervals.csv";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(result.intervalsCsv, golden.str());
}

} // namespace
} // namespace hpe::api
