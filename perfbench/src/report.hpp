/**
 * @file
 * Measurement plumbing shared by every workload of the benchmark: the
 * clock, order statistics, the span log of a traced run, exact counters
 * and the result record that main() prints as the final JSON line.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds since an arbitrary process-wide epoch (steady clock). */
std::int64_t nowNs();

/** Seconds between two nowNs() readings. */
inline double
seconds(std::int64_t fromNs, std::int64_t toNs)
{
    return static_cast<double>(toNs - fromNs) * 1e-9;
}

/** Median of @p v (mean of the middle pair for even sizes); 0 if empty. */
double median(std::vector<double> v);

/**
 * Quartiles of @p v by the "exclusive" method of Python's
 * statistics.quantiles(v, n=4), so the benchmark's own report agrees
 * with the steadiness tool.  Needs at least two values.
 */
struct Quartiles
{
    double q1 = 0.0;
    double q2 = 0.0;
    double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> v);

/** A nearest-rank percentile together with its sample support. */
struct Percentile
{
    double percent = 0.0;   ///< e.g. 99.0
    double value = 0.0;
    std::size_t beyond = 0; ///< samples strictly above the rank
};

/** Nearest-rank @p percent percentile of @p sorted (ascending). */
Percentile percentileOf(const std::vector<double> &sorted, double percent);

/**
 * The highest of @p candidates (descending order not required) whose
 * nearest-rank percentile has at least @p minBeyond samples above it;
 * nullopt when even the lowest candidate lacks that support.
 */
std::optional<Percentile>
highestSupported(std::vector<double> samples,
                 std::vector<double> candidates = {99.9, 99.0, 95.0, 90.0,
                                                   50.0},
                 std::size_t minBeyond = 10);

/** This process's peak resident set (VmHWM) in MiB; 0 if unreadable. */
double peakRssMiB(int pid = 0);

/** utime+stime of process @p pid in milliseconds (from /proc/<pid>/stat). */
double cpuTimeMs(int pid);

/**
 * One span of a traced run: a call into a module, from the benchmark's
 * side of the boundary.  childNs is time inside the span spent in a
 * child module whose calls are too fine-grained to log one by one (the
 * policy hooks of a cell); the span's self time is its length minus
 * childNs minus the length of its logged child spans.
 */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;
    std::string id;
    std::int64_t childNs = 0;
};

/** Spans kept in memory during the run and written once at exit. */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span; returns its index (or -1 when disabled). */
    int begin(std::string name, int parent = -1, std::string id = {});
    void end(int index, std::int64_t childNs = 0);
    /** Log a span whose times were taken elsewhere (e.g. a request's
     *  due and response times). */
    void record(std::string name, std::int64_t startNs, std::int64_t endNs,
                std::string id = {});

    /** Write every span as one JSON object per line. */
    bool write(const std::string &path) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
};

/** A reported metric: its value and unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/**
 * What one benchmark run reports: the final-line fields plus detail
 * lines (pass counts, quartiles, sample counts) printed before it.
 */
struct RunReport
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    std::vector<std::string> errors;
    std::vector<std::string> details;

    void set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }
    /** Record one failed operation with a message (first few kept). */
    void fail(const std::string &message);
    /** Print "name: median [q1, q3] over n" as a detail line. */
    void detail(const std::string &name, const std::vector<double> &values,
                const std::string &unit);
};

} // namespace perfbench
