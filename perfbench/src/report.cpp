#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "api/json.hpp"

namespace perfbench {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Quartiles
quartiles(std::vector<double> v)
{
    Quartiles q;
    if (v.size() < 2) {
        q.q1 = q.q2 = q.q3 = v.empty() ? 0.0 : v[0];
        return q;
    }
    std::sort(v.begin(), v.end());
    const long ld = static_cast<long>(v.size());
    const long m = ld + 1;
    double out[3];
    for (long i = 1; i < 4; ++i) {
        long j = i * m / 4;
        j = std::clamp(j, 1L, ld - 1);
        const long delta = i * m - j * 4;
        out[i - 1] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta)
                      + v[static_cast<std::size_t>(j)] * static_cast<double>(delta))
                     / 4.0;
    }
    q.q1 = out[0];
    q.q2 = out[1];
    q.q3 = out[2];
    return q;
}

Percentile
percentileOf(const std::vector<double> &sorted, double percent)
{
    Percentile p;
    p.percent = percent;
    if (sorted.empty())
        return p;
    const double n = static_cast<double>(sorted.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(percent / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    p.value = sorted[rank - 1];
    p.beyond = sorted.size() - rank;
    return p;
}

std::optional<Percentile>
highestSupported(std::vector<double> samples, std::vector<double> candidates,
                 std::size_t minBeyond)
{
    std::sort(samples.begin(), samples.end());
    std::sort(candidates.begin(), candidates.end(), std::greater<>());
    for (double c : candidates) {
        const Percentile p = percentileOf(samples, c);
        if (!samples.empty() && p.beyond >= minBeyond)
            return p;
    }
    return std::nullopt;
}

namespace {

std::string
procPath(int pid, const char *leaf)
{
    return pid == 0 ? std::string("/proc/self/") + leaf
                    : "/proc/" + std::to_string(pid) + "/" + leaf;
}

} // namespace

double
peakRssMiB(int pid)
{
    std::ifstream in(procPath(pid, "status"));
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0.0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

double
cpuTimeMs(int pid)
{
    std::ifstream in(procPath(pid, "stat"));
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // The command name (field 2) may hold spaces; fields resume after ')'.
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos)
        return 0.0;
    std::istringstream fields(text.substr(close + 2));
    std::string skip;
    for (int i = 3; i <= 13; ++i)
        fields >> skip;
    double utime = 0.0, stime = 0.0;
    fields >> utime >> stime;
    const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
    return (utime + stime) * 1000.0 / ticks;
}

int
SpanLog::begin(std::string name, int parent, std::string id)
{
    if (!enabled_)
        return -1;
    spans_.push_back(Span{std::move(name), nowNs(), 0, parent, std::move(id), 0});
    return static_cast<int>(spans_.size() - 1);
}

void
SpanLog::end(int index, std::int64_t childNs)
{
    if (index < 0)
        return;
    Span &s = spans_[static_cast<std::size_t>(index)];
    s.endNs = nowNs();
    s.childNs = childNs;
}

void
SpanLog::record(std::string name, std::int64_t startNs, std::int64_t endNs,
                std::string id)
{
    if (enabled_)
        spans_.push_back(Span{std::move(name), startNs, endNs, -1, std::move(id), 0});
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        hpe::api::json::Object obj{
            {"index", static_cast<std::uint64_t>(i)},
            {"name", s.name},
            {"start_ns", static_cast<std::int64_t>(s.startNs)},
            {"end_ns", static_cast<std::int64_t>(s.endNs)},
            {"parent", s.parent},
            {"id", s.id},
            {"child_ns", static_cast<std::int64_t>(s.childNs)},
        };
        out << hpe::api::json::Value(std::move(obj)).dump() << "\n";
    }
    return static_cast<bool>(out);
}

void
RunReport::fail(const std::string &message)
{
    ++failed;
    if (errors.size() < 20)
        errors.push_back(message);
}

void
RunReport::detail(const std::string &name, const std::vector<double> &values,
                  const std::string &unit)
{
    const Quartiles q = quartiles(values);
    std::ostringstream os;
    os.precision(6);
    os << name << ": median " << median(values) << " " << unit << " [q1 " << q.q1
       << ", q3 " << q.q3 << "] over " << values.size();
    details.push_back(os.str());
}

} // namespace perfbench
