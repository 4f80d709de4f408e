/**
 * @file
 * Lightweight named-statistics registry.
 *
 * Components register scalar counters and sampled distributions under
 * hierarchical dotted names ("gpu.sm0.l1tlb.hits").  The registry can dump
 * itself as text and individual stats can be looked up by tests.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/log.hpp"

namespace hpe {

/** A monotonically growing event counter. */
class Counter
{
  public:
    void operator++() { ++value_; }
    void operator++(int) { ++value_; }
    void operator+=(std::uint64_t n) { value_ += n; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** Running mean/min/max over a stream of samples. */
class Distribution
{
  public:
    /** Record one sample. */
    void
    sample(double v)
    {
        ++count_;
        sum_ += v;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
    double minimum() const { return count_ ? min_ : 0.0; }
    double maximum() const { return count_ ? max_ : 0.0; }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 1e300;
    double max_ = -1e300;
};

/**
 * Owner of named statistics.  Components call counter()/distribution()
 * exactly once at construction and keep the returned references; a second
 * registration under the same name is a component wiring bug (two owners
 * silently aliasing one counter) and is rejected with a clear error.
 * Lookups by name — for reporting, tests, and interval probes — go through
 * findCounter()/findDistribution().
 */
class StatRegistry
{
  public:
    /** Register the counter @p name; fatal() if it already exists. */
    Counter &
    counter(const std::string &name)
    {
        const auto [it, inserted] = counters_.try_emplace(name);
        if (!inserted)
            fatal("stat counter '{}' already registered (two components "
                  "sharing one name would silently alias their counts)",
                  name);
        return it->second;
    }

    /** Register the distribution @p name; fatal() if it already exists. */
    Distribution &
    distribution(const std::string &name)
    {
        const auto [it, inserted] = dists_.try_emplace(name);
        if (!inserted)
            fatal("stat distribution '{}' already registered (two components "
                  "sharing one name would silently alias their samples)",
                  name);
        return it->second;
    }

    /** Counter lookup for tests; the stat must exist. */
    const Counter &
    findCounter(const std::string &name) const
    {
        auto it = counters_.find(name);
        HPE_ASSERT(it != counters_.end(), "unknown counter {}", name);
        return it->second;
    }

    /** Distribution lookup for tests; the stat must exist. */
    const Distribution &
    findDistribution(const std::string &name) const
    {
        auto it = dists_.find(name);
        HPE_ASSERT(it != dists_.end(), "unknown distribution {}", name);
        return it->second;
    }

    bool hasCounter(const std::string &name) const { return counters_.contains(name); }

    /** Write all stats, sorted by name, one per line. */
    void
    dump(std::ostream &os) const
    {
        for (const auto &[name, c] : sortedByName(counters_))
            os << *name << " " << c->value() << "\n";
        for (const auto &[name, d] : sortedByName(dists_)) {
            os << *name << " count=" << d->count() << " mean=" << d->mean()
               << " min=" << d->minimum() << " max=" << d->maximum() << "\n";
        }
    }

    /** Write all stats as CSV ("name,value" / distribution moments). */
    void
    dumpCsv(std::ostream &os) const
    {
        os << "name,count,value,mean,min,max\n";
        for (const auto &[name, c] : sortedByName(counters_))
            os << *name << ",1," << c->value() << ",,,\n";
        for (const auto &[name, d] : sortedByName(dists_)) {
            os << *name << "," << d->count() << ",," << d->mean() << ","
               << d->minimum() << "," << d->maximum() << "\n";
        }
    }

  private:
    // The registries are hot on the simulation path only through the
    // references handed out by counter()/distribution(); unordered_map keeps
    // registration cheap while its node stability keeps those references
    // valid.  Reports sort at dump time so the output stays byte-identical
    // to the ordered-map storage this replaced.
    template <typename Map>
    static std::vector<std::pair<const std::string *, const typename Map::mapped_type *>>
    sortedByName(const Map &map)
    {
        std::vector<std::pair<const std::string *, const typename Map::mapped_type *>> items;
        items.reserve(map.size());
        for (const auto &[name, v] : map)
            items.emplace_back(&name, &v);
        std::sort(items.begin(), items.end(),
                  [](const auto &a, const auto &b) { return *a.first < *b.first; });
        return items;
    }

    std::unordered_map<std::string, Counter> counters_;
    std::unordered_map<std::string, Distribution> dists_;
};

} // namespace hpe
