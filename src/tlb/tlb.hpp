/**
 * @file
 * TLB models for the two-level GPU translation hierarchy of Table I:
 * a 128-entry fully-banked private L1 TLB per SM (1-cycle, hit under miss)
 * and a 512-entry 16-way shared L2 TLB (10-cycle, 2 ports).
 */

#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/set_assoc.hpp"

namespace hpe {

/** Geometry, latency and port count of one TLB level (Table I's are
 *  GpuConfig::kL1Tlb and GpuConfig::kL2Tlb). */
struct TlbConfig
{
    std::size_t entries = 128;
    std::size_t ways = 128;   // fully associative by default
    Cycle latency = 1;
    std::size_t ports = 1;
};

/**
 * A single TLB level holding page translations with LRU replacement.
 *
 * Port contention is modelled analytically: each lookup occupies one port
 * for the access latency, and issueDelay() reports how long a request
 * arriving at a given cycle waits for a free port.
 */
class Tlb
{
  public:
    /**
     * @param cfg   geometry and timing.
     * @param stats registry receiving "<name>.hits"/".misses".
     * @param name  stat prefix, e.g. "gpu.sm0.l1tlb".
     */
    Tlb(const TlbConfig &cfg, StatRegistry &stats, const std::string &name)
        : cfg_(cfg), array_(cfg.entries, cfg.ways),
          portFree_(cfg.ports, 0),
          hits_(stats.counter(name + ".hits")),
          misses_(stats.counter(name + ".misses"))
    {}

    /** @return true and refresh LRU if @p page is present. */
    bool
    lookup(PageId page)
    {
        if (array_.find(page) != nullptr) {
            ++hits_;
            return true;
        }
        ++misses_;
        return false;
    }

    /** Install a translation (no-op if already present). */
    void fill(PageId page) { array_.insertIfAbsent(page); }

    /** Invalidate the translation of @p page (on eviction from GPU memory). */
    void invalidate(PageId page) { array_.erase(page); }

    /** Invalidate everything. */
    void flush() { array_.clear(); }

    /**
     * Cycles a request arriving at @p now waits for a free port, and
     * reserve that port for the duration of the lookup.
     */
    Cycle
    issueDelay(Cycle now)
    {
        // Pick the earliest-free port.
        std::size_t best = 0;
        for (std::size_t p = 1; p < portFree_.size(); ++p)
            if (portFree_[p] < portFree_[best])
                best = p;
        Cycle start = std::max(now, portFree_[best]);
        portFree_[best] = start + cfg_.latency;
        return start - now;
    }

    Cycle latency() const { return cfg_.latency; }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

  private:
    TlbConfig cfg_;
    SetAssocArray<std::monostate> array_;
    std::vector<Cycle> portFree_;
    Counter &hits_;
    Counter &misses_;
};

} // namespace hpe
