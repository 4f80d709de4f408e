/**
 * @file
 * PolicyProbe: a forwarding EvictionPolicy decorator that times and
 * counts every hook call into the wrapped policy, from outside the
 * policy module.  It forwards every virtual of the interface, so a run
 * through the probe makes exactly the same decisions as a run through
 * the bare policy; the tests pin that on faults, evictions, cycles and
 * trace digests.
 */

#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "alloc_counter.hpp"
#include "core/hpe_policy.hpp"
#include "policy/eviction_policy.hpp"
#include "report.hpp"

namespace perfbench {

/** The timed hooks, in report order. */
enum class Hook { OnHit, OnFault, SelectVictim, OnEvict, OnMigrateIn, Count };

inline constexpr std::array<const char *, static_cast<std::size_t>(Hook::Count)>
    kHookNames{"onHit", "onFault", "selectVictim", "onEvict", "onMigrateIn"};

/** Per-hook totals of one run through a PolicyProbe. */
struct HookTotals
{
    std::array<std::uint64_t, static_cast<std::size_t>(Hook::Count)> calls{};
    std::int64_t ns = 0;           ///< time inside the hooks, as measured
    std::uint64_t allocations = 0; ///< heap allocations made inside them

    std::uint64_t
    totalCalls() const
    {
        std::uint64_t n = 0;
        for (std::uint64_t c : calls)
            n += c;
        return n;
    }
};

class PolicyProbe final : public hpe::EvictionPolicy
{
  public:
    explicit PolicyProbe(std::unique_ptr<hpe::EvictionPolicy> inner)
        : inner_(std::move(inner))
    {
    }

    /** The wrapped policy as HpePolicy, for GpuSystem's HIR channel. */
    hpe::HpePolicy *
    innerHpe() const
    {
        return dynamic_cast<hpe::HpePolicy *>(inner_.get());
    }

    const HookTotals &totals() const { return totals_; }

    void onHit(hpe::PageId page) override { timed(Hook::OnHit, [&] { inner_->onHit(page); }); }
    void onFault(hpe::PageId page) override { timed(Hook::OnFault, [&] { inner_->onFault(page); }); }
    void onEvict(hpe::PageId page) override { timed(Hook::OnEvict, [&] { inner_->onEvict(page); }); }
    void
    onMigrateIn(hpe::PageId page) override
    {
        timed(Hook::OnMigrateIn, [&] { inner_->onMigrateIn(page); });
    }
    /** Counted as onMigrateIn: both are the arrival of a page. */
    void
    onPrefetchIn(hpe::PageId page) override
    {
        timed(Hook::OnMigrateIn, [&] { inner_->onPrefetchIn(page); });
    }
    hpe::PageId
    selectVictim() override
    {
        hpe::PageId victim{};
        timed(Hook::SelectVictim, [&] { victim = inner_->selectVictim(); });
        return victim;
    }
    std::string name() const override { return inner_->name(); }
    void reserveCapacity(std::size_t frames) override { inner_->reserveCapacity(frames); }
    void setTraceSink(hpe::trace::TraceSink *sink) override { inner_->setTraceSink(sink); }
    std::optional<std::vector<hpe::PageId>>
    trackedResidentPages() const override
    {
        return inner_->trackedResidentPages();
    }

  private:
    template <typename Fn>
    void
    timed(Hook hook, Fn &&fn)
    {
        const std::uint64_t a0 = threadAllocations();
        const std::int64_t t0 = nowNs();
        fn();
        totals_.ns += nowNs() - t0;
        totals_.allocations += threadAllocations() - a0;
        ++totals_.calls[static_cast<std::size_t>(hook)];
    }

    std::unique_ptr<hpe::EvictionPolicy> inner_;
    HookTotals totals_;
};

/**
 * Mean cost of one timed empty region (two clock reads), measured now;
 * subtracted once per hook call so policy self time excludes the probe.
 */
double timerOverheadNs();

} // namespace perfbench
