/**
 * @file
 * Cross-layer invariant checker for the UVM driver stack.
 *
 * After every fault service the residency story is told three times: by
 * the page table (page -> frame), by the frame pool (free list), and by
 * the eviction policy's internal bookkeeping (LRU list, HPE page-set
 * chain, ...).  A bug in any one layer silently skews the paper's
 * headline numbers long before it crashes.  The validator cross-checks
 * all three after every fault service and prefetch and panics with a
 * diagnostic dump on the first disagreement, so a corruption is caught
 * at the faulting event rather than thousands of events downstream.
 *
 * Checked invariants:
 *
 *  1. frame conservation: resident pages + free frames == capacity;
 *  2. frame sanity: every mapped frame is in range and mapped once;
 *  3. dirty set: every dirty page is resident;
 *  4. policy agreement: policies exposing trackedResidentPages() track
 *     exactly the page table's key set — or, with the page-size axis
 *     attached, exactly the *logical* page set (uncovered 4 KiB pages
 *     plus one head per large page);
 *  5. HPE internals: every chain entry sits in the partition list its
 *     tag claims, and HIR occupancy respects the configured geometry;
 *  6. page-size invariants: every large page is naturally aligned, fully
 *     resident, non-overlapping, mapped to an aligned contiguous frame
 *     run, and the coalescer's covered-page accounting matches;
 *  7. region counts: for every order armed on the page table (coalescer
 *     size classes, multi-level walker node spans), each region's count
 *     equals its number of mapped pages, and no empty region keeps one.
 *
 * Attach via UvmMemoryManager::setValidateHook; tests keep it always on,
 * the CLI arms it behind --validate (it walks the full resident set per
 * fault, so it is not free).
 */

#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/hpe_policy.hpp"
#include "driver/uvm_manager.hpp"
#include "mem/coalescer.hpp"

namespace hpe {

/** Page-table / frame-pool / policy cross-checker. */
class StateValidator
{
  public:
    /**
     * @param uvm   the manager whose layers are cross-checked (not owned).
     * @param stats registry receiving "<name>.checks".
     * @param name  stat prefix, e.g. "validator".
     */
    StateValidator(UvmMemoryManager &uvm, StatRegistry &stats,
                   const std::string &name = "validator")
        : uvm_(uvm), checks_(stats.counter(name + ".checks"))
    {}

    /** Run all invariants; panic with a diagnostic dump on violation. */
    void
    check()
    {
        ++checks_;
        checkFrames();
        checkDirty();
        checkPolicy();
        if (auto *hpe = dynamic_cast<HpePolicy *>(&uvm_.policy()))
            checkHpe(*hpe);
        if (uvm_.coalescer() != nullptr)
            checkPageSizes(*uvm_.coalescer());
        checkRegionCounts();
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        std::string dump = strformat(
            "state validator: {}\n"
            "  resident pages: {}\n  free frames: {}\n  capacity: {}\n"
            "  dirty pages: {}\n  policy: {}",
            what, uvm_.residentPages(), uvm_.frames().freeCount(),
            uvm_.capacity(), uvm_.dirtyPages().size(), uvm_.policy().name());
        panic("{}", dump);
    }

    void
    checkFrames() const
    {
        const auto &frames = uvm_.frames();
        if (uvm_.residentPages() + frames.freeCount() != frames.capacity())
            fail(strformat("frame conservation broken: {} resident + {} free "
                           "!= {} capacity", uvm_.residentPages(),
                           frames.freeCount(), frames.capacity()));
        std::vector<std::uint8_t> used(frames.capacity(), 0);
        uvm_.pageTable().forEach([&](PageId page, FrameId frame) {
            if (frame >= frames.capacity())
                fail(strformat("page {:#x} mapped to out-of-range frame {}",
                               page, frame));
            if (used[frame]++)
                fail(strformat("frame {} mapped twice (second page {:#x})",
                               frame, page));
        });
    }

    void
    checkDirty() const
    {
        uvm_.dirtyPages().forEach([this](PageId page) {
            if (!uvm_.pageTable().resident(page))
                fail(strformat("dirty page {:#x} is not resident", page));
        });
    }

    void
    checkPolicy() const
    {
        auto tracked = uvm_.policy().trackedResidentPages();
        if (!tracked)
            return; // policy offers no residency introspection
        // With the page-size axis attached the policy tracks *logical*
        // pages: every covered non-head subpage is represented by its
        // large page's head, so the expected cardinality shrinks by
        // (span - 1) per large page.
        std::size_t expected = uvm_.residentPages();
        if (const HugePageCoalescer *co = uvm_.coalescer(); co != nullptr) {
            expected -= co->coveredPages();
            expected += co->largePages();
        }
        if (tracked->size() != expected)
            fail(strformat("policy tracks {} resident pages, expected {} "
                           "logical pages (page table holds {})",
                           tracked->size(), expected, uvm_.residentPages()));
        std::sort(tracked->begin(), tracked->end());
        if (std::adjacent_find(tracked->begin(), tracked->end())
            != tracked->end())
            fail("policy resident set contains a duplicate page");
        for (PageId page : *tracked) {
            if (!uvm_.pageTable().resident(page))
                fail(strformat("policy tracks page {:#x} the page table "
                               "does not hold", page));
            if (uvm_.logicalPageOf(page) != page)
                fail(strformat("policy tracks page {:#x} that is covered "
                               "by large page {:#x}", page,
                               uvm_.logicalPageOf(page)));
        }
        // Same cardinality, no duplicates, every tracked page a resident
        // logical page  =>  tracked == logical page set.
    }

    void
    checkPageSizes(const HugePageCoalescer &co) const
    {
        std::size_t covered = 0;
        co.forEachLarge([&](PageId head, std::uint32_t span) {
            if ((span & (span - 1)) != 0 || span < 2)
                fail(strformat("large page {:#x} has bogus span {}", head,
                               span));
            if (head % span != 0)
                fail(strformat("large page {:#x} (span {}) is not naturally "
                               "aligned", head, span));
            const FrameId base = uvm_.pageTable().lookup(head);
            if (base == kInvalidId)
                fail(strformat("large page {:#x} head is not resident", head));
            if (base % span != 0)
                fail(strformat("large page {:#x} maps to unaligned frame "
                               "run base {}", head, base));
            for (std::uint32_t i = 0; i < span; ++i) {
                const FrameId f = uvm_.pageTable().lookup(head + i);
                if (f == kInvalidId)
                    fail(strformat("large page {:#x} subpage {:#x} is not "
                                   "resident", head, head + i));
                if (f != base + i)
                    fail(strformat("large page {:#x} subpage {:#x} maps to "
                                   "frame {} (expected contiguous {})",
                                   head, head + i, f, base + i));
                // Non-overlap + membership counted once: every subpage's
                // logical page must be this head (a second covering large
                // page would resolve some subpage elsewhere).
                if (uvm_.logicalPageOf(head + i) != head)
                    fail(strformat("subpage {:#x} of large page {:#x} "
                                   "resolves to logical page {:#x}",
                                   head + i, head,
                                   uvm_.logicalPageOf(head + i)));
            }
            covered += span;
        });
        if (covered != co.coveredPages())
            fail(strformat("coalescer covers {} pages but accounts {}",
                           covered, co.coveredPages()));
        if (covered > uvm_.residentPages())
            fail(strformat("coalescer covers {} pages with only {} resident",
                           covered, uvm_.residentPages()));
    }

    void
    checkRegionCounts() const
    {
        const PageTable &table = uvm_.pageTable();
        for (const DenseRegionCounter &counter : table.regionCounters()) {
            const unsigned order = counter.order();
            DenseRegionCounter mapped(order);
            table.forEach([&](PageId page, FrameId) { mapped.increment(page); });
            counter.forEach([&](PageId region, std::uint32_t count) {
                const std::uint32_t want = mapped.count(region << order);
                if (count != want)
                    fail(strformat("order-{} region {:#x} counts {} pages, "
                                   "{} are mapped", order, region, count,
                                   want));
            });
            // Every counted region matched and none is counted at zero,
            // so equal region totals leave no mapped region uncounted.
            if (counter.size() != mapped.size())
                fail(strformat("order-{} counts cover {} regions, {} hold "
                               "mapped pages", order, counter.size(),
                               mapped.size()));
        }
    }

    void
    checkHpe(HpePolicy &hpe) const
    {
        auto &chain = hpe.chain();
        const Partition parts[] = {Partition::Old, Partition::Middle,
                                   Partition::New};
        std::size_t walked = 0;
        for (Partition p : parts) {
            for (const ChainEntry &entry : chain.partition(p)) {
                ++walked;
                if (entry.part != p)
                    fail(strformat("HPE chain entry for set {:#x} tagged "
                                   "partition {} but linked in partition {}",
                                   entry.set, static_cast<int>(entry.part),
                                   static_cast<int>(p)));
                if (ChainEntry *found = chain.find(entry.set, entry.secondary);
                    found != &entry)
                    fail(strformat("HPE chain index lookup of set {:#x} "
                                   "does not return the linked entry",
                                   entry.set));
            }
        }
        if (walked != chain.size())
            fail(strformat("HPE chain lists link {} entries, index holds {}",
                           walked, chain.size()));
        const auto &cfg = hpe.config();
        if (hpe.hir().occupancy() > cfg.hirEntries)
            fail(strformat("HIR occupancy {} exceeds configured geometry {}",
                           hpe.hir().occupancy(), cfg.hirEntries));
    }

    UvmMemoryManager &uvm_;
    Counter &checks_;
};

} // namespace hpe
