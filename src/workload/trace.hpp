/**
 * @file
 * Workload trace representation.
 *
 * A trace is a sequence of page visits.  Each visit is one page reference
 * for eviction-policy purposes (one page-walk-visible touch) and expands
 * in the timing simulator into `burst` consecutive cache-line accesses
 * within the page (GPUs touch pages in bursts; the TLB hierarchy filters
 * the rest, which is why one visit ~ one walk).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "mem/page_index.hpp"

namespace hpe {

/** The six representative access patterns of Fig. 2. */
enum class PatternType : std::uint8_t { I, II, III, IV, V, VI };

/** Roman-numeral name of a pattern type. */
inline const char *
patternName(PatternType t)
{
    switch (t) {
      case PatternType::I:
        return "I";
      case PatternType::II:
        return "II";
      case PatternType::III:
        return "III";
      case PatternType::IV:
        return "IV";
      case PatternType::V:
        return "V";
      case PatternType::VI:
        return "VI";
    }
    return "?";
}

/** One page visit. */
struct PageRef
{
    PageId page = 0;
    /** Cache-line accesses this visit expands to in the timing model. */
    std::uint16_t burst = 8;
    /** The visit stores to the page (evicting it then needs a writeback). */
    bool write = false;
};

/** A named, generated workload. */
class Trace
{
  public:
    Trace(std::string abbr, std::string app, std::string suite, PatternType type)
        : abbr_(std::move(abbr)), app_(std::move(app)), suite_(std::move(suite)),
          type_(type)
    {}

    /** @{ identity */
    const std::string &abbr() const { return abbr_; }
    const std::string &application() const { return app_; }
    const std::string &suite() const { return suite_; }
    PatternType pattern() const { return type_; }
    /** @} */

    /** Append one visit. */
    void
    add(PageId page, std::uint16_t burst = 8, bool write = false)
    {
        refs_.push_back(PageRef{page, burst, write});
    }

    /** Fraction of visits that write (for reports). */
    double
    writeFraction() const
    {
        if (refs_.empty())
            return 0.0;
        std::size_t writes = 0;
        for (const PageRef &r : refs_)
            writes += r.write ? 1 : 0;
        return static_cast<double>(writes) / static_cast<double>(refs_.size());
    }

    /**
     * Mark a kernel-launch boundary: the timing simulator inserts a global
     * barrier here (iterative GPU applications re-launch kernels between
     * passes, so pass k+1 cannot overtake pass k).  Consecutive or empty
     * boundaries collapse.
     */
    void
    beginKernel()
    {
        if (kernelStarts_.empty() || kernelStarts_.back() != refs_.size())
            kernelStarts_.push_back(refs_.size());
    }

    const std::vector<PageRef> &refs() const { return refs_; }
    std::size_t size() const { return refs_.size(); }

    /** Mark visit @p i as a write (used by the write-marking helpers). */
    void
    setWrite(std::size_t i, bool write)
    {
        refs_.at(i).write = write;
    }

    /** Number of kernel segments (at least 1 for a nonempty trace). */
    std::size_t
    kernelCount() const
    {
        return kernelStarts_.empty() ? (refs_.empty() ? 0 : 1)
                                     : kernelStarts_.size()
                                           + (kernelStarts_.front() != 0 ? 1 : 0);
    }

    /** Half-open visit-index range [first, second) of kernel @p k. */
    std::pair<std::size_t, std::size_t>
    kernelRange(std::size_t k) const
    {
        std::vector<std::size_t> starts;
        starts.reserve(kernelStarts_.size() + 1);
        if (kernelStarts_.empty() || kernelStarts_.front() != 0)
            starts.push_back(0);
        starts.insert(starts.end(), kernelStarts_.begin(), kernelStarts_.end());
        const std::size_t begin = starts.at(k);
        const std::size_t end =
            k + 1 < starts.size() ? starts[k + 1] : refs_.size();
        return {begin, end};
    }

    /** Unique pages touched (the application footprint). */
    std::size_t
    footprintPages() const
    {
        DensePageSet seen;
        for (const PageRef &r : refs_)
            seen.insert(r.page);
        return seen.size();
    }

    /** The canonical page-reference order (input to Belady MIN). */
    std::shared_ptr<const std::vector<PageId>>
    canonicalPages() const
    {
        auto pages = std::make_shared<std::vector<PageId>>();
        pages->reserve(refs_.size());
        for (const PageRef &r : refs_)
            pages->push_back(r.page);
        return pages;
    }

  private:
    std::string abbr_;
    std::string app_;
    std::string suite_;
    PatternType type_;
    std::vector<PageRef> refs_;
    std::vector<std::size_t> kernelStarts_;
};

} // namespace hpe
