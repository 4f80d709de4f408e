/**
 * @file
 * Content-addressed result cache with in-flight coalescing — the memory
 * of the hpe_serve daemon.
 *
 * Keys are ExperimentRequest fingerprints (canonical-JSON FNV-1a), so
 * the cache is *content*-addressed: any two requests that mean the same
 * experiment — regardless of spelling, field order, or which client sent
 * them — share one slot.  Because simulations are deterministic, a
 * completed slot can answer forever and a repeat query is O(1).
 *
 * The acquire() protocol also coalesces concurrent duplicates: the first
 * acquirer of a fingerprint is told to Compute, every later acquirer of
 * the same fingerprint while that computation runs is told to Wait on
 * the same entry, and acquirers after completion Hit.  One computation,
 * many answers.
 *
 * Admission control lives here too: a Compute acquisition is Rejected
 * when the pending-entry count (computations queued or running) has
 * reached the configured bound — the daemon's backpressure signal.
 * Hits and Waits never consume a pending slot, so a saturated daemon
 * still answers everything it has already computed.
 *
 * Completed entries are retained up to a capacity; the oldest completed
 * entry is evicted first (pending entries are never evicted — waiters
 * hold references to them).  Evictions are reported to an optional
 * observer (the daemon journals a tombstone in its ResultStore), and
 * seed() warm-starts the cache from recovered journal records on boot.
 * All methods are thread-safe.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace hpe::serve {

/** Thread-safe fingerprint -> response-payload cache; see file comment. */
class ResultCache
{
  public:
    /** One cached (or in-flight) computation. */
    struct Entry
    {
        bool done = false;
        /** Response payload (a serialized JSON result or error object). */
        std::string payload;
        /** Did the computation fail?  (Failed entries are cached too —
         *  deterministic experiments fail deterministically.) */
        bool failed = false;
        /** Completion callbacks parked by whenDone(), fired once by
         *  complete().  Guarded by the cache mutex. */
        std::vector<std::function<void()>> callbacks;
    };

    using EntryPtr = std::shared_ptr<Entry>;

    /** What acquire() told the caller to do. */
    enum class Role {
        Compute,  ///< caller owns the computation; complete() when done
        Wait,     ///< identical request in flight; whenDone() on it
        Hit,      ///< entry->payload is ready now
        Rejected, ///< pending bound reached; tell the client to retry
    };

    struct Acquisition
    {
        Role role;
        EntryPtr entry; ///< null only when Rejected
    };

    /**
     * @param capacity      completed entries retained (oldest evicted).
     * @param maxPending    bound on computations queued or running.
     */
    ResultCache(std::size_t capacity, std::size_t maxPending)
        : capacity_(capacity), maxPending_(maxPending)
    {}

    /**
     * Look up @p fingerprint and claim a role; see file comment.
     * @p admitNew false — the server's hit-and-coalesce shed mode —
     * rejects a fingerprint the cache does not already hold, without
     * consuming a pending slot.
     */
    Acquisition
    acquire(const std::string &fingerprint, bool admitNew = true)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (auto it = entries_.find(fingerprint); it != entries_.end()) {
            if (it->second->done) {
                ++hits_;
                return {Role::Hit, it->second};
            }
            ++coalesced_;
            return {Role::Wait, it->second};
        }
        if (!admitNew || pending_ >= maxPending_) {
            ++rejected_;
            return {Role::Rejected, nullptr};
        }
        ++misses_;
        ++pending_;
        auto entry = std::make_shared<Entry>();
        entries_.emplace(fingerprint, entry);
        insertionOrder_.push_back(fingerprint);
        return {Role::Compute, entry};
    }

    /** Publish the result of a Compute acquisition and run the callbacks
     *  parked by whenDone(). */
    void
    complete(const EntryPtr &entry, std::string payload, bool failed = false)
    {
        std::vector<std::string> evicted;
        std::vector<std::function<void()>> callbacks;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            entry->payload = std::move(payload);
            entry->failed = failed;
            entry->done = true;
            callbacks.swap(entry->callbacks);
            --pending_;
            evictOverflow(evicted);
        }
        // Outside the lock: a callback may call back into the cache.
        for (const auto &callback : callbacks)
            callback();
        notifyEvicted(evicted);
    }

    /**
     * Invoke @p callback once @p entry completes — immediately (on the
     * calling thread) when it already has, else from the completing
     * thread, after `done`/`payload`/`failed` are published and the
     * cache lock is released.  The daemon's event-driven front end
     * parks its Wait/Compute responders here, so no thread blocks on an
     * entry; the daemon's deadline timer answers a responder whose
     * deadline passes first.
     */
    void
    whenDone(const EntryPtr &entry, std::function<void()> callback)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!entry->done) {
                entry->callbacks.push_back(std::move(callback));
                return;
            }
        }
        callback();
    }

    /**
     * Insert an already-completed result — the daemon's warm start
     * replaying the durable store on boot.  Counts as neither a hit
     * nor a miss; an existing entry for @p fingerprint wins (live
     * state beats the journal).  Capacity is enforced, so seeding in
     * journal order retains the most recently written results.
     */
    void
    seed(const std::string &fingerprint, std::string payload,
         bool failed = false)
    {
        std::vector<std::string> evicted;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (entries_.contains(fingerprint))
                return;
            auto entry = std::make_shared<Entry>();
            entry->payload = std::move(payload);
            entry->failed = failed;
            entry->done = true;
            entries_.emplace(fingerprint, entry);
            insertionOrder_.push_back(fingerprint);
            ++seeded_;
            evictOverflow(evicted);
        }
        notifyEvicted(evicted);
    }

    /**
     * Observe evictions (the daemon journals a tombstone for each).
     * Called *after* the cache lock is released, so the observer may
     * call back into the cache; set before the daemon starts serving.
     */
    void
    setEvictionObserver(std::function<void(const std::string &)> observer)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        evictionObserver_ = std::move(observer);
    }

    /** @{ Observability counters (monotonic since construction). */
    std::uint64_t hits() const { return locked(hits_); }
    std::uint64_t misses() const { return locked(misses_); }
    std::uint64_t coalesced() const { return locked(coalesced_); }
    std::uint64_t rejected() const { return locked(rejected_); }
    std::uint64_t seeded() const { return locked(seeded_); }
    std::uint64_t evictions() const { return locked(evictions_); }
    /** Computations queued or running right now (the backpressure gauge). */
    std::uint64_t pending() const { return locked(pending_); }
    /** Entries resident (completed + pending). */
    std::uint64_t size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return entries_.size();
    }
    /** @} */

  private:
    /** Drop oldest *completed* entries down to capacity, collecting
     *  their fingerprints into @p evicted for the observer.  Pending
     *  fingerprints are skipped (their waiters hold the EntryPtr) and
     *  re-queued behind the completed ones. */
    void
    evictOverflow(std::vector<std::string> &evicted)
    {
        while (entries_.size() > capacity_ && !insertionOrder_.empty()) {
            const std::string fp = std::move(insertionOrder_.front());
            insertionOrder_.pop_front();
            auto it = entries_.find(fp);
            if (it == entries_.end())
                continue;
            if (!it->second->done) {
                insertionOrder_.push_back(fp);
                // All remaining entries pending: nothing evictable.
                if (entries_.size() <= pending_)
                    return;
                continue;
            }
            entries_.erase(it);
            ++evictions_;
            evicted.push_back(fp);
        }
    }

    /** Deliver eviction notifications outside the lock. */
    void
    notifyEvicted(const std::vector<std::string> &evicted)
    {
        if (evicted.empty())
            return;
        std::function<void(const std::string &)> observer;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            observer = evictionObserver_;
        }
        if (observer)
            for (const std::string &fp : evicted)
                observer(fp);
    }

    std::uint64_t
    locked(const std::uint64_t &v) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return v;
    }

    const std::size_t capacity_;
    const std::size_t maxPending_;

    mutable std::mutex mutex_;
    std::unordered_map<std::string, EntryPtr> entries_;
    std::deque<std::string> insertionOrder_;
    std::function<void(const std::string &)> evictionObserver_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t coalesced_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t seeded_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t pending_ = 0;
};

} // namespace hpe::serve
