/**
 * @file
 * The program's two schedulers: parallelFor(), which the sweep engine
 * runs its independent simulations on, and ThreadPool, the FIFO task
 * queue a daemon shard posts cold computations to.
 *
 * parallelFor() hands out indices one at a time through a shared atomic
 * cursor: sweep cells vary in duration by an order of magnitude, so
 * static chunking would leave threads idle.  Its guarantees:
 *
 *  - every index in [0, n) is executed exactly once, on some thread;
 *  - it starts min(threads, n) - 1 helper threads and the calling thread
 *    works on the cursor too; it starts none when threads <= 1 or when
 *    called from inside another parallelFor(), and then runs the indices
 *    on the calling thread in order;
 *  - every index still runs when some throw; afterwards the exception of
 *    the lowest failing index is rethrown, whatever the thread count;
 *  - every helper is joined before it returns or throws.  If a helper
 *    cannot be started, the helpers that did start finish the remaining
 *    indices, then the std::system_error propagates.
 *
 * No state is shared between calls, so concurrent calls, and calls from
 * a ThreadPool task, are independent.  parallelFor() imposes no order:
 * callers write results into per-index slots and reduce them in index
 * order afterwards (what SweepRunner does).
 */

#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/log.hpp"

namespace hpe {

/** Hardware concurrency with a sane floor (never 0). */
inline unsigned
hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n > 0 ? n : 1;
}

namespace detail {

/** True on a thread that is running parallelFor() indices. */
inline thread_local bool insideParallelFor = false;

} // namespace detail

/**
 * Run fn(i) for every i in [0, n) on up to @p threads threads, the
 * calling thread included; blocks until all complete.  See the file
 * comment for the thread, nesting and exception contract.
 */
inline void
parallelFor(unsigned threads, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    std::atomic<std::size_t> next{0};
    std::mutex errorMutex;
    std::size_t errorIndex = 0;
    std::exception_ptr error;
    const auto drain = [&] {
        const bool outer = std::exchange(detail::insideParallelFor, true);
        for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                break;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!error || i < errorIndex) {
                    error = std::current_exception();
                    errorIndex = i;
                }
            }
        }
        detail::insideParallelFor = outer;
    };

    // Declared after everything drain() uses, so that a std::jthread's
    // destructor joins it on every exit path while those still exist.
    std::vector<std::jthread> helpers;
    const std::size_t width = std::min<std::size_t>(threads, n);
    if (width > 1 && !detail::insideParallelFor) {
        helpers.reserve(width - 1);
        for (std::size_t t = 1; t < width; ++t)
            helpers.emplace_back(drain);
    }
    drain();
    helpers.clear();
    if (error)
        std::rethrow_exception(error);
}

/**
 * A FIFO of posted tasks drained by a fixed set of worker threads.
 *
 * Tasks must not throw; an escaping exception is caught and reported
 * via warn() (there is no caller left to rethrow to), and the worker
 * goes on serving.  Tasks still queued when the pool is destroyed are
 * dropped — owners drain their work before tearing the pool down.
 */
class ThreadPool
{
  public:
    /** Start exactly @p workers threads (at least one).  If one cannot
     *  be started, those already running are joined and the
     *  std::system_error propagates. */
    explicit ThreadPool(unsigned workers)
    {
        HPE_ASSERT(workers > 0, "a ThreadPool needs at least one worker");
        workers_.reserve(workers);
        try {
            for (unsigned w = 0; w < workers; ++w)
                workers_.emplace_back([this] { workerLoop(); });
        } catch (...) {
            stopAndJoin();
            throw;
        }
    }

    ~ThreadPool() { stopAndJoin(); }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    std::size_t workers() const { return workers_.size(); }

    /** Enqueue one task; the first idle worker runs it. */
    void
    post(std::function<void()> task)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            tasks_.push_back(std::move(task));
        }
        wake_.notify_one();
    }

  private:
    void
    stopAndJoin()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        wake_.notify_all();
        for (std::thread &w : workers_)
            w.join();
        workers_.clear();
    }

    void
    workerLoop()
    {
        for (;;) {
            std::function<void()> task;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                wake_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
                if (stop_)
                    return;
                task = std::move(tasks_.front());
                tasks_.pop_front();
            }
            try {
                task();
            } catch (const std::exception &e) {
                warn("posted task threw: {}", e.what());
            } catch (...) {
                warn("posted task threw a non-std exception");
            }
        }
    }

    std::mutex mutex_;
    std::condition_variable wake_;
    std::deque<std::function<void()>> tasks_;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

} // namespace hpe
