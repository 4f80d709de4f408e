/**
 * @file
 * Tests for common/thread_pool.hpp.  parallelFor(): coverage of every
 * index, edge sizes, nesting, concurrent callers, and the exception
 * contract (all indices run; the lowest failing index's exception is
 * rethrown) — the guarantees the deterministic sweep engine is built
 * on.  ThreadPool: every posted task runs once, and a throwing task is
 * reported without stopping the pool — what a daemon shard relies on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"

namespace hpe {
namespace {

TEST(ThreadPool, ReportsRequestedParallelism)
{
    EXPECT_EQ(ThreadPool(1).workers(), 1u);
    EXPECT_EQ(ThreadPool(3).workers(), 3u);
    EXPECT_GE(hardwareThreads(), 1u);
}

TEST(ThreadPool, ZeroIndicesRunsNothing)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        std::atomic<int> calls{0};
        parallelFor(threads, 0, [&](std::size_t) { ++calls; });
        EXPECT_EQ(calls.load(), 0) << threads << " threads";
    }
}

TEST(ThreadPool, SingleIndexRunsExactlyOnce)
{
    for (unsigned threads : {1u, 2u, 8u}) {
        std::atomic<int> calls{0};
        parallelFor(threads, 1, [&](std::size_t i) {
            EXPECT_EQ(i, 0u);
            ++calls;
        });
        EXPECT_EQ(calls.load(), 1) << threads << " threads";
    }
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce)
{
    constexpr std::size_t kN = 10'000;
    for (unsigned threads : {1u, 2u, 8u}) {
        std::vector<std::atomic<int>> hits(kN);
        parallelFor(threads, kN, [&](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < kN; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "index " << i << " with "
                                         << threads << " threads";
    }
}

TEST(ThreadPool, PoolIsReusableAcrossBatches)
{
    for (int round = 0; round < 50; ++round) {
        std::atomic<std::size_t> sum{0};
        parallelFor(4, 100, [&](std::size_t i) { sum += i; });
        ASSERT_EQ(sum.load(), 100u * 99u / 2);
    }
}

TEST(ThreadPool, LowestFailingIndexWins)
{
    // All indices run even when some throw, and the caller sees the
    // exception of the LOWEST failing index — on 1 thread and many, so
    // behaviour cannot depend on the parallelism degree.
    for (unsigned threads : {1u, 4u}) {
        std::vector<std::atomic<int>> hits(100);
        try {
            parallelFor(threads, 100, [&](std::size_t i) {
                ++hits[i];
                if (i == 7 || i == 42)
                    throw std::runtime_error("fail at "
                                             + std::to_string(i));
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "fail at 7");
        }
        for (std::size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, NestedParallelForRunsInline)
{
    std::atomic<int> inner_calls{0};
    std::atomic<int> moved{0};
    parallelFor(4, 8, [&](std::size_t) {
        // A nested call starts no thread: every inner index runs on the
        // thread that runs the outer index.
        const std::thread::id outer = std::this_thread::get_id();
        parallelFor(4, 10, [&](std::size_t) {
            ++inner_calls;
            if (std::this_thread::get_id() != outer)
                ++moved;
        });
    });
    EXPECT_EQ(inner_calls.load(), 8 * 10);
    EXPECT_EQ(moved.load(), 0);
}

TEST(ThreadPool, NestedExceptionPropagates)
{
    EXPECT_THROW(parallelFor(2, 4,
                             [&](std::size_t) {
                                 parallelFor(2, 4, [](std::size_t j) {
                                     if (j == 2)
                                         throw std::logic_error("inner");
                                 });
                             }),
                 std::logic_error);
}

TEST(ThreadPool, ConcurrentParallelForCallsBothComplete)
{
    constexpr std::size_t kN = 1'000;
    std::vector<std::atomic<int>> hits(2 * kN);
    std::thread other([&] {
        parallelFor(4, kN, [&](std::size_t i) { ++hits[kN + i]; });
    });
    parallelFor(4, kN, [&](std::size_t i) { ++hits[i]; });
    other.join();
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, PostedTasksRunExactlyOnce)
{
    constexpr int kTasks = 200;
    for (unsigned workers : {1u, 4u}) {
        std::vector<std::atomic<int>> runs(kTasks);
        {
            std::latch done(kTasks);
            ThreadPool pool(workers);
            for (int t = 0; t < kTasks; ++t)
                pool.post([&, t] {
                    ++runs[t];
                    done.count_down();
                });
            done.wait();
        } // joins the workers: no task can run after this point
        for (int t = 0; t < kTasks; ++t)
            ASSERT_EQ(runs[t].load(), 1) << "task " << t << " with "
                                         << workers << " workers";
    }
}

TEST(ThreadPool, ThrowingTaskIsReportedAndPoolKeepsServing)
{
    testing::internal::CaptureStderr();
    std::atomic<bool> ran{false};
    {
        std::latch done(2);
        ThreadPool pool(1);
        pool.post([&] {
            done.count_down();
            throw std::runtime_error("boom");
        });
        pool.post([&] {
            ran = true;
            done.count_down();
        });
        done.wait();
    }
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("posted task threw: boom"), std::string::npos) << err;
    EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, PostedTaskCanCallParallelFor)
{
    std::atomic<int> calls{0};
    {
        std::latch done(1);
        ThreadPool pool(2);
        pool.post([&] {
            parallelFor(4, 100, [&](std::size_t) { ++calls; });
            done.count_down();
        });
        done.wait();
    }
    EXPECT_EQ(calls.load(), 100);
}

} // namespace
} // namespace hpe
