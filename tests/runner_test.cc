/**
 * @file
 * Tests for the parallel experiment runner: result ordering,
 * exception propagation, and — the property the harnesses rely on —
 * thread-count-independent, bit-identical simulation sweeps.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "net/network.hh"
#include "net/traffic.hh"
#include "runner/runner.hh"
#include "sim/engine.hh"
#include "util/random.hh"

namespace locsim {
namespace runner {
namespace {

TEST(ThreadPool, RunsEverySubmittedJob)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitRethrowsJobException)
{
    ThreadPool pool(2);
    for (int i = 0; i < 4; ++i)
        pool.submit([] {});
    pool.submit([] { throw std::runtime_error("job failed"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The pool stays usable after an error.
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ReusableAcrossWaves)
{
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int wave = 0; wave < 3; ++wave) {
        for (int i = 0; i < 10; ++i)
            pool.submit([&count] { ++count; });
        pool.wait();
    }
    EXPECT_EQ(count.load(), 30);
}

TEST(ThreadPool, FailsFastAfterFirstException)
{
    // One worker makes execution order deterministic: job 0 throws,
    // so jobs 1..N must be drained without running.
    ThreadPool pool(1);
    std::atomic<int> executed{0};
    pool.submit([] { throw std::runtime_error("first job failed"); });
    for (int i = 0; i < 50; ++i)
        pool.submit([&executed] { ++executed; });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(executed.load(), 0);
    // The pool recovers for the next wave.
    pool.submit([&executed] { ++executed; });
    pool.wait();
    EXPECT_EQ(executed.load(), 1);
}

TEST(ParallelRegion, EveryLaneRunsOnceAndCanSynchronize)
{
    ThreadPool pool(3);
    // Lanes wait on each other through an atomic rendezvous: this
    // deadlocks unless all four run concurrently (lane 0 on the
    // caller, lanes 1-3 on the pool's workers).
    std::atomic<int> arrived{0};
    std::vector<int> calls(4, 0);
    pool.parallelRegion(4, [&](int lane) {
        ++calls[static_cast<std::size_t>(lane)];
        ++arrived;
        while (arrived.load() < 4) {
            // spin: released once the last lane arrives
        }
    });
    EXPECT_EQ(calls, std::vector<int>({1, 1, 1, 1}));
    // The pool is reusable afterwards.
    pool.parallelRegion(2, [&](int lane) {
        ++calls[static_cast<std::size_t>(lane)];
    });
    EXPECT_EQ(calls, std::vector<int>({2, 2, 1, 1}));
}

TEST(ParallelRegion, RethrowsLaneExceptions)
{
    ThreadPool pool(2);
    // From a worker lane.
    EXPECT_THROW(pool.parallelRegion(
                     2,
                     [](int lane) {
                         if (lane == 1)
                             throw std::runtime_error("worker lane");
                     }),
                 std::runtime_error);
    // From the caller's lane.
    EXPECT_THROW(pool.parallelRegion(
                     2,
                     [](int lane) {
                         if (lane == 0)
                             throw std::runtime_error("caller lane");
                     }),
                 std::runtime_error);
}

TEST(ParallelRegion, RejectsMoreLanesThanWorkersCanCarry)
{
    ThreadPool pool(2);
    // 4 lanes need 3 workers (lane 0 rides the caller); only 2 exist,
    // and lanes that synchronize would deadlock — refuse up front.
    EXPECT_THROW(pool.parallelRegion(4, [](int) {}),
                 std::runtime_error);
    // 3 lanes fit exactly; 0 lanes is a no-op.
    pool.parallelRegion(3, [](int) {});
    pool.parallelRegion(0, [](int) { FAIL() << "no lanes to run"; });
}

TEST(ParallelMap, ResultsIndexedByInput)
{
    const auto results = parallelMap(
        64, [](std::size_t i) { return i * i; }, 4);
    ASSERT_EQ(results.size(), 64u);
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i], i * i);
}

TEST(ParallelMap, ZeroJobsIsFine)
{
    const auto results =
        parallelMap(0, [](std::size_t) { return 1; }, 2);
    EXPECT_TRUE(results.empty());
}

TEST(ParallelForEach, CoversEveryIndexOnce)
{
    std::vector<std::atomic<int>> hits(50);
    parallelForEach(
        hits.size(), [&](std::size_t i) { ++hits[i]; }, 4);
    for (const auto &hit : hits)
        EXPECT_EQ(hit.load(), 1);
}

/**
 * The contract the harnesses depend on: a sweep of independent
 * simulations, each seeded from its index, produces bit-identical
 * results whatever the worker count (1 degenerates to the old
 * sequential loop).
 */
TEST(ParallelMap, SimulationSweepIdenticalForAnyThreadCount)
{
    auto sweep = [](int threads) {
        return parallelMap(
            6,
            [](std::size_t i) {
                sim::Engine engine;
                net::NetworkConfig config;
                config.radix = 4;
                config.dims = 2;
                net::Network network(engine, config);
                engine.addClocked(&network, 1);
                net::TrafficConfig tc;
                tc.injection_rate = 0.01 + 0.01 * static_cast<double>(i);
                tc.seed = 1000 + i; // per-run seed from the index
                net::TrafficGenerator gen(network, tc);
                engine.addClocked(&gen, 1);
                engine.run(2000);
                return std::make_tuple(
                    gen.generated(), gen.received(),
                    network.stats().messages_delivered,
                    network.stats().latency.sum(),
                    network.channelUtilization());
            },
            threads);
    };
    const auto sequential = sweep(1);
    EXPECT_EQ(sweep(2), sequential);
    EXPECT_EQ(sweep(8), sequential);
}

} // namespace
} // namespace runner
} // namespace locsim
