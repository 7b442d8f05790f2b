/**
 * @file
 * Steady-state zero-allocation tests.
 *
 * The hot simulation paths (network fabric, coherence controllers,
 * full machine) are built on pooled records, ring queues and flat
 * slabs that grow to a high-water mark and then recycle storage.
 * These tests pin that property: after a bounded warm-up, whole
 * simulation windows must not touch the allocator at all, for both
 * the sequential Activity engine and the sharded lockstep engine.
 *
 * Counting uses the same global operator-new hooks as the micro_perf
 * benchmarks (util/alloc_count.hh; this file is its one translation
 * unit in this binary). The simulations are seeded and deterministic,
 * so the assertions are exact, not statistical.
 */

#include "util/alloc_count.hh"

#include <gtest/gtest.h>

#include "machine/machine.hh"
#include "net/network.hh"
#include "net/traffic.hh"
#include "sim/engine.hh"
#include "workload/mapping.hh"

namespace {

using locsim::util::heapAllocCount;

/**
 * Run @p step repeatedly until one full window completes without any
 * heap allocation (bounded at @p max_windows). Returns true if the
 * allocator went quiet.
 */
template <typename Step>
bool
warmUntilQuiet(Step step, int max_windows = 50)
{
    for (int i = 0; i < max_windows; ++i) {
        const std::uint64_t before = heapAllocCount();
        step();
        if (heapAllocCount() == before)
            return true;
    }
    return false;
}

TEST(AllocSteadyState, NetworkSimActivityEngine)
{
    locsim::sim::Engine engine;
    locsim::net::NetworkConfig config;
    config.radix = 8;
    config.dims = 2;
    locsim::net::Network network(engine, config);
    engine.addClocked(&network, 1);
    locsim::net::TrafficConfig traffic;
    traffic.injection_rate = 0.02;
    locsim::net::TrafficGenerator gen(network, traffic);
    engine.addClocked(&gen, 1);

    ASSERT_TRUE(warmUntilQuiet([&] { engine.run(2000); }));

    const std::uint64_t before = heapAllocCount();
    engine.run(10000);
    EXPECT_EQ(heapAllocCount() - before, 0u)
        << "network steady state touched the allocator";
}

TEST(AllocSteadyState, FullMachineActivityEngine)
{
    locsim::machine::MachineConfig config;
    config.radix = 8;
    config.contexts = 1;
    config.shards = 1;
    locsim::machine::Machine machine(
        config, locsim::workload::Mapping::random(64, 9));
    machine.advance(1000); // warm caches/directories

    ASSERT_TRUE(warmUntilQuiet([&] { machine.advance(1000); }));

    const std::uint64_t before = heapAllocCount();
    machine.advance(10000);
    EXPECT_EQ(heapAllocCount() - before, 0u)
        << "machine steady state touched the allocator";
}

TEST(AllocSteadyState, FullMachineShardedEngine)
{
    locsim::machine::MachineConfig config;
    config.radix = 8;
    config.contexts = 1;
    config.shards = 2;
    locsim::machine::Machine machine(
        config, locsim::workload::Mapping::random(64, 9));
    machine.advance(1000);

    ASSERT_TRUE(warmUntilQuiet([&] { machine.advance(1000); }));

    const std::uint64_t before = heapAllocCount();
    machine.advance(10000);
    EXPECT_EQ(heapAllocCount() - before, 0u)
        << "sharded steady state touched the allocator";
}

} // namespace
