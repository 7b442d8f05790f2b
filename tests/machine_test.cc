/**
 * @file
 * Full-machine integration tests: the Section 3 validation platform
 * end to end. These check that the simulator reproduces the paper's
 * measured application parameters (g, c, d), that coherence is
 * correct under the real workload, and that measurements behave as
 * the model predicts (latency grows with mapping distance, rates
 * fall, multithreading raises throughput).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include "machine/calibration.hh"
#include "machine/machine.hh"
#include "model/alewife.hh"
#include "model/combined_model.hh"
#include "net/network.hh"
#include "net/topology.hh"
#include "runner/runner.hh"
#include "sim/lockstep.hh"
#include "util/serialize.hh"
#include "util/simd.hh"
#include "workload/mapping.hh"

namespace locsim {
namespace machine {
namespace {

Measurement
runMachine(int contexts, const workload::Mapping &mapping,
           std::uint64_t warmup = 4000, std::uint64_t window = 12000)
{
    MachineConfig config;
    config.contexts = contexts;
    Machine machine(config, mapping);
    return machine.run(warmup, window);
}

TEST(Machine, CoherenceHoldsUnderIdentityMapping)
{
    const auto m = runMachine(1, workload::Mapping::identity(64));
    EXPECT_EQ(m.violations, 0u);
    EXPECT_GT(m.iterations, 100u);
    EXPECT_GT(m.transactions, 1000u);
}

TEST(Machine, CoherenceHoldsUnderRandomMappingAllContexts)
{
    for (int contexts : {1, 2, 4}) {
        const auto m =
            runMachine(contexts, workload::Mapping::random(64, 3));
        EXPECT_EQ(m.violations, 0u) << contexts << " contexts";
        EXPECT_GT(m.iterations, 50u);
    }
}

TEST(Machine, CoherenceHoldsWithTinyCache)
{
    // Force constant evictions/writebacks: protocol must stay correct.
    MachineConfig config;
    config.contexts = 2;
    config.protocol.cache_bytes = 8 * coher::kLineBytes;
    Machine machine(config, workload::Mapping::random(64, 11));
    const auto m = machine.run(2000, 8000);
    EXPECT_EQ(m.violations, 0u);
    EXPECT_GT(m.iterations, 20u);
}

TEST(Machine, MeasuredHopsMatchMappingDistance)
{
    net::TorusTopology topo(8, 2);
    for (const auto &named : workload::experimentMappings(topo)) {
        MachineConfig config;
        Machine machine(config, named.mapping);
        const auto m = machine.run(2000, 6000);
        // Message hops track the mapping's neighbour distance. The
        // mix includes request+reply (same distance both ways) but
        // hop averages can deviate slightly because message counts
        // per neighbour vary with sharing.
        EXPECT_NEAR(m.avg_hops, named.avg_distance,
                    0.15 * named.avg_distance + 0.1)
            << named.name;
    }
}

TEST(Machine, MessagesPerTransactionNearPaperValue)
{
    // Paper Section 3.2: g = 3.2 messages per transaction.
    const auto m = runMachine(1, workload::Mapping::identity(64));
    EXPECT_NEAR(m.messages_per_txn, 3.2, 0.35);
}

TEST(Machine, CriticalPathIsTwoMessages)
{
    // For this workload every transaction resolves in one
    // request/response exchange (reads hit the home's own modified
    // copy; writes invalidate from the home): c = 2, the paper's
    // value.
    const auto m = runMachine(1, workload::Mapping::identity(64));
    EXPECT_NEAR(m.critical_messages, 2.0, 0.05);
}

TEST(Machine, MessageSizeMatchesPaper)
{
    const auto m = runMachine(1, workload::Mapping::identity(64));
    EXPECT_DOUBLE_EQ(m.avg_flits, 12.0);
}

TEST(Machine, LatencyRisesAndRateFallsWithDistance)
{
    net::TorusTopology topo(8, 2);
    const auto family = workload::experimentMappings(topo);
    std::vector<double> latencies, rates, distances;
    for (std::size_t i = 0; i < family.size(); i += 2) {
        const auto m = runMachine(1, family[i].mapping);
        latencies.push_back(m.message_latency);
        rates.push_back(m.message_rate);
        distances.push_back(family[i].avg_distance);
    }
    // Strong overall trend (Figures 4/5): latency roughly triples and
    // rate drops substantially from one hop to the farthest mapping.
    EXPECT_GT(latencies.back(), 2.0 * latencies.front());
    EXPECT_LT(rates.back(), 0.75 * rates.front());
    // Local wiggles between same-distance mappings are physical
    // (different contention patterns); only clear regressions against
    // the distance ordering are bugs.
    for (std::size_t i = 1; i < latencies.size(); ++i) {
        EXPECT_GT(latencies[i],
                  latencies[i - 1] - 0.15 * latencies[i - 1])
            << "distance " << distances[i];
        EXPECT_LT(rates[i], rates[i - 1] * 1.15)
            << "distance " << distances[i];
    }
}

TEST(Machine, MultithreadingIncreasesMessageRate)
{
    const workload::Mapping mapping = workload::Mapping::random(64, 7);
    const auto m1 = runMachine(1, mapping);
    const auto m2 = runMachine(2, mapping);
    const auto m4 = runMachine(4, mapping);
    EXPECT_GT(m2.message_rate, m1.message_rate * 1.05);
    EXPECT_GE(m4.message_rate, m2.message_rate * 0.95);
    // And per-context slopes: latency tolerated grows with contexts
    // (message latency rises under the higher load).
    EXPECT_GT(m2.message_latency, m1.message_latency);
}

TEST(Machine, ZeroLoadIdentityLatencyNearModel)
{
    // Identity mapping, one context: traffic is light, so measured
    // T_m should sit near the zero-load model value d + B plus the
    // small node-channel overheads the paper describes (2-5 cycles).
    const auto m = runMachine(1, workload::Mapping::identity(64));
    const double zero_load = 1.0 + 12.0;
    EXPECT_GT(m.message_latency, zero_load);
    EXPECT_LT(m.message_latency, zero_load + 6.0);
}

TEST(Machine, CombinedModelPredictsMeasuredRates)
{
    // The headline validation (Figures 4/5): feed the measured
    // application parameters into the combined model; predictions
    // must track simulation within a modest tolerance.
    net::TorusTopology topo(8, 2);
    const auto family = workload::experimentMappings(topo);
    for (std::size_t i = 2; i < family.size(); i += 3) {
        const auto &named = family[i];
        const auto m = runMachine(1, named.mapping, 6000, 16000);
        const model::Prediction p = predictFromMeasurement(
            m, 1, m.avg_hops);

        EXPECT_NEAR(p.injection_rate, m.message_rate,
                    0.2 * m.message_rate)
            << named.name;
        EXPECT_NEAR(p.message_latency, m.message_latency,
                    0.25 * m.message_latency + 3.0)
            << named.name;
    }
}

TEST(Machine, UtilizationConsistentWithEquation10)
{
    // rho = r_m * B * k_d / 2 must hold for the *measured* rate,
    // size, and distance (it is flit conservation, not a model).
    const auto m = runMachine(1, workload::Mapping::random(64, 21));
    const double kd = m.avg_hops / 2.0;
    EXPECT_NEAR(m.utilization,
                m.message_rate * m.avg_flits * kd / 2.0,
                0.1 * m.utilization);
}

TEST(Machine, UniformWorkloadDistanceMatchesEquation17)
{
    // The no-locality workload communicates uniformly at random:
    // its measured average hop count must sit at Equation 17's value
    // under ANY bijective mapping.
    for (auto mapping : {workload::Mapping::identity(64),
                         workload::Mapping::random(64, 5)}) {
        MachineConfig config;
        config.workload = WorkloadKind::UniformRandom;
        Machine machine(config, mapping);
        const auto m = machine.run(2000, 8000);
        EXPECT_NEAR(m.avg_hops, net::randomMappingDistance(8, 2),
                    0.25);
        EXPECT_GT(m.transactions, 500u);
    }
}

TEST(Machine, UniformWorkloadGainsNothingFromMapping)
{
    // Physical locality cannot help an application with none
    // (Section 1.1): identity and random placements perform the
    // same for the uniform workload.
    auto rate = [](const workload::Mapping &mapping) {
        MachineConfig config;
        config.workload = WorkloadKind::UniformRandom;
        Machine machine(config, mapping);
        return machine.run(3000, 10000).txn_rate;
    };
    const double identity = rate(workload::Mapping::identity(64));
    const double random = rate(workload::Mapping::random(64, 9));
    EXPECT_NEAR(identity / random, 1.0, 0.06);
}

TEST(Machine, UniformWorkloadOverflowsLimitedDirectory)
{
    // Every word is eventually read by many nodes, so a limited
    // directory must trap (and stay correct) under this workload.
    MachineConfig config;
    config.workload = WorkloadKind::UniformRandom;
    config.protocol.dir_pointers = 4;
    Machine machine(config, workload::Mapping::identity(64));
    const auto m = machine.run(2000, 8000);
    std::uint64_t traps = 0;
    for (sim::NodeId node = 0; node < 64; ++node)
        traps += machine.controller(node)
                     .stats()
                     .limitless_traps.value();
    EXPECT_GT(traps, 100u);
    EXPECT_GT(m.transactions, 500u);

    // The full-map default never traps.
    MachineConfig fullmap = config;
    fullmap.protocol.dir_pointers = 0;
    Machine machine2(fullmap, workload::Mapping::identity(64));
    machine2.run(2000, 8000);
    traps = 0;
    for (sim::NodeId node = 0; node < 64; ++node)
        traps += machine2.controller(node)
                     .stats()
                     .limitless_traps.value();
    EXPECT_EQ(traps, 0u);
}

TEST(Machine, TorusWorkloadNeverOverflowsFourPointers)
{
    // The Section 3.2 application has at most four sharers per line
    // (its torus neighbours), so LimitLESS with >= 4 pointers
    // degenerates to the full-map directory -- the substitution
    // DESIGN.md records.
    MachineConfig config;
    config.protocol.dir_pointers = 4;
    Machine machine(config, workload::Mapping::random(64, 13));
    const auto m = machine.run(2000, 8000);
    std::uint64_t traps = 0;
    for (sim::NodeId node = 0; node < 64; ++node)
        traps += machine.controller(node)
                     .stats()
                     .limitless_traps.value();
    EXPECT_EQ(traps, 0u);
    EXPECT_EQ(m.violations, 0u);
}

TEST(Machine, PrefetchingRaisesThroughputLikeOutstandingTxns)
{
    // Section 2.1: mechanisms that keep k transactions outstanding
    // behave like multithreading in the model (slope ~ k). A single
    // context with software prefetch must beat the same machine
    // without it at a long mapping, without any correctness loss.
    auto run = [](std::uint32_t depth) {
        MachineConfig config;
        config.contexts = 1;
        config.app.prefetch_depth = depth;
        Machine machine(config, workload::Mapping::random(64, 3));
        return machine.run(4000, 12000);
    };
    const auto base = run(0);
    const auto prefetched = run(3);
    EXPECT_EQ(prefetched.violations, 0u);
    // Prefetched lines turn the subsequent loads into hits almost
    // perfectly (4 of 9 ops per iteration are prefetch-covered).
    EXPECT_GT(prefetched.hit_rate, base.hit_rate + 0.25);
    // Application progress (loop iterations) improves, but the gain
    // is bounded by node-side resources the prefetch cannot hide
    // (the store's invalidation round trip, controller occupancy,
    // and injection-channel serialization) -- the same fixed
    // overheads Figure 8 identifies as the small-grain limiter.
    EXPECT_GT(prefetched.iterations,
              base.iterations + base.iterations / 25)
        << "prefetching should overlap miss latency";
    // The machine carries more outstanding traffic, so utilization
    // rises with throughput.
    EXPECT_GT(prefetched.utilization, base.utilization);
}

TEST(Machine, PrefetchDepthZeroIsIdentical)
{
    auto run = [](std::uint32_t depth) {
        MachineConfig config;
        config.app.prefetch_depth = depth;
        Machine machine(config, workload::Mapping::identity(64));
        const auto m = machine.run(2000, 6000);
        return std::make_tuple(m.transactions, m.messages,
                               m.txn_latency);
    };
    EXPECT_EQ(run(0), run(0));
}

TEST(Machine, DeterministicAcrossIdenticalRuns)
{
    auto run = [] {
        MachineConfig config;
        config.contexts = 2;
        Machine machine(config, workload::Mapping::random(64, 17));
        const auto m = machine.run(2000, 6000);
        return std::make_tuple(m.transactions, m.messages,
                               m.message_latency, m.txn_latency);
    };
    EXPECT_EQ(run(), run());
}

/**
 * The whole machine — processors, controllers, coherence protocol,
 * network — must measure exactly the same under the activity-tracked
 * engine as under dumb-stepping reference mode. Every Measurement
 * field is derived from counters, so exact equality (including the
 * doubles) is the correct assertion: the two modes run the same
 * arithmetic on the same values or they have diverged.
 */
TEST(Machine, ActivityTrackingMatchesReferenceExactly)
{
    auto run = [](bool reference, int contexts) {
        MachineConfig config;
        config.contexts = contexts;
        config.reference_stepping = reference;
        Machine machine(config, workload::Mapping::random(64, 23));
        const Measurement m = machine.run(1500, 5000);
        return std::make_tuple(
            m.transactions, m.messages, m.iterations, m.violations,
            m.txn_latency, m.message_latency, m.inter_txn_time,
            m.inter_message_time, m.source_queue_wait, m.avg_hops,
            m.utilization, m.run_length, m.switch_overhead,
            m.hit_rate, m.messages_per_txn, m.critical_messages);
    };
    for (int contexts : {1, 4}) {
        EXPECT_EQ(run(false, contexts), run(true, contexts))
            << contexts << " contexts";
    }
}

TEST(Machine, DifferentClockRatiosRun)
{
    // The engine supports other network:processor ratios (used by the
    // Table 1 analysis); the machine must run correctly at ratio 1
    // and 4 as well.
    for (std::uint32_t ratio : {1u, 2u, 4u}) {
        MachineConfig config;
        config.net_clock_ratio = ratio;
        Machine machine(config, workload::Mapping::identity(64));
        const auto m = machine.run(1000, 4000);
        EXPECT_EQ(m.violations, 0u) << "ratio " << ratio;
        EXPECT_GT(m.transactions, 0u) << "ratio " << ratio;
        // Zero-load network latency is unchanged in network cycles.
        EXPECT_NEAR(m.message_latency, 14.0, 3.0) << "ratio " << ratio;
    }
}

TEST(Machine, FasterNetworkClockRatioLowersLatencyInProcCycles)
{
    // With the network twice as fast, a transaction costs fewer
    // processor cycles end to end, so the transaction rate (per
    // processor cycle) rises.
    auto txn_rate_per_proc_cycle = [](std::uint32_t ratio) {
        MachineConfig config;
        config.net_clock_ratio = ratio;
        Machine machine(config, workload::Mapping::random(64, 31));
        const auto m = machine.run(2000, 8000);
        // txn_rate is per network cycle; convert to per proc cycle.
        return m.txn_rate * static_cast<double>(ratio);
    };
    EXPECT_GT(txn_rate_per_proc_cycle(2),
              txn_rate_per_proc_cycle(1) * 1.05);
}

TEST(Machine, LatencyPercentilesAreOrdered)
{
    MachineConfig config;
    Machine machine(config, workload::Mapping::random(64, 23));
    const auto m = machine.run(3000, 10000);
    EXPECT_GT(m.message_latency_p50, 0.0);
    EXPECT_LE(m.message_latency_p50, m.message_latency * 1.05);
    EXPECT_GE(m.message_latency_p95, m.message_latency);
    // The tail is real under contention: p95 well above the median.
    EXPECT_GT(m.message_latency_p95, m.message_latency_p50 * 1.2);
}

/**
 * Per-node footprint budget. Link rings sized to the proven occupancy
 * bound, on-demand endpoint and controller rings and 4-slot
 * transaction pool chunks put a warm node near 12 KB at both sizes;
 * a regression in any per-node container shows here.
 */
TEST(Machine, WarmFootprintStaysWithinBudget)
{
    constexpr std::size_t kBudget = 13 * 1024;
    for (int radix : {8, 32}) {
        const auto nodes = static_cast<std::uint32_t>(radix * radix);
        MachineConfig config;
        config.radix = radix;
        Machine machine(config, workload::Mapping::random(nodes, 47));
        machine.advance(2000);
        EXPECT_LE(machine.memoryBytes() / nodes, kBudget)
            << radix << "x" << radix;
    }
}

TEST(Machine, ThreeDimensionalMachineRunsCoherently)
{
    // 4x4x4 torus: same node count as the validation platform but a
    // higher-dimensional fabric (six neighbours per thread).
    MachineConfig config;
    config.radix = 4;
    config.dims = 3;
    Machine machine(config, workload::Mapping::random(64, 29));
    const auto m = machine.run(2000, 8000);
    EXPECT_EQ(m.violations, 0u);
    EXPECT_GT(m.transactions, 500u);
    // Per-message distance shrinks in 3-D (Eq 17: 3*4/4 * 64/63 ~ 3.05
    // vs 4.06 in 2-D).
    net::TorusTopology topo(4, 3);
    EXPECT_NEAR(m.avg_hops, topo.averageRandomDistance(), 0.5);
}

TEST(Machine, LargerMachineRunsCoherently)
{
    // 16x16 = 256 nodes: four times the validation platform.
    MachineConfig config;
    config.radix = 16;
    Machine machine(config, workload::Mapping::random(256, 31));
    const auto m = machine.run(1500, 5000);
    EXPECT_EQ(m.violations, 0u);
    EXPECT_GT(m.transactions, 1000u);
    EXPECT_NEAR(m.avg_hops, net::randomMappingDistance(16, 2), 1.2);
}

TEST(Machine, MeshMachineRunsCoherently)
{
    // Physical-Alewife configuration: 8x8 mesh instead of torus.
    // Boundary threads have fewer neighbours; coherence must hold and
    // random mappings must show the mesh's longer average distance.
    MachineConfig config;
    config.wraparound = false;
    Machine machine(config, workload::Mapping::random(64, 19));
    const auto m = machine.run(3000, 10000);
    EXPECT_EQ(m.violations, 0u);
    EXPECT_GT(m.transactions, 500u);
    // Mesh random distance ~ 16/3 = 5.33 vs torus 4.06.
    EXPECT_GT(m.avg_hops, 4.3);
}

TEST(Machine, TorusOutperformsMeshUnderRandomMapping)
{
    auto rate = [](bool wraparound) {
        MachineConfig config;
        config.wraparound = wraparound;
        Machine machine(config, workload::Mapping::random(64, 19));
        return machine.run(3000, 10000).txn_rate;
    };
    // Shorter distances and twice the bisection: the torus wins.
    EXPECT_GT(rate(true), rate(false) * 1.05);
}

TEST(Machine, RunLengthTracksConfiguredCompute)
{
    // T_r per transaction: 5 ops/iteration at 8 cycles each, roughly
    // 5 transactions per iteration at identity mapping (every op is
    // a coherence miss) -> about 8-11 proc cycles = 16-22 net cycles
    // per transaction including issue overhead.
    const auto m = runMachine(1, workload::Mapping::identity(64));
    EXPECT_GT(m.run_length, 14.0);
    EXPECT_LT(m.run_length, 24.0);
}

/** Serialize a Measurement to its exact cache-payload bytes. */
std::vector<std::uint8_t>
measurementBytes(const Measurement &m)
{
    util::Serializer s;
    saveMeasurement(s, m);
    return s.takeBuffer();
}

/**
 * The SIMD kernels (net/kernels.hh) are an execution detail: a solo
 * machine run with every kernel level the build and CPU allow
 * produces the same Measurement and checkpoint bytes as the scalar
 * path, sequential and sharded, on a machine whose channel count
 * leaves a partial last dirty word (4^2) and on the paper's 8^2.
 */
TEST(Machine, ScalarAndVectorKernelPathsBitIdentical)
{
    constexpr std::uint64_t kWarmup = 600, kWindow = 1800;
    struct Case
    {
        int radix;
        int contexts;
        workload::Mapping mapping;
    };
    const std::vector<Case> cases = {
        {4, 1, workload::Mapping::random(16, 7)},
        {4, 2, workload::Mapping::identity(16)},
        {4, 3, workload::Mapping::random(16, 11)},
        {8, 2, workload::Mapping::random(64, 29)},
    };
    const util::simd::Level ambient = util::simd::activeLevel();
    auto runAt = [&](util::simd::Level level, const Case &c,
                     int shards) {
        util::simd::setActiveLevelForTest(level);
        MachineConfig config;
        config.radix = c.radix;
        config.contexts = c.contexts;
        config.shards = shards;
        Machine machine(config, c.mapping);
        std::vector<std::vector<std::uint8_t>> bytes;
        bytes.push_back(measurementBytes(machine.run(kWarmup, kWindow)));
        bytes.push_back(machine.saveCheckpoint());
        return bytes;
    };
    for (const util::simd::Level level :
         {util::simd::Level::Sse2, util::simd::Level::Avx2}) {
        util::simd::setActiveLevelForTest(level);
        if (util::simd::activeLevel() != level)
            continue; // beyond what this build and CPU allow
        for (const Case &c : cases) {
            for (int shards : {1, 2}) {
                EXPECT_EQ(runAt(util::simd::Level::Off, c, shards),
                          runAt(level, c, shards))
                    << util::simd::levelName(level) << ", " << c.radix
                    << "^2, " << c.contexts << " context(s), "
                    << shards << " shard(s)";
            }
        }
    }
    util::simd::setActiveLevelForTest(ambient);
}

/**
 * The tentpole contract of sharded execution: every Measurement field
 * — counters, exact-sum means, percentiles, attribution — is byte-
 * identical whatever the shard count, including a count that does not
 * divide the machine (ragged last shard) and reference stepping.
 * Latched channels give one cycle of conservative lookahead, so the
 * partitioned fabric observes exactly the sequential schedule; any
 * divergence here is a lost wakeup, a mis-owned channel, or a
 * stats-merge ordering bug.
 */
TEST(Sharded, MeasurementsBitIdenticalAtEveryShardCount)
{
    auto run = [](int shards, bool reference) {
        MachineConfig config;
        config.contexts = 2;
        config.shards = shards;
        config.reference_stepping = reference;
        Machine machine(config, workload::Mapping::random(64, 29));
        return measurementBytes(machine.run(1500, 4000));
    };
    const std::vector<std::uint8_t> sequential = run(1, false);
    for (int shards : {2, 3, 4})
        EXPECT_EQ(sequential, run(shards, false))
            << shards << " shards";
    EXPECT_EQ(sequential, run(2, true)) << "2 shards, reference";
}

/**
 * Same contract on a machine whose shape stresses the partition
 * differently: 3-D torus, ratio 1, single context.
 */
TEST(Sharded, ThreeDimensionalMachineBitIdentical)
{
    auto run = [](int shards) {
        MachineConfig config;
        config.radix = 4;
        config.dims = 3;
        config.net_clock_ratio = 1;
        config.shards = shards;
        Machine machine(config, workload::Mapping::random(64, 31));
        return measurementBytes(machine.run(1000, 3000));
    };
    const std::vector<std::uint8_t> sequential = run(1);
    for (int shards : {2, 4})
        EXPECT_EQ(sequential, run(shards)) << shards << " shards";
}

/**
 * The metrics sampler's series must match sample-for-sample: at
 * several shards the lockstep driver ticks the sampler itself (and
 * credits quiescence skips), and both the timestamps and every probe
 * value must equal the sequential engine-driven schedule exactly.
 */
TEST(Sharded, SamplerSeriesBitIdentical)
{
    auto run = [](int shards) {
        MachineConfig config;
        config.shards = shards;
        config.sample_period = 256;
        Machine machine(config, workload::Mapping::random(64, 37));
        machine.run(1500, 4000);
        const obs::MetricsSampler &sampler = *machine.sampler();
        std::ostringstream out;
        for (const sim::Tick t : sampler.times())
            out << t << "\n";
        for (std::size_t p = 0; p < sampler.probeCount(); ++p) {
            out << sampler.probeName(p) << "\n";
            util::Serializer s;
            for (const double v : sampler.series(p))
                s.putDouble(v);
            for (const std::uint8_t byte : s.buffer())
                out << static_cast<int>(byte) << " ";
            out << "\n";
        }
        return out.str();
    };
    const std::string sequential = run(1);
    for (int shards : {2, 4})
        EXPECT_EQ(sequential, run(shards)) << shards << " shards";
}

/**
 * Tracing at several shards writes one merged stream; it must be
 * deterministic run to run (emission is thread-local per shard, merge
 * order is fixed), and the machine must still measure identically
 * with tracing attached.
 */
TEST(Sharded, TracedRunsAreDeterministic)
{
    auto run = [] {
        MachineConfig config;
        config.shards = 4;
        config.trace.enabled = true;
        Machine machine(config, workload::Mapping::random(64, 41));
        const Measurement m = machine.run(500, 1500);
        std::ostringstream os;
        machine.writeTrace(os);
        return std::make_pair(measurementBytes(m), os.str());
    };
    const auto first = run();
    const auto second = run();
    EXPECT_EQ(first.first, second.first);
    EXPECT_EQ(first.second, second.second);
}

/**
 * Credit mail across quiescence skips. Each wave sends messages whose
 * paths cross shard boundaries (so their credits return through
 * cross-shard mailboxes) and steps until the last tail ejects at some
 * tick T. That ejection's credit is still in the mail at T+1, yet the
 * fabric is quiescent there: the engines must skip the whole idle
 * window that follows. One-slot VC buffers make a lost credit fatal —
 * the next wave reuses the same ejection ports and would never
 * deliver — and jumps of odd and even length land the next tick on
 * either mailbox parity. Every message's timing and the statistics
 * must be byte-identical at 1, 2 and 4 shards and under Reference
 * stepping.
 */
TEST(Sharded, FabricGoesQuiescentWithCreditMailPending)
{
    const std::pair<sim::NodeId, sim::NodeId> pairs[] = {
        {0, 40}, {9, 33}, {62, 3}, {27, 52}, {44, 12}};
    auto run = [&pairs](int shards, bool reference) {
        net::NetworkConfig config;
        config.router.buffer_depth = 1;
        std::vector<std::unique_ptr<sim::Engine>> owned;
        std::vector<sim::Engine *> engines;
        for (int s = 0; s < shards; ++s) {
            owned.push_back(std::make_unique<sim::Engine>());
            if (reference)
                owned.back()->setStepMode(sim::Engine::StepMode::Reference);
            engines.push_back(owned.back().get());
        }
        net::Network network(config, engines,
                             net::ShardPlan::contiguous(64, shards));
        for (int s = 0; s < shards; ++s)
            engines[static_cast<std::size_t>(s)]->addClocked(
                network.shardClocked(s), 1);
        runner::ThreadPool pool(std::max(1, shards - 1));
        auto step = [&](sim::Tick ticks) {
            sim::runLockstep(engines, pool, ticks, reference, nullptr);
        };

        std::ostringstream out;
        for (const sim::Tick idle : {100u, 101u, 100u}) {
            std::vector<net::MessageId> ids;
            for (const auto &[src, dst] : pairs) {
                net::Message msg;
                msg.src = src;
                msg.dst = dst;
                msg.flits = 6;
                ids.push_back(network.send(msg));
            }
            for (int i = 0; i < 1000 && network.pendingDeliveries() <
                                            ids.size();
                 ++i)
                step(1);
            EXPECT_EQ(network.pendingDeliveries(), ids.size())
                << "undelivered at " << shards << " shards";
            for (const net::MessageId id : ids) {
                const net::MessageRecord *rec = network.record(id);
                if (rec != nullptr)
                    out << rec->inject_start << "-" << rec->delivered
                        << " ";
            }
            out << "| " << engines[0]->now() << "\n";
            for (const auto &[src, dst] : pairs)
                network.receive(dst);
            EXPECT_TRUE(network.idle());
            const sim::Tick skipped = engines[0]->skippedTicks();
            step(idle);
            EXPECT_EQ(engines[0]->skippedTicks() - skipped,
                      reference ? 0 : idle)
                << shards << " shards";
        }
        util::Serializer stats;
        network.stats().saveState(stats);
        out << network.totalNeighborFlitHops();
        return std::make_pair(out.str(), stats.takeBuffer());
    };
    const auto sequential = run(1, false);
    for (int shards : {2, 4})
        EXPECT_EQ(sequential, run(shards, false)) << shards << " shards";
    EXPECT_EQ(sequential, run(1, true)) << "reference";
    EXPECT_EQ(sequential, run(4, true)) << "4 shards, reference";
}

TEST(ShardedDeath, InvalidShardCountsAreFatal)
{
    const workload::Mapping mapping = workload::Mapping::identity(64);
    auto build = [&mapping](int shards) {
        MachineConfig config;
        config.shards = shards;
        Machine machine(config, mapping);
    };
    EXPECT_EXIT(build(-2), ::testing::ExitedWithCode(1),
                "shards must be positive");
    EXPECT_EXIT(build(65), ::testing::ExitedWithCode(1),
                "exceeds the node count");
}

} // namespace
} // namespace machine
} // namespace locsim
