/**
 * @file
 * Flit-level network tests: zero-load latency, wormhole integrity,
 * deadlock freedom under load, utilization accounting, and delivery
 * guarantees under randomized traffic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "net/network.hh"
#include "net/traffic.hh"
#include "runner/runner.hh"
#include "sim/engine.hh"
#include "sim/lockstep.hh"
#include "util/random.hh"

namespace locsim {
namespace net {
namespace {

struct Fixture
{
    explicit Fixture(int radix = 8, int dims = 2)
    {
        NetworkConfig config;
        config.radix = radix;
        config.dims = dims;
        network = std::make_unique<Network>(engine, config);
        engine.addClocked(network.get(), 1);
    }

    sim::Engine engine;
    std::unique_ptr<Network> network;
};

/** Drain any deliveries at every node; count them. */
std::uint64_t
drainAll(Network &network)
{
    std::uint64_t count = 0;
    for (sim::NodeId n = 0; n < network.topology().nodeCount(); ++n) {
        while (network.receive(n).has_value())
            ++count;
    }
    return count;
}

TEST(Network, ZeroLoadLatencyIsHopsPlusSerialization)
{
    // An uncontended B-flit message over h hops traverses h router-to-
    // router links plus the injection and ejection links (h+2 channel
    // crossings at one cycle each), and the tail trails the head by
    // B-1 cycles; the node pops the tail the cycle it becomes visible,
    // so latency = B + h + 1.
    Fixture f;
    Message msg;
    msg.src = 0;
    msg.dst = f.network->topology().neighbor(0, 0, 1); // 1 hop
    msg.flits = 12;
    const MessageId id = f.network->send(msg);

    ASSERT_TRUE(f.engine.runUntil(
        [&] { return f.network->pendingAt(msg.dst) > 0; }, 1000));
    const MessageRecord *rec = f.network->record(id);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->hops, 1);
    const auto latency =
        static_cast<double>(rec->delivered - rec->inject_start);
    EXPECT_EQ(latency, 12.0 + 1.0 + 1.0);
}

TEST(Network, ZeroLoadLatencyScalesLinearlyWithDistance)
{
    std::map<int, double> latency_by_hops;
    for (int target_hops : {1, 2, 4, 6, 8}) {
        Fixture f;
        const TorusTopology &topo = f.network->topology();
        // Walk target_hops steps in +x/+y from node 0.
        sim::NodeId dst = 0;
        for (int i = 0; i < target_hops; ++i)
            dst = topo.neighbor(dst, i % 2, 1);
        ASSERT_EQ(topo.distance(0, dst), target_hops);

        Message msg;
        msg.src = 0;
        msg.dst = dst;
        msg.flits = 12;
        const MessageId id = f.network->send(msg);
        ASSERT_TRUE(f.engine.runUntil(
            [&] { return f.network->pendingAt(dst) > 0; }, 1000));
        const MessageRecord *rec = f.network->record(id);
        latency_by_hops[target_hops] =
            static_cast<double>(rec->delivered - rec->inject_start);
    }
    for (const auto &[hops, latency] : latency_by_hops)
        EXPECT_EQ(latency, 12.0 + hops + 1.0) << "hops=" << hops;
}

/**
 * Credit loop timing. A flit crossing a link at tick T is forwarded
 * downstream at T+1, which returns its credit at T+1; that credit must
 * be usable upstream at T+2 — one cycle after it was returned, never
 * the same cycle. With one-slot VC buffers every link therefore
 * carries a flit every second cycle, so the tail trails the head by
 * 2(B-1) and a B-flit message over h hops takes h + 2B cycles. With
 * two-slot buffers the loop is covered and the zero-load B + h + 1
 * holds, so credits are not late either.
 */
TEST(Network, CreditReturnedAtTickTIsUsableUpstreamAtTPlusOne)
{
    for (const int depth : {1, 2}) {
        for (const int hops : {1, 3}) {
            for (const std::uint32_t flits : {1u, 4u, 12u}) {
                sim::Engine engine;
                NetworkConfig config;
                config.router.buffer_depth = depth;
                Network network(engine, config);
                engine.addClocked(&network, 1);
                sim::NodeId dst = 0;
                for (int i = 0; i < hops; ++i)
                    dst = network.topology().neighbor(dst, 0, 1);
                Message msg;
                msg.src = 0;
                msg.dst = dst;
                msg.flits = flits;
                const MessageId id = network.send(msg);
                ASSERT_TRUE(engine.runUntil(
                    [&] { return network.pendingAt(dst) > 0; }, 1000));
                const MessageRecord *rec = network.record(id);
                ASSERT_NE(rec, nullptr);
                const auto h = static_cast<sim::Tick>(hops);
                const sim::Tick expected =
                    depth == 1 ? h + 2 * flits : flits + h + 1;
                EXPECT_EQ(rec->delivered - rec->inject_start, expected)
                    << "depth " << depth << ", " << hops << " hops, "
                    << flits << " flits";
            }
        }
    }
}

/**
 * The same property where tick order could hide a violation. Routers
 * tick in ascending node order, so a credit applied within the cycle
 * it was returned would reach a higher-numbered upstream router one
 * cycle early, but a lower-numbered one on time. Message B queues
 * behind A for the same output VC, so its worm is compressed one flit
 * per router and then drains as fast as the credit loops allow; the
 * mirror image of the pattern (flowing -x instead of +x) must time
 * exactly the same.
 */
TEST(Network, CreditTimingIsIndependentOfRouterTickOrder)
{
    auto run = [](int depth, bool mirrored) {
        sim::Engine engine;
        NetworkConfig config;
        config.router.buffer_depth = depth;
        Network network(engine, config);
        engine.addClocked(&network, 1);
        // Row 0 of the 8x8 torus, no wrap-around link on either path.
        auto x = [&](sim::NodeId col) {
            return mirrored ? 7 - col : col;
        };
        Message a;
        a.src = x(5);
        a.dst = x(7);
        a.flits = 12;
        Message b;
        b.src = x(2);
        b.dst = x(7);
        b.flits = 12;
        const MessageId ida = network.send(a);
        const MessageId idb = network.send(b);
        EXPECT_TRUE(engine.runUntil(
            [&] { return network.pendingAt(x(7)) == 2; }, 1000));
        const MessageRecord *ra = network.record(ida);
        const MessageRecord *rb = network.record(idb);
        EXPECT_TRUE(ra != nullptr && rb != nullptr);
        if (ra == nullptr || rb == nullptr)
            return std::make_pair(sim::Tick{0}, sim::Tick{0});
        return std::make_pair(ra->delivered - ra->inject_start,
                              rb->delivered - rb->inject_start);
    };
    for (const int depth : {1, 2, 4}) {
        EXPECT_EQ(run(depth, false), run(depth, true))
            << "depth " << depth;
    }
}

TEST(Network, WormholeKeepsMessagesContiguousPerLink)
{
    // Flit sequence checking in the ejector asserts ordering; here we
    // simply run cross traffic and rely on those asserts plus delivery.
    Fixture f;
    TrafficConfig tc;
    tc.injection_rate = 0.02;
    tc.seed = 7;
    TrafficGenerator gen(*f.network, tc);
    f.engine.addClocked(&gen, 1);
    f.engine.run(5000);
    // Let in-flight messages drain.
    gen.stop();
    ASSERT_TRUE(f.engine.runUntil(
        [&] { return f.network->idle(); }, 20000));
    drainAll(*f.network);
    EXPECT_EQ(f.network->stats().messages_delivered,
              f.network->stats().messages_sent);
}

TEST(Network, SelfMessagesAreRejected)
{
    Fixture f;
    Message msg;
    msg.src = 3;
    msg.dst = 3;
    msg.flits = 4;
    EXPECT_DEATH(f.network->send(msg), "local transactions");
}

TEST(Network, AllPairsDeliverExactly)
{
    // Every node sends one message to every other node; all must
    // arrive, each exactly once, at the right place (receive() checks
    // dst on ejection via internal asserts).
    Fixture f(4, 2); // 16 nodes to keep runtime modest
    const sim::NodeId n = f.network->topology().nodeCount();
    std::uint64_t sent = 0;
    for (sim::NodeId s = 0; s < n; ++s) {
        for (sim::NodeId d = 0; d < n; ++d) {
            if (s == d)
                continue;
            Message msg;
            msg.src = s;
            msg.dst = d;
            msg.flits = 12;
            f.network->send(msg);
            ++sent;
        }
    }
    ASSERT_TRUE(f.engine.runUntil(
        [&] { return f.network->idle(); }, 200000));
    EXPECT_EQ(drainAll(*f.network), sent);
    EXPECT_EQ(f.network->stats().messages_delivered, sent);
    // Average hops must equal the Equation 17 expectation exactly
    // (this *is* the all-pairs average).
    EXPECT_NEAR(f.network->stats().hops.mean(),
                randomMappingDistance(4, 2), 1e-9);
}

TEST(Network, HeavyLoadDoesNotDeadlock)
{
    // Sustained near-saturation random traffic across the dateline;
    // progress must continue (classic torus deadlock would stall all
    // deliveries).
    Fixture f;
    TrafficConfig tc;
    tc.injection_rate = 0.08; // ~saturation for B=12 random on 8x8
    tc.seed = 11;
    TrafficGenerator gen(*f.network, tc);
    f.engine.addClocked(&gen, 1);

    std::uint64_t last_delivered = 0;
    for (int epoch = 0; epoch < 10; ++epoch) {
        f.engine.run(2000);
        const std::uint64_t now_delivered =
            f.network->stats().messages_delivered;
        EXPECT_GT(now_delivered, last_delivered)
            << "no progress in epoch " << epoch;
        last_delivered = now_delivered;
    }
}

TEST(Network, UtilizationMatchesHandCount)
{
    // One message over h hops crosses exactly h network channels with
    // B flits each: utilization = h*B / (cycles * channels).
    Fixture f;
    f.network->resetStats();
    Message msg;
    msg.src = 0;
    msg.dst = f.network->topology().neighbor(
        f.network->topology().neighbor(0, 0, 1), 0, 1); // 2 hops
    msg.flits = 12;
    f.network->send(msg);
    ASSERT_TRUE(f.engine.runUntil(
        [&] { return f.network->idle(); }, 1000));
    const double cycles = static_cast<double>(f.engine.now());
    const double channels = 64.0 * 4.0;
    EXPECT_NEAR(f.network->channelUtilization(),
                2.0 * 12.0 / (cycles * channels), 1e-12);
}

TEST(Network, ResetStatsClearsAccumulators)
{
    Fixture f;
    Message msg;
    msg.src = 0;
    msg.dst = 1;
    msg.flits = 12;
    f.network->send(msg);
    ASSERT_TRUE(f.engine.runUntil(
        [&] { return f.network->idle(); }, 1000));
    EXPECT_GT(f.network->stats().latency.count(), 0u);
    f.network->resetStats();
    EXPECT_EQ(f.network->stats().latency.count(), 0u);
    EXPECT_EQ(f.network->stats().messages_sent, 0u);
    EXPECT_NEAR(f.network->channelUtilization(), 0.0, 1e-12);
}

TEST(Network, SourceQueueDelayAccountedSeparately)
{
    // Two messages submitted at once on the same node: the second must
    // wait B cycles of injection serialization, recorded as source
    // queue delay, not network latency.
    Fixture f;
    Message a, b;
    a.src = b.src = 0;
    a.dst = b.dst = 8; // one +y hop for radix 8 (node (0,1))
    a.flits = b.flits = 12;
    f.network->send(a);
    f.network->send(b);
    ASSERT_TRUE(f.engine.runUntil(
        [&] { return f.network->idle(); }, 2000));
    EXPECT_EQ(f.network->stats().source_queue.max(), 12.0);
    EXPECT_EQ(f.network->stats().source_queue.min(), 0.0);
    // Network latency for both is identical (no contention en route).
    EXPECT_EQ(f.network->stats().latency.min(),
              f.network->stats().latency.max());
}

TEST(Network, SingleFlitMessagesDeliver)
{
    // Head == tail: allocation and release happen in one traversal.
    Fixture f;
    for (int i = 0; i < 5; ++i) {
        Message msg;
        msg.src = 0;
        msg.dst = 9;
        msg.flits = 1;
        f.network->send(msg);
    }
    ASSERT_TRUE(f.engine.runUntil(
        [&] { return f.network->idle(); }, 5000));
    EXPECT_EQ(drainAll(*f.network), 5u);
}

TEST(Network, WraparoundPathsUseDatelineAndDeliver)
{
    // Route that must cross the wrap link: 6 -> 1 in a radix-8 ring
    // is 3 hops through 7 -> 0 (positive direction, wrapping).
    Fixture f(8, 1);
    Message msg;
    msg.src = 6;
    msg.dst = 1;
    msg.flits = 12;
    const MessageId id = f.network->send(msg);
    ASSERT_TRUE(f.engine.runUntil(
        [&] { return f.network->idle(); }, 1000));
    const MessageRecord *rec = f.network->record(id);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->hops, 3);
    EXPECT_EQ(drainAll(*f.network), 1u);
}

TEST(Network, ConvergingBurstBackpressuresWithoutLoss)
{
    // Every node floods one victim; credits must throttle the flood
    // (any overflow trips an internal assert) and every message must
    // arrive.
    Fixture f(4, 2);
    const sim::NodeId victim = 5;
    std::uint64_t sent = 0;
    for (sim::NodeId s = 0; s < 16; ++s) {
        if (s == victim)
            continue;
        for (int i = 0; i < 8; ++i) {
            Message msg;
            msg.src = s;
            msg.dst = victim;
            msg.flits = 12;
            f.network->send(msg);
            ++sent;
        }
    }
    ASSERT_TRUE(f.engine.runUntil(
        [&] { return f.network->idle(); }, 100000));
    EXPECT_EQ(drainAll(*f.network), sent);
    // The ejection channel is the bottleneck: total time is at least
    // sent * flits cycles of drain.
    EXPECT_GE(f.engine.now(), sent * 12);
}

TEST(Network, DeterministicAcrossRuns)
{
    auto run = [] {
        Fixture f;
        TrafficConfig tc;
        tc.injection_rate = 0.03;
        tc.seed = 99;
        TrafficGenerator gen(*f.network, tc);
        f.engine.addClocked(&gen, 1);
        f.engine.run(4000);
        return std::make_tuple(f.network->stats().messages_delivered,
                               f.network->stats().latency.mean(),
                               f.network->channelUtilization());
    };
    EXPECT_EQ(run(), run());
}

/**
 * The activity-tracked engine (dirty-channel rotation, idle-router
 * skipping, quiescence fast-forward) must be indistinguishable from
 * the dumb-stepping reference: identical message counts, identical
 * per-message latencies (accumulator sums, not just means), identical
 * utilization — tick for tick.
 */
TEST(Network, ActivityTrackingMatchesReferenceExactly)
{
    auto run = [](sim::Engine::StepMode mode, double rate) {
        Fixture f;
        f.engine.setStepMode(mode);
        TrafficConfig tc;
        tc.injection_rate = rate;
        tc.seed = 1234;
        TrafficGenerator gen(*f.network, tc);
        f.engine.addClocked(&gen, 1);
        f.engine.run(3000);
        // Stop injecting and drain so in-flight tails are compared
        // too; the generator keeps draining deliveries while the
        // fabric empties.
        gen.stop();
        f.engine.run(2000);
        const NetworkStats &s = f.network->stats();
        return std::make_tuple(
            gen.generated(), gen.received(), s.messages_sent,
            s.messages_delivered, s.latency.count(), s.latency.sum(),
            s.latency.min(), s.latency.max(), s.source_queue.sum(),
            s.hops.sum(), f.network->channelUtilization(),
            f.engine.now());
    };
    for (double rate : {0.005, 0.02, 0.08}) {
        EXPECT_EQ(run(sim::Engine::StepMode::Activity, rate),
                  run(sim::Engine::StepMode::Reference, rate))
            << "divergence at injection rate " << rate;
    }
}

/**
 * Tracks the peak occupancy of every flit link of one fabric from
 * outside, one tick at a time. A link's peak within tick t+1 is at
 * most what it held at the end of tick t (visible flits) plus what
 * was pushed during tick t+1 (the tail cursor's advance), so sampling
 * both between ticks bounds the in-tick peak without instrumenting
 * the hot path.
 */
class LinkOccupancyProbe
{
  public:
    explicit LinkOccupancyProbe(const Network &network)
        : network_(network), held_(network.linkIds().size(), 0),
          pushed_(network.linkIds().size(), 0)
    {
        sample();
    }

    /** Call after every tick. */
    void
    sample()
    {
        const FlitLinkStore &store = network_.linkStore();
        const std::vector<ChannelId> &ids = network_.linkIds();
        for (std::size_t i = 0; i < ids.size(); ++i) {
            const std::uint32_t pushed = store.pushedCount(ids[i]);
            peak_ = std::max(peak_, held_[i] + (pushed - pushed_[i]));
            held_[i] = store.heldCount(ids[i]);
            pushed_[i] = pushed;
        }
    }

    std::uint32_t peak() const { return peak_; }

  private:
    const Network &network_;
    std::vector<std::uint32_t> held_;
    std::vector<std::uint32_t> pushed_;
    std::uint32_t peak_ = 0;
};

/**
 * Offer saturating uniform traffic (one message per node with
 * probability @p rate each tick) and drain every delivery.
 */
void
offerAndDrain(Network &network, util::Rng &rng, double rate,
              std::uint32_t flits)
{
    const sim::NodeId n = network.topology().nodeCount();
    for (sim::NodeId src = 0; src < n; ++src) {
        if (rng.nextDouble() >= rate)
            continue;
        Message msg;
        msg.src = src;
        msg.dst = static_cast<sim::NodeId>(
            (src + 1 + rng.nextBounded(n - 1)) % n);
        msg.flits = flits;
        network.send(msg);
    }
    drainAll(network);
}

constexpr int kOccupancyTicks = 1500;
constexpr double kSaturatingRate = 0.2; // ~2.5x saturation on 8x8

/**
 * The link rings are sized to kLinkOccupancyBound, not to the buffer
 * depth: congested fabrics at every buffer depth, shard count and
 * stepping mode never hold more than two flits on any link, and they
 * do reach two (so a one-slot ring would not do).
 */
TEST(LinkOccupancy, CongestedFabricsNeverExceedTheBound)
{
    auto peak = [](int depth, int shards, bool reference) {
        NetworkConfig config;
        config.router.buffer_depth = depth;
        std::vector<std::unique_ptr<sim::Engine>> owned;
        std::vector<sim::Engine *> engines;
        for (int s = 0; s < shards; ++s) {
            owned.push_back(std::make_unique<sim::Engine>());
            if (reference)
                owned.back()->setStepMode(sim::Engine::StepMode::Reference);
            engines.push_back(owned.back().get());
        }
        Network network(config, engines,
                        ShardPlan::contiguous(64, shards));
        for (int s = 0; s < shards; ++s)
            engines[static_cast<std::size_t>(s)]->addClocked(
                network.shardClocked(s), 1);
        runner::ThreadPool pool(std::max(1, shards - 1));
        util::Rng rng(static_cast<std::uint64_t>(depth * 10 + shards));
        LinkOccupancyProbe probe(network);
        for (int t = 0; t < kOccupancyTicks; ++t) {
            offerAndDrain(network, rng, kSaturatingRate, 6);
            sim::runLockstep(engines, pool, 1, reference, nullptr);
            probe.sample();
        }
        EXPECT_GT(network.stats().messages_delivered, 0u);
        return probe.peak();
    };
    const auto bound = static_cast<std::uint32_t>(kLinkOccupancyBound);
    for (int depth : {1, 2, 8}) {
        for (int shards : {1, 2, 4}) {
            EXPECT_EQ(peak(depth, shards, false), bound)
                << "depth " << depth << ", " << shards << " shards";
        }
        EXPECT_EQ(peak(depth, 1, true), bound)
            << "depth " << depth << ", reference";
        EXPECT_EQ(peak(depth, 4, true), bound)
            << "depth " << depth << ", 4 shards, reference";
    }
}

/** Batched lanes share one lane-striped store; each lane's links
 *  obey the same bound. */
TEST(LinkOccupancy, BatchedLanesNeverExceedTheBound)
{
    constexpr int kLanes = 3;
    for (int depth : {1, 2, 8}) {
        sim::Engine engine;
        NetworkConfig config;
        config.router.buffer_depth = depth;
        FlitLinkStore store(kLinkOccupancyBound, 1, kLanes);
        store.registerRotators(std::vector<sim::Engine *>{&engine});
        std::vector<std::unique_ptr<Network>> lanes;
        std::vector<LinkOccupancyProbe> probes;
        for (int l = 0; l < kLanes; ++l) {
            store.beginLane(l);
            lanes.push_back(
                std::make_unique<Network>(engine, config, &store));
            engine.addClocked(lanes.back().get(), 1);
        }
        for (const auto &lane : lanes)
            probes.emplace_back(*lane);
        util::Rng rng(static_cast<std::uint64_t>(depth));
        for (int t = 0; t < kOccupancyTicks; ++t) {
            for (const auto &lane : lanes)
                offerAndDrain(*lane, rng, kSaturatingRate, 6);
            engine.run(1);
            for (LinkOccupancyProbe &probe : probes)
                probe.sample();
        }
        for (int l = 0; l < kLanes; ++l) {
            EXPECT_EQ(probes[static_cast<std::size_t>(l)].peak(),
                      static_cast<std::uint32_t>(kLinkOccupancyBound))
                << "depth " << depth << ", lane " << l;
        }
    }
}

/** After traffic stops and the fabric drains, the engine skips. */
TEST(Network, QuiescentFabricFastForwards)
{
    Fixture f;
    TrafficConfig tc;
    tc.injection_rate = 0.02;
    tc.seed = 7;
    TrafficGenerator gen(*f.network, tc);
    f.engine.addClocked(&gen, 1);
    f.engine.run(500);
    gen.stop();
    f.engine.run(5000); // drain, then idle
    EXPECT_TRUE(f.network->idle());
    EXPECT_EQ(gen.generated(), gen.received());
    EXPECT_GT(f.engine.skippedTicks(), 0u);
    EXPECT_EQ(f.engine.now(), 5500u);
}

TEST(Network, MeshDeliversAllPairs)
{
    // A 4x4 mesh (no wrap links): every pair must still route, with
    // hop counts following the Manhattan metric.
    sim::Engine engine;
    NetworkConfig config;
    config.radix = 4;
    config.dims = 2;
    config.wraparound = false;
    Network network(engine, config);
    engine.addClocked(&network, 1);

    std::uint64_t sent = 0;
    for (sim::NodeId s = 0; s < 16; ++s) {
        for (sim::NodeId d = 0; d < 16; ++d) {
            if (s == d)
                continue;
            Message msg;
            msg.src = s;
            msg.dst = d;
            msg.flits = 12;
            network.send(msg);
            ++sent;
        }
    }
    ASSERT_TRUE(engine.runUntil([&] { return network.idle(); },
                                200000));
    EXPECT_EQ(drainAll(network), sent);
    EXPECT_NEAR(network.stats().hops.mean(),
                network.topology().averageRandomDistance(), 1e-9);
}

TEST(Network, MeshCornerToCornerZeroLoadLatency)
{
    sim::Engine engine;
    NetworkConfig config;
    config.radix = 8;
    config.dims = 2;
    config.wraparound = false;
    Network network(engine, config);
    engine.addClocked(&network, 1);

    Message msg;
    msg.src = network.topology().nodeAt({0, 0});
    msg.dst = network.topology().nodeAt({7, 7});
    msg.flits = 12;
    const MessageId id = network.send(msg);
    ASSERT_TRUE(engine.runUntil(
        [&] { return network.pendingAt(msg.dst) > 0; }, 1000));
    const MessageRecord *rec = network.record(id);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->hops, 14);
    EXPECT_EQ(static_cast<double>(rec->delivered - rec->inject_start),
              12.0 + 14.0 + 1.0);
}

TEST(Network, MinimalRadixTwoTorus)
{
    // k = 2: every hop is simultaneously a wrap; ties resolve
    // positive. The fabric must still route and not deadlock.
    Fixture f(2, 3); // 8 nodes
    std::uint64_t sent = 0;
    for (sim::NodeId s = 0; s < 8; ++s) {
        for (sim::NodeId d = 0; d < 8; ++d) {
            if (s == d)
                continue;
            Message msg;
            msg.src = s;
            msg.dst = d;
            msg.flits = 6;
            f.network->send(msg);
            ++sent;
        }
    }
    ASSERT_TRUE(f.engine.runUntil(
        [&] { return f.network->idle(); }, 50000));
    EXPECT_EQ(drainAll(*f.network), sent);
}

/** Parameterized deadlock/delivery sweep across shapes and loads. */
class NetworkSweep
    : public ::testing::TestWithParam<std::tuple<int, int, double>>
{
};

TEST_P(NetworkSweep, DeliversEverythingEventually)
{
    const auto [radix, dims, rate] = GetParam();
    Fixture f(radix, dims);
    TrafficConfig tc;
    tc.injection_rate = rate;
    tc.seed = 1234;
    TrafficGenerator gen(*f.network, tc);
    f.engine.addClocked(&gen, 1);
    f.engine.run(3000);
    gen.stop();
    ASSERT_TRUE(f.engine.runUntil(
        [&] { return f.network->idle(); }, 300000))
        << "network failed to drain (deadlock?)";
    EXPECT_EQ(f.network->stats().messages_delivered,
              f.network->stats().messages_sent);
    EXPECT_GT(f.network->stats().messages_sent, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndLoads, NetworkSweep,
    ::testing::Values(std::make_tuple(4, 2, 0.02),
                      std::make_tuple(8, 2, 0.05),
                      std::make_tuple(4, 3, 0.03),
                      std::make_tuple(16, 1, 0.02),
                      std::make_tuple(2, 2, 0.05)));

} // namespace
} // namespace net
} // namespace locsim
