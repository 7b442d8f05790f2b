/**
 * @file
 * Checkpoint/restore tests: saving a machine mid-run and restoring it
 * into a fresh machine must be invisible — extending the restored run
 * produces bit-for-bit the same measurements as never having stopped.
 * This is the property that lets the simulation cache extend a cached
 * run instead of recomputing it from cycle zero.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "checkpoint_surgery.hh"
#include "machine/machine.hh"
#include "util/serialize.hh"
#include "util/sha256.hh"
#include "workload/mapping.hh"

namespace locsim {
namespace machine {
namespace {

MachineConfig
smallConfig()
{
    MachineConfig config;
    config.radix = 4;
    config.dims = 2; // 16 nodes
    return config;
}

workload::Mapping
identityMapping(const MachineConfig &config)
{
    std::uint32_t n = 1;
    for (int d = 0; d < config.dims; ++d)
        n *= static_cast<std::uint32_t>(config.radix);
    return workload::Mapping::identity(n);
}

/** Field-by-field bitwise comparison of two measurements via their
 *  serialized images (doubles compare by bit pattern, so NaN-safe and
 *  strict). */
::testing::AssertionResult
bitIdentical(const Measurement &a, const Measurement &b)
{
    util::Serializer sa, sb;
    saveMeasurement(sa, a);
    saveMeasurement(sb, b);
    if (sa.buffer() == sb.buffer())
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "measurements differ: transactions " << a.transactions
           << " vs " << b.transactions << ", messages " << a.messages
           << " vs " << b.messages << ", txn_latency "
           << a.txn_latency << " vs " << b.txn_latency
           << ", iterations " << a.iterations << " vs "
           << b.iterations;
}

/**
 * The core property, parameterized over the machine configuration:
 *
 *   D (oracle):  advance(pre); measure(w); Md2 = measure(w)
 *   E (saver):   advance(pre); measure(w); save checkpoint
 *   F (resumer): fresh machine; restore; Mf = measure(w)
 *
 * Mf must equal Md2 bit for bit. The odd pre/window lengths land the
 * save point mid-transaction, with flits in router buffers and
 * completions pending, so the full state actually round-trips.
 */
void
expectRestoreExtendsBitIdentically(const MachineConfig &config,
                                   std::uint64_t pre,
                                   std::uint64_t window)
{
    const workload::Mapping mapping = identityMapping(config);

    Machine oracle(config, mapping);
    oracle.advance(pre);
    oracle.measure(window);
    const Measurement expected = oracle.measure(window);

    Machine saver(config, mapping);
    saver.advance(pre);
    saver.measure(window);
    const std::vector<std::uint8_t> image = saver.saveCheckpoint();

    Machine resumer(config, mapping);
    resumer.restoreCheckpoint(image);
    const Measurement resumed = resumer.measure(window);

    EXPECT_TRUE(bitIdentical(resumed, expected));
    EXPECT_EQ(resumed.violations, 0u);
}

TEST(Checkpoint, RestoreThenExtendMatchesStraightRun)
{
    expectRestoreExtendsBitIdentically(smallConfig(), 501, 1503);
}

TEST(Checkpoint, MultithreadedMachineRoundTrips)
{
    MachineConfig config = smallConfig();
    config.contexts = 2;
    expectRestoreExtendsBitIdentically(config, 777, 1111);
}

TEST(Checkpoint, UniformWorkloadRngRoundTrips)
{
    // The uniform-random workload carries live RNG streams; a restore
    // that loses or resets them diverges immediately.
    MachineConfig config = smallConfig();
    config.workload = WorkloadKind::UniformRandom;
    config.uniform_app.seed = 99;
    expectRestoreExtendsBitIdentically(config, 601, 1201);
}

TEST(Checkpoint, ReferenceSteppingRoundTrips)
{
    MachineConfig config = smallConfig();
    config.reference_stepping = true;
    expectRestoreExtendsBitIdentically(config, 333, 901);
}

TEST(Checkpoint, PrefetchingWorkloadRoundTrips)
{
    // Prefetches create reply-less transactions (wants_reply ==
    // false) whose MSHRs must survive the round trip.
    MachineConfig config = smallConfig();
    config.app.prefetch_depth = 2;
    expectRestoreExtendsBitIdentically(config, 455, 1357);
}

/**
 * Checkpoints are shard-count invariant in both directions: the image
 * a 4-shard machine writes mid-run is byte-identical to the image the
 * sequential machine writes at the same tick, and restoring it into
 * machines with other shard counts then extending matches an
 * uninterrupted sequential run bit for bit. The odd save point lands
 * mid-transaction, so cross-shard flits are in flight and migrating
 * message records may be sitting in the parity mailboxes.
 */
TEST(Checkpoint, ShardedImageRestoresAtAnyShardCount)
{
    MachineConfig config = smallConfig();
    config.contexts = 2;
    config.shards = 1;
    const workload::Mapping mapping = identityMapping(config);

    Machine oracle(config, mapping); // sequential, uninterrupted
    oracle.advance(701);
    const Measurement expected = oracle.measure(1203);

    Machine seq_saver(config, mapping);
    seq_saver.advance(701);
    const std::vector<std::uint8_t> seq_image =
        seq_saver.saveCheckpoint();

    MachineConfig sharded = config;
    sharded.shards = 4;
    Machine saver(sharded, mapping);
    saver.advance(701);
    const std::vector<std::uint8_t> image = saver.saveCheckpoint();
    EXPECT_EQ(image, seq_image)
        << "4-shard image differs from the sequential image";

    for (int restore_shards : {1, 2}) {
        MachineConfig restore_config = config;
        restore_config.shards = restore_shards;
        Machine resumer(restore_config, mapping);
        resumer.restoreCheckpoint(image);
        const Measurement resumed = resumer.measure(1203);
        EXPECT_TRUE(bitIdentical(resumed, expected))
            << "restored at " << restore_shards << " shards";
        EXPECT_EQ(resumed.violations, 0u);
    }
}

TEST(Checkpoint, SaveLoadSaveIsByteStable)
{
    // Restoring and immediately re-saving must reproduce the image
    // byte for byte: nothing in the state is lost, reordered, or
    // regenerated differently.
    const MachineConfig config = smallConfig();
    const workload::Mapping mapping = identityMapping(config);

    Machine first(config, mapping);
    first.advance(1234);
    const std::vector<std::uint8_t> image = first.saveCheckpoint();

    Machine second(config, mapping);
    second.restoreCheckpoint(image);
    EXPECT_EQ(second.saveCheckpoint(), image);
}

TEST(Checkpoint, RestoredMachineContinuesCoherently)
{
    // Beyond statistics: the restored machine keeps satisfying the
    // workload's built-in coherence check over a long extension.
    const MachineConfig config = smallConfig();
    const workload::Mapping mapping = identityMapping(config);

    Machine saver(config, mapping);
    saver.advance(2000);
    const std::vector<std::uint8_t> image = saver.saveCheckpoint();

    Machine resumer(config, mapping);
    resumer.restoreCheckpoint(image);
    const Measurement m = resumer.measure(5000);
    EXPECT_EQ(m.violations, 0u);
    EXPECT_GT(m.transactions, 0u);
    EXPECT_GT(m.iterations, 0u);
}

TEST(Checkpoint, RejectsCorruptImages)
{
    const MachineConfig config = smallConfig();
    const workload::Mapping mapping = identityMapping(config);

    Machine saver(config, mapping);
    saver.advance(100);
    std::vector<std::uint8_t> image = saver.saveCheckpoint();

    {
        Machine fresh(config, mapping);
        std::vector<std::uint8_t> truncated(
            image.begin(), image.begin() + image.size() / 2);
        EXPECT_THROW(fresh.restoreCheckpoint(truncated),
                     std::runtime_error);
    }
    {
        Machine fresh(config, mapping);
        std::vector<std::uint8_t> bad_magic = image;
        bad_magic[0] ^= 0xff;
        EXPECT_THROW(fresh.restoreCheckpoint(bad_magic),
                     std::runtime_error);
    }
    {
        Machine fresh(config, mapping);
        std::vector<std::uint8_t> trailing = image;
        trailing.push_back(0);
        EXPECT_THROW(fresh.restoreCheckpoint(trailing),
                     std::runtime_error);
    }
}

TEST(Checkpoint, RejectsCorruptCacheSections)
{
    // Damage that keeps the image's framing intact (magic, version,
    // length): the cache loader's own checks on the record count and
    // the set indices must catch it.
    const MachineConfig config = smallConfig();
    const workload::Mapping mapping = identityMapping(config);

    Machine saver(config, mapping);
    saver.advance(1000);
    const std::vector<std::uint8_t> image = saver.saveCheckpoint();

    for (const auto damage : testing_ckpt::kAllCacheDamage) {
        const std::vector<std::uint8_t> damaged =
            testing_ckpt::damageCacheSection(image, saver, damage);
        Machine fresh(config, mapping);
        EXPECT_THROW(fresh.restoreCheckpoint(damaged),
                     std::runtime_error)
            << "damage kind " << static_cast<int>(damage);
    }
    Machine intact(config, mapping);
    EXPECT_NO_THROW(intact.restoreCheckpoint(image));
}

TEST(Checkpoint, RejectsCorruptNetworkSections)
{
    // Each damaged field would otherwise overrun a ring, index an
    // array out of bounds, overflow a credit count or shift a mask
    // past its width; the loader must throw instead of aborting, so
    // a cache can drop the image and recompute it.
    const MachineConfig config = smallConfig();
    const workload::Mapping mapping = identityMapping(config);

    Machine saver(config, mapping);
    saver.advance(1000);
    const std::vector<std::uint8_t> image = saver.saveCheckpoint();

    for (const auto damage : testing_ckpt::kAllNetDamage) {
        const std::vector<std::uint8_t> damaged =
            testing_ckpt::damageNetworkSection(image, saver, damage);
        Machine fresh(config, mapping);
        EXPECT_THROW(fresh.restoreCheckpoint(damaged),
                     std::runtime_error)
            << "damage kind " << static_cast<int>(damage);
    }
    Machine intact(config, mapping);
    EXPECT_NO_THROW(intact.restoreCheckpoint(image));
}

/**
 * Pinned image: an 8x8 machine saved on the tick right after a tail
 * ejection, so that ejection's credit (and the credits its path
 * returned) are still on their way upstream at the save point. The
 * image bytes — including how pending credits are written — must not
 * depend on the shard count, and must equal the image recorded when
 * credits still travelled through latched credit links (LSCK v4).
 */
TEST(Checkpoint, PendingCreditImageIsPinnedAtEveryShardCount)
{
    std::vector<std::uint8_t> first;
    for (int shards : {1, 2, 4}) {
        MachineConfig config;
        config.net_clock_ratio = 1; // advance(1) is one network tick
        config.shards = shards;
        Machine machine(config, workload::Mapping::random(64, 5));
        machine.advance(1499);
        const std::uint64_t before =
            machine.network().stats().messages_delivered;
        machine.advance(1);
        ASSERT_GT(machine.network().stats().messages_delivered, before)
            << "no tail ejected on the tick before the save";
        const std::vector<std::uint8_t> image = machine.saveCheckpoint();
        if (first.empty()) {
            first = image;
            EXPECT_EQ(util::Sha256::hashHex(image),
                      "90cde488e8f00858db1c263cd90118585235eaeb"
                      "faa512009fb2e01b30ef2dc0");
        } else {
            EXPECT_EQ(image, first) << shards << " shards";
        }
    }
}

/**
 * Size guard: images carry only the cache sets a run touched. Written
 * densely, the caches alone were 4096 sets x 18 B per node (4.8 MB at
 * 8x8, 19 MB at 16x16).
 */
TEST(Checkpoint, ImagesCarryOnlyTouchedCacheSets)
{
    const struct
    {
        int radix;
        std::size_t max_bytes;
    } cases[] = {{8, 256 * 1024}, {16, 1024 * 1024}};
    for (const auto &c : cases) {
        MachineConfig config;
        config.radix = c.radix;
        const auto nodes = static_cast<std::uint32_t>(c.radix * c.radix);
        Machine machine(config, workload::Mapping::random(nodes, 9));
        machine.advance(2000);
        EXPECT_LE(machine.saveCheckpoint().size(), c.max_bytes)
            << c.radix << "x" << c.radix;
    }
}

TEST(Measurement, SerializationRoundTripsBitExactly)
{
    Measurement m;
    m.window = 4096.0;
    m.transactions = 123456;
    m.messages = 654321;
    m.txn_latency = 1.0 / 3.0; // not exactly representable in decimal
    m.message_latency = 17.25;
    m.utilization = 0.087312991;
    m.hit_rate = 0.999999999999;
    m.iterations = 42;
    m.attribution[1].count = 7;
    m.attribution[1].contention = 3.5e-17;

    util::Serializer s;
    saveMeasurement(s, m);
    util::Deserializer d(s.buffer());
    const Measurement out = loadMeasurement(d);
    EXPECT_TRUE(d.atEnd());
    EXPECT_TRUE(bitIdentical(out, m));
}

} // namespace
} // namespace machine
} // namespace locsim
