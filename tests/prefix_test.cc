/**
 * @file
 * Prefix-checkpoint cache tests.
 *
 * Three layers, matching the feature's structure:
 *
 *  - key.hh: prefixKey semantics (late-binding fields never enter the
 *    hash, behavioral fields and the clock always do) and the
 *    config-field coverage tripwire — compile-time aggregate field
 *    counts pinned against key.hh's constants, so adding a config
 *    field without deciding its cache-key status breaks the build
 *    here with instructions;
 *
 *  - PrefixPlanner: a prefix produced once serves every measurement
 *    window bit-identically, across shard counts, rung
 *    ladders, and corrupt stored images;
 *
 *  - bench harness: --warmup/--window validation and --quick
 *    precedence, sampled runs bypassing the prefix cache, and the
 *    run manifest's deterministic core.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <unistd.h>

#include "bench/common.hh"
#include "cache/key.hh"
#include "cache/prefix.hh"
#include "cache/store.hh"
#include "checkpoint_surgery.hh"
#include "machine/machine.hh"
#include "obs/counters.hh"
#include "obs/profiler.hh"
#include "util/serialize.hh"
#include "workload/mapping.hh"

namespace locsim {
namespace cache {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Config-field coverage tripwire.
//
// countFields<T>() computes an aggregate's member count at compile
// time: AnyField converts to any member type, so T can be brace-
// initialized with exactly as many initializers as it has members (an
// AnyField always initializes a whole member, never elides into a
// nested aggregate). If one of the static_asserts below fires, a
// config struct gained or lost a field: decide whether the new field
// is behavioral (add it to putBehavioralConfig in key.cc, so both
// simKey and prefixKey hash it) or late-binding/execution-only (add it
// to the whitelist comment in key.hh), then update the pinned count.
// ---------------------------------------------------------------------

struct AnyField
{
    template <class T>
    constexpr operator T() const;
};

template <class T, std::size_t... I>
constexpr auto
aggregateAccepts(std::index_sequence<I...>)
    -> decltype(T{(static_cast<void>(I), AnyField{})...}, true)
{
    return true;
}

template <class T>
constexpr bool
aggregateAccepts(...)
{
    return false;
}

template <class T, std::size_t N = 0>
constexpr std::size_t
countFields()
{
    if constexpr (aggregateAccepts<T>(std::make_index_sequence<N + 1>{}))
        return countFields<T, N + 1>();
    else
        return N;
}

static_assert(countFields<machine::MachineConfig>() ==
                  kMachineConfigFields,
              "MachineConfig changed: hash the new field in "
              "cache/key.cc or whitelist it in cache/key.hh, then "
              "re-pin kMachineConfigFields");
static_assert(countFields<proc::ProcessorConfig>() ==
                  kProcessorConfigFields,
              "ProcessorConfig changed: update putBehavioralConfig "
              "in cache/key.cc and re-pin kProcessorConfigFields");
static_assert(countFields<coher::ProtocolConfig>() ==
                  kProtocolConfigFields,
              "ProtocolConfig changed: update putBehavioralConfig "
              "in cache/key.cc and re-pin kProtocolConfigFields");
static_assert(countFields<net::RouterConfig>() == kRouterConfigFields,
              "RouterConfig changed: update putBehavioralConfig "
              "in cache/key.cc and re-pin kRouterConfigFields");
static_assert(countFields<workload::TorusAppConfig>() ==
                  kTorusAppConfigFields,
              "TorusAppConfig changed: update putBehavioralConfig "
              "in cache/key.cc and re-pin kTorusAppConfigFields");
static_assert(countFields<workload::UniformAppConfig>() ==
                  kUniformAppConfigFields,
              "UniformAppConfig changed: update putBehavioralConfig "
              "in cache/key.cc and re-pin kUniformAppConfigFields");

// Sanity-check the counter itself against a known shape, so a
// compiler quirk can't silently turn the tripwire into a no-op.
struct ThreeFields
{
    int a;
    double b;
    ThreeFields *c;
};
static_assert(countFields<ThreeFields>() == 3);

TEST(FieldTripwire, CountsAreCheckedAtCompileTime)
{
    // The static_asserts above are the test; this body just records
    // their presence in the test report.
    SUCCEED();
}

// ---------------------------------------------------------------------
// Shared fixtures.
// ---------------------------------------------------------------------

machine::MachineConfig
baseConfig()
{
    machine::MachineConfig config;
    config.radix = 4;
    config.dims = 2;
    config.contexts = 2;
    return config;
}

workload::Mapping
baseMapping()
{
    return workload::Mapping::identity(16);
}

/** Unique fresh directory under the system temp dir. */
fs::path
freshDir(const std::string &tag)
{
    static std::atomic<int> serial{0};
    const fs::path dir = fs::temp_directory_path() /
                         ("locsim_prefix_test_" + tag + "_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(serial++));
    fs::remove_all(dir);
    return dir;
}

std::vector<std::uint8_t>
measurementBytes(const machine::Measurement &m)
{
    util::Serializer s;
    machine::saveMeasurement(s, m);
    return s.takeBuffer();
}

/** Fresh-machine oracle: what an uncached run reports. */
machine::Measurement
oracleRun(const machine::MachineConfig &config,
          const workload::Mapping &mapping, std::uint64_t warmup,
          std::uint64_t window)
{
    machine::Machine machine(config, mapping);
    return machine.run(warmup, window);
}

std::size_t
countEntries(const fs::path &dir, const std::string &suffix)
{
    std::size_t n = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.size() > suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            ++n;
    }
    return n;
}

// ---------------------------------------------------------------------
// prefixKey semantics.
// ---------------------------------------------------------------------

TEST(PrefixKey, IsDeterministicHex)
{
    const std::string key = prefixKey(baseConfig(), baseMapping(), 500);
    EXPECT_EQ(key, prefixKey(baseConfig(), baseMapping(), 500));
    EXPECT_EQ(key.size(), 64u);
    EXPECT_EQ(key.find_first_not_of("0123456789abcdef"),
              std::string::npos);
}

/**
 * The point of the whole feature: every field that merely observes or
 * partitions execution is invisible to the prefix address, so sweep
 * points differing only in those fields share one warmup image.
 */
TEST(PrefixKey, IgnoresLateBindingFields)
{
    const std::string base =
        prefixKey(baseConfig(), baseMapping(), 500);
    {
        auto c = baseConfig();
        c.shards = 4;
        EXPECT_EQ(prefixKey(c, baseMapping(), 500), base) << "shards";
    }
    {
        auto c = baseConfig();
        c.trace.enabled = true;
        c.trace.detail = obs::TraceDetail::Flit;
        EXPECT_EQ(prefixKey(c, baseMapping(), 500), base) << "trace";
    }
    {
        auto c = baseConfig();
        c.sample_period = 25;
        EXPECT_EQ(prefixKey(c, baseMapping(), 500), base)
            << "sample_period";
    }
    {
        obs::Profiler profiler(1);
        auto c = baseConfig();
        c.profiler = &profiler;
        EXPECT_EQ(prefixKey(c, baseMapping(), 500), base)
            << "profiler";
    }
    // And unlike simKey there is no window input at all: the same
    // image serves every measurement length by construction.
}

TEST(PrefixKey, ChangesWithBehavioralFieldsAndClock)
{
    const std::string base =
        prefixKey(baseConfig(), baseMapping(), 500);
    std::vector<std::string> keys;
    {
        auto c = baseConfig();
        c.contexts = 4;
        keys.push_back(prefixKey(c, baseMapping(), 500));
    }
    {
        auto c = baseConfig();
        c.protocol.mem_latency = 99;
        keys.push_back(prefixKey(c, baseMapping(), 500));
    }
    {
        auto c = baseConfig();
        c.reference_stepping = !c.reference_stepping;
        keys.push_back(prefixKey(c, baseMapping(), 500));
    }
    keys.push_back(
        prefixKey(baseConfig(), workload::Mapping::random(16, 3), 500));
    keys.push_back(prefixKey(baseConfig(), baseMapping(), 501));

    for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_NE(keys[i], base) << "variant " << i;
        for (std::size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i], keys[j])
                << "variants " << i << " and " << j;
    }
}

// ---------------------------------------------------------------------
// PrefixPlanner.
// ---------------------------------------------------------------------

TEST(PrefixPlanner, RungClocksDescendBelowWarmup)
{
    SimCache store(freshDir("rung-clocks"));
    {
        PrefixPlanner planner(store, PrefixOptions{});
        EXPECT_TRUE(planner.rungClocks(5000).empty());
    }
    PrefixPlanner planner(store, PrefixOptions{100});
    EXPECT_EQ(planner.rungClocks(350),
              (std::vector<std::uint64_t>{300, 200, 100}));
    // An exact multiple is not its own rung.
    EXPECT_EQ(planner.rungClocks(300),
              (std::vector<std::uint64_t>{200, 100}));
    EXPECT_TRUE(planner.rungClocks(100).empty());
    EXPECT_TRUE(planner.rungClocks(1).empty());
    fs::remove_all(store.dir());
}

TEST(PrefixPlanner, DistinctPrefixesCollapseDuplicates)
{
    SimCache store(freshDir("distinct"));
    PrefixPlanner planner(store, PrefixOptions{});
    const auto config_a = baseConfig();
    auto config_b = baseConfig();
    config_b.contexts = 4;
    const auto mapping = baseMapping();
    // Three windows over one warmup → one prefix; a second config →
    // a second; a differing warmup → a third.
    std::vector<PrefixPoint> points = {
        {&config_a, &mapping, 500}, {&config_a, &mapping, 500},
        {&config_a, &mapping, 500}, {&config_b, &mapping, 500},
        {&config_a, &mapping, 700},
    };
    const auto keys = planner.distinctPrefixes(points);
    ASSERT_EQ(keys.size(), 3u);
    EXPECT_EQ(keys[0], prefixKey(config_a, mapping, 500));
    EXPECT_EQ(keys[1], prefixKey(config_b, mapping, 500));
    EXPECT_EQ(keys[2], prefixKey(config_a, mapping, 700));
    fs::remove_all(store.dir());
}

/**
 * The tentpole contract end to end: the first sweep point produces
 * and stores the warmup image; every later point differing only in
 * measurement window restores it and reports a Measurement
 * bit-identical to a fresh uncached run.
 */
TEST(PrefixPlanner, OneWarmupServesEveryWindowBitIdentically)
{
    const fs::path dir = freshDir("cross-window");
    SimCache store(dir);
    PrefixPlanner planner(store, PrefixOptions{});
    const auto config = baseConfig();
    const auto mapping = baseMapping();
    constexpr std::uint64_t kWarmup = 600;

    const auto first = planner.warmMachine(config, mapping, kWarmup);
    EXPECT_EQ(measurementBytes(first->measure(300)),
              measurementBytes(oracleRun(config, mapping, kWarmup,
                                         300)));

    const auto second = planner.warmMachine(config, mapping, kWarmup);
    EXPECT_EQ(measurementBytes(second->measure(700)),
              measurementBytes(oracleRun(config, mapping, kWarmup,
                                         700)));

    const CacheStats s = store.stats();
    EXPECT_EQ(s.prefix_misses, 1u);
    EXPECT_EQ(s.prefix_stores, 1u);
    EXPECT_EQ(s.prefix_hits, 1u);
    EXPECT_EQ(countEntries(dir, ".ckpt"), 1u);
    fs::remove_all(dir);
}

/**
 * Cross-shard restore, both directions: an image produced
 * sequentially warms a 2-shard machine and vice versa, with
 * bit-identical measurements (shard-invariant checkpoints are a
 * checkpoint_test guarantee; this pins the planner path).
 */
TEST(PrefixPlanner, RestoresAcrossShardCounts)
{
    for (const auto &[produce_shards, restore_shards] :
         {std::pair<int, int>{1, 2}, std::pair<int, int>{2, 1}}) {
        const fs::path dir = freshDir("cross-shard");
        SimCache store(dir);
        PrefixPlanner planner(store, PrefixOptions{});
        const auto mapping = baseMapping();
        constexpr std::uint64_t kWarmup = 600;

        auto producer_config = baseConfig();
        producer_config.shards = produce_shards;
        planner.warmMachine(producer_config, mapping, kWarmup);

        auto restorer_config = baseConfig();
        restorer_config.shards = restore_shards;
        const auto machine =
            planner.warmMachine(restorer_config, mapping, kWarmup);
        EXPECT_EQ(measurementBytes(machine->measure(400)),
                  measurementBytes(oracleRun(baseConfig(), mapping,
                                             kWarmup, 400)))
            << produce_shards << " -> " << restore_shards
            << " shards";

        const CacheStats s = store.stats();
        EXPECT_EQ(s.prefix_stores, 1u)
            << "shard count leaked into the prefix key";
        EXPECT_EQ(s.prefix_hits, 1u);
        fs::remove_all(dir);
    }
}

TEST(PrefixPlanner, CorruptImageIsDroppedAndRecomputed)
{
    const fs::path dir = freshDir("corrupt");
    SimCache store(dir);
    PrefixPlanner planner(store, PrefixOptions{});
    const auto config = baseConfig();
    const auto mapping = baseMapping();
    constexpr std::uint64_t kWarmup = 600;

    planner.warmMachine(config, mapping, kWarmup);
    const std::string key = prefixKey(config, mapping, kWarmup);
    {
        std::ofstream os(dir / (key + ".ckpt"),
                         std::ios::binary | std::ios::trunc);
        os << "these are not checkpoint bytes";
    }

    const auto machine = planner.warmMachine(config, mapping, kWarmup);
    EXPECT_EQ(
        measurementBytes(machine->measure(400)),
        measurementBytes(oracleRun(config, mapping, kWarmup, 400)));

    // The recompute left a good image behind.
    auto repaired = store.lookupCheckpoint(key);
    ASSERT_TRUE(repaired.has_value());
    machine::Machine check(config, mapping);
    EXPECT_NO_THROW(check.restoreCheckpoint(*repaired));

    // A well-framed image whose cache section is damaged (right
    // magic, version and length) takes the same path: the restore
    // throws, the image is dropped and recomputed byte for byte.
    for (const auto damage : testing_ckpt::kAllCacheDamage) {
        {
            std::ofstream os(dir / (key + ".ckpt"),
                             std::ios::binary | std::ios::trunc);
            const auto damaged =
                testing_ckpt::damageCacheSection(*repaired, check, damage);
            os.write(reinterpret_cast<const char *>(damaged.data()),
                     static_cast<std::streamsize>(damaged.size()));
        }
        const auto recomputed = planner.warmMachine(config, mapping, kWarmup);
        EXPECT_EQ(
            measurementBytes(recomputed->measure(400)),
            measurementBytes(oracleRun(config, mapping, kWarmup, 400)))
            << "damage kind " << static_cast<int>(damage);
        EXPECT_EQ(store.lookupCheckpoint(key), repaired)
            << "damage kind " << static_cast<int>(damage);
    }
    // Likewise a damaged network section.
    for (const auto damage : testing_ckpt::kAllNetDamage) {
        {
            std::ofstream os(dir / (key + ".ckpt"),
                             std::ios::binary | std::ios::trunc);
            const auto damaged = testing_ckpt::damageNetworkSection(
                *repaired, check, damage);
            os.write(reinterpret_cast<const char *>(damaged.data()),
                     static_cast<std::streamsize>(damaged.size()));
        }
        const auto recomputed = planner.warmMachine(config, mapping, kWarmup);
        EXPECT_EQ(
            measurementBytes(recomputed->measure(400)),
            measurementBytes(oracleRun(config, mapping, kWarmup, 400)))
            << "network damage kind " << static_cast<int>(damage);
        EXPECT_EQ(store.lookupCheckpoint(key), repaired)
            << "network damage kind " << static_cast<int>(damage);
    }
    fs::remove_all(dir);
}

/**
 * Rung ladder: with a stride, producing a 500-cycle prefix also
 * stores 200- and 400-cycle rungs; a later 700-cycle warmup restores
 * the 400 rung (never re-simulating it), materializes 600, and still
 * measures bit-identically to a fresh run.
 */
TEST(PrefixPlanner, RungLadderIsStoredAndReused)
{
    const fs::path dir = freshDir("rungs");
    SimCache store(dir);
    PrefixPlanner planner(store, PrefixOptions{200});
    const auto config = baseConfig();
    const auto mapping = baseMapping();

    const auto first = planner.warmMachine(config, mapping, 500);
    EXPECT_EQ(
        measurementBytes(first->measure(300)),
        measurementBytes(oracleRun(config, mapping, 500, 300)));
    // Rungs 200 and 400 plus the 500 boundary image.
    EXPECT_EQ(countEntries(dir, ".ckpt"), 3u);
    EXPECT_TRUE(store
                    .lookupCheckpoint(
                        prefixKey(config, mapping, 200))
                    .has_value());
    EXPECT_TRUE(store
                    .lookupCheckpoint(
                        prefixKey(config, mapping, 400))
                    .has_value());

    const auto second = planner.warmMachine(config, mapping, 700);
    EXPECT_EQ(
        measurementBytes(second->measure(300)),
        measurementBytes(oracleRun(config, mapping, 700, 300)));
    // +600 rung and the 700 boundary image.
    EXPECT_EQ(countEntries(dir, ".ckpt"), 5u);
    EXPECT_TRUE(store
                    .lookupCheckpoint(
                        prefixKey(config, mapping, 600))
                    .has_value());
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Harness integration (bench/common.hh).
// ---------------------------------------------------------------------

bench::HarnessOptions
cachedOptions(const fs::path &dir)
{
    bench::HarnessOptions options;
    options.tool = "prefix_test";
    options.argv = {"prefix_test"};
    options.start_time = std::chrono::steady_clock::now();
    options.warmup = 600;
    options.window = 400;
    options.cache_dir = dir.string();
    options.sim_cache = std::make_shared<SimCache>(dir.string());
    options.prefix_planner = std::make_shared<PrefixPlanner>(
        *options.sim_cache, PrefixOptions{});
    return options;
}

/**
 * Sampled runs bypass the prefix cache entirely (a restore would
 * silently drop the warmup's samples): prefixUsable() is false, the
 * run touches no cache entries, and both the Measurement and the
 * sampler series are byte-equal to a plain uncached run.
 */
TEST(Harness, SampledRunsBypassThePrefixCache)
{
    const fs::path dir = freshDir("sampler-bypass");
    bench::HarnessOptions options = cachedOptions(dir);
    // Warm the cache with the unsampled twin so a wrongly-keyed or
    // wrongly-gated sampled run would have something to hit.
    auto config = baseConfig();
    (void)bench::runCachedMeasurement(options, config, baseMapping());
    ASSERT_EQ(countEntries(dir, ".ckpt"), 1u);
    ASSERT_EQ(countEntries(dir, ".simcache"), 1u);

    options.obs.sample_period = 50;
    EXPECT_TRUE(options.cacheUsable() == false);
    EXPECT_FALSE(options.prefixUsable());
    config.sample_period = 50;
    const machine::Measurement via_harness =
        bench::runCachedMeasurement(options, config, baseMapping());

    machine::Machine plain(config, baseMapping());
    const machine::Measurement direct =
        plain.run(options.warmup, options.window);
    EXPECT_EQ(measurementBytes(via_harness),
              measurementBytes(direct));

    // The sampled run's series is the full-trajectory one (warmup
    // included), identical to a machine that never saw a cache.
    machine::Machine sampled_twin(config, baseMapping());
    sampled_twin.run(options.warmup, options.window);
    std::ostringstream a, b;
    ASSERT_NE(plain.sampler(), nullptr);
    plain.sampler()->writeJson(a);
    sampled_twin.sampler()->writeJson(b);
    EXPECT_EQ(a.str(), b.str());

    // And no new cache entries appeared.
    EXPECT_EQ(countEntries(dir, ".ckpt"), 1u);
    EXPECT_EQ(countEntries(dir, ".simcache"), 1u);
    fs::remove_all(dir);
}

/** stripProfile from profiler_test: drop the one wall-clock-bearing
 *  subtree, keeping the manifest's deterministic core. */
std::string
stripProfile(const std::string &text)
{
    const std::size_t start = text.find("\"profile\":");
    if (start == std::string::npos)
        return text;
    std::size_t i = text.find('{', start);
    if (i == std::string::npos)
        return text;
    int depth = 0;
    bool in_string = false;
    for (; i < text.size(); ++i) {
        const char c = text[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{')
            ++depth;
        else if (c == '}' && --depth == 0)
            break;
    }
    return text.substr(0, start) + text.substr(i + 1);
}

std::string
manifestForRun(const fs::path &cache_dir, const fs::path &report)
{
    obs::CounterRegistry::process().reset();
    bench::HarnessOptions options = cachedOptions(cache_dir);
    options.obs.run_report = report.string();
    (void)bench::runCachedMeasurement(options, baseConfig(),
                                      baseMapping());
    bench::maybeWriteRunReport(options);
    std::ifstream is(report);
    std::ostringstream text;
    text << is.rdbuf();
    return text.str();
}

/**
 * Run-manifest determinism, minus the profile subtree, on both sides
 * of the prefix cache: cold-vs-cold manifests are byte-equal, and
 * warm-vs-warm manifests (prefix restore path, prefix_hits > 0) are
 * byte-equal — so CI can diff manifests across reruns.
 */
TEST(Harness, ManifestCoreIsDeterministicColdAndWarm)
{
    const fs::path dir = freshDir("manifest");
    const fs::path report = freshDir("manifest-report");
    fs::create_directories(report);

    const std::string cold_a =
        manifestForRun(dir, report / "cold_a.json");
    const fs::path dir2 = freshDir("manifest-second");
    // Same cache_dir string must be recorded for byte-equality, so
    // rerun cold into the same path after clearing it.
    fs::remove_all(dir);
    const std::string cold_b =
        manifestForRun(dir, report / "cold_b.json");
    EXPECT_EQ(stripProfile(cold_a), stripProfile(cold_b));
    EXPECT_NE(cold_a.find("\"cache.prefix_stores\": 1"),
              std::string::npos)
        << cold_a;

    const std::string warm_a =
        manifestForRun(dir, report / "warm_a.json");
    const std::string warm_b =
        manifestForRun(dir, report / "warm_b.json");
    EXPECT_EQ(stripProfile(warm_a), stripProfile(warm_b));
    // Warm runs hit the result cache before the prefix cache ever
    // gets probed, so prefix counters are zero and result hits one.
    EXPECT_NE(warm_a.find("\"cache.hits\": 1"), std::string::npos)
        << warm_a;
    EXPECT_NE(warm_a.find("\"prefix_cache_enabled\": true"),
              std::string::npos);

    fs::remove_all(dir);
    fs::remove_all(dir2);
    fs::remove_all(report);
}

/** A run that misses the result cache but hits the prefix cache
 *  records prefix_hits in its manifest (the CI determinism assert). */
TEST(Harness, PrefixHitsAppearInManifestCounters)
{
    const fs::path dir = freshDir("manifest-prefix-hit");
    const fs::path report = freshDir("manifest-prefix-report");
    fs::create_directories(report);

    obs::CounterRegistry::process().reset();
    bench::HarnessOptions options = cachedOptions(dir);
    (void)bench::runCachedMeasurement(options, baseConfig(),
                                      baseMapping());

    // Same warmup, new window: result-cache miss, prefix-cache hit.
    obs::CounterRegistry::process().reset();
    options.window = 800;
    options.obs.run_report = (report / "hit.json").string();
    (void)bench::runCachedMeasurement(options, baseConfig(),
                                      baseMapping());
    bench::maybeWriteRunReport(options);
    std::ifstream is(options.obs.run_report);
    std::ostringstream text;
    text << is.rdbuf();
    EXPECT_NE(text.str().find("\"cache.prefix_hits\": 1"),
              std::string::npos)
        << text.str();

    fs::remove_all(dir);
    fs::remove_all(report);
}

// ---------------------------------------------------------------------
// Option validation (satellite: fatal --warmup/--window checks and
// --quick precedence).
// ---------------------------------------------------------------------

bench::HarnessOptions
parseArgs(std::vector<const char *> argv,
          std::uint64_t full_window = 20000)
{
    argv.insert(argv.begin(), "prefix_test");
    return bench::parseHarnessOptions(static_cast<int>(argv.size()),
                                      argv.data(), "prefix_test",
                                      "test harness", full_window);
}

TEST(Options, ZeroOrNegativeCycleBudgetsAreFatalEarly)
{
    EXPECT_EXIT(parseArgs({"--warmup", "0"}),
                ::testing::ExitedWithCode(1), "--warmup");
    EXPECT_EXIT(parseArgs({"--warmup", "-3"}),
                ::testing::ExitedWithCode(1), "--warmup");
    EXPECT_EXIT(parseArgs({"--window", "0"}),
                ::testing::ExitedWithCode(1), "--window");
    EXPECT_EXIT(parseArgs({"--window", "-20000"}),
                ::testing::ExitedWithCode(1), "--window");
    EXPECT_EXIT(parseArgs({"--quick", "--window", "0"}),
                ::testing::ExitedWithCode(1), "--window");
    EXPECT_EXIT(parseArgs({"--prefix-rung-stride", "0"}),
                ::testing::ExitedWithCode(1), "--prefix-rung-stride");
    EXPECT_EXIT(parseArgs({"--prefix-rung-stride", "-5"}),
                ::testing::ExitedWithCode(1), "--prefix-rung-stride");
}

TEST(Options, ExplicitBudgetsWinOverQuick)
{
    {
        const auto options = parseArgs({"--quick"});
        EXPECT_EQ(options.warmup, 2000u);
        EXPECT_EQ(options.window, 6000u);
    }
    {
        const auto options =
            parseArgs({"--quick", "--warmup", "3000"});
        EXPECT_EQ(options.warmup, 3000u) << "--quick overwrote an "
                                            "explicit --warmup";
        EXPECT_EQ(options.window, 6000u);
    }
    {
        const auto options =
            parseArgs({"--quick", "--window", "9000"});
        EXPECT_EQ(options.warmup, 2000u);
        EXPECT_EQ(options.window, 9000u) << "--quick overwrote an "
                                            "explicit --window";
    }
    {
        const auto options = parseArgs(
            {"--quick", "--warmup", "3000", "--window", "9000"});
        EXPECT_EQ(options.warmup, 3000u);
        EXPECT_EQ(options.window, 9000u);
    }
}

TEST(Options, ScalingCheckKeepsAnExplicitWindow)
{
    const std::uint64_t full = bench::kScalingCheckWindow;
    EXPECT_EQ(parseArgs({}, full).window, full);
    EXPECT_EQ(parseArgs({"--window", "3000"}, full).window, 3000u)
        << "the harness default overwrote an explicit --window";
    EXPECT_EQ(parseArgs({"--quick"}, full).window, 6000u);
    EXPECT_EQ(parseArgs({"--quick", "--window", "3000"}, full).window,
              3000u);
}

TEST(Options, NoPrefixCacheDisablesThePlanner)
{
    const fs::path dir = freshDir("flag-gate");
    const std::string dir_arg = dir.string();
    {
        const auto options =
            parseArgs({"--cache-dir", dir_arg.c_str()});
        EXPECT_NE(options.sim_cache, nullptr);
        EXPECT_NE(options.prefix_planner, nullptr)
            << "prefix cache should default on with --cache-dir";
        EXPECT_TRUE(options.prefixUsable());
    }
    {
        const auto options = parseArgs(
            {"--cache-dir", dir_arg.c_str(), "--no-prefix-cache"});
        EXPECT_NE(options.sim_cache, nullptr);
        EXPECT_EQ(options.prefix_planner, nullptr);
        EXPECT_FALSE(options.prefixUsable());
    }
    {
        const auto options = parseArgs({});
        EXPECT_EQ(options.sim_cache, nullptr);
        EXPECT_EQ(options.prefix_planner, nullptr);
    }
    fs::remove_all(dir);
}

} // namespace
} // namespace cache
} // namespace locsim
