/**
 * @file
 * Shared helpers for the figure/table reproduction harnesses.
 *
 * Each bench binary regenerates one of the paper's tables or figures
 * and prints the same rows/series the paper reports; `--csv PATH`
 * additionally dumps machine-readable data for replotting.
 */

#ifndef LOCSIM_BENCH_COMMON_HH_
#define LOCSIM_BENCH_COMMON_HH_

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/key.hh"
#include "cache/prefix.hh"
#include "cache/store.hh"
#include "machine/calibration.hh"
#include "machine/machine.hh"
#include "model/alewife.hh"
#include "model/combined_model.hh"
#include "model/locality.hh"
#include "obs/build_info.hh"
#include "obs/counters.hh"
#include "obs/profiler.hh"
#include "obs/report.hh"
#include "obs/trace.hh"
#include "runner/runner.hh"
#include "util/logging.hh"
#include "util/options.hh"
#include "workload/mapping.hh"

namespace locsim {
namespace bench {

/** One validation simulation result. */
struct SimPoint
{
    std::string mapping;
    int contexts = 0;
    double distance = 0.0; //!< mapping's average distance
    machine::Measurement m;
    /** Trace shard for this simulation (null unless --trace-out). */
    std::shared_ptr<obs::Tracer> tracer;
    /** Content-address key of this simulation (run-manifest record). */
    std::string sim_key;
};

/** Standard options shared by every harness. */
struct HarnessOptions
{
    std::string csv_path; //!< empty = no CSV
    bool quick = false;   //!< shorter windows for smoke runs
    std::uint64_t warmup = 6000;
    std::uint64_t window = 20000;
    /** Worker threads for independent simulations (0 = all cores). */
    int threads = 0;
    /**
     * Intra-simulation shards per machine (0 = MachineConfig auto:
     * LOCSIM_SHARDS when set, else sequential). Results are
     * bit-identical for every value; this is purely an execution knob.
     */
    int shards = 0;
    /** --log-level / --trace-out / --trace-detail / --sample-period. */
    util::ObservabilityOptions obs;
    /** --attribution: add latency-decomposition columns. */
    bool attribution = false;
    /** --cache-dir: persistent simulation cache (empty = no cache). */
    std::string cache_dir;
    /** --no-cache: ignore --cache-dir (and LOCSIM_CACHE_DIR). */
    bool no_cache = false;
    /** --cache-stats: print hit/miss counters to stderr at exit. */
    bool cache_stats = false;
    /** --no-prefix-cache: run warmups from clock 0 even when cached. */
    bool no_prefix_cache = false;
    /** --prefix-rung-stride: intermediate prefix-image stride. */
    std::uint64_t prefix_rung_stride = 0;

    /**
     * The prefix-checkpoint planner (see cache/prefix.hh), created iff
     * a cache is configured and --no-prefix-cache is absent. Shared
     * for the same reason as sim_cache: one planner, one stats block.
     */
    std::shared_ptr<locsim::cache::PrefixPlanner> prefix_planner;

    /**
     * The simulation cache selected by the flags, or null. Shared so
     * SimPoint-producing helpers and the harness's own cells can use
     * one store (and one stats block).
     */
    std::shared_ptr<locsim::cache::SimCache> sim_cache;

    /**
     * The host-side phase profiler, created iff --run-report is set
     * (one slot per shard). Shared so every machine the harness
     * builds can borrow a raw pointer that provably outlives it.
     */
    std::shared_ptr<obs::Profiler> profiler;

    /** Tool name and argv, recorded for the run manifest. */
    std::string tool;
    std::vector<std::string> argv;
    /** Harness start, for the manifest's wall_seconds. */
    std::chrono::steady_clock::time_point start_time;

    /**
     * True when results may be served from / stored to the cache:
     * a cache is configured and no observability sink is attached
     * (traces and samples are side effects a cached replay would
     * silently lose).
     */
    bool
    cacheUsable() const
    {
        return sim_cache != nullptr && obs.trace_out.empty() &&
               obs.sample_period == 0;
    }

    /**
     * True when cache misses should warm through the prefix planner
     * (restore a stored warmup image instead of re-simulating it).
     * Implies cacheUsable(): prefix reuse is a refinement of the
     * result cache, never a path around its gating.
     */
    bool
    prefixUsable() const
    {
        return prefix_planner != nullptr && cacheUsable();
    }
};

/** scaling_check's full-length window: larger machines cost more
 *  per cycle, so it measures shorter than the common default. */
inline constexpr std::uint64_t kScalingCheckWindow = 12000;

/**
 * Parse the common flags; exits on --help. @p full_window is the
 * harness's --window default without --quick; like every default it
 * yields to an explicit flag.
 */
inline HarnessOptions
parseHarnessOptions(int argc, const char *const *argv,
                    const std::string &name,
                    const std::string &summary,
                    std::uint64_t full_window = 20000)
{
    util::OptionParser opts(name, summary);
    opts.addString("csv", "write machine-readable results here", "");
    opts.addFlag("quick", "run shorter simulation windows");
    opts.addInt("warmup", "warmup length in processor cycles", 6000);
    opts.addInt("window", "measurement window in processor cycles",
                static_cast<int>(full_window));
    opts.addInt("threads",
                "worker threads for independent simulations "
                "(0 = all cores)",
                0);
    opts.addInt("shards",
                "intra-simulation shards per machine, bit-identical "
                "results at any count (0 = LOCSIM_SHARDS or "
                "sequential)",
                0);
    opts.addFlag("attribution",
                 "report the latency decomposition (serialization, "
                 "hops, contention) per message");
    opts.addString("cache-dir",
                   "content-addressed simulation cache directory "
                   "(also via LOCSIM_CACHE_DIR)",
                   "");
    opts.addFlag("no-cache", "bypass the simulation cache");
    opts.addFlag("cache-stats",
                 "print cache hit/miss counters to stderr");
    opts.addFlag("no-prefix-cache",
                 "disable prefix-checkpoint warmup reuse (on by "
                 "default when --cache-dir is set; results are "
                 "bit-identical either way)");
    opts.addInt("prefix-rung-stride",
                "additionally store prefix images every N processor "
                "cycles below the warmup, so near-miss warmups share "
                "a ladder (0 = warmup boundaries only)",
                0);
    opts.addFlag("build-info",
                 "print build provenance (git SHA, compiler, flags) "
                 "and exit");
    util::addObservabilityOptions(opts);
    opts.parse(argc, argv);
    if (opts.getFlag("build-info")) {
        obs::printBuildInfo(std::cout);
        std::exit(0);
    }
    HarnessOptions out;
    out.tool = name;
    out.argv.assign(argv, argv + argc);
    out.start_time = std::chrono::steady_clock::now();
    out.csv_path = opts.getString("csv");
    out.quick = opts.getFlag("quick");
    // Validate on the raw ints: the uint64 cast below would turn a
    // negative value into an astronomically long simulation instead
    // of the diagnostic the typo deserves. A zero window measures
    // nothing and a zero warmup measures transient cold-start state;
    // both are always a mistyped flag, so fail before any simulation
    // (the --trace-out path-validation convention).
    const int warmup_arg = opts.getInt("warmup");
    const int window_arg = opts.getInt("window");
    if (warmup_arg <= 0) {
        LOCSIM_FATAL("--warmup must be a positive cycle count, got ",
                     warmup_arg);
    }
    if (window_arg <= 0) {
        LOCSIM_FATAL("--window must be a positive cycle count, got ",
                     window_arg);
    }
    out.warmup = static_cast<std::uint64_t>(warmup_arg);
    out.window = static_cast<std::uint64_t>(window_arg);
    out.threads = opts.getInt("threads");
    // 0 is the "all cores" default; an explicit non-positive count is
    // always a mistake (a shell expansion gone wrong), so reject it
    // rather than silently soaking up every core.
    if (opts.wasSet("threads") && out.threads <= 0) {
        LOCSIM_FATAL("--threads must be a positive integer, got ",
                     out.threads,
                     " (omit the flag to use all cores)");
    }
    out.shards = opts.getInt("shards");
    if (opts.wasSet("shards") && out.shards <= 0) {
        LOCSIM_FATAL("--shards must be a positive integer, got ",
                     out.shards,
                     " (omit the flag for sequential execution)");
    }
    out.attribution = opts.getFlag("attribution");
    out.obs = util::applyObservabilityOptions(opts);
    // --quick shortens the *defaults*; an explicit --warmup/--window
    // always wins (previously --quick silently overwrote both).
    if (out.quick) {
        if (!opts.wasSet("warmup"))
            out.warmup = 2000;
        if (!opts.wasSet("window"))
            out.window = 6000;
    }
    out.cache_dir = opts.getString("cache-dir");
    if (out.cache_dir.empty()) {
        if (const char *env = std::getenv("LOCSIM_CACHE_DIR"))
            out.cache_dir = env;
    }
    out.no_cache = opts.getFlag("no-cache");
    out.cache_stats = opts.getFlag("cache-stats");
    out.no_prefix_cache = opts.getFlag("no-prefix-cache");
    const int rung_stride = opts.getInt("prefix-rung-stride");
    if (opts.wasSet("prefix-rung-stride") && rung_stride <= 0) {
        LOCSIM_FATAL(
            "--prefix-rung-stride must be a positive cycle count, "
            "got ",
            rung_stride, " (omit the flag for warmup-boundary-only "
            "prefix images)");
    }
    out.prefix_rung_stride =
        static_cast<std::uint64_t>(rung_stride > 0 ? rung_stride : 0);
    if (!out.cache_dir.empty() && !out.no_cache) {
        try {
            out.sim_cache = std::make_shared<locsim::cache::SimCache>(
                out.cache_dir);
        } catch (const std::exception &e) {
            LOCSIM_FATAL("--cache-dir rejected: ", e.what());
        }
    }
    if (out.sim_cache != nullptr && !out.no_prefix_cache) {
        locsim::cache::PrefixOptions prefix_options;
        prefix_options.rung_stride = out.prefix_rung_stride;
        out.prefix_planner =
            std::make_shared<locsim::cache::PrefixPlanner>(
                *out.sim_cache, prefix_options);
    }
    if (!out.obs.run_report.empty()) {
        // Slot-grid guess: explicit --shards, else LOCSIM_SHARDS,
        // else 1. Profiler::slot clamps, so an off guess degrades to
        // coarser attribution, never out-of-bounds.
        int shard_guess = out.shards;
        if (shard_guess <= 0) {
            if (const char *env = std::getenv("LOCSIM_SHARDS")) {
                const int parsed = std::atoi(env);
                if (parsed >= 1)
                    shard_guess = parsed;
            }
        }
        out.profiler = std::make_shared<obs::Profiler>(
            shard_guess > 0 ? shard_guess : 1);
        if (out.sim_cache != nullptr)
            out.sim_cache->setProfileSlot(&out.profiler->hostSlot());
    }
    return out;
}

/**
 * Simulate (config, warmup, window) for a cache miss: through the
 * prefix planner when enabled (restore the shared warmup image, or
 * produce and store it exactly once, then measure only the window),
 * else a straight fresh-machine run. Bit-identical either way —
 * measure() resets statistics at the warmup boundary, so the recorded
 * Measurement depends only on the machine state there, which
 * restore-then-extend reproduces exactly.
 */
inline machine::Measurement
simulateForMiss(const HarnessOptions &options,
                const machine::MachineConfig &config,
                const workload::Mapping &mapping)
{
    if (options.prefixUsable()) {
        const std::unique_ptr<machine::Machine> machine =
            options.prefix_planner->warmMachine(config, mapping,
                                                options.warmup);
        return machine->measure(options.window);
    }
    machine::Machine machine(config, mapping);
    return machine.run(options.warmup, options.window);
}

/**
 * Run one (config, warmup, window) simulation through the cache:
 * serve the recorded Measurement on a hit, otherwise run the machine
 * and record it. Falls back to an uncached run when the options
 * disallow caching (no --cache-dir, or observability attached) — in
 * which case @p out_tracer (optional) receives the machine's trace
 * shard.
 */
inline machine::Measurement
runCachedMeasurement(const HarnessOptions &options,
                     const machine::MachineConfig &base_config,
                     const workload::Mapping &mapping,
                     std::shared_ptr<obs::Tracer> *out_tracer = nullptr)
{
    // --shards is an execution knob with bit-identical results, so it
    // is applied here (after key derivation inputs are fixed — simKey
    // ignores it) rather than in each harness's config construction.
    machine::MachineConfig config = base_config;
    if (options.shards != 0)
        config.shards = options.shards;
    config.profiler = options.profiler.get();
    if (!options.cacheUsable()) {
        machine::Machine machine(config, mapping);
        const machine::Measurement m =
            machine.run(options.warmup, options.window);
        if (out_tracer != nullptr)
            *out_tracer = machine.shareTracer();
        return m;
    }
    const std::string key = locsim::cache::simKey(
        config, mapping, options.warmup, options.window);
    locsim::cache::SimCache &store = *options.sim_cache;
    const std::vector<std::uint8_t> payload = store.getOrRun(key, [&] {
        const machine::Measurement m =
            simulateForMiss(options, config, mapping);
        util::Serializer s;
        machine::saveMeasurement(s, m);
        return s.takeBuffer();
    });
    try {
        util::Deserializer d(payload);
        machine::Measurement m = machine::loadMeasurement(d);
        if (!d.atEnd())
            throw std::runtime_error("trailing payload bytes");
        return m;
    } catch (const std::exception &) {
        // Corrupt entry (torn write from a crashed run, foreign
        // bytes): drop it and recompute once.
        store.remove(key);
        const machine::Measurement m =
            simulateForMiss(options, config, mapping);
        util::Serializer s;
        machine::saveMeasurement(s, m);
        store.getOrRun(key, [&] { return s.takeBuffer(); });
        return m;
    }
}

/**
 * Print the shared cache's counters to stderr (never stdout: warm
 * and cold runs must produce byte-identical standard output). No-op
 * unless --cache-stats and a cache are active.
 */
inline void
maybeReportCacheStats(const HarnessOptions &options)
{
    if (!options.cache_stats || options.sim_cache == nullptr)
        return;
    const locsim::cache::CacheStats s = options.sim_cache->stats();
    std::cerr << "cache-stats: hits=" << s.hits
              << " misses=" << s.misses << " stores=" << s.stores
              << " dedup_hits=" << s.dedup_hits
              << " prefix_hits=" << s.prefix_hits
              << " prefix_misses=" << s.prefix_misses
              << " prefix_stores=" << s.prefix_stores
              << " prefix_dedup_hits=" << s.prefix_dedup_hits
              << " dir=" << options.sim_cache->dir().string() << "\n";
}

/** Map the shared observability options onto a machine config. */
inline void
applyObservability(machine::MachineConfig &config,
                   const HarnessOptions &options)
{
    config.trace.enabled = !options.obs.trace_out.empty();
    config.trace.detail = options.obs.flit_detail
                              ? obs::TraceDetail::Flit
                              : obs::TraceDetail::Message;
    config.sample_period =
        static_cast<sim::Tick>(options.obs.sample_period);
}

/**
 * Merge the sweep's trace shards (in grid submission order, so the
 * output is identical for any worker-thread count) and write the
 * --trace-out file. No-op when tracing is off.
 */
inline void
maybeWriteTrace(const std::vector<SimPoint> &points,
                const HarnessOptions &options)
{
    if (options.obs.trace_out.empty())
        return;
    std::vector<const obs::Tracer *> shards;
    std::vector<std::string> names;
    for (const auto &p : points) {
        if (p.tracer == nullptr)
            continue;
        shards.push_back(p.tracer.get());
        names.push_back(p.mapping + ".p" +
                        std::to_string(p.contexts));
    }
    std::ofstream os(options.obs.trace_out);
    if (!os)
        LOCSIM_FATAL("cannot open --trace-out file '",
                     options.obs.trace_out, "'");
    obs::writeMergedTrace(os, shards, names);
    LOCSIM_INFORM("wrote ", shards.size(), " trace shard(s) to ",
                  options.obs.trace_out);
}

/**
 * Write the --run-report JSON manifest: invocation, build, host,
 * harness config, per-simulation cache keys, the process counter
 * registry (with the cache's stats folded in), and the phase
 * profiler's breakdown. Writes to the file only, never stdout, so
 * byte-identity checks on harness output are unaffected. No-op
 * without --run-report. Call once, after the last simulation and
 * after every Machine has been destroyed (machines publish their
 * counters on teardown).
 */
inline void
maybeWriteRunReport(const HarnessOptions &options,
                    const std::vector<SimPoint> &points = {})
{
    if (options.obs.run_report.empty())
        return;
    obs::RunReport report(options.tool);
    report.setArgv(options.argv);
    report.addConfig("quick", options.quick);
    report.addConfig("warmup",
                     static_cast<std::uint64_t>(options.warmup));
    report.addConfig("window",
                     static_cast<std::uint64_t>(options.window));
    report.addConfig("threads",
                     static_cast<long long>(options.threads));
    report.addConfig("shards", static_cast<long long>(options.shards));
    report.addConfig("attribution", options.attribution);
    report.addConfig("sample_period",
                     static_cast<long long>(options.obs.sample_period));
    report.addConfig("cache_dir", options.cache_dir);
    report.addConfig("cache_enabled", options.sim_cache != nullptr);
    report.addConfig("prefix_cache_enabled",
                     options.prefix_planner != nullptr);
    report.addConfig("prefix_rung_stride",
                     static_cast<std::uint64_t>(
                         options.prefix_rung_stride));
    for (const SimPoint &p : points) {
        report.addSimulation(p.mapping + ".p" +
                                 std::to_string(p.contexts),
                             p.sim_key);
    }
    obs::CounterRegistry &counters = obs::CounterRegistry::process();
    if (options.sim_cache != nullptr) {
        const locsim::cache::CacheStats s = options.sim_cache->stats();
        counters.set("cache.hits", s.hits);
        counters.set("cache.misses", s.misses);
        counters.set("cache.stores", s.stores);
        counters.set("cache.dedup_hits", s.dedup_hits);
        counters.set("cache.prefix_hits", s.prefix_hits);
        counters.set("cache.prefix_misses", s.prefix_misses);
        counters.set("cache.prefix_stores", s.prefix_stores);
        counters.set("cache.prefix_dedup_hits", s.prefix_dedup_hits);
    }
    report.setCounters(counters.snapshot());
    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - options.start_time)
            .count();
    report.setProfile(options.profiler.get(), wall);
    report.writeFile(options.obs.run_report);
    LOCSIM_INFORM("wrote run manifest to ", options.obs.run_report);
}

/**
 * Mean latency decomposition per delivered message, summed over all
 * message classes of a measurement.
 */
struct AttributionSummary
{
    double serialization = 0.0;
    double hops = 0.0;
    double contention = 0.0;
};

inline AttributionSummary
summarizeAttribution(const machine::Measurement &m)
{
    AttributionSummary out;
    std::uint64_t count = 0;
    double ser = 0.0, hops = 0.0, cont = 0.0;
    for (const auto &attr : m.attribution) {
        count += attr.count;
        ser += attr.serialization;
        hops += attr.hops;
        cont += attr.contention;
    }
    if (count > 0) {
        const double n = static_cast<double>(count);
        out.serialization = ser / n;
        out.hops = hops / n;
        out.contention = cont / n;
    }
    return out;
}

/**
 * Run the Section 3 validation simulations: the mapping family at the
 * given context counts on the 64-node Alewife-like machine.
 *
 * The (contexts, mapping) grid runs on the experiment runner's thread
 * pool; every simulation owns its full machine state, and results are
 * collected by grid index, so the output is identical to the old
 * sequential loop for any thread count.
 */
inline std::vector<SimPoint>
runValidationSims(const std::vector<int> &context_counts,
                  const HarnessOptions &options)
{
    net::TorusTopology topo(8, 2);
    const auto family = workload::experimentMappings(topo);
    struct Cell
    {
        int contexts;
        const workload::NamedMapping *named;
    };
    std::vector<Cell> grid;
    for (int contexts : context_counts) {
        for (const auto &named : family)
            grid.push_back({contexts, &named});
    }
    return runner::parallelMap(
        grid.size(),
        [&](std::size_t i) {
            const Cell &cell = grid[i];
            machine::MachineConfig config;
            config.contexts = cell.contexts;
            applyObservability(config, options);
            SimPoint point;
            point.mapping = cell.named->name;
            point.contexts = cell.contexts;
            point.distance = cell.named->avg_distance;
            point.sim_key = locsim::cache::simKey(
                config, cell.named->mapping, options.warmup,
                options.window);
            // Cached cells return the recorded measurement without
            // simulating; the shard (tracing runs only, which bypass
            // the cache) is merged in grid order by maybeWriteTrace.
            point.m = runCachedMeasurement(options, config,
                                           cell.named->mapping,
                                           &point.tracer);
            return point;
        },
        options.threads);
}

/**
 * Combined-model prediction fed with a simulation's *measured*
 * application parameters (the paper's validation methodology:
 * a-priori B and g, measured c, T_r and fitted T_f). Thin wrapper
 * over machine::predictFromMeasurement with the validation platform's
 * geometry.
 */
inline model::Prediction
predictFromMeasurement(const machine::Measurement &m, int contexts,
                       double distance)
{
    return machine::predictFromMeasurement(m, contexts, distance);
}

} // namespace bench
} // namespace locsim

#endif // LOCSIM_BENCH_COMMON_HH_
