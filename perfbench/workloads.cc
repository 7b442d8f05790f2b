#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <unistd.h>

#include "bench/common.hh"
#include "cache/key.hh"
#include "cache/prefix.hh"
#include "cache/store.hh"
#include "machine/calibration.hh"
#include "net/topology.hh"
#include "obs/profiler.hh"
#include "runner/runner.hh"
#include "util/serialize.hh"
#include "util/sha256.hh"

namespace perfbench {

namespace fs = std::filesystem;
namespace cache = locsim::cache;
namespace machine = locsim::machine;
namespace obs = locsim::obs;
namespace util = locsim::util;

namespace {

// validation_table's full-length windows (processor cycles).
constexpr std::uint64_t kGridWarmup = 6000;
constexpr std::uint64_t kGridWindow = 20000;
// scaling_check's large-radix caps.
constexpr std::uint64_t kRadixWarmup = 2000;
constexpr std::uint64_t kRadixWindow = 6000;
// One shared warmup, several windows: the shape prefix images serve.
constexpr std::uint64_t kSweepWarmup = 6000;
const std::vector<std::uint64_t> kSweepWindows = {2000, 4000, 6000};

/** How a window_sweep cell reaches its Measurement. */
enum class Stage {
    Direct,  //!< construct, advance, measure (grid8, radix32)
    Cold,    //!< cache miss that simulates the warmup, storing its image
    Restore, //!< cache miss that restores the stored warmup image
    Replay,  //!< cache hit: no simulation
};

/** What one cell did and what it cost. */
struct CellOutcome
{
    std::size_t cell = 0; //!< index into Workload::cells
    std::uint64_t window = 0;
    Stage stage = Stage::Direct;
    machine::Measurement m;
    std::vector<std::uint8_t> bytes; //!< machine::saveMeasurement(m)
    std::string error;               //!< empty when every check held

    double cell_s = 0.0;
    double setup_s = 0.0; //!< host time before the first measured cycle
    double construct_s = 0.0;
    double advance_s = 0.0;
    double measure_s = 0.0;
    double warm_s = 0.0;
    double sim_s = 0.0; //!< host time spent simulating

    std::uint64_t ticks = 0; //!< network cycles simulated
    std::uint64_t skipped = 0;
    std::uint64_t flit_hops = 0;
    std::uint64_t alloc_stalls = 0;
    std::uint64_t remote_wakes = 0;
    std::size_t mem_bytes = 0;
    int shards = 1;
    /** The cell's own phase profile (traced passes only). */
    obs::PhaseTotals phases;
};

/**
 * A traced cell's phase profiler. Each cell has its own, so
 * concurrent cells never contend on the profiler's counters.
 */
std::unique_ptr<obs::Profiler>
cellProfiler(const SpanLog *log, int shards)
{
    return log != nullptr ? std::make_unique<obs::Profiler>(shards, 1)
                          : nullptr;
}

/** Cumulative machine counters, read before and after simulating. */
struct Probe
{
    std::uint64_t ticks = 0;
    std::uint64_t skipped = 0;
    std::uint64_t flit_hops = 0;
    std::uint64_t alloc_stalls = 0;
    std::uint64_t remote_wakes = 0;
};

Probe
probe(machine::Machine &m)
{
    return {static_cast<std::uint64_t>(m.engine().now()),
            static_cast<std::uint64_t>(m.engine().skippedTicks()),
            m.network().totalNeighborFlitHops(),
            m.network().totalAllocStalls(),
            m.network().totalRemoteWakes()};
}

void
addCounters(CellOutcome &out, const Probe &from, const Probe &to,
            const machine::Machine &m)
{
    out.ticks += to.ticks - from.ticks;
    out.skipped += to.skipped - from.skipped;
    out.flit_hops += to.flit_hops - from.flit_hops;
    out.alloc_stalls += to.alloc_stalls - from.alloc_stalls;
    out.remote_wakes += to.remote_wakes - from.remote_wakes;
    out.shards = m.shards();
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * The output checks every simulated Measurement must pass; returns
 * the first that fails, or an empty string.
 */
std::string
checkMeasurement(const machine::Measurement &m)
{
    if (m.violations != 0)
        return "coherence-order violations";
    if (m.transactions == 0)
        return "no transactions completed";
    // Per message T = B + h + 1 + contention with a non-negative
    // contention residual; a message faster than B + h + 1 would be
    // clamped and break the sum.
    double latency = 0.0;
    double parts = 0.0;
    std::uint64_t count = 0;
    for (const auto &attr : m.attribution) {
        latency += attr.latency;
        parts += attr.serialization + attr.hops + attr.contention;
        count += attr.count;
    }
    if (count == 0)
        return "no messages delivered";
    parts += static_cast<double>(count);
    if (std::fabs(latency - parts) > 1e-9 * latency)
        return "latency attribution does not sum to T = B + h + 1";
    const auto mean = locsim::bench::summarizeAttribution(m);
    const double t = mean.serialization + mean.hops + mean.contention +
                     1.0;
    if (std::fabs(t - m.message_latency) > 1e-6 * m.message_latency)
        return "attributed mean latency differs from T_m";
    return {};
}

/** grid8 / radix32: construct, advance, measure, tear down. */
CellOutcome
runDirectCell(const Workload &w, std::size_t i, int id, SpanLog *log,
              int parent)
{
    CellOutcome out;
    out.cell = i;
    out.window = w.windows.front();
    const auto profiler = cellProfiler(log, w.shards);
    Timed cell(log, "cell", parent, id);
    try {
        machine::MachineConfig config = w.cells[i].config;
        config.profiler = profiler.get();
        Timed construct(log, "machine.construct", cell.id(), id);
        auto m = std::make_unique<machine::Machine>(config,
                                                    w.cells[i].mapping);
        out.construct_s = out.setup_s = construct.stop();
        const Probe start = probe(*m);
        {
            Timed t(log, "machine.advance", cell.id(), id);
            m->advance(w.warmup);
            out.advance_s = t.stop();
        }
        {
            Timed t(log, "machine.measure", cell.id(), id);
            out.m = m->measure(out.window);
            out.measure_s = t.stop();
        }
        out.sim_s = out.advance_s + out.measure_s;
        addCounters(out, start, probe(*m), *m);
        {
            Timed t(log, "machine.memoryBytes", cell.id(), id);
            out.mem_bytes = m->memoryBytes();
        }
        {
            Timed t(log, "machine.destroy", cell.id(), id);
            m.reset();
        }
        Timed t(log, "bench.check", cell.id(), id);
        util::Serializer s;
        machine::saveMeasurement(s, out.m);
        out.bytes = s.takeBuffer();
        out.error = checkMeasurement(out.m);
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    out.cell_s = cell.stop();
    if (profiler != nullptr)
        out.phases = profiler->totals();
    return out;
}

/** window_sweep: one (cell, window) through the simulation cache. */
CellOutcome
runCachedCell(const Workload &w, std::size_t i, std::uint64_t window,
              Stage stage, cache::SimCache &store,
              const cache::PrefixPlanner &planner, int id, SpanLog *log,
              int parent)
{
    CellOutcome out;
    out.cell = i;
    out.window = window;
    out.stage = stage;
    bool simulated = false;
    const auto profiler = cellProfiler(log, w.shards);
    Timed cell(log, "cell", parent, id);
    try {
        machine::MachineConfig config = w.cells[i].config;
        config.profiler = profiler.get();
        const auto &mapping = w.cells[i].mapping;
        const std::string key =
            cache::simKey(config, mapping, w.warmup, window);
        Timed get(log, "cache.getOrRun", cell.id(), id);
        const std::vector<std::uint8_t> payload =
            store.getOrRun(key, [&] {
                simulated = true;
                Timed warm(log, "ckpt.warmMachine", get.id(), id);
                auto m = planner.warmMachine(config, mapping, w.warmup);
                out.warm_s = warm.stop();
                // A cold warmMachine simulated the warmup from clock
                // zero; a restore simulated nothing.
                const Probe start =
                    stage == Stage::Cold ? Probe{} : probe(*m);
                {
                    Timed t(log, "machine.measure", get.id(), id);
                    out.m = m->measure(window);
                    out.measure_s = t.stop();
                }
                addCounters(out, start, probe(*m), *m);
                {
                    Timed t(log, "machine.memoryBytes", get.id(), id);
                    out.mem_bytes = m->memoryBytes();
                }
                {
                    Timed t(log, "machine.destroy", get.id(), id);
                    m.reset();
                }
                util::Serializer s;
                machine::saveMeasurement(s, out.m);
                return s.takeBuffer();
            });
        get.stop();
        Timed t(log, "bench.check", cell.id(), id);
        util::Deserializer d(payload);
        out.m = machine::loadMeasurement(d);
        if (!d.atEnd())
            throw std::runtime_error("trailing cache payload bytes");
        out.bytes = payload;
        out.error = checkMeasurement(out.m);
        if (stage == Stage::Replay && simulated)
            out.error = "replay missed the cache";
        if (stage != Stage::Replay && !simulated)
            out.error = "fresh cache directory served a result";
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    out.sim_s = out.measure_s + (stage == Stage::Cold ? out.warm_s : 0.0);
    if (stage == Stage::Restore)
        out.setup_s = out.warm_s;
    out.cell_s = cell.stop();
    if (profiler != nullptr)
        out.phases = profiler->totals();
    return out;
}

/** Bytes and mean .ckpt size of the files under @p dir. */
void
measureCacheDir(const fs::path &dir, double &total_bytes,
                double &mean_image_bytes)
{
    total_bytes = 0.0;
    double image_bytes = 0.0;
    int images = 0;
    for (const auto &entry : fs::recursive_directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        const auto size = static_cast<double>(entry.file_size());
        total_bytes += size;
        if (entry.path().extension() == ".ckpt") {
            image_bytes += size;
            ++images;
        }
    }
    mean_image_bytes = ratio(image_bytes, images);
}

double
nodeCount(const machine::MachineConfig &c)
{
    return std::pow(static_cast<double>(c.radix), c.dims);
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"grid8", "radix32",
                                                   "window_sweep"};
    return names;
}

std::uint64_t
defaultSeed(const std::string &name)
{
    return name == "radix32" ? 47 : 12345;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed, int nproc)
{
    Workload w;
    w.name = name;
    if (name == "grid8" || name == "window_sweep") {
        const locsim::net::TorusTopology topo(8, 2);
        const auto family = locsim::workload::experimentMappings(topo,
                                                                 seed);
        for (int contexts : {1, 2, 4}) {
            GainPair pair;
            for (const auto &named : family) {
                if (named.name == "identity")
                    pair.identity = w.cells.size();
                if (named.name == "random")
                    pair.random = w.cells.size();
                machine::MachineConfig config;
                config.contexts = contexts;
                w.cells.push_back({named.name + ".p" +
                                       std::to_string(contexts),
                                   config, named.mapping});
            }
            w.gains.push_back(pair);
        }
        w.threads = std::min<int>(nproc, static_cast<int>(w.cells.size()));
        if (name == "grid8") {
            w.warmup = kGridWarmup;
            w.windows = {kGridWindow};
        } else {
            w.warmup = kSweepWarmup;
            w.windows = kSweepWindows;
            w.cached = true;
        }
        return w;
    }
    if (name == "radix32") {
        constexpr int kRadix = 32;
        const auto nodes = static_cast<std::uint32_t>(kRadix * kRadix);
        // One cell at a time on every core. Running both at once on
        // nproc / 2 shards each (2 x 2 on 4 cores) is both slower and
        // far noisier here: two 1024-node working sets overflow the
        // shared last-level cache, and every preempted shard thread
        // stalls its partner at the spin barrier.
        w.threads = 1;
        w.shards = nproc;
        machine::MachineConfig config;
        config.radix = kRadix;
        config.shards = w.shards;
        w.cells.push_back({"identity.p1", config,
                           locsim::workload::Mapping::identity(nodes)});
        w.cells.push_back({"random.p1", config,
                           locsim::workload::Mapping::random(nodes,
                                                             seed)});
        w.gains.push_back({0, 1});
        w.warmup = kRadixWarmup;
        w.windows = {kRadixWindow};
        return w;
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
}

PassResult
runPass(const Workload &w, const fs::path &scratch, SpanLog *log,
        int pass)
{
    PassResult out;
    // Cache probes and stores are timed on the store's one slot.
    const auto profiler = cellProfiler(log, 1);

    fs::path cache_dir;
    std::unique_ptr<cache::SimCache> store;
    std::unique_ptr<cache::PrefixPlanner> planner;
    if (w.cached) {
        cache_dir = scratch / ("cache-" + std::to_string(::getpid()) +
                               "-" + std::to_string(pass));
        fs::remove_all(cache_dir);
        store = std::make_unique<cache::SimCache>(cache_dir.string());
        if (profiler != nullptr)
            store->setProfileSlot(&profiler->hostSlot());
        planner = std::make_unique<cache::PrefixPlanner>(
            *store, cache::PrefixOptions{});
    }

    std::vector<CellOutcome> cells;
    double pool_capacity_s = 0.0; // sum of parallelMap wall x threads
    Timed root(log, "workload");
    const auto runMap = [&](auto &&cellFn) {
        Timed map(log, "runner.parallelMap", root.id());
        const std::size_t base = cells.size();
        auto results = locsim::runner::parallelMap(
            w.cells.size(),
            [&](std::size_t i) {
                return cellFn(i, static_cast<int>(base + i), map.id());
            },
            w.threads);
        pool_capacity_s += map.stop() * w.threads;
        for (auto &r : results)
            cells.push_back(std::move(r));
    };
    if (!w.cached) {
        runMap([&](std::size_t i, int id, int parent) {
            return runDirectCell(w, i, id, log, parent);
        });
    } else {
        for (std::size_t k = 0; k < w.windows.size(); ++k) {
            const Stage stage = k == 0 ? Stage::Cold : Stage::Restore;
            runMap([&](std::size_t i, int id, int parent) {
                return runCachedCell(w, i, w.windows[k], stage, *store,
                                     *planner, id, log, parent);
            });
        }
        for (const std::uint64_t window : w.windows) {
            runMap([&](std::size_t i, int id, int parent) {
                return runCachedCell(w, i, window, Stage::Replay, *store,
                                     *planner, id, log, parent);
            });
        }
    }

    // Model-vs-simulation accuracy over the simulated cells, which
    // come first in `cells`, window-major.
    const std::size_t n = w.cells.size();
    std::vector<const CellOutcome *> simulated;
    for (const CellOutcome &c : cells) {
        if (c.stage != Stage::Replay)
            simulated.push_back(&c);
    }
    double model_s = 0.0;
    int model_calls = 0;
    const auto predict = [&](const machine::Measurement &m, int contexts,
                             double distance) {
        Timed t(log, "model.predict", root.id());
        const auto p =
            machine::predictFromMeasurement(m, contexts, distance);
        model_s += t.stop();
        ++model_calls;
        return p;
    };
    double rate_err = 0.0;
    int rate_cells = 0;
    for (const CellOutcome *c : simulated) {
        if (!c->error.empty())
            continue;
        const auto p = predict(c->m, w.cells[c->cell].config.contexts,
                               c->m.avg_hops);
        rate_err += std::fabs(p.injection_rate - c->m.message_rate) /
                    c->m.message_rate;
        ++rate_cells;
    }
    out.rate_err_pct = 100.0 * ratio(rate_err, rate_cells);
    double gain_err = 0.0;
    int gains = 0;
    for (std::size_t k = 0; k * n < simulated.size(); ++k) {
        for (const GainPair &g : w.gains) {
            const CellOutcome &ideal = *simulated[k * n + g.identity];
            const CellOutcome &random = *simulated[k * n + g.random];
            if (!ideal.error.empty() || !random.error.empty())
                continue;
            const int contexts = w.cells[g.identity].config.contexts;
            const double gain_sim =
                ideal.m.txn_rate / random.m.txn_rate;
            const double gain_model =
                predict(ideal.m, contexts, ideal.m.avg_hops).txn_rate /
                predict(ideal.m, contexts, random.m.avg_hops).txn_rate;
            gain_err += std::fabs(gain_model - gain_sim) / gain_sim;
            ++gains;
        }
    }
    out.gain_err_pct = 100.0 * ratio(gain_err, gains);

    {
        Timed t(log, "bench.digest", root.id());
        util::Sha256 sha;
        for (const CellOutcome *c : simulated) {
            sha.update(c->bytes.data(), c->bytes.size());
            out.results.push_back(c->bytes);
        }
        out.digest = sha.hexDigest();
    }
    out.wall_s = root.stop();

    for (const CellOutcome &c : cells) {
        ++out.attempted;
        std::string error = c.error;
        if (error.empty() && c.stage == Stage::Replay) {
            const std::size_t k = static_cast<std::size_t>(
                std::find(w.windows.begin(), w.windows.end(), c.window) -
                w.windows.begin());
            if (c.bytes != out.results[k * n + c.cell])
                error = "replayed Measurement differs from the "
                        "computed one";
        }
        if (!error.empty()) {
            ++out.failed;
            out.errors.push_back(w.cells[c.cell].name + " window " +
                                 std::to_string(c.window) + ": " + error);
        }
        out.node_cycles += static_cast<double>(w.warmup + c.window) *
                           w.cells[c.cell].config.net_clock_ratio *
                           nodeCount(w.cells[c.cell].config);
        out.setup_s += c.setup_s;
        if (c.stage != Stage::Replay)
            out.cell_s.push_back(c.cell_s);
    }

    double cache_bytes = 0.0;
    double image_bytes = 0.0;
    cache::CacheStats stats;
    if (w.cached) {
        stats = store->stats();
        const std::uint64_t expect = n * w.windows.size();
        if (stats.hits != expect || stats.misses != expect ||
            stats.prefix_hits != n * (w.windows.size() - 1)) {
            out.errors.push_back(
                "cache counters off: hits " + std::to_string(stats.hits) +
                " misses " + std::to_string(stats.misses) +
                " prefix hits " + std::to_string(stats.prefix_hits));
        }
        measureCacheDir(cache_dir, cache_bytes, image_bytes);
        store.reset();
        planner.reset();
        fs::remove_all(cache_dir);
    }

    if (log == nullptr)
        return out;

    // Per-layer metrics of a traced pass.
    double cell_s = 0.0, cell_thread_s = 0.0, construct_s = 0.0;
    double advance_s = 0.0, measure_s = 0.0, warm_s = 0.0, sim_s = 0.0;
    double node_ticks = 0.0, ticks = 0.0, skipped = 0.0;
    double flit_hops = 0.0, stalls = 0.0, wakes = 0.0;
    double rho = 0.0, p95 = 0.0, hit_rate = 0.0;
    double transactions = 0.0, messages = 0.0, iterations = 0.0;
    double bytes_per_node = 0.0;
    int constructed = 0, shards = 1;
    for (const CellOutcome &c : cells) {
        cell_s += c.cell_s;
        cell_thread_s += c.cell_s * c.shards;
        if (c.stage == Stage::Direct) {
            construct_s += c.construct_s;
            ++constructed;
        }
        advance_s += c.advance_s;
        measure_s += c.measure_s;
        warm_s += c.warm_s;
        sim_s += c.sim_s;
        const double nodes = nodeCount(w.cells[c.cell].config);
        node_ticks += static_cast<double>(c.ticks) * nodes;
        ticks += static_cast<double>(c.ticks);
        skipped += static_cast<double>(c.skipped);
        flit_hops += static_cast<double>(c.flit_hops);
        stalls += static_cast<double>(c.alloc_stalls);
        wakes += static_cast<double>(c.remote_wakes);
        shards = std::max(shards, c.shards);
        bytes_per_node = std::max(
            bytes_per_node, static_cast<double>(c.mem_bytes) / nodes);
    }
    for (const CellOutcome *c : simulated) {
        rho += c->m.utilization;
        p95 += c->m.message_latency_p95;
        hit_rate += c->m.hit_rate;
        transactions += static_cast<double>(c->m.transactions);
        messages += static_cast<double>(c->m.messages);
        iterations += static_cast<double>(c->m.iterations);
    }
    const double sims = static_cast<double>(simulated.size());
    obs::PhaseTotals phases = profiler->totals();
    for (const CellOutcome &c : cells)
        phases.merge(c.phases);
    const auto phase_s = [&](obs::Phase p) {
        return 1e-9 *
               static_cast<double>(phases.ns[static_cast<std::size_t>(p)]);
    };
    // Profiler phases nest (dispatch contains router scans and
    // coherence ticks), so each is a share of the cells' thread time,
    // never added to another.
    const auto share = [&](obs::Phase p) {
        return ratio(phase_s(p), cell_thread_s);
    };
    // Dispatch time that neither the router nor coherence owns:
    // processors and endpoints.
    const double unattributed_s = phase_s(obs::Phase::EngineDispatch) -
                                  phase_s(obs::Phase::RouterScan) -
                                  phase_s(obs::Phase::Coherence);
    const double lookups = static_cast<double>(stats.hits + stats.misses);
    const SpanTotals whole = log->totals(pass).at("workload");

    out.layer = {
        {"machine.construct_ms", 1e3 * ratio(construct_s, constructed),
         "ms"},
        {"machine.advance_s", advance_s, "s"},
        {"machine.measure_s", measure_s, "s"},
        {"machine.host_ns_per_node_cycle", 1e9 * ratio(sim_s, node_ticks),
         "ns"},
        {"machine.bytes_per_node", bytes_per_node, "B"},
        {"sim.ticks", ticks, "cycles"},
        {"sim.skip_ratio", ratio(skipped, ticks), "ratio"},
        {"sim.shards", static_cast<double>(shards), "count"},
        {"sim.barrier_wait_share", share(obs::Phase::BarrierWait), "ratio"},
        {"net.flit_hops", flit_hops, "count"},
        {"net.alloc_stalls_per_flit_hop", ratio(stalls, flit_hops),
         "ratio"},
        {"net.remote_wakes", wakes, "count"},
        {"net.rho", ratio(rho, sims), "ratio"},
        {"net.latency_p95_cycles", ratio(p95, sims), "cycles"},
        {"net.router_scan_share", share(obs::Phase::RouterScan), "ratio"},
        {"net.link_rotation_share", share(obs::Phase::LinkRotation),
         "ratio"},
        {"coher.transactions", transactions, "count"},
        {"coher.hit_rate", ratio(hit_rate, sims), "ratio"},
        {"coher.messages_per_txn", ratio(messages, transactions), "ratio"},
        {"coher.share", share(obs::Phase::Coherence), "ratio"},
        {"proc.iterations", iterations, "count"},
        {"engine.unattributed_share", ratio(unattributed_s, cell_thread_s),
         "ratio"},
        {"model.solve_us", 1e6 * ratio(model_s, model_calls), "us"},
        {"cache.lookup_ms", 1e3 * phase_s(obs::Phase::CacheProbe), "ms"},
        {"cache.store_ms", 1e3 * phase_s(obs::Phase::CacheStore), "ms"},
        {"cache.hit_ratio", ratio(static_cast<double>(stats.hits), lookups),
         "ratio"},
        {"cache.bytes_written_mb", cache_bytes * 1e-6, "MB"},
        {"ckpt.warm_ms", 1e3 * warm_s, "ms"},
        {"ckpt.save_share", ratio(phase_s(obs::Phase::CheckpointSave), warm_s),
         "ratio"},
        {"ckpt.restore_share",
         ratio(phase_s(obs::Phase::CheckpointRestore), warm_s), "ratio"},
        {"ckpt.image_mb", image_bytes * 1e-6, "MB"},
        {"runner.busy_frac", ratio(cell_s, pool_capacity_s), "ratio"},
        {"runner.cells", static_cast<double>(cells.size()), "count"},
        {"span.unattributed_share",
         ratio(static_cast<double>(whole.self_ns),
               static_cast<double>(whole.total_ns)),
         "ratio"},
    };
    return out;
}

void
verifyRestores(const Workload &w, PassResult &pass)
{
    if (!w.cached)
        return;
    const std::size_t n = w.cells.size();
    for (std::size_t k = 1; k < w.windows.size(); ++k) {
        const auto fresh = locsim::runner::parallelMap(
            n,
            [&](std::size_t i) {
                machine::Machine m(w.cells[i].config, w.cells[i].mapping);
                util::Serializer s;
                machine::saveMeasurement(s, m.run(w.warmup, w.windows[k]));
                return s.takeBuffer();
            },
            w.threads);
        for (std::size_t i = 0; i < n; ++i) {
            ++pass.attempted;
            if (fresh[i] != pass.results[k * n + i]) {
                ++pass.failed;
                pass.errors.push_back(
                    w.cells[i].name + " window " +
                    std::to_string(w.windows[k]) +
                    ": restored Measurement differs from a fresh run");
            }
        }
    }
}

} // namespace perfbench
