/**
 * @file
 * The benchmark's three workloads, each a closed-loop set of
 * simulations whose inputs come from one seed:
 *
 * - grid8: Section 3.3's validation grid, 27 machines of 8x8 nodes
 *   (contexts {1,2,4} x the nine experiment mappings), warmup 6000 /
 *   window 20000 processor cycles, on the thread pool, no cache.
 * - radix32: scaling_check's pair, identity and random mapping on a
 *   32x32 torus, one after another, each machine sharded over every
 *   core.
 * - window_sweep: the 8x8 grid with one shared warmup and several
 *   windows, through a fresh simulation cache (cold pass, restore
 *   passes, all-hit replay).
 *
 * A pass runs the whole workload once. The benchmark repeats passes
 * for its time budget and reports medians.
 */

#ifndef LOCSIM_PERFBENCH_WORKLOADS_HH_
#define LOCSIM_PERFBENCH_WORKLOADS_HH_

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "machine/machine.hh"
#include "spans.hh"
#include "workload/mapping.hh"

namespace perfbench {

/** One simulation cell: a machine configuration and its mapping. */
struct Cell
{
    std::string name; //!< "<mapping>.p<contexts>"
    locsim::machine::MachineConfig config;
    locsim::workload::Mapping mapping;
};

/** Identity and random cells whose rate ratio is the locality gain. */
struct GainPair
{
    std::size_t identity = 0;
    std::size_t random = 0;
};

/** A workload's generated inputs and execution shape. */
struct Workload
{
    std::string name;
    std::vector<Cell> cells;
    std::uint64_t warmup = 0;
    /** Measurement windows; window_sweep has several, the rest one. */
    std::vector<std::uint64_t> windows;
    bool cached = false; //!< through the simulation cache (window_sweep)
    int threads = 1;     //!< runner::parallelMap workers
    int shards = 1;      //!< MachineConfig::shards of every cell
    std::vector<GainPair> gains;
};

/** The workload names the benchmark accepts, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Generate @p name's inputs from @p seed: the seed is the random
 * mapping's seed (experimentMappings for the 8x8 grid, Mapping::random
 * for radix32). Threads and shards never exceed @p nproc.
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      int nproc);

/** The seed validation_table / scaling_check use for the workload. */
std::uint64_t defaultSeed(const std::string &name);

/** One named measurement with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one pass measured. */
struct PassResult
{
    double wall_s = 0.0;      //!< workload wall clock
    double setup_s = 0.0;     //!< machine set-up before the first cycle
    double node_cycles = 0.0; //!< node x network cycles returned
    std::vector<double> cell_s; //!< host seconds per simulated cell
    double rate_err_pct = 0.0;
    double gain_err_pct = 0.0;
    /**
     * Serialized Measurements of the cells the pass simulated
     * (machine::saveMeasurement), window-major then cell order, and
     * their SHA-256.
     */
    std::vector<std::vector<std::uint8_t>> results;
    std::string digest;
    std::uint64_t attempted = 0; //!< cells attempted
    std::uint64_t failed = 0;    //!< cells that failed a check
    std::vector<std::string> errors;
    /** Per-layer metrics, in a fixed order; traced passes only. */
    std::vector<Metric> layer;
};

/**
 * Run @p w once. With @p log set the pass is traced: every public
 * call records a span, the phase profiler is on, and the per-layer
 * metrics are filled. @p scratch holds the pass's temporary cache
 * directory (window_sweep), deleted before returning.
 */
PassResult runPass(const Workload &w,
                   const std::filesystem::path &scratch, SpanLog *log,
                   int pass);

/**
 * Check that window_sweep's restored windows equal fresh, uncached
 * simulations byte for byte: for every cell and every window after
 * the first, run a new machine through warmup + window and compare
 * with @p pass's results. No-op for the other workloads. Counts the
 * cells checked and failed into @p pass.
 */
void verifyRestores(const Workload &w, PassResult &pass);

} // namespace perfbench

#endif // LOCSIM_PERFBENCH_WORKLOADS_HH_
