/**
 * @file
 * Prefix-checkpoint incremental caching: never re-simulate a shared
 * warmup.
 *
 * The paper's sweeps evaluate many configurations that differ only in
 * late-binding parameters (measurement window and length, sampling,
 * output knobs) yet share an identical simulated trajectory up to the
 * warmup boundary. The PrefixPlanner exploits that: the machine state
 * at the warmup clock is content-addressed (cache::prefixKey, which
 * hashes everything that shapes the trajectory and *nothing* that
 * merely observes it) and stored as a checkpoint image in the
 * SimCache. A sweep point then restores the longest matching prefix
 * and simulates only its divergent suffix — the measurement window.
 *
 * Exactness is inherited, not asserted: restore-then-extend is
 * bit-identical to a straight run (tests/checkpoint_test.cc,
 * tests/prefix_test.cc), so a prefix-cached sweep's stdout is byte-
 * equal to an uncached one at every shard count.
 *
 * Production is deduplicated at two levels: within a process, the
 * store's singleflight runs one producer per prefix key however many
 * runner::ThreadPool lanes ask; across processes, the atomic
 * temp+rename store makes concurrent producers race to write
 * identical bytes.
 *
 * Rungs: with a nonzero stride the producer also stores intermediate
 * images at every multiple of the stride below the warmup boundary,
 * and starts from the longest stored rung when producing a new
 * prefix. Sweep points whose warmups *near-miss* each other (6000 vs
 * 6400 with stride 2000) then share the 6000-cycle rung instead of
 * simulating from clock zero.
 */

#ifndef LOCSIM_CACHE_PREFIX_HH_
#define LOCSIM_CACHE_PREFIX_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/store.hh"
#include "machine/machine.hh"
#include "workload/mapping.hh"

namespace locsim {
namespace cache {

/** Prefix-cache knobs (the harness's --prefix-* flags). */
struct PrefixOptions
{
    /**
     * Rung stride in processor cycles; 0 (default) stores images at
     * exact warmup boundaries only. With a positive stride, producers
     * additionally store images at every multiple of the stride up to
     * the warmup, and restore from the longest available rung.
     */
    std::uint64_t rung_stride = 0;
};

/** One sweep point, as the planner sees it. */
struct PrefixPoint
{
    const machine::MachineConfig *config = nullptr;
    const workload::Mapping *mapping = nullptr;
    std::uint64_t warmup = 0;
};

/**
 * Plans and executes prefix reuse against one SimCache.
 *
 * Thread-safe: the planner holds no mutable state of its own; all
 * coordination lives in the store's singleflight map, so any number
 * of sweep workers may call warmMachine concurrently.
 */
class PrefixPlanner
{
  public:
    /** @param store backing cache (must outlive the planner). */
    PrefixPlanner(SimCache &store, const PrefixOptions &options);

    /**
     * A machine positioned at @p warmup processor cycles, by the
     * cheapest correct route: restored from the stored prefix image
     * when one exists, otherwise produced (itself restoring the
     * longest stored rung below @p warmup, then advancing) and stored
     * exactly once under singleflight. Corrupt stored images are
     * dropped and recomputed. The returned machine is ready for
     * measure(window); its measurements are bit-identical to
     * Machine::run(warmup, window) on a fresh machine.
     */
    std::unique_ptr<machine::Machine>
    warmMachine(const machine::MachineConfig &config,
                const workload::Mapping &mapping,
                std::uint64_t warmup) const;

    /**
     * The distinct prefix keys @p points will need — the images a
     * cold sweep produces (each exactly once). Order of first
     * appearance; duplicates collapse. This is the planner's
     * set-level view: `prefix_stores == distinctPrefixes().size()`
     * after a cold sweep, which the CI determinism job asserts via
     * the run manifest.
     */
    std::vector<std::string>
    distinctPrefixes(const std::vector<PrefixPoint> &points) const;

    /**
     * The rung clocks below @p warmup, descending (largest first):
     * multiples of the stride in (0, warmup). Empty when the stride
     * is 0 or >= warmup.
     */
    std::vector<std::uint64_t> rungClocks(std::uint64_t warmup) const;

    SimCache &store() const { return store_; }
    const PrefixOptions &options() const { return options_; }

  private:
    /** Build a machine and advance it to @p warmup, reusing and
     *  materializing rungs along the way. */
    std::unique_ptr<machine::Machine>
    produce(const machine::MachineConfig &config,
            const workload::Mapping &mapping,
            std::uint64_t warmup) const;

    SimCache &store_;
    PrefixOptions options_;
};

} // namespace cache
} // namespace locsim

#endif // LOCSIM_CACHE_PREFIX_HH_
