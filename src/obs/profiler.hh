/**
 * @file
 * Host-side phase profiler: low-overhead wall-clock attribution of
 * the simulator's own hot loop.
 *
 * The tracer and sampler (trace.hh, sampler.hh) observe *simulated*
 * time; the profiler observes where *host* cycles go — router scans,
 * link rotation, coherence processing, engine event dispatch, barrier
 * waits, quiescence fast-forwards, checkpoint I/O, and cache probes —
 * aggregated per shard so shard imbalance becomes a first-class
 * number.
 *
 * Discipline mirrors the tracer's null-sink contract: every
 * instrumentation point holds a `PhaseSlot *` that is null when
 * profiling is off, and a ScopedPhase over a null slot is exactly one
 * predictable branch on entry and one on exit — no clock read, no
 * store. With profiling on, a scope is two steady_clock reads and two
 * relaxed atomic adds; nothing allocates after construction, so the
 * zero-allocation steady-state gates hold with profiling enabled.
 *
 * Phases nest: EngineDispatch spans a whole engine phase A, which
 * includes the RouterScan and Coherence ticks it dispatches, so
 * child-phase time is also counted inside the parent (exclusive time
 * is derivable by subtraction; tests/profiler_test.cc pins the
 * children <= parent invariant). Attribution convention: engine,
 * router, coherence and barrier phases land on the slot of the shard
 * that runs them; checkpoint and cache phases land on the host slot
 * (shard 0) unless the caller knows better.
 */

#ifndef LOCSIM_OBS_PROFILER_HH_
#define LOCSIM_OBS_PROFILER_HH_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "util/logging.hh"

namespace locsim {
namespace obs {

/** The fixed set of instrumented host-side phases. */
enum class Phase : int {
    EngineDispatch = 0, //!< engine phase A: events + clocked scan
    RouterScan,         //!< network tickShard (latch/eject/inject/route)
    RouterKernel,       //!< lane-vector latch/busy kernel inside tickShard
    LinkRotation,       //!< engine phase B: dirty-channel rotation
    Coherence,          //!< cache-controller protocol processing
    BarrierWait,        //!< lockstep barrier arrivals
    Quiescence,         //!< fast-forward jumps over idle stretches
    CheckpointSave,     //!< Machine::saveCheckpoint
    CheckpointRestore,  //!< Machine::restoreCheckpoint
    CacheProbe,         //!< sim-cache key lookup / payload read
    CacheStore,         //!< sim-cache payload write
};

inline constexpr int kPhaseCount = 11;

/** Stable lower-snake name for manifests and tables. */
const char *phaseName(Phase phase);

/** A snapshot of one slot's (or an aggregate's) per-phase totals. */
struct PhaseTotals
{
    std::array<std::uint64_t, kPhaseCount> ns{};
    std::array<std::uint64_t, kPhaseCount> count{};

    std::uint64_t
    totalNs() const
    {
        std::uint64_t sum = 0;
        for (const std::uint64_t v : ns)
            sum += v;
        return sum;
    }

    void
    merge(const PhaseTotals &other)
    {
        for (int p = 0; p < kPhaseCount; ++p) {
            ns[static_cast<std::size_t>(p)] +=
                other.ns[static_cast<std::size_t>(p)];
            count[static_cast<std::size_t>(p)] +=
                other.count[static_cast<std::size_t>(p)];
        }
    }
};

/**
 * One accumulation cell. Counters are relaxed atomics so concurrent
 * recorders (sweep machines sharing one profiler, shard threads) can
 * share a slot without synchronization; totals are only read at
 * serial points (report time).
 */
class PhaseSlot
{
  public:
    void
    record(Phase phase, std::uint64_t elapsed_ns)
    {
        const auto p = static_cast<std::size_t>(phase);
        ns_[p].fetch_add(elapsed_ns, std::memory_order_relaxed);
        count_[p].fetch_add(1, std::memory_order_relaxed);
    }

    PhaseTotals
    totals() const
    {
        PhaseTotals out;
        for (std::size_t p = 0; p < kPhaseCount; ++p) {
            out.ns[p] = ns_[p].load(std::memory_order_relaxed);
            out.count[p] = count_[p].load(std::memory_order_relaxed);
        }
        return out;
    }

  private:
    std::array<std::atomic<std::uint64_t>, kPhaseCount> ns_{};
    std::array<std::atomic<std::uint64_t>, kPhaseCount> count_{};
};

/**
 * One slot per shard for one run. Sized up front from the harness's
 * best guess; slot() clamps its index, so a wrong guess
 * (LOCSIM_SHARDS overriding --shards, odd radixes) degrades to
 * coarser attribution instead of out-of-bounds access.
 */
class Profiler
{
  public:
    /** @param lanes must be 1; kept for perfbench's two-argument
     *         construction. */
    explicit Profiler(int shards, int lanes = 1)
        : shards_(shards < 1 ? 1 : shards),
          slots_(std::make_unique<PhaseSlot[]>(
              static_cast<std::size_t>(shards_)))
    {
        LOCSIM_ASSERT(lanes == 1, "the profiler has one slot per shard");
    }

    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;

    int shards() const { return shards_; }

    /** The slot for @p shard; the index clamps into the grid. */
    PhaseSlot &
    slot(int shard)
    {
        const int s = shard < 0 ? 0
                      : shard >= shards_ ? shards_ - 1
                                         : shard;
        return slots_[static_cast<std::size_t>(s)];
    }

    /** Process-level phases (cache probes, host work): shard 0. */
    PhaseSlot &hostSlot() { return slot(0); }

    /** Whole-grid aggregate. */
    PhaseTotals
    totals() const
    {
        PhaseTotals out;
        for (int s = 0; s < shards_; ++s)
            out.merge(shardTotals(s));
        return out;
    }

    /** One shard's totals. */
    PhaseTotals
    shardTotals(int shard) const
    {
        return slots_[static_cast<std::size_t>(shard)].totals();
    }

  private:
    int shards_;
    std::unique_ptr<PhaseSlot[]> slots_;
};

/**
 * RAII timer for one phase. A null @p slot (profiling off) costs one
 * predictable branch on entry and one on exit — the same null-sink
 * contract every tracer call site follows.
 */
class ScopedPhase
{
  public:
    ScopedPhase(PhaseSlot *slot, Phase phase)
        : slot_(slot), phase_(phase)
    {
        if (slot_ != nullptr)
            start_ = std::chrono::steady_clock::now();
    }

    ~ScopedPhase()
    {
        if (slot_ != nullptr) {
            const auto elapsed =
                std::chrono::steady_clock::now() - start_;
            slot_->record(
                phase_,
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(elapsed)
                        .count()));
        }
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    PhaseSlot *slot_;
    Phase phase_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace obs
} // namespace locsim

#endif // LOCSIM_OBS_PROFILER_HH_
