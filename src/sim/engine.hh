/**
 * @file
 * The cycle-driven simulation engine.
 *
 * The engine advances a global tick counter; clocked components
 * register with a clock period (in ticks) and phase offset and have
 * their tick() method invoked on matching ticks. All inter-component
 * communication flows through latched channels (sim::Rotatable)
 * registered with the engine, which rotates them at the end of the
 * tick they were pushed in so that values pushed in cycle t are
 * visible in cycle t+1.
 *
 * In the Alewife-like machine, network switches run at period 1 and
 * processors/controllers at period `ratio` (default 2), mirroring the
 * paper's "network switches are clocked twice as fast as processors".
 *
 * Activity tracking (StepMode::Activity, the default):
 *  - each clocked entry carries a precomputed next-due tick, so firing
 *    a component is a single compare instead of a per-entry modulo;
 *  - only channels pushed this cycle are rotated (see Rotatable's
 *    dirty list); a clean channel is invariant under rotation;
 *  - when every component reports idle via Clocked::busy(), the engine
 *    fast-forwards time to the next event-queue wakeup (or the end of
 *    the run), crediting skipped cycles via Clocked::skipIdle() so
 *    time-based statistics (e.g. processor idle cycles) stay exact.
 *
 * StepMode::Reference disables all three optimizations (modulo scan,
 * rotate every channel, never skip) and is kept as the oracle for the
 * equivalence tests: both modes must produce tick-for-tick identical
 * simulation results.
 */

#ifndef LOCSIM_SIM_ENGINE_HH_
#define LOCSIM_SIM_ENGINE_HH_

#include <functional>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace locsim {

namespace obs {
class PhaseSlot;
class Tracer;
}

namespace sim {

class Rotatable;

/** Interface for components driven by the engine's clock. */
class Clocked
{
  public:
    virtual ~Clocked() = default;

    /** Advance one cycle of this component's clock. */
    virtual void tick(Tick now) = 0;

    /**
     * Activity report: true if this component has (or may have) work
     * to do on its upcoming ticks. The engine only skips ticks while
     * every registered component reports idle, so a conservative
     * "always busy" default is safe for components that do not
     * implement the protocol.
     */
    virtual bool busy() const { return true; }

    /**
     * Credit @p ticks skipped component ticks. Called instead of
     * tick() when the engine fast-forwards over a globally quiescent
     * stretch; implementations must account exactly what an idle
     * tick() would have (e.g. idle-cycle counters) and nothing else.
     */
    virtual void skipIdle(Tick ticks) { (void)ticks; }
};

/**
 * Drives a set of Clocked components and latched channels.
 *
 * Not copyable; registered components and channels must outlive the
 * engine or be removed before destruction (the engine does not own
 * them).
 */
class Engine
{
  public:
    /** Stepping strategy; see the file comment. */
    enum class StepMode {
        Activity,  //!< next-due scheduling, dirty rotation, skipping
        Reference, //!< poll everything every tick (equivalence oracle)
    };

    Engine() = default;
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /**
     * Register a clocked component.
     *
     * @param component the component; not owned.
     * @param period clock period in ticks (>= 1).
     * @param offset phase offset in ticks (< period).
     */
    void addClocked(Clocked *component, Tick period = 1,
                    Tick offset = 0);

    /** Register a channel to be rotated when pushed. */
    void addChannel(Rotatable *channel);

    /** Select the stepping strategy (results are identical in both). */
    void setStepMode(StepMode mode) { mode_ = mode; }
    StepMode stepMode() const { return mode_; }

    /** Current simulation time. */
    Tick now() const { return now_; }

    /** Event queue sharing this engine's timeline. */
    EventQueue &events() { return events_; }

    /** Advance the simulation by @p ticks cycles. */
    void run(Tick ticks);

    /**
     * Advance until @p done returns true (checked once per tick,
     * before that tick executes) or @p max_ticks elapse.
     *
     * Note: while the machine is globally quiescent the engine only
     * re-evaluates the predicate at event-queue wakeups; a predicate
     * that depends on nothing but now() may therefore be observed
     * later (never earlier) than in Reference mode. Predicates over
     * component state are unaffected: that state cannot change while
     * every component is idle.
     *
     * @return true if the predicate fired, false on timeout.
     */
    bool runUntil(const std::function<bool()> &done, Tick max_ticks);

    /** Ticks elided by quiescence fast-forwarding (diagnostics). */
    Tick skippedTicks() const { return skipped_ticks_; }

    /**
     * @name Lockstep stepping (sharded driver interface)
     *
     * The sharded machine driver advances K engines over one shared
     * timeline by splitting a tick into its two phases: beginTick()
     * fires events and due clocked components at now(); finishTick()
     * rotates the channels pushed this cycle and advances now(). The
     * split is safe to run concurrently across engines because latched
     * channels make intra-cycle tick order irrelevant, and rotation
     * only touches channels owned by (registered with) this engine.
     * run() is exactly a loop of beginTick()+finishTick() with
     * tryFastForward() between iterations.
     */
    ///@{
    /** Phase A: run due events, then tick due clocked components. */
    void beginTick();

    /** Phase B: rotate dirty channels (all in Reference), ++now(). */
    void finishTick();

    /**
     * True when nothing can happen before the next event-queue wakeup:
     * no staged channel values and every component reports idle.
     */
    bool allIdle() const;

    /** Next event-queue wakeup (kTickNever when empty). */
    Tick nextEventTick() const { return events_.nextTick(); }

    /**
     * Jump now() to @p target (> now()), crediting skipped component
     * ticks via skipIdle(). Caller must have established allIdle().
     */
    void jumpIdleTo(Tick target);

    /**
     * Emit the "run" trace span run() would have produced for the
     * window [@p start, now()). The sharded driver bypasses run(), so
     * it closes each shard's window explicitly.
     */
    void
    emitRunSpan(Tick start, Tick skipped_before)
    {
        traceRun(start, skipped_before);
    }
    ///@}

    /**
     * Restore the timeline from a checkpoint: set now()/skippedTicks()
     * and recompute every registered component's next-due tick exactly
     * as if the components had been registered at this time (same
     * formula as addClocked). Preconditions: no staged channel values
     * and an empty event queue — callers re-schedule wakeups from
     * their own serialized state afterwards.
     */
    void restoreTime(Tick now, Tick skipped);

    /**
     * Attach a structured tracer (nullptr to detach; not owned). The
     * engine emits a "run" span per run()/runUntil() call and a
     * "fast_forward" span per quiescence skip on @p track.
     */
    void
    setTracer(obs::Tracer *tracer, int track)
    {
        tracer_ = tracer;
        trace_track_ = track;
    }

    /**
     * Attach a phase-profiler slot (nullptr to detach; not owned).
     * beginTick() records Phase::EngineDispatch (inclusive of the
     * component ticks it dispatches), finishTick() LinkRotation, and
     * jumpIdleTo() Quiescence. With a null slot each scope costs one
     * predictable branch — the same discipline as the tracer.
     */
    void setProfiler(obs::PhaseSlot *slot) { profile_slot_ = slot; }

  private:
    void stepOneTick()
    {
        beginTick();
        finishTick();
    }

    /** Trace one completed run window (no-op without a tracer). */
    void traceRun(Tick start, Tick skipped_before);

    /**
     * If every component is idle, jump now_ to the next event-queue
     * wakeup (capped at @p end), crediting skipped component ticks.
     */
    void tryFastForward(Tick end);

    struct ClockedEntry
    {
        Clocked *component;
        Tick period;
        Tick offset;
        Tick next_due;
    };

    Tick now_ = 0;
    StepMode mode_ = StepMode::Activity;
    std::vector<ClockedEntry> clocked_;
    std::vector<Rotatable *> channels_;
    std::vector<Rotatable *> dirty_channels_;
    EventQueue events_;
    Tick skipped_ticks_ = 0;
    obs::Tracer *tracer_ = nullptr;
    int trace_track_ = 0;
    obs::PhaseSlot *profile_slot_ = nullptr;
};

} // namespace sim
} // namespace locsim

#endif // LOCSIM_SIM_ENGINE_HH_
