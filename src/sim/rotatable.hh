/**
 * @file
 * The rotation interface of latched channels in cycle-driven
 * simulation.
 *
 * All communication between clocked components goes through latched
 * channels. A value pushed during cycle t becomes visible to the
 * consumer no earlier than cycle t+1 (the engine rotates the channel
 * at the end of the tick in which it was pushed). This gives clean
 * two-phase semantics: the order in which components are ticked within
 * a cycle cannot affect simulation results. The network's link stores
 * (net/link_fabric.hh) implement this interface.
 *
 * Rotation is activity-tracked: a channel marks itself dirty on the
 * first push of a cycle and (when bound to an engine) appends itself
 * to the engine's dirty list, so the engine only rotates channels
 * that actually staged values this cycle. A channel with an empty
 * staging queue is invariant under rotate(), so skipping clean
 * channels is exactly equivalent to the rotate-everything reference
 * behaviour.
 */

#ifndef LOCSIM_SIM_ROTATABLE_HH_
#define LOCSIM_SIM_ROTATABLE_HH_

#include <atomic>
#include <cstdint>
#include <vector>

namespace locsim {
namespace sim {

/**
 * Type-erased interface the engine uses to rotate channels.
 *
 * Holds the per-cycle dirty flag and the (engine-owned) dirty list a
 * channel enrols itself in on the first push of a cycle. Channels not
 * bound to an engine (unit tests driving rotate() by hand) simply
 * keep the flag local.
 */
class Rotatable
{
  public:
    virtual ~Rotatable() = default;

    /** Move this cycle's pushes into the visible queue. */
    virtual void rotate() = 0;

    /**
     * Bind this channel to an engine's dirty list. Called by
     * Engine::addChannel; the list must outlive the channel's use.
     */
    void bindDirtyList(std::vector<Rotatable *> *list)
    {
        dirty_list_ = list;
    }

    /** True if values were staged since the last rotate(). */
    bool dirty() const { return dirty_; }

    /**
     * Bind a consumer-side wake word: every push ORs @p bit into
     * @p mask. A consumer with many input channels can latch the mask
     * once per cycle and visit only the channels that staged values,
     * instead of polling every channel for emptiness. The mask must
     * outlive the channel's use.
     */
    void
    bindWake(std::uint32_t *mask, std::uint32_t bit)
    {
        wake_mask_ = mask;
        wake_bit_ = bit;
        remote_wake_ = nullptr;
    }

    /**
     * Bind a *cross-shard* consumer wake word instead of a plain one.
     * The producer and consumer live on different shard engines, so
     * the wake must not be delivered at push time (the consumer may
     * latch its wake words concurrently in the same tick phase).
     * Instead rotate() — which runs in the barrier-separated rotation
     * phase — ORs @p bit into the atomic @p mask; the consumer drains
     * it at the start of the next tick, exactly when a same-shard wake
     * would become observable. Replaces any bindWake() binding.
     */
    void
    bindRemoteWake(std::atomic<std::uint32_t> *mask, std::uint32_t bit)
    {
        remote_wake_ = mask;
        wake_mask_ = nullptr;
        wake_bit_ = bit;
    }

  protected:
    /** Called by push implementations to flag the bound wake word. */
    void
    notifyWake()
    {
        if (wake_mask_ != nullptr)
            *wake_mask_ |= wake_bit_;
    }

    /**
     * Called by rotate() implementations *before* clearing dirty_:
     * delivers the deferred cross-shard wake when values latched.
     */
    void
    notifyRemoteWake()
    {
        if (remote_wake_ != nullptr && dirty_) {
            remote_wake_->fetch_or(wake_bit_,
                                   std::memory_order_relaxed);
        }
    }
    /** Record a push; enrols in the engine's dirty list once per cycle. */
    void
    markDirty()
    {
        if (dirty_)
            return;
        dirty_ = true;
        if (dirty_list_ != nullptr)
            dirty_list_->push_back(this);
    }

    /** Cleared by rotate() implementations. */
    bool dirty_ = false;

  private:
    std::vector<Rotatable *> *dirty_list_ = nullptr;
    std::uint32_t *wake_mask_ = nullptr;
    std::atomic<std::uint32_t> *remote_wake_ = nullptr;
    std::uint32_t wake_bit_ = 0;
};

} // namespace sim
} // namespace locsim

#endif // LOCSIM_SIM_ROTATABLE_HH_
