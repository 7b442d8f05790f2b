/**
 * @file
 * Structure-of-arrays storage for the torus fabric's latched flit
 * links.
 *
 * The previous fabric kept one heap object per link (FlitRing,
 * arena-packed but still pointer-chased) and registered each with its
 * shard engine as an independent Rotatable, so the rotation phase
 * made one virtual call per dirty link. This file flattens all flit
 * links into dense-id SoA arrays:
 *
 *  - FlitLinkStore: every flit link shares one uniform power-of-two
 *    ring capacity. The hot ring cursors live in three parallel
 *    uint32 arrays (head / mid / tail) split from the cold per-channel
 *    metadata (wake binding, owning shard), so the rotation publish
 *    (mid = tail) is a pure data-parallel pass over adjacent words.
 *  - LinkRotator: one Rotatable per shard. Channels mark themselves
 *    dirty in per-rotator 64-bit words; rotation drains whole words,
 *    handing each word's dirty bitmask to the store's publishWord(),
 *    which runs the lane-vector kernels of net/kernels.hh (SSE2/AVX2
 *    with a scalar fallback, level resolved once per store from
 *    util::simd::activeLevel()).
 *
 * Credits do not travel through latched links: a router returns each
 * one as shard mail that the Network applies at the start of the next
 * cycle (see Network::drainCreditMail).
 *
 * Rotation order across channels is immaterial (each channel's
 * publish touches only its own state, and cross-shard wake delivery
 * is a commutative fetch_or), so batch rotation is bit-identical to
 * the per-channel scheme. The serialization layout is byte-identical
 * to the old FlitRing stream.
 *
 * Every channel belongs to exactly one shard (its producer's); a
 * rotator only ever publishes channels of its own shard, keeping the
 * rotation phase race-free under the sharded driver's barriers. One
 * dirty word may still interleave channels of several shards, so the
 * vector kernels never write a channel whose dirty bit is clear (see
 * the kernels.hh concurrency contract).
 *
 * Ids are dense and sequential in add() order. The store is sized
 * once for the fabric's channel count, with the cursor and metadata
 * arrays padded to whole 64-id dirty words so the vector kernels can
 * load full words; pad ids are never added, marked dirty, bound or
 * serialized.
 */

#ifndef LOCSIM_NET_LINK_FABRIC_HH_
#define LOCSIM_NET_LINK_FABRIC_HH_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/kernels.hh"
#include "net/message.hh"
#include "sim/rotatable.hh"
#include "util/logging.hh"
#include "util/serialize.hh"
#include "util/simd.hh"

namespace locsim {
namespace net {

/** Dense index naming one link within a store. */
using ChannelId = std::uint32_t;
inline constexpr ChannelId kNoChannel = 0xffffffffu;

class FlitLinkStore;

/** The per-shard Rotatable that batch-rotates the store's channels. */
class LinkRotator final : public sim::Rotatable
{
  public:
    /** @param words dirty words covering every channel id. */
    LinkRotator(FlitLinkStore &store, std::size_t words)
        : store_(store), dirty_words_(words, 0)
    {
    }

    /** Record a push on channel @p id; enrols this rotator in the
     *  engine's dirty list on the first mark of the cycle. */
    void
    markChannel(ChannelId id)
    {
        const std::size_t word = static_cast<std::size_t>(id) >> 6;
        const std::uint64_t bit = 1ull << (id & 63u);
        if (dirty_words_[word] & bit)
            return;
        if (dirty_words_[word] == 0)
            touched_.push_back(static_cast<std::uint32_t>(word));
        dirty_words_[word] |= bit;
        markDirty();
    }

    void rotate() override;

  private:
    FlitLinkStore &store_;
    /** One dirty bit per channel id (ids of other shards stay 0). */
    std::vector<std::uint64_t> dirty_words_;
    /** Indices of nonzero dirty words, in first-touch order. */
    std::vector<std::uint32_t> touched_;
};

/**
 * Per-channel wake binding (see sim::Rotatable's wake contract),
 * packed into 12 bytes: one pointer with its low bit tagging whether
 * the target is a plain word (same-shard, written at push time) or an
 * atomic word (cross-shard, fetch_or'd at publish time). Wake words
 * are 4-byte aligned, so the tag bit is free.
 */
struct WakeBinding
{
    std::uintptr_t tagged = 0;
    std::uint32_t bit = 0;

    void
    bindLocal(std::uint32_t *word, std::uint32_t b)
    {
        tagged = reinterpret_cast<std::uintptr_t>(word);
        bit = b;
    }

    void
    bindRemote(std::atomic<std::uint32_t> *word, std::uint32_t b)
    {
        tagged = reinterpret_cast<std::uintptr_t>(word) | 1u;
        bit = b;
    }

    /** Deliver the push-time (same-shard) wake, if bound. */
    void
    wakeOnPush() const
    {
        if (tagged != 0 && (tagged & 1u) == 0)
            *reinterpret_cast<std::uint32_t *>(tagged) |= bit;
    }

    /** Deliver the publish-time (cross-shard) wake, if bound. */
    void
    wakeOnPublish() const
    {
        if ((tagged & 1u) != 0) {
            reinterpret_cast<std::atomic<std::uint32_t> *>(tagged & ~std::uintptr_t{1})
                ->fetch_or(bit, std::memory_order_relaxed);
        }
    }
};

/**
 * Most flits a flit link ever holds at once, visible plus staged.
 * Every producer pushes at most one flit per link per tick (a router
 * forwards one flit per output port, an endpoint injects one), and
 * every consumer drains what was published on the tick after
 * publication: a router drains all visible flits on its woken input
 * ports, and ejection pops one flit per tick before any router
 * pushes. A link therefore holds at most one visible flit plus one
 * staged flit; the store's overflow assert and the checkpoint
 * loader's capacity check enforce the bound.
 */
inline constexpr int kLinkOccupancyBound = 2;

namespace detail {

/** Ids rounded up to whole dirty words, so the vector kernels can
 *  load full words without running off the cursor arrays. */
inline std::size_t
paddedIds(ChannelId id)
{
    return ((static_cast<std::size_t>(id) >> 6) + 1) << 6;
}

} // namespace detail

/**
 * All flit links of one fabric, flattened. Same latching semantics as
 * the old FlitRing: pushes land in [mid, tail) and become visible
 * ([head, mid)) when the owning shard's rotator publishes the channel.
 */
class FlitLinkStore
{
  public:
    /**
     * @param max_occupancy uniform ring bound per link (fabrics pass
     *        kLinkOccupancyBound); the ring capacity is the smallest
     *        power of two at or above it.
     * @param shards rotator count; channels name their owner on add().
     * @param channels how many links add() will create; every array
     *        is sized for exactly that many up front.
     */
    FlitLinkStore(int max_occupancy, int shards, std::size_t channels)
        : channels_(channels), level_(util::simd::activeLevel())
    {
        LOCSIM_ASSERT(max_occupancy >= 1, "link occupancy must be >= 1");
        cap_ = std::bit_ceil(static_cast<std::size_t>(max_occupancy));
        mask_ = static_cast<std::uint32_t>(cap_ - 1);
        shift_ = static_cast<unsigned>(std::countr_zero(cap_));
        const std::size_t padded =
            channels == 0 ? 0
                          : detail::paddedIds(
                                static_cast<ChannelId>(channels - 1));
        head_.assign(padded, 0);
        mid_.assign(padded, 0);
        tail_.assign(padded, 0);
        meta_.resize(padded);
        remote_bits_.assign(padded >> 6, 0);
        buf_.resize(channels * cap_);
        rotators_.reserve(static_cast<std::size_t>(shards));
        for (int s = 0; s < shards; ++s) {
            rotators_.push_back(
                std::make_unique<LinkRotator>(*this, padded >> 6));
        }
    }

    /** Create one link owned by shard @p owner; returns its id. */
    ChannelId
    add(int owner)
    {
        LOCSIM_ASSERT(ids_ < channels_,
                      "more links added than the store was sized for");
        const auto id = static_cast<ChannelId>(ids_++);
        meta_[id].owner = static_cast<std::uint16_t>(owner);
        return id;
    }

    /** Links created so far (ids [0, channelCount()) are live). */
    std::size_t channelCount() const { return ids_; }

    /** The Rotatable to register with shard @p s's engine. */
    sim::Rotatable *rotator(int s)
    {
        return rotators_[static_cast<std::size_t>(s)].get();
    }

    /** Register each per-shard rotator with the matching engine. */
    template <typename EngineT>
    void
    registerRotators(const std::vector<EngineT *> &engines)
    {
        for (std::size_t s = 0; s < engines.size(); ++s)
            engines[s]->addChannel(rotator(static_cast<int>(s)));
    }

    void
    bindWake(ChannelId id, std::uint32_t *mask, std::uint32_t bit)
    {
        meta_[id].wake.bindLocal(mask, bit);
        remote_bits_[id >> 6] &= ~(1ull << (id & 63u));
    }

    void
    bindRemoteWake(ChannelId id, std::atomic<std::uint32_t> *mask,
                   std::uint32_t bit)
    {
        meta_[id].wake.bindRemote(mask, bit);
        remote_bits_[id >> 6] |= 1ull << (id & 63u);
    }

    /** True if no flit is currently visible to the consumer. */
    bool
    empty(ChannelId id) const
    {
        return headOf(id) == mid_[id];
    }

    /** Flits currently visible to the consumer. */
    std::uint32_t
    visibleCount(ChannelId id) const
    {
        return mid_[id] - headOf(id);
    }

    /** Flits held, visible plus staged. */
    std::uint32_t
    heldCount(ChannelId id) const
    {
        return tail_[id] - headOf(id);
    }

    /** Flits pushed so far: the monotonic tail cursor (wraps). */
    std::uint32_t pushedCount(ChannelId id) const { return tail_[id]; }

    /** Enqueue a flit; visible after the owner's next rotation. */
    void
    push(ChannelId id, const Flit &flit)
    {
        stage(id) = flit;
    }

    /**
     * Reserve the next staged slot of @p id and return it for the
     * caller to fill in place (same bookkeeping as push(), minus one
     * 32-byte flit copy on the switch-traversal hot path). The slot
     * stays invisible to the consumer until rotation, so in-place
     * mutation after stage() is race-free.
     */
    Flit &
    stage(ChannelId id)
    {
        LOCSIM_ASSERT(tail_[id] - headOf(id) < cap_,
                      "flit link overflow: credit protocol violated");
        Flit &staged = buf_[slot(id, tail_[id])];
        ++tail_[id];
        const Meta &m = meta_[id];
        rotators_[m.owner]->markChannel(id);
        m.wake.wakeOnPush();
        return staged;
    }

    /** Peek the oldest visible flit. */
    const Flit &
    front(ChannelId id) const
    {
        LOCSIM_ASSERT(!empty(id), "front() on empty link");
        return buf_[slot(id, headOf(id))];
    }

    /**
     * Batch-drain view: snapshot the head cursor, read the visible
     * flits with at(), then retire them all with one consume() — one
     * cursor load and one store per port-drain instead of per flit.
     */
    std::uint32_t headCursor(ChannelId id) const { return headOf(id); }

    const Flit &
    at(ChannelId id, std::uint32_t index) const
    {
        return buf_[slot(id, index)];
    }

    /** Retire @p count flits starting at the current head cursor. */
    void
    consume(ChannelId id, std::uint32_t count)
    {
        const std::uint32_t head = headOf(id);
        LOCSIM_ASSERT(mid_[id] - head >= count,
                      "consume() past the visible region");
        std::atomic_ref<std::uint32_t>(head_[id]).store(
            head + count, std::memory_order_relaxed);
    }

    /** Dequeue the oldest visible flit. */
    Flit
    pop(ChannelId id)
    {
        LOCSIM_ASSERT(!empty(id), "pop() on empty link");
        const std::uint32_t head = headOf(id);
        const Flit flit = buf_[slot(id, head)];
        std::atomic_ref<std::uint32_t>(head_[id]).store(
            head + 1, std::memory_order_relaxed);
        return flit;
    }

    /**
     * Publish every dirty channel of one 64-channel word (rotation
     * phase only). Publish-time wakes exist only for cross-shard
     * channels (remote_bits_), handled scalar; the cursor copy for
     * the whole word then runs as one lane-vector pass.
     */
    void
    publishWord(std::uint32_t word, std::uint64_t bits)
    {
        const ChannelId base = static_cast<ChannelId>(word) << 6;
        std::uint64_t remote = bits & remote_bits_[word];
        while (remote != 0) {
            const int b = std::countr_zero(remote);
            remote &= remote - 1;
            meta_[base + static_cast<ChannelId>(b)]
                .wake.wakeOnPublish();
        }
        kernels::flitPublishWord(mid_.data() + base,
                                 tail_.data() + base, bits, level_);
    }

    /**
     * Serialize one channel, byte-identical to the old FlitRing
     * stream: raw monotonic indices plus the occupied flits. The
     * cursors are stored as 32-bit in memory but widen back to the
     * stream's 64-bit fields (a link carries at most one flit per
     * cycle, so cursors stay far below 2^32 for any realistic run).
     */
    void
    saveChannel(util::Serializer &s, ChannelId id) const
    {
        const std::uint32_t head = headOf(id);
        s.put(static_cast<std::uint64_t>(head));
        s.put(static_cast<std::uint64_t>(mid_[id]));
        s.put(static_cast<std::uint64_t>(tail_[id]));
        for (std::uint32_t i = head; i != tail_[id]; ++i)
            saveFlit(s, buf_[slot(id, i)]);
    }

    void
    loadChannel(util::Deserializer &d, ChannelId id)
    {
        head_[id] = static_cast<std::uint32_t>(d.get<std::uint64_t>());
        mid_[id] = static_cast<std::uint32_t>(d.get<std::uint64_t>());
        tail_[id] = static_cast<std::uint32_t>(d.get<std::uint64_t>());
        // Checked before any flit is read: a corrupt image must throw
        // (so a cache drops and recomputes it), not overrun the ring.
        const std::uint32_t held = tail_[id] - head_[id];
        if (held > cap_) {
            throw std::runtime_error(
                "flit link checkpoint exceeds the ring capacity");
        }
        if (mid_[id] - head_[id] > held) {
            throw std::runtime_error(
                "flit link checkpoint cursors are out of order");
        }
        for (std::uint32_t i = head_[id]; i != tail_[id]; ++i)
            buf_[slot(id, i)] = loadFlit(d);
    }

    /** Resident bytes of control + slab storage (footprint). */
    std::size_t
    memoryBytes() const
    {
        return (head_.capacity() + mid_.capacity() +
                tail_.capacity()) *
                   sizeof(std::uint32_t) +
               meta_.capacity() * sizeof(Meta) +
               remote_bits_.capacity() * sizeof(std::uint64_t) +
               buf_.capacity() * sizeof(Flit);
    }

  private:
    /**
     * Cold per-channel metadata, split from the hot ring cursors so
     * the publish kernels stream pure uint32 arrays: the wake binding
     * (touched at push/publish, not copied by the kernels) and the
     * owning shard.
     */
    struct Meta
    {
        WakeBinding wake;
        std::uint16_t owner = 0;
    };

    std::size_t
    slot(ChannelId id, std::uint32_t index) const
    {
        return (static_cast<std::size_t>(id) << shift_) +
               static_cast<std::size_t>(index & mask_);
    }

    /**
     * head is written by the consumer shard while the producer-side
     * overflow assert reads it, so cross-shard accesses go through
     * std::atomic_ref (relaxed), mirroring the old atomic member.
     */
    std::uint32_t
    headOf(ChannelId id) const
    {
        return std::atomic_ref<const std::uint32_t>(head_[id]).load(
            std::memory_order_relaxed);
    }

    std::size_t cap_ = 0;
    std::uint32_t mask_ = 0;
    unsigned shift_ = 0;
    std::size_t channels_ = 0; //!< links the store was sized for
    std::size_t ids_ = 0;      //!< links added so far
    util::simd::Level level_;

    /**
     * Ring cursors, one hot uint32 per channel per array ([head, mid)
     * visible, [mid, tail) staged; monotonic, differences are wrap-
     * safe), padded to whole 64-channel words for the vector publish.
     * Pad slots are never read or written outside full-word kernel
     * loads.
     */
    std::vector<std::uint32_t> head_;
    std::vector<std::uint32_t> mid_;
    std::vector<std::uint32_t> tail_;
    std::vector<Meta> meta_;
    /** Channels whose wake binding is remote, per dirty word. */
    std::vector<std::uint64_t> remote_bits_;
    std::vector<Flit> buf_;

    std::vector<std::unique_ptr<LinkRotator>> rotators_;
};

inline void
LinkRotator::rotate()
{
    dirty_ = false;
    // First-touch order is the measured optimum for this drain.
    // Two alternatives were tried on the congested 16x16 fabric
    // (interleaved A/B, medians of 5): ascending-id order via
    // sorting touched_ read 6% slower (first-touch already
    // matches the cycle's write order, so the control words are
    // the cache's warmest lines and the sort is pure overhead),
    // and software-prefetching the next touched word's control
    // line read 5% slower (the lines are resident; the hint only
    // added a branch). The drain is not on the 16x16 critical
    // path — per-flit switch traversal is (docs/PERFORMANCE.md).
    for (const std::uint32_t word : touched_) {
        store_.publishWord(word,
                           std::exchange(dirty_words_[word], 0));
    }
    touched_.clear();
}

} // namespace net
} // namespace locsim

#endif // LOCSIM_NET_LINK_FABRIC_HH_
