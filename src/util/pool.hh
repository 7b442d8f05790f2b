/**
 * @file
 * A generation-checked object pool with freelist recycling.
 *
 * The steady-state simulation loop allocates and releases the same
 * kinds of short-lived transaction objects (message records, MSHRs,
 * home transients) millions of times per run. Heap-allocating them —
 * directly or through node-based containers — costs an allocator
 * round-trip per object and scatters them across the heap. The pool
 * replaces that with index-based handles into chunked storage:
 *
 *  - alloc() pops the freelist (O(1)); only a new occupancy *peak*
 *    grows storage, so after warmup the loop performs zero heap
 *    allocations.
 *  - Slots are recycled WITHOUT destroying the contained object: a
 *    recycled MSHR keeps its deferred-queue capacity, so per-object
 *    sub-allocations are also amortized away. Callers reset the
 *    fields they use.
 *  - Handles carry a generation counter that is bumped on free, so a
 *    stale handle (use-after-free) is caught by an assert instead of
 *    silently reading a recycled object.
 *  - Storage is chunked (fixed power-of-two chunks that never
 *    relocate on growth), so references obtained from get() stay
 *    valid across alloc() — containers indexing the pool may rehash
 *    freely — and slot lookup is two shifts and two loads.
 *
 * Handles are transient runtime names and are never serialized; LSCK
 * checkpoints store pooled objects by value in a deterministic key
 * order and re-allocate them on restore (see DESIGN.md).
 */

#ifndef LOCSIM_UTIL_POOL_HH_
#define LOCSIM_UTIL_POOL_HH_

#include <cstdint>
#include <memory>
#include <vector>

#include "util/logging.hh"

namespace locsim {
namespace util {

template <typename T, std::uint32_t ChunkShiftV = 9>
class Pool
{
  public:
    static constexpr std::uint32_t kNullIndex = 0xffffffffu;

    /** An index + generation pair naming one live pool slot. */
    struct Handle
    {
        std::uint32_t index = kNullIndex;
        std::uint32_t gen = 0;

        bool isNull() const { return index == kNullIndex; }
        bool operator==(const Handle &other) const
        {
            return index == other.index && gen == other.gen;
        }
    };

    /**
     * Acquire a slot. The contained object is in whatever state its
     * previous user left it (recycle-without-destroy); the caller
     * resets the fields it relies on.
     */
    Handle
    alloc()
    {
        std::uint32_t index;
        if (free_head_ != kNullIndex) {
            index = free_head_;
            free_head_ = slot(index).next_free;
        } else {
            index = size_;
            LOCSIM_ASSERT(index != kNullIndex, "pool index overflow");
            if ((index & kChunkMask) == 0)
                chunks_.push_back(
                    std::make_unique<Slot[]>(kChunkSize));
            ++size_;
        }
        Slot &slot = this->slot(index);
        slot.live = true;
        ++live_;
        return Handle{index, slot.gen};
    }

    /** Release a slot; bumps its generation so stale handles assert. */
    void
    free(Handle h)
    {
        Slot &slot = checkedSlot(h);
        slot.live = false;
        ++slot.gen;
        slot.next_free = free_head_;
        free_head_ = h.index;
        --live_;
    }

    T &get(Handle h) { return checkedSlot(h).value; }
    const T &
    get(Handle h) const
    {
        return const_cast<Pool *>(this)->checkedSlot(h).value;
    }

    /** True if @p h names a currently live slot. */
    bool
    valid(Handle h) const
    {
        if (h.index >= size_)
            return false;
        const Slot &s = const_cast<Pool *>(this)->slot(h.index);
        return s.live && s.gen == h.gen;
    }

    std::size_t liveCount() const { return live_; }
    std::size_t capacity() const { return size_; }

    /** Resident bytes of chunk storage (footprint accounting). */
    std::size_t
    memoryBytes() const
    {
        return chunks_.size() * kChunkSize * sizeof(Slot) +
               chunks_.capacity() * sizeof(chunks_[0]);
    }

    /**
     * Call @p fn(value) for every slot ever allocated, live or free,
     * in index order: recycled slots keep whatever their objects own,
     * which footprint accounting must still count.
     */
    template <typename Fn>
    void
    forEachSlot(Fn &&fn) const
    {
        for (std::uint32_t i = 0; i < size_; ++i) {
            const Slot &s = const_cast<Pool *>(this)->slot(i);
            fn(s.value);
        }
    }

    /**
     * Release every slot and drop storage (load/reset paths only; all
     * outstanding handles become invalid).
     */
    void
    clear()
    {
        chunks_.clear();
        size_ = 0;
        free_head_ = kNullIndex;
        live_ = 0;
    }

  private:
    struct Slot
    {
        T value{};
        std::uint32_t gen = 0;
        std::uint32_t next_free = kNullIndex;
        bool live = false;
    };

    /** Default 512 slots per chunk: large enough that growth is rare,
     *  small enough that a new peak doesn't over-allocate. Pools with
     *  only a handful of live objects per owner (one per node) pass a
     *  smaller ChunkShiftV so large machines stay compact. */
    static constexpr std::uint32_t kChunkShift = ChunkShiftV;
    static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
    static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

    Slot &
    slot(std::uint32_t index)
    {
        return chunks_[index >> kChunkShift][index & kChunkMask];
    }

    Slot &
    checkedSlot(Handle h)
    {
        LOCSIM_ASSERT(h.index < size_, "pool handle range");
        Slot &slot = this->slot(h.index);
        LOCSIM_ASSERT(slot.live && slot.gen == h.gen,
                      "stale pool handle (generation mismatch)");
        return slot;
    }

    /** Chunked storage: chunks never relocate, so get() references
     *  survive pool growth. */
    std::vector<std::unique_ptr<Slot[]>> chunks_;
    std::uint32_t size_ = 0;
    std::uint32_t free_head_ = kNullIndex;
    std::size_t live_ = 0;
};

} // namespace util
} // namespace locsim

#endif // LOCSIM_UTIL_POOL_HH_
