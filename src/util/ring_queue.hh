/**
 * @file
 * A growable power-of-two ring buffer with deque semantics.
 *
 * std::deque allocates a block map at construction and churns blocks
 * as elements flow through it in steady state (each block-boundary
 * crossing frees one block and allocates another), which makes every
 * queue in the simulation hot loop a per-cycle allocation source.
 * RingQueue keeps one contiguous power-of-two buffer with monotonic
 * masked indices: elements flowing through an already-warm queue
 * never touch the allocator, and clear() retains capacity.
 *
 * Supports push/pop at both ends (the coherence controller requeues
 * deferred work at the FRONT of its queues) and indexed access from
 * the front for in-order serialization.
 */

#ifndef LOCSIM_UTIL_RING_QUEUE_HH_
#define LOCSIM_UTIL_RING_QUEUE_HH_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace locsim {
namespace util {

template <typename T>
class RingQueue
{
  public:
    RingQueue() = default;

    /** Pre-size the ring (rounded up to a power of two). */
    explicit RingQueue(std::size_t initial_capacity)
    {
        grow(initial_capacity);
    }

    bool empty() const { return head_ == tail_; }
    std::size_t size() const
    {
        return static_cast<std::size_t>(tail_ - head_);
    }
    std::size_t capacity() const { return buf_.size(); }

    void
    push_back(T value)
    {
        if (size() == buf_.size())
            grow(buf_.size() + 1);
        buf_[static_cast<std::size_t>(tail_) & mask_] =
            std::move(value);
        ++tail_;
    }

    void
    push_front(T value)
    {
        if (size() == buf_.size())
            grow(buf_.size() + 1);
        --head_;
        buf_[static_cast<std::size_t>(head_) & mask_] =
            std::move(value);
    }

    T &
    front()
    {
        LOCSIM_ASSERT(!empty(), "front() on empty ring queue");
        return buf_[static_cast<std::size_t>(head_) & mask_];
    }
    const T &
    front() const
    {
        LOCSIM_ASSERT(!empty(), "front() on empty ring queue");
        return buf_[static_cast<std::size_t>(head_) & mask_];
    }

    T &
    back()
    {
        LOCSIM_ASSERT(!empty(), "back() on empty ring queue");
        return buf_[static_cast<std::size_t>(tail_ - 1) & mask_];
    }
    const T &
    back() const
    {
        LOCSIM_ASSERT(!empty(), "back() on empty ring queue");
        return buf_[static_cast<std::size_t>(tail_ - 1) & mask_];
    }

    /** Element @p i positions behind the front (0 == front()). */
    T &
    operator[](std::size_t i)
    {
        LOCSIM_ASSERT(i < size(), "ring queue index range");
        return buf_[static_cast<std::size_t>(head_ + i) & mask_];
    }
    const T &
    operator[](std::size_t i) const
    {
        LOCSIM_ASSERT(i < size(), "ring queue index range");
        return buf_[static_cast<std::size_t>(head_ + i) & mask_];
    }

    void
    pop_front()
    {
        LOCSIM_ASSERT(!empty(), "pop_front() on empty ring queue");
        release(static_cast<std::size_t>(head_) & mask_);
        ++head_;
    }

    void
    pop_back()
    {
        LOCSIM_ASSERT(!empty(), "pop_back() on empty ring queue");
        --tail_;
        release(static_cast<std::size_t>(tail_) & mask_);
    }

    /** Drop all contents; capacity is retained. */
    void
    clear()
    {
        if constexpr (!std::is_trivially_destructible_v<T>) {
            while (!empty())
                pop_front();
        }
        head_ = tail_ = 0;
    }

    /** Resident bytes of ring storage (footprint accounting). */
    std::size_t memoryBytes() const { return buf_.capacity() * sizeof(T); }

    /** Grow capacity to at least @p min_capacity (never shrinks). */
    void
    reserve(std::size_t min_capacity)
    {
        if (min_capacity > buf_.size())
            grow(min_capacity);
    }

  private:
    /**
     * Reset a vacated slot so a popped value does not pin resources
     * (e.g. a moved-from std::function's allocation). A trivially
     * destructible value owns nothing, so its slot is left as is.
     */
    void
    release(std::size_t slot)
    {
        if constexpr (!std::is_trivially_destructible_v<T>)
            buf_[slot] = T{};
    }

    void
    grow(std::size_t min_capacity)
    {
        std::size_t cap = buf_.empty() ? 8 : buf_.size();
        while (cap < min_capacity)
            cap <<= 1;
        std::vector<T> fresh(cap);
        const std::size_t count = size();
        for (std::size_t i = 0; i < count; ++i)
            fresh[i] = std::move((*this)[i]);
        buf_ = std::move(fresh);
        mask_ = cap - 1;
        head_ = 0;
        tail_ = count;
    }

    std::vector<T> buf_;
    std::size_t mask_ = 0;
    /** Monotonic indices, masked on access: contents are [head_, tail_). */
    std::uint64_t head_ = 0;
    std::uint64_t tail_ = 0;
};

} // namespace util
} // namespace locsim

#endif // LOCSIM_UTIL_RING_QUEUE_HH_
