/**
 * @file
 * Bounded ring-buffer FIFO used for every flit buffer in the router model
 * (DIBU, CIBU, DOBU, COBU). Capacity is fixed at construction; pushing into
 * a full FIFO is a simulator bug (the flow control layers must check
 * freeSlots() first — that check is the credit mechanism).
 */

#ifndef TPNET_SIM_FIFO_HPP
#define TPNET_SIM_FIFO_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/log.hpp"
#include "sim/types.hpp"

namespace tpnet {

/**
 * Fixed-capacity FIFO of trivially copyable elements.
 *
 * Capacities up to defaultBufDepth live inside the object (no heap
 * buffer, so the head element sits next to the FIFO's own bookkeeping);
 * larger ones spill to a heap buffer. Indices wrap with a compare, never
 * a division.
 *
 * @tparam T element type (Flit in practice).
 */
template <typename T>
class Fifo
{
  public:
    Fifo() = default;

    explicit Fifo(std::size_t capacity) { reset(capacity); }

    /** Re-initialize with a new capacity, dropping all contents. */
    void
    reset(std::size_t capacity)
    {
        if (capacity > inlineCap)
            heap_.assign(capacity, T{});
        else
            heap_.clear();
        cap_ = static_cast<std::uint32_t>(capacity);
        head_ = 0;
        size_ = 0;
    }

    std::size_t capacity() const { return cap_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == cap_; }
    std::size_t freeSlots() const { return cap_ - size_; }

    /** Append an element; the FIFO must not be full. */
    void
    push(const T &v)
    {
        if (full())
            tpnet_panic("push into full FIFO (capacity ", cap_, ")");
        buf()[wrap(head_ + size_)] = v;
        ++size_;
    }

    /** @return the oldest element; the FIFO must not be empty. */
    T &
    front()
    {
        if (empty())
            tpnet_panic("front of empty FIFO");
        return buf()[head_];
    }

    const T &
    front() const
    {
        if (empty())
            tpnet_panic("front of empty FIFO");
        return buf()[head_];
    }

    /** Remove and return the oldest element. */
    T
    pop()
    {
        T v = front();
        head_ = wrap(head_ + 1);
        --size_;
        return v;
    }

    /** Drop every element. */
    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

    /** Element @p i positions behind the head (0 == front). */
    const T &
    at(std::size_t i) const
    {
        if (i >= size_)
            tpnet_panic("FIFO index ", i, " out of range ", size_);
        return buf()[wrap(head_ + static_cast<std::uint32_t>(i))];
    }

  private:
    /** Ring index @p i < 2 * cap_ folded into [0, cap_). */
    std::uint32_t
    wrap(std::uint32_t i) const
    {
        return i >= cap_ ? i - cap_ : i;
    }

    T *buf() { return cap_ <= inlineCap ? inline_ : heap_.data(); }

    const T *
    buf() const
    {
        return cap_ <= inlineCap ? inline_ : heap_.data();
    }

    static constexpr std::size_t inlineCap = defaultBufDepth;

    std::uint32_t head_ = 0;
    std::uint32_t size_ = 0;
    std::uint32_t cap_ = 0;
    T inline_[inlineCap] = {};
    std::vector<T> heap_;
};

} // namespace tpnet

#endif // TPNET_SIM_FIFO_HPP
