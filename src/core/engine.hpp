/**
 * @file
 * Activity-scheduling primitives of the event-driven cycle engine.
 *
 * Two flat, allocation-light structures (the `reschedule`/`tick` shape
 * of stephen422/netsim, adapted to this simulator's rotating service
 * order):
 *
 *  - ActivitySet: the per-phase ready set. Entities (routers, wires)
 *    self-register when they gain work and deregister when a visit
 *    finds them drained; a phase visits only registered entities, in
 *    exactly the rotation order the time-stepped engine would have
 *    used. A pass is a cursor walking the set's 64-bit words from the
 *    rotation offset to the end and then from 0 back to it, so a
 *    mid-pass registration is visited iff it is still ahead of the
 *    cursor — precisely the entities the full scan would still have
 *    reached this cycle — and iteration is bit-identical to the full
 *    scan by construction.
 *
 *  - WakeupQueue: a stable min-heap of (cycle, token) wakeups used by
 *    the drivers (Simulator, chaos campaigns) to aggregate external
 *    wakeup sources — injector on/off boundaries, fault schedules,
 *    watchdog deadlines, checkpoint-every boundaries, metrics
 *    sampling — into a single next-event cycle for the skip fast
 *    path. Rescheduling an armed token keeps the earliest cycle;
 *    same-cycle pops are FIFO in schedule order.
 *
 * Waking an entity (or a cycle) that turns out to have nothing to do
 * is always safe: a visit of a drained entity mutates nothing, and a
 * stepped cycle is executed identically by both engines. Only a missed
 * wakeup can diverge, so every consumer errs on the early side.
 */

#ifndef TPNET_CORE_ENGINE_HPP
#define TPNET_CORE_ENGINE_HPP

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace tpnet {

/** Cycle value meaning "no event scheduled". */
constexpr Cycle cycleNever = ~Cycle{0};

/**
 * Ready set over a fixed universe [0, n) with rotation-ordered passes,
 * stored as one bit per entity.
 */
class ActivitySet
{
  public:
    static constexpr std::uint32_t kNone = 0xffffffffu;

    /** Reset to universe size @p n, all inactive. */
    void
    reset(std::size_t n)
    {
        n_ = static_cast<std::uint32_t>(n);
        words_.assign((n + 63) / 64, 0);
        count_ = 0;
        pos_ = end_ = rot_ = 0;
        wrapped_ = true;
    }

    std::size_t size() const { return n_; }
    std::size_t count() const { return count_; }
    bool empty() const { return count_ == 0; }

    bool
    active(std::uint32_t id) const
    {
        return (words_[id >> 6] >> (id & 63)) & 1;
    }

    /** Mark @p id active. */
    void
    add(std::uint32_t id)
    {
        std::uint64_t &w = words_[id >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (id & 63);
        if (w & bit)
            return;
        w |= bit;
        ++count_;
    }

    /** Mark @p id inactive. */
    void
    remove(std::uint32_t id)
    {
        std::uint64_t &w = words_[id >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (id & 63);
        if (!(w & bit))
            return;
        w &= ~bit;
        --count_;
    }

    /**
     * Start a pass in rotation order: ids rot..n-1, then 0..rot-1, the
     * order of a full scan starting at offset @p rot. The pass is a
     * cursor over the bits, so changes made during it follow the full
     * scan by construction: an add ahead of the cursor is visited this
     * pass, an add behind it waits for the next pass, a remove ahead of
     * it is skipped, and the entity being visited is never revisited.
     */
    void
    beginPass(std::size_t rot)
    {
        rot_ = n_ ? static_cast<std::uint32_t>(rot % n_) : 0;
        pos_ = rot_;
        end_ = n_;
        wrapped_ = false;
    }

    /**
     * Next active entity of the current pass in rotation order, or
     * kNone when the pass is exhausted.
     */
    std::uint32_t
    next()
    {
        for (;;) {
            while (pos_ < end_) {
                const std::uint32_t w = pos_ >> 6;
                const std::uint64_t bits =
                    words_[w] & (~std::uint64_t{0} << (pos_ & 63));
                if (bits) {
                    const std::uint32_t id = (w << 6) +
                        static_cast<std::uint32_t>(std::countr_zero(bits));
                    if (id >= end_)
                        break;
                    pos_ = id + 1;
                    return id;
                }
                pos_ = (w + 1) << 6;
            }
            pos_ = end_;
            if (wrapped_)
                return kNone;
            // First leg [rot, n) done: wrap to [0, rot).
            wrapped_ = true;
            pos_ = 0;
            end_ = rot_;
        }
    }

  private:
    std::vector<std::uint64_t> words_;  ///< bit id & 63 of word id >> 6
    std::size_t count_ = 0;             ///< live active count
    std::uint32_t n_ = 0;
    std::uint32_t rot_ = 0;
    std::uint32_t pos_ = 0;             ///< next id the pass examines
    std::uint32_t end_ = 0;             ///< end of the current leg
    bool wrapped_ = true;               ///< pass is on its [0, rot) leg
};

/**
 * Min-heap of (cycle, token) wakeups with earliest-wins coalescing.
 * Tokens are small dense integers chosen by the driver. Stale heap
 * entries left behind by reschedules are pruned lazily on access.
 */
class WakeupQueue
{
  public:
    /** Reset to @p tokens token slots, none armed. */
    void
    reset(std::size_t tokens)
    {
        at_.assign(tokens, cycleNever);
        heap_.clear();
        seq_ = 0;
    }

    /**
     * Arm @p token to fire at @p cycle. If already armed, the earlier
     * of the two cycles wins (an early wakeup is harmless; a late one
     * is a skip-past bug).
     */
    void
    schedule(std::uint32_t token, Cycle cycle)
    {
        if (cycle >= at_[token])
            return;
        at_[token] = cycle;
        heap_.push_back(Item{cycle, seq_++, token});
        std::push_heap(heap_.begin(), heap_.end(), later);
    }

    /** Disarm @p token. */
    void
    cancel(std::uint32_t token)
    {
        at_[token] = cycleNever;
    }

    Cycle
    scheduledAt(std::uint32_t token) const
    {
        return at_[token];
    }

    /** Cycle of the earliest armed wakeup, or cycleNever. */
    Cycle
    nextAt()
    {
        prune();
        return heap_.empty() ? cycleNever : heap_.front().at;
    }

    /**
     * Pop the earliest armed wakeup and return its token, or kNone
     * when nothing is armed. Same-cycle wakeups pop in the order their
     * winning schedule() calls were made.
     */
    static constexpr std::uint32_t kNone = 0xffffffffu;

    std::uint32_t
    pop()
    {
        prune();
        if (heap_.empty())
            return kNone;
        const std::uint32_t token = heap_.front().token;
        popTop();
        at_[token] = cycleNever;
        return token;
    }

    bool
    empty()
    {
        prune();
        return heap_.empty();
    }

  private:
    struct Item
    {
        Cycle at;
        std::uint64_t seq;
        std::uint32_t token;
    };

    static bool
    later(const Item &a, const Item &b)
    {
        // std::push_heap builds a max-heap; invert for earliest-first,
        // with the schedule sequence breaking same-cycle ties FIFO.
        return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }

    void
    popTop()
    {
        std::pop_heap(heap_.begin(), heap_.end(), later);
        heap_.pop_back();
    }

    void
    prune()
    {
        while (!heap_.empty() && heap_.front().at != at_[heap_.front().token])
            popTop();
    }

    std::vector<Cycle> at_;  ///< armed cycle per token (cycleNever = off)
    std::vector<Item> heap_;
    std::uint64_t seq_ = 0;
};

} // namespace tpnet

#endif // TPNET_CORE_ENGINE_HPP
