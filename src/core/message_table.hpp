/**
 * @file
 * The network's live-message table: O(1) lookup by id without hashing.
 *
 * Message ids are issued monotonically, so the live ids always fall in
 * the window [oldest live id, newest id]. The table keeps one pointer
 * slot per id of that window (nullptr once retired) and trims the
 * window from the front as the oldest messages retire. Message records
 * live in a pool with stable addresses; a retired record goes on a free
 * list and is reused by the next insert with its path and history-store
 * capacity kept, so steady-state traffic allocates nothing per message.
 *
 * The table is an index, not an order: behaviour never iterates it
 * (Network::liveIds_ is the ordered view). forEach() exists for the
 * checkpoint writer and for rebuilding that view after a restore; it
 * runs in ascending id order.
 */

#ifndef TPNET_CORE_MESSAGE_TABLE_HPP
#define TPNET_CORE_MESSAGE_TABLE_HPP

#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "core/message.hpp"
#include "sim/log.hpp"

namespace tpnet {

class MessageTable
{
  public:
    MessageTable() = default;
    // Slots point into this table's own pool.
    MessageTable(const MessageTable &) = delete;
    MessageTable &operator=(const MessageTable &) = delete;

    /** @return the live message @p id, or nullptr (retired, never
     *  issued, or out of the window). */
    Message *
    find(MsgId id) const
    {
        const MsgId off = id - base_;
        if (off < 0 || off >= static_cast<MsgId>(win_.size() - head_))
            return nullptr;
        return win_[head_ + static_cast<std::size_t>(off)];
    }

    /**
     * Create the record for @p id, reset to a default Message with
     * msg.id set. @p id must not be live and must not precede the
     * window (ids are issued monotonically; a restore inserts them
     * ascending into an empty table).
     */
    Message &
    insert(MsgId id)
    {
        if (head_ == win_.size()) {
            win_.clear();
            head_ = 0;
            base_ = id;
        }
        if (id < base_)
            tpnet_panic("message ", id, " inserted behind the table window");
        const std::size_t off = static_cast<std::size_t>(id - base_);
        if (head_ + off >= win_.size())
            win_.resize(head_ + off + 1, nullptr);
        Message *&slot = win_[head_ + off];
        if (slot)
            tpnet_panic("message ", id, " inserted twice");
        slot = acquire();
        slot->id = id;
        ++live_;
        return *slot;
    }

    /** Retire @p id (no-op when not live); its record is recycled. */
    void
    erase(MsgId id)
    {
        Message *msg = find(id);
        if (!msg)
            return;
        win_[head_ + static_cast<std::size_t>(id - base_)] = nullptr;
        free_.push_back(msg);
        --live_;
        trim();
    }

    /** Retire every message. */
    void
    clear()
    {
        for (std::size_t i = head_; i < win_.size(); ++i) {
            if (win_[i])
                free_.push_back(win_[i]);
        }
        win_.clear();
        head_ = 0;
        live_ = 0;
    }

    /** Live messages. */
    std::size_t size() const { return live_; }

    /** Ids the window spans, oldest live id to newest (0 when empty). */
    std::size_t span() const { return win_.size() - head_; }

    /** Message records allocated so far (live + recycled). */
    std::size_t pooled() const { return store_.size(); }

    /** Visit every live message in ascending id order. */
    template <class F>
    void
    forEach(F &&f) const
    {
        for (std::size_t i = head_; i < win_.size(); ++i) {
            if (win_[i])
                f(*win_[i]);
        }
    }

  private:
    /** A default-state record, recycled when one is free. */
    Message *
    acquire()
    {
        if (free_.empty())
            return &store_.emplace_back();
        Message *msg = free_.back();
        free_.pop_back();
        // Keep the vectors' capacity across the reset.
        auto path = std::move(msg->path);
        auto visited = std::move(msg->visited);
        *msg = Message{};
        path.clear();
        visited.clear();
        msg->path = std::move(path);
        msg->visited = std::move(visited);
        return msg;
    }

    /** Drop retired slots from the window's front; compact the slot
     *  vector once the dead prefix outweighs the live span. */
    void
    trim()
    {
        while (head_ < win_.size() && !win_[head_]) {
            ++head_;
            ++base_;
        }
        if (head_ == win_.size()) {
            win_.clear();
            head_ = 0;
        } else if (head_ >= 64 && 2 * head_ >= win_.size()) {
            win_.erase(win_.begin(),
                       win_.begin() + static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
    }

    std::vector<Message *> win_;  ///< slot per id from base_, at head_
    std::size_t head_ = 0;
    MsgId base_ = 0;              ///< id of win_[head_]
    std::size_t live_ = 0;
    std::deque<Message> store_;   ///< stable-address record pool
    std::vector<Message *> free_;
};

} // namespace tpnet

#endif // TPNET_CORE_MESSAGE_TABLE_HPP
