#include "chaos/oracle.hpp"

#include <algorithm>
#include <sstream>

#include "core/network.hpp"

namespace tpnet {
namespace chaos {

DeliveryOracle::DeliveryOracle(Network &net)
    : net_(net)
{}

// The text is built only here, on the report path: the per-event
// hooks that report nothing stream nothing.
template <class... Parts>
void
DeliveryOracle::report(Cycle now, const Parts &...parts)
{
    std::ostringstream os;
    os << "cycle " << now << ": oracle: ";
    (os << ... << parts);
    violations_.push_back(os.str());
}

void
DeliveryOracle::messageCreated(Cycle now, const Message &msg)
{
    auto [it, inserted] = records_.try_emplace(msg.id);
    if (!inserted) {
        report(now, "msg ", msg.id, " created twice");
        return;
    }
    it->second.src = msg.src;
    it->second.dst = msg.dst;
    it->second.createdAt = now;
    ++createdCount_;
}

void
DeliveryOracle::flitDelivered(Cycle now, NodeId node, const Flit &flit)
{
    (void)node;
    if (flit.type != FlitType::Tail)
        return;
    auto it = records_.find(flit.msg);
    if (it == records_.end()) {
        report(now, "tail of unknown msg ", flit.msg, " delivered");
        return;
    }
    Record &rec = it->second;
    ++rec.tails;
    if (rec.tails > 1) {
        report(now, "duplicate delivery: tail of msg ", flit.msg,
               " ejected ", rec.tails, " times");
    }
    if (rec.terminated) {
        report(now, "tail of msg ", flit.msg,
               " delivered after the message terminated (",
               msgOutcomeName(rec.outcome), ")");
    }
}

void
DeliveryOracle::messageTerminal(Cycle now, const Message &msg,
                                MsgOutcome outcome)
{
    auto it = records_.find(msg.id);
    if (it == records_.end()) {
        report(now, "unknown msg ", msg.id, " terminated");
        return;
    }
    Record &rec = it->second;
    if (rec.terminated) {
        report(now, "msg ", msg.id, " terminated twice (",
               msgOutcomeName(rec.outcome), " then ",
               msgOutcomeName(outcome), ")");
        return;
    }
    rec.terminated = true;
    rec.outcome = outcome;

    const SimConfig &cfg = net_.config();
    switch (outcome) {
      case MsgOutcome::Delivered:
        ++deliveredCount_;
        if (rec.tails != 1) {
            report(now, "msg ", msg.id, " completed with ", rec.tails,
                   " tail deliveries (want exactly 1)");
        }
        if (msg.arrivedFlits != msg.length ||
            msg.injectedFlits != msg.length) {
            report(now, "msg ", msg.id, " completed with ",
                   msg.arrivedFlits, "/", msg.length,
                   " flits delivered (", msg.injectedFlits,
                   " injected)");
        }
        break;

      case MsgOutcome::Undeliverable:
        ++undeliverableCount_;
        if (rec.tails != 0) {
            report(now, "msg ", msg.id,
                   " declared undeliverable after its tail was "
                   "delivered");
        }
        if (msg.retries < cfg.maxRetries &&
            !net_.nodeFaulty(rec.src) && !net_.nodeFaulty(rec.dst)) {
            report(now, "msg ", msg.id, " declared undeliverable after ",
                   msg.retries, " retries (max ", cfg.maxRetries,
                   ") with both endpoints healthy");
        }
        break;

      case MsgOutcome::Lost:
        ++lostCount_;
        if (cfg.tailAck) {
            report(now, "msg ", msg.id,
                   " lost to a fault despite tail acknowledgments "
                   "(retransmission) being enabled");
        }
        if (rec.tails != 0) {
            report(now, "msg ", msg.id,
                   " counted lost after its tail was delivered");
        }
        break;
    }
}

void
DeliveryOracle::finalCheck()
{
    const Cycle now = net_.now();
    // Report in id order, not map order: a checkpoint-restored run
    // rebuilds the table in a different bucket layout, and the report
    // text must not depend on that.
    std::vector<MsgId> ids;
    ids.reserve(records_.size());
    for (const auto &[id, rec] : records_)
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    std::size_t unterminated = 0;
    for (const MsgId id : ids) {
        const Record &rec = records_.at(id);
        if (rec.terminated)
            continue;
        ++unterminated;
        if (unterminated <= 16) {
            report(now, "msg ", id, " (", rec.src, "->", rec.dst,
                   ", created at cycle ", rec.createdAt,
                   ") never terminated");
        }
    }
    if (unterminated > 16)
        report(now, unterminated - 16, " further unterminated messages");

    // The oracle's books must agree with the simulator's counters —
    // a divergence means an event fired without its counterpart.
    const Counters &c = net_.counters();
    auto crossCheck = [this, now](const char *what, std::uint64_t mine,
                                  std::uint64_t theirs) {
        if (mine == theirs)
            return;
        report(now, what, " mismatch: oracle saw ", mine,
               ", counters say ", theirs);
    };
    crossCheck("generated", createdCount_, c.generated);
    crossCheck("delivered", deliveredCount_, c.delivered);
    crossCheck("undeliverable", undeliverableCount_, c.dropped);
    crossCheck("lost", lostCount_, c.lost);
}

} // namespace chaos
} // namespace tpnet
