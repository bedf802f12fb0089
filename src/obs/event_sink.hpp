/**
 * @file
 * The one hook -> trace record mapping.
 *
 * TraceEventSink<Derived> is a TraceSink that turns every hook into its
 * trace_format record, hands the record to Derived::onEvent(), and then
 * forwards the hook unchanged to an optional downstream sink.
 * TraceRecorder (stores the records) and DigestTee (folds them into a
 * tail digest) both derive from it, so the records a recorder writes
 * and the records a tee digests cannot drift apart. The template keeps
 * onEvent() a direct, inlinable call on the per-flit path.
 */

#ifndef TPNET_OBS_EVENT_SINK_HPP
#define TPNET_OBS_EVENT_SINK_HPP

#include <cstdint>

#include "core/message.hpp"
#include "obs/trace_format.hpp"
#include "router/link.hpp"
#include "sim/trace.hpp"

namespace tpnet::obs {

template <class Derived>
class TraceEventSink : public TraceSink
{
  public:
    explicit TraceEventSink(TraceSink *downstream = nullptr)
        : downstream_(downstream)
    {
    }

    void
    flitCrossed(Cycle now, const Link &link, int vc, const Flit &flit,
                bool control_lane) override
    {
        TraceEvent ev = flitEvent(TraceEventKind::FlitCrossed, now, flit);
        ev.vc = static_cast<std::int8_t>(vc);
        ev.link = static_cast<std::uint32_t>(link.id);
        ev.node = static_cast<std::uint32_t>(link.src);
        emit(ev);
        if (downstream_)
            downstream_->flitCrossed(now, link, vc, flit, control_lane);
    }

    void
    flitInjected(Cycle now, NodeId node, const Flit &flit) override
    {
        TraceEvent ev = flitEvent(TraceEventKind::FlitInjected, now, flit);
        ev.node = static_cast<std::uint32_t>(node);
        emit(ev);
        if (downstream_)
            downstream_->flitInjected(now, node, flit);
    }

    void
    flitDelivered(Cycle now, NodeId node, const Flit &flit) override
    {
        TraceEvent ev =
            flitEvent(TraceEventKind::FlitDelivered, now, flit);
        ev.node = static_cast<std::uint32_t>(node);
        emit(ev);
        if (downstream_)
            downstream_->flitDelivered(now, node, flit);
    }

    void
    vcAllocated(Cycle now, const Link &link, int vc, const Message &msg,
                int hop_idx) override
    {
        emit(vcEvent(TraceEventKind::VcAllocated, now, link, vc, msg,
                     hop_idx));
        if (downstream_)
            downstream_->vcAllocated(now, link, vc, msg, hop_idx);
    }

    void
    vcReleased(Cycle now, const Link &link, int vc, const Message &msg,
               int hop_idx) override
    {
        emit(vcEvent(TraceEventKind::VcReleased, now, link, vc, msg,
                     hop_idx));
        if (downstream_)
            downstream_->vcReleased(now, link, vc, msg, hop_idx);
    }

    void
    probeEvent(Cycle now, const Message &msg, ProbeEvent event) override
    {
        TraceEvent ev;
        ev.kind = TraceEventKind::Probe;
        ev.detail = static_cast<std::uint8_t>(event);
        ev.node = static_cast<std::uint32_t>(msg.hdr.cur);
        ev.cycle = now;
        ev.msg = msg.id;
        ev.hop = static_cast<std::int32_t>(msg.path.size()) - 1;
        ev.epoch = msg.epoch;
        emit(ev);
        if (downstream_)
            downstream_->probeEvent(now, msg, event);
    }

    void
    messageCreated(Cycle now, const Message &msg) override
    {
        TraceEvent ev;
        ev.kind = TraceEventKind::MsgCreated;
        ev.node = static_cast<std::uint32_t>(msg.src);
        ev.aux = static_cast<std::uint32_t>(msg.dst);
        ev.cycle = now;
        ev.msg = msg.id;
        ev.seq = msg.length;
        emit(ev);
        if (downstream_)
            downstream_->messageCreated(now, msg);
    }

    void
    messageTerminal(Cycle now, const Message &msg,
                    MsgOutcome outcome) override
    {
        TraceEvent ev;
        ev.kind = TraceEventKind::MsgTerminal;
        ev.detail = static_cast<std::uint8_t>(outcome);
        ev.node = static_cast<std::uint32_t>(msg.src);
        ev.aux = static_cast<std::uint32_t>(msg.dst);
        ev.cycle = now;
        ev.msg = msg.id;
        emit(ev);
        if (downstream_)
            downstream_->messageTerminal(now, msg, outcome);
    }

  private:
    void emit(const TraceEvent &ev)
    {
        static_cast<Derived *>(this)->onEvent(ev);
    }

    static TraceEvent
    flitEvent(TraceEventKind kind, Cycle now, const Flit &flit)
    {
        TraceEvent ev;
        ev.kind = kind;
        ev.flitType = static_cast<std::uint8_t>(flit.type);
        ev.cycle = now;
        ev.msg = flit.msg;
        ev.seq = flit.seq;
        ev.hop = flit.hopIdx;
        ev.epoch = flit.epoch;
        return ev;
    }

    static TraceEvent
    vcEvent(TraceEventKind kind, Cycle now, const Link &link, int vc,
            const Message &msg, int hop_idx)
    {
        TraceEvent ev;
        ev.kind = kind;
        ev.vc = static_cast<std::int8_t>(vc);
        ev.link = static_cast<std::uint32_t>(link.id);
        ev.node = static_cast<std::uint32_t>(link.dst);
        ev.cycle = now;
        ev.msg = msg.id;
        ev.hop = hop_idx;
        ev.epoch = msg.epoch;
        return ev;
    }

    TraceSink *downstream_ = nullptr;
};

} // namespace tpnet::obs

#endif // TPNET_OBS_EVENT_SINK_HPP
