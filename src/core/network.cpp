#include "core/network.hpp"

#include <algorithm>

#include "sim/log.hpp"

namespace tpnet {

Network::Network(const SimConfig &cfg)
    : cfg_(cfg),
      topo_(makeTopology(cfg)),
      rng_(cfg.seed),
      proto_(makeProtocol(cfg)),
      victimRng_(cfg.seed ^ 0x5EED5EEDC4A0B0D5ull)
{
    cfg_.validate();

    links_.resize(static_cast<std::size_t>(topo_->links()));
    for (NodeId node = 0; node < topo_->nodes(); ++node) {
        for (int port = 0; port < topo_->radix(); ++port) {
            const LinkId id = topo_->linkId(node, port);
            const NodeId nbr = topo_->neighbor(node, port);
            Link &lk = links_[static_cast<std::size_t>(id)];
            lk.init(id, node, port, nbr, topo_->arrivalPort(node, port),
                    cfg_.vcsPerLink(), cfg_.bufDepth);
            if (!topo_->portPresent(node, port)) {
                // Structurally absent channels (mesh wraparound edges).
                lk.absent = true;
                lk.faulty = true;
            }
        }
    }

    routers_.resize(static_cast<std::size_t>(topo_->nodes()));
    for (NodeId node = 0; node < topo_->nodes(); ++node)
        routers_[static_cast<std::size_t>(node)].init(node, topo_->radix());

    injQ_.resize(static_cast<std::size_t>(topo_->nodes()));

    if (cfg_.verifyCwg || cfg_.recoveryMode)
        cwg_ = std::make_unique<verify::CwgTracker>(*this);
    if (cfg_.recoveryMode)
        cwg_->armRecovery();

    // Size the ready sets before faults are placed: failNode and
    // killAffectedCircuits deregister entities as they clear queues.
    rcuActive_.reset(routers_.size());
    ctrlActive_.reset(links_.size());
    dataActive_.reset(routers_.size());

    applyStaticFaults();
    rebuildActivity();
}

void
Network::rebuildActivity()
{
    rcuActive_.reset(routers_.size());
    ctrlActive_.reset(links_.size());
    dataActive_.reset(routers_.size());
    for (const Router &rt : routers_) {
        if (!rt.faulty && !rt.rcuQueue.empty())
            rcuActive_.add(static_cast<std::uint32_t>(rt.id));
    }
    for (const Link &lk : links_) {
        if (!lk.ctrlQ.empty() || !lk.ackQ.empty())
            ctrlActive_.add(static_cast<std::uint32_t>(lk.id));
    }
    const NodeId nodes = static_cast<NodeId>(routers_.size());
    for (NodeId node = 0; node < nodes; ++node) {
        if (!nodeFaulty(node) && !dataNodeIdle(node))
            dataActive_.add(static_cast<std::uint32_t>(node));
    }
    // The table visits ids ascending, so the index comes out sorted.
    liveIds_.clear();
    liveIds_.reserve(messages_.size());
    messages_.forEach(
        [this](const Message &msg) { liveIds_.push_back(msg.id); });
}

bool
Network::idle() const
{
    if (!cfg_.eventEngine)
        return false;
    if (!rcuActive_.empty() || !ctrlActive_.empty() ||
        !dataActive_.empty()) {
        return false;
    }
    if (!retired_.empty())
        return false;
    // Armed Bernoulli fault processes draw RNG every cycle; skipping
    // would desynchronize the stream.
    if (dynFaultBudget_ > 0 && dynFaultProb_ > 0.0)
        return false;
    if (dynLinkFaultBudget_ > 0 && dynLinkFaultProb_ > 0.0)
        return false;
    if (intermFaultBudget_ > 0 && intermFaultProb_ > 0.0)
        return false;
    // A due-but-blocked restore re-tries its (state-dependent)
    // re-validation every cycle; don't reason about when it unblocks.
    for (const PendingRestore &pr : pendingRestores_) {
        if (pr.at <= now_)
            return false;
    }
    if (cwg_ && !cwg_->idleForSkip())
        return false;
    return true;
}

Cycle
Network::nextInternalEvent() const
{
    Cycle next = cycleNever;
    for (MsgId id : retryList_) {
        const Message *msg = messages_.find(id);
        if (msg && msg->state == MsgState::WaitRetry && msg->retryAt < next)
            next = msg->retryAt;
    }
    for (const PendingRestore &pr : pendingRestores_)
        next = std::min(next, pr.at);
    // The watchdog panic is observable behavior: never skip past it.
    if (cfg_.watchdog != 0 && liveMessages_ > 0)
        next = std::min(next, lastActivity_ + cfg_.watchdog + 1);
    return next;
}

void
Network::skipTo(Cycle target)
{
    if (target <= now_)
        return;
    const Cycle skipped = target - now_;
    rrNode_ = (rrNode_ + static_cast<std::size_t>(
                             skipped % static_cast<Cycle>(routers_.size()))) %
              routers_.size();
    if (cwg_)
        cwg_->skipTo(target - 1);
    now_ = target;
}

Message &
Network::message(MsgId id)
{
    Message *m = findMessage(id);
    if (!m)
        tpnet_panic("message ", id, " not found");
    return *m;
}

bool
Network::offerMessage(NodeId src, NodeId dst)
{
    return offerMessage(src, dst, OfferSpec{});
}

ClassStat *
Network::classStat(int cls)
{
    if (counters_.classes.empty())
        return nullptr;
    if (cls < 0 || cls >= static_cast<int>(counters_.classes.size()))
        tpnet_panic("traffic class ", cls, " out of range");
    return &counters_.classes[static_cast<std::size_t>(cls)];
}

bool
Network::offerMessage(NodeId src, NodeId dst, const OfferSpec &spec)
{
    if (nodeFaulty(src) || nodeFaulty(dst))
        tpnet_panic("traffic offered at/to a failed node");
    auto &queue = injQ_[static_cast<std::size_t>(src)];
    if (queue.size() >= static_cast<std::size_t>(cfg_.injQueueLimit)) {
        ++counters_.notAccepted;
        return false;
    }

    const MsgId id = nextMsgId_++;
    Message &msg = messages_.insert(id);
    msg.src = src;
    msg.dst = dst;
    msg.length = spec.length > 0 ? spec.length : cfg_.msgLength;
    msg.created = now_;
    msg.measured = measuring_;
    msg.cls = spec.cls;
    msg.isReply = spec.isReply;
    msg.reqId = spec.reqId;
    msg.reqCreated = spec.reqCreated;
    msg.e2eMeasured = spec.e2eMeasured;
    msg.hdr.cur = src;
    msg.hdr.offset = topo_->offsets(src, dst);
    msg.hdr.flow = proto_->initialFlow();
    if (msg.hdr.flow == FlowMode::PcsSetup)
        msg.srcHold = true;
    else if (msg.hdr.flow == FlowMode::Scout)
        msg.srcK = cfg_.scoutK;  // the injection channel's K register
    liveIds_.push_back(id);  // ids are monotonic: stays sorted
    queue.push_back(id);
    ++liveMessages_;
    ++counters_.generated;
    if (measuring_)
        ++counters_.measuredGenerated;
    if (ClassStat *cs = classStat(spec.cls)) {
        ++cs->generated;
        if (measuring_)
            ++cs->measuredGenerated;
    }
    if (trace_)
        trace_->messageCreated(now_, msg);

    if (queue.front() == id)
        activateFront(src);
    return true;
}

void
Network::activateFront(NodeId node)
{
    auto &queue = injQ_[static_cast<std::size_t>(node)];
    if (queue.empty())
        return;
    Message *msg = findMessage(queue.front());
    if (!msg)
        tpnet_panic("stale message at injection queue front");
    if (msg->state != MsgState::Queued)
        return;  // WaitRetry front wakes by itself; Active already going
    msg->state = MsgState::Active;
    dataWake(node);
    if (!msg->inRcu) {
        enqueueRcu(node, {msg->id, msg->epoch});
        msg->inRcu = true;
    }
}

void
Network::step()
{
    wakeRetries();
    phaseRcu();
    phaseControl();
    phaseData();
    stepDynamicFaults();
    stepRestores();
    retireMessages();
    if (cwg_) {
        cwg_->onCycleEnd(now_);
        // Recovery mode: heal the knots the tracker just confirmed
        // before the strict check below, so a heal-budget escalation
        // surfaces as a violation this same cycle.
        if (cfg_.recoveryMode)
            stepHeals();
        // In strict/CLI mode a violation (escape cycle or knot) is
        // fatal, like the plain watchdog. Campaigns run with
        // watchdog == 0 and collect the diagnoses instead. Persistent
        // warnings are never fatal.
        if (cfg_.watchdog != 0 && !cwg_->violations().empty()) {
            tpnet_panic("CWG deadlock violation at cycle ", now_, ": ",
                        cwg_->violations().front().diagnosis);
        }
    }
    checkWatchdog();
    ++now_;
}

void
Network::phaseRcu()
{
    const std::size_t nodes = routers_.size();
    if (!cfg_.eventEngine) {
        for (std::size_t i = 0; i < nodes; ++i) {
            Router &rt = routers_[(i + rrNode_) % nodes];
            if (!rt.faulty)
                rcuVisit(rt);
        }
        return;
    }
    // Event engine: visit only routers with queued RCU entries, in the
    // same rotation order the full scan uses. Routers activated
    // mid-pass at a rotation key ahead of the cursor (e.g. a teardown
    // completing synchronously re-queues its source) merge into this
    // pass exactly where the full scan would have reached them.
    rcuActive_.beginPass(rrNode_);
    for (std::uint32_t id; (id = rcuActive_.next()) != ActivitySet::kNone;) {
        Router &rt = routers_[id];
        if (rt.faulty) {
            rcuActive_.remove(id);
            continue;
        }
        rcuVisit(rt);
        if (rt.rcuQueue.empty())
            rcuActive_.remove(id);
    }
}

void
Network::rcuVisit(Router &rt)
{
    if (rt.rcuQueue.size() > rt.maxRcuDepth)
        rt.maxRcuDepth = rt.rcuQueue.size();
    // Serve one header per cycle; skip over stale entries of killed
    // or retired messages without consuming the service slot.
    while (!rt.rcuQueue.empty()) {
        const RcuEntry entry = rt.rcuQueue.front();
        rt.rcuQueue.pop_front();
        Message *msg = findMessage(entry.msg);
        if (!msg || entry.epoch != msg->epoch || msg->beingKilled ||
            msg->terminal() || msg->state == MsgState::WaitRetry) {
            if (msg && entry.epoch == msg->epoch)
                msg->inRcu = false;
            continue;
        }
        if (serveHeader(*msg)) {
            ++rt.headersRouted;
        } else if (msg->inRcu) {
            // Blocked: rotate to the back, re-try next cycle.
            rt.rcuQueue.push_back(entry);
        }
        break;
    }
}

void
Network::phaseData()
{
    const std::size_t nodes = routers_.size();
    if (!cfg_.eventEngine) {
        for (std::size_t i = 0; i < nodes; ++i) {
            const NodeId node = static_cast<NodeId>((i + rrNode_) % nodes);
            if (!routers_[static_cast<std::size_t>(node)].faulty)
                dataVisit(node);
        }
    } else {
        // Visit only nodes with buffered data or an injectable queue
        // front, in rotation order; nodes woken mid-pass ahead of the
        // cursor (e.g. an inline probe ejecting maps a VC holding
        // already-ready flits at its destination) merge into the pass.
        dataActive_.beginPass(rrNode_);
        for (std::uint32_t id;
             (id = dataActive_.next()) != ActivitySet::kNone;) {
            const NodeId node = static_cast<NodeId>(id);
            if (routers_[id].faulty) {
                dataActive_.remove(id);
                continue;
            }
            dataVisit(node);
            if (dataNodeIdle(node))
                dataActive_.remove(id);
        }
    }
    rrNode_ = (rrNode_ + 1) % nodes;
}

void
Network::dataVisit(NodeId node)
{
    Router &rt = routers_[static_cast<std::size_t>(node)];

    // --- Ejection: one flit per node per cycle --------------------
    const std::size_t ejn = rt.ejectInputs.size();
    std::size_t pick = rt.ejectRR < ejn ? rt.ejectRR
        : rt.ejectRR == ejn || ejn == 0 ? 0 : rt.ejectRR % ejn;
    for (std::size_t e = 0; e < ejn; ++e) {
        VcState &vc = *rt.ejectInputs[pick].state;
        const std::size_t at = pick;
        if (++pick == ejn)
            pick = 0;
        if (vc.data.empty() || !vc.dataEnabled())
            continue;
        Flit &front = vc.data.front();
        if (front.readyAt > now_)
            continue;
        const Flit flit = vc.data.pop();
        rt.ejectRR = at + 1 == ejn ? 0 : at + 1;
        noteActivity();
        Message *msg = findMessage(flit.msg);
        if (msg && !msg->beingKilled)
            deliverFlit(*msg, flit);
        break;
    }

    // --- One data flit per output link ----------------------------
    // Only the injection-queue front can inject, and only through its
    // first hop's port: resolve both once, and again after a tail
    // injection pops the queue.
    Message *inj = nullptr;
    int injPort = -1;
    const auto resolveInjection = [&] {
        inj = injectableFront(node);
        injPort = -1;
        if (!inj)
            return;
        if (inj->path.empty())
            tpnet_panic("srcRouted message with empty path");
        const Link &first = link(inj->path[0].link);
        if (first.src == node)
            injPort = first.srcPort;
    };
    resolveInjection();

    const int radix = topo_->radix();
    for (int port = 0; port < radix; ++port) {
        Link &out = linkAt(node, port);
        if (out.faulty)
            continue;
        auto &cands = rt.mappedInputs[static_cast<std::size_t>(port)];
        const std::size_t cn = cands.size();
        bool moved = false;
        if (cn > 0) {
            std::size_t &rr = rt.outRR[static_cast<std::size_t>(port)];
            std::size_t c = rr < cn ? rr : rr == cn ? 0 : rr % cn;
            for (std::size_t n = 0; n < cn; ++n) {
                if (tryMoveData(cands[c], out)) {
                    rr = c + 1;
                    moved = true;
                    break;
                }
                if (++c == cn)
                    c = 0;
            }
        }
        if (!moved && port == injPort && tryInject(node, *inj) &&
            !inj->inQueue) {
            resolveInjection();
        }
    }
}

bool
Network::dataNodeIdle(NodeId node) const
{
    const Router &rt = routers_[static_cast<std::size_t>(node)];
    for (const InRef &in : rt.ejectInputs) {
        if (!in.state->data.empty())
            return false;
    }
    for (const auto &cands : rt.mappedInputs) {
        for (const InRef &in : cands) {
            if (!in.state->data.empty())
                return false;
        }
    }
    return injectableFront(node) == nullptr;
}

Message *
Network::injectableFront(NodeId node) const
{
    const auto &queue = injQ_[static_cast<std::size_t>(node)];
    if (queue.empty())
        return nullptr;
    Message *msg = messages_.find(queue.front());
    if (!msg || msg->state != MsgState::Active || !msg->srcRouted ||
        msg->beingKilled) {
        return nullptr;
    }
    return msg;
}

bool
Network::tryMoveData(InRef in, Link &out)
{
    VcState &vc = *in.state;
    if (vc.data.empty() || !vc.dataEnabled())
        return false;
    Flit &front = vc.data.front();
    if (front.readyAt > now_)
        return false;
    VcState &tvc = out.vcs[static_cast<std::size_t>(vc.outVc)];
    if (tvc.data.full())
        return false;
    if (tvc.owner != vc.owner) {
        // The downstream trio was released by a teardown walk that has
        // not yet reached (and purged) this hop: hold the data here.
        return false;
    }

    Flit flit = vc.data.pop();
    ++flit.hopIdx;
    flit.readyAt = now_ + 1;
    tvc.data.push(flit);
    dataWake(out.dst);
    ++out.dataCrossings;
    ++counters_.dataCrossings;
    noteActivity();
    if (trace_)
        trace_->flitCrossed(now_, out, vc.outVc, flit, false);

    Message *msg = findMessage(flit.msg);
    if (!msg)
        tpnet_panic("data flit of retired message in flight: msg=",
                    flit.msg, " type=", flitTypeName(flit.type),
                    " seq=", flit.seq, " hop=", flit.hopIdx,
                    " link=", in.link, " vc=", in.vc, " owner=", vc.owner);

    if (flit.type == FlitType::Header) {
        // Inline wormhole probe made a hop.
        probeArrived(*msg, flit.hopIdx);
    } else {
        if (flit.seq == 1)
            msg->leadHop = flit.hopIdx;
        if (flit.type == FlitType::Tail && !cfg_.tailAck)
            releaseHop(*msg, flit.hopIdx - 1, false);
    }
    return true;
}

bool
Network::tryInject(NodeId node, Message &msg)
{
    // Data moves earlier in this visit may have torn the front down.
    if (msg.state != MsgState::Active || !msg.srcRouted || msg.beingKilled)
        return false;
    Link &first = link(msg.path[0].link);
    if (first.faulty)
        return false;

    VcState &vc = first.vcs[static_cast<std::size_t>(msg.path[0].vc)];
    if (vc.owner != msg.id || vc.data.full())
        return false;

    const bool inline_hdr = proto_->inlineHeader();
    if (inline_hdr && !msg.headerInjected) {
        Flit flit;
        flit.type = FlitType::Header;
        flit.msg = msg.id;
        flit.seq = 0;
        flit.hopIdx = 0;
        flit.readyAt = now_ + 1;
        vc.data.push(flit);
        dataWake(first.dst);
        msg.headerInjected = true;
        ++counters_.dataCrossings;
        noteActivity();
        if (trace_) {
            trace_->flitInjected(now_, node, flit);
            trace_->flitCrossed(now_, first, msg.path[0].vc, flit, false);
        }
        // The inline probe just crossed the first reserved hop.
        probeArrived(msg, 0);
        return true;
    }

    // Source-side flow control gate (the injection channel's CMU).
    if (msg.srcHold || msg.srcCounter < msg.srcK)
        return false;
    if (msg.injectedFlits >= msg.length)
        return false;

    Flit flit;
    flit.msg = msg.id;
    flit.seq = msg.injectedFlits + 1;
    flit.type = flit.seq == msg.length ? FlitType::Tail : FlitType::Data;
    flit.hopIdx = 0;
    flit.readyAt = now_ + 1;
    vc.data.push(flit);
    dataWake(first.dst);
    ++msg.injectedFlits;
    if (flit.seq == 1)
        msg.leadHop = 0;
    ++counters_.dataCrossings;
    noteActivity();
    if (trace_) {
        trace_->flitInjected(now_, node, flit);
        trace_->flitCrossed(now_, first, msg.path[0].vc, flit, false);
    }

    if (msg.injectedFlits == msg.length) {
        // Tail has left the PE; the injection channel frees up.
        injQ_[static_cast<std::size_t>(node)].pop_front();
        msg.inQueue = false;
        activateFront(node);
    }
    return true;
}

void
Network::deliverFlit(Message &msg, const Flit &flit)
{
    if (trace_)
        trace_->flitDelivered(now_, msg.dst, flit);
    if (flit.type == FlitType::Header)
        return;  // inline probe consumed at the destination PE

    ++msg.arrivedFlits;
    ++counters_.dataFlitsDelivered;
    if (measuring_)
        ++counters_.windowDataFlits;
    if (ClassStat *cs = classStat(msg.cls)) {
        if (measuring_)
            ++cs->windowDataFlits;
    }
    if (flit.seq == 1)
        msg.leadHop = leadEjected;

    if (flit.type != FlitType::Tail)
        return;

    // Tail delivered: the message is complete end-to-end.
    msg.deliveredAt = now_;
    ++counters_.delivered;
    if (msg.measured) {
        ++counters_.measuredDelivered;
        const double lat = static_cast<double>(now_ - msg.created);
        counters_.latency.add(lat);
        counters_.latencyHist.add(lat);
    }
    if (ClassStat *cs = classStat(msg.cls)) {
        ++cs->delivered;
        if (msg.measured) {
            ++cs->measuredDelivered;
            cs->latency.add(static_cast<double>(now_ - msg.created));
        }
    }
    // Closed-loop end-to-end latency: request creation to reply tail.
    if (msg.isReply && msg.e2eMeasured)
        counters_.e2eLatency.add(static_cast<double>(now_ - msg.reqCreated));

    const int last = static_cast<int>(msg.path.size()) - 1;
    if (cfg_.tailAck) {
        // Hold the path; destination returns a message acknowledgment
        // over the complementary channels (Fig. 17, "with TAck").
        msg.state = MsgState::Delivered;
        releaseHop(msg, last, false);
        ++counters_.msgAcks;
        Flit ack;
        ack.type = FlitType::MsgAck;
        ack.msg = msg.id;
        ack.hopIdx = last - 1;
        ack.epoch = msg.epoch;
        ack.readyAt = now_ + 1;
        relayUpstream(msg, ack);
    } else {
        releaseHop(msg, last, false);
        msg.state = MsgState::Complete;
        retired_.push_back(msg.id);
    }
}

void
Network::releaseHop(Message &msg, int idx, bool purge)
{
    if (idx < 0 || idx >= static_cast<int>(msg.path.size()))
        return;
    PathHop &hop = msg.path[static_cast<std::size_t>(idx)];
    Link &lk = link(hop.link);
    VcState &vc = lk.vcs[static_cast<std::size_t>(hop.vc)];
    if (vc.owner != msg.id)
        return;  // already released (idempotent under recovery races)

    if (purge) {
        while (!vc.data.empty())
            vc.data.pop();
    } else if (!vc.data.empty()) {
        tpnet_panic("releasing a VC with resident flits");
    }

    if (trace_)
        trace_->vcReleased(now_, lk, hop.vc, msg, idx);
    if (vc.routed)
        router(lk.dst).unmapInput(vc.outPort, InRef{hop.link, hop.vc});
    vc.release();
    if (cwg_)
        cwg_->onVcReleased(hop.link, hop.vc);
    if (idx >= msg.releasedHops)
        msg.releasedHops = idx + 1;
}

void
Network::retireMessages()
{
    for (MsgId id : retired_) {
        const Message *found = messages_.find(id);
        if (!found)
            continue;
        const Message &msg = *found;
        if (!msg.terminal())
            tpnet_panic("retiring non-terminal message");
        if (trace_) {
            const MsgOutcome outcome =
                msg.state == MsgState::Complete ? MsgOutcome::Delivered
                : msg.lostToFault              ? MsgOutcome::Lost
                                               : MsgOutcome::Undeliverable;
            trace_->messageTerminal(now_, msg, outcome);
        }
        if (cwg_)
            cwg_->onMessageGone(id);
        if (retire_)
            retire_->messageRetired(now_, msg);
        messages_.erase(id);
        const auto pos =
            std::lower_bound(liveIds_.begin(), liveIds_.end(), id);
        if (pos != liveIds_.end() && *pos == id)
            liveIds_.erase(pos);
        --liveMessages_;
    }
    retired_.clear();
}

void
Network::checkWatchdog()
{
    if (cfg_.watchdog == 0 || liveMessages_ == 0)
        return;
    if (now_ - lastActivity_ > cfg_.watchdog) {
        tpnet_panic("deadlock watchdog: no activity for ",
                    now_ - lastActivity_, " cycles with ", liveMessages_,
                    " live messages at cycle ", now_);
    }
}

std::size_t
Network::injQueueLen(NodeId node) const
{
    return injQ_[static_cast<std::size_t>(node)].size();
}

} // namespace tpnet
