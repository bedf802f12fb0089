#include "replica.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <sstream>

#include "chaos/manifest.hpp"
#include "chaos/oracle.hpp"
#include "chaos/snapshot.hpp"
#include "core/engine.hpp"
#include "core/network.hpp"
#include "obs/checkpoint.hpp"
#include "obs/metrics_registry.hpp"
#include "topology/registry.hpp"
#include "traffic/injector.hpp"
#include "workloads.hpp"

namespace tpbench {

using namespace tpnet;

namespace {

/**
 * Forwards every hook to @p down unchanged. The hooks the delivery
 * oracle implements are timed, and their time is charged to the hook
 * kind and to the innermost open span: per-flit hooks are aggregated
 * rather than given spans of their own. The others reach only
 * TraceSink's empty defaults and are forwarded untimed.
 */
class TimedForwarder : public TraceSink
{
  public:
    TimedForwarder(TraceSink &down, Tracer &tr) : down_(down), tr_(tr) {}

    void
    flitCrossed(Cycle now, const Link &link, int vc, const Flit &flit,
                bool control_lane) override
    {
        down_.flitCrossed(now, link, vc, flit, control_lane);
    }

    void
    flitInjected(Cycle now, NodeId node, const Flit &flit) override
    {
        down_.flitInjected(now, node, flit);
    }

    void
    flitDelivered(Cycle now, NodeId node, const Flit &flit) override
    {
        const std::int64_t t0 = nowNs();
        down_.flitDelivered(now, node, flit);
        charge(Hook::FlitDelivered, t0);
    }

    void
    vcAllocated(Cycle now, const Link &link, int vc, const Message &msg,
                int hop_idx) override
    {
        down_.vcAllocated(now, link, vc, msg, hop_idx);
    }

    void
    vcReleased(Cycle now, const Link &link, int vc, const Message &msg,
               int hop_idx) override
    {
        down_.vcReleased(now, link, vc, msg, hop_idx);
    }

    void
    probeEvent(Cycle now, const Message &msg, ProbeEvent event) override
    {
        down_.probeEvent(now, msg, event);
    }

    void
    messageCreated(Cycle now, const Message &msg) override
    {
        const std::int64_t t0 = nowNs();
        down_.messageCreated(now, msg);
        charge(Hook::MessageCreated, t0);
    }

    void
    messageTerminal(Cycle now, const Message &msg,
                    MsgOutcome outcome) override
    {
        const std::int64_t t0 = nowNs();
        down_.messageTerminal(now, msg, outcome);
        charge(Hook::MessageTerminal, t0);
    }

  private:
    void
    charge(Hook h, std::int64_t t0)
    {
        const std::int64_t dt = nowNs() - t0;
        const auto i = static_cast<std::size_t>(h);
        ++tr_.counts.hookCalls[i];
        tr_.counts.hookNs[i] += dt;
        tr_.spans.addHookTime(dt);
    }

    TraceSink &down_;
    Tracer &tr_;
};

void
markNow(Tracer &tr)
{
    if (tr.marks)
        tr.marks->push_back(nowNs());
}

/** Build the topology once on its own, then the Network (timed apart). */
std::unique_ptr<Network>
buildNetwork(const SimConfig &cfg, Tracer &tr)
{
    {
        Scope s(tr.spans, Layer::MakeTopology);
        std::unique_ptr<const Topology> topo = makeTopology(cfg);
    }
    Scope s(tr.spans, Layer::NetworkCtor);
    return std::make_unique<Network>(cfg);
}

} // namespace

RunResult
tracedRun(const SimConfig &base, std::uint64_t replication, Tracer &tr)
{
    auto mark = [&] { markNow(tr); };
    mark();
    Scope job(tr.spans, Layer::Job);
    const SimConfig cfg = replicationConfig(base, replication);

    std::unique_ptr<Network> netp = buildNetwork(cfg, tr);
    Network &net = *netp;
    Injector inj(net);
    obs::MetricsRegistry registry(net, cfg.metricsPeriod);

    const double horizon = static_cast<double>(cfg.warmup + cfg.measure);
    if (cfg.dynamicNodeFaults > 0.0) {
        net.setDynamicFaultProcess(cfg.dynamicNodeFaults / horizon,
                                   static_cast<int>(std::lround(
                                       cfg.dynamicNodeFaults)));
    }
    if (cfg.dynamicLinkFaults > 0.0) {
        net.setDynamicLinkFaultProcess(
            cfg.dynamicLinkFaults / horizon,
            static_cast<int>(std::lround(cfg.dynamicLinkFaults)));
    }
    if (cfg.intermittentFaults > 0.0) {
        net.setIntermittentLinkFaultProcess(
            cfg.intermittentFaults / horizon,
            static_cast<int>(std::lround(cfg.intermittentFaults)),
            static_cast<Cycle>(cfg.intermittentDownCycles));
    }

    auto skipIdle = [&](Cycle phaseEnd, bool sampling) {
        if (!inj.inert() || !net.eventEngine() || !net.idle())
            return;
        const Cycle target = std::min(phaseEnd, net.nextInternalEvent());
        if (target <= net.now())
            return;
        const Cycle skipped = target - net.now();
        {
            Scope s(tr.spans, Layer::NetworkSkipTo);
            net.skipTo(target);
        }
        tr.counts.cyclesSkipped += skipped;
        if (sampling) {
            Scope s(tr.spans, Layer::MetricsSkipIdle);
            registry.skipIdle(net, skipped);
        }
    };
    auto injectStep = [&] {
        Scope s(tr.spans, Layer::InjectorStep);
        inj.step();
    };
    auto netStep = [&] {
        {
            Scope s(tr.spans, Layer::NetworkStep);
            net.step();
        }
        ++tr.counts.cyclesStepped;
        tr.counts.liveMsgSum += net.activeMessages();
    };

    if (tr.perturb)
        injectStep();

    for (const Cycle end = cfg.warmup; net.now() < end;) {
        injectStep();
        netStep();
        skipIdle(end, false);
        mark();
    }

    net.setMeasuring(true);
    for (const Cycle end = cfg.warmup + cfg.measure; net.now() < end;) {
        injectStep();
        netStep();
        {
            Scope s(tr.spans, Layer::MetricsTick);
            registry.tick(net);
        }
        skipIdle(end, true);
        mark();
    }
    net.setMeasuring(false);

    for (const Cycle end = cfg.warmup + cfg.measure + cfg.drain;
         net.now() < end;) {
        const Counters &k = net.counters();
        if (k.measuredDelivered + k.measuredDropped >=
                k.measuredGenerated &&
            k.e2ePending == 0) {
            break;
        }
        injectStep();
        netStep();
        skipIdle(end, false);
        mark();
    }

    RunResult result = deriveResult(net.counters(), cfg.load, cfg.nodes(),
                                    cfg.measure);
    result.vc = registry.summary();
    result.degenerate = cfg.trafficArmed() && inj.offered() == 0;

    tr.counts.cycles += net.now();
    tr.counts.offered += inj.offered();
    if (const verify::CwgTracker *cwg = net.cwg()) {
        tr.counts.cwgCycles += cwg->cyclesDetected();
        tr.counts.cwgBenign += cwg->benignCycles();
    }
    return result;
}

chaos::CampaignResult
tracedCampaign(const chaos::CampaignSpec &spec, Tracer &tr)
{
    using namespace tpnet::chaos;
    markNow(tr);
    Scope job(tr.spans, Layer::Job);
    const SimConfig cfg = campaignConfig(spec);

    CampaignResult result;
    result.seed = spec.seed;

    std::unique_ptr<Network> netp = buildNetwork(cfg, tr);
    Network &net = *netp;

    Rng faultRng = Rng(spec.seed ^ 0xC4A0C4A0C4A0C4A0ull).split();
    FaultSchedule schedule;
    if (!spec.scriptedFaults.empty()) {
        for (const FaultEvent &ev : spec.scriptedFaults)
            schedule.add(ev);
    } else {
        ScheduleSpec faults = spec.faults;
        if (faults.horizon > spec.injectCycles)
            faults.horizon = spec.injectCycles;
        schedule = FaultSchedule::randomized(faults, faultRng);
    }

    DeliveryOracle oracle(net);
    Watchdog watchdog(net, spec.watchdog);
    Injector injector(net);

    // Hooks are timed only while spans are recorded; otherwise the
    // oracle is attached directly, as runCampaign attaches it.
    TimedForwarder fwd(oracle, tr);
    TraceSink *sink = tr.spans.enabled() ? static_cast<TraceSink *>(&fwd)
                                         : &oracle;
    const bool ckArmed = spec.checkpointEvery > 0 ||
                         !spec.checkpointPath.empty();
    obs::DigestTee tee(sink);
    net.attachTrace(ckArmed ? static_cast<TraceSink *>(&tee) : sink);

    CampaignState st;
    st.net = &net;
    st.faultRng = &faultRng;
    st.schedule = &schedule;
    st.oracle = &oracle;
    st.watchdog = &watchdog;
    st.injector = &injector;

    const std::uint64_t specDigest =
        ckArmed ? campaignSpecDigest(spec) : 0;

    auto maybeCheckpoint = [&](std::uint8_t phase) {
        if (spec.checkpointEvery == 0 || spec.checkpointPath.empty())
            return;
        if (net.now() == 0 || net.now() % spec.checkpointEvery != 0)
            return;
        st.phase = phase;
        std::string err;
        bool ok = false;
        {
            Scope s(tr.spans, Layer::CheckpointWrite);
            ok = writeCampaignCheckpoint(spec.checkpointPath, specDigest,
                                         st, &err);
        }
        if (ok) {
            ++result.checkpointsWritten;
            tee.reset(net.now());
            std::error_code ec;
            const auto bytes =
                std::filesystem::file_size(spec.checkpointPath, ec);
            ++tr.counts.checkpoints;
            tr.counts.checkpointBytes += ec ? 0 : bytes;
        } else if (result.checkpointError.empty()) {
            result.checkpointError = err;
            result.violations.push_back(
                "checkpoint: write failed: " + err);
        }
    };

    enum : std::uint32_t {
        TokCheckpoint,
        TokFault,
        TokNet,
        TokWatchdog,
        TokPhaseEnd,
        TokCount,
    };
    WakeupQueue wake;
    auto skipAhead = [&](Cycle phaseEnd, bool draining) {
        if (!injector.inert() || !net.eventEngine() || !net.idle() ||
            watchdog.deadlocked()) {
            return;
        }
        if (draining && net.quiescent())
            return;
        const Cycle now = net.now();
        wake.reset(TokCount);
        wake.schedule(TokPhaseEnd, phaseEnd);
        wake.schedule(TokFault, schedule.nextEventAt());
        wake.schedule(TokNet, net.nextInternalEvent());
        const Cycle wd = watchdog.nextDeadline();
        if (wd != cycleNever)
            wake.schedule(TokWatchdog, wd > now + 1 ? wd - 1 : now);
        if (spec.checkpointEvery > 0 && !spec.checkpointPath.empty()) {
            wake.schedule(TokCheckpoint,
                          now % spec.checkpointEvery == 0
                              ? now
                              : (now / spec.checkpointEvery + 1) *
                                    spec.checkpointEvery);
        }
        const Cycle target = wake.nextAt();
        if (target == cycleNever || target <= now)
            return;
        {
            Scope s(tr.spans, Layer::NetworkSkipTo);
            net.skipTo(target);
        }
        tr.counts.cyclesSkipped += target - now;
        {
            Scope s(tr.spans, Layer::WatchdogSkipTo);
            watchdog.skipTo(target);
        }
    };
    auto iteration = [&](std::uint8_t phase) {
        maybeCheckpoint(phase);
        {
            Scope s(tr.spans, Layer::FaultApply);
            schedule.apply(net, faultRng);
        }
        {
            Scope s(tr.spans, Layer::InjectorStep);
            injector.step();
        }
        {
            Scope s(tr.spans, Layer::NetworkStep);
            net.step();
        }
        ++tr.counts.cyclesStepped;
        tr.counts.liveMsgSum += net.activeMessages();
        {
            Scope s(tr.spans, Layer::WatchdogObserve);
            watchdog.observe();
        }
    };

    if (tr.perturb) {
        Scope s(tr.spans, Layer::InjectorStep);
        injector.step();
    }

    {
        const Cycle injectEnd = spec.injectCycles;
        while (net.now() < injectEnd && !watchdog.deadlocked()) {
            iteration(0);
            skipAhead(injectEnd, false);
            markNow(tr);
        }
        injector.stop();
    }
    {
        const Cycle drainEnd = net.now() + spec.drainCycles;
        while (net.now() < drainEnd &&
               !(net.quiescent() && !injector.repliesPending()) &&
               !watchdog.deadlocked()) {
            iteration(1);
            skipAhead(drainEnd, true);
            markNow(tr);
        }
    }

    if (ckArmed) {
        result.tailDigest = tee.digest();
        result.tailDigestFrom = tee.tailFrom();
        st.phase = 2;
        result.stateDigest = campaignStateDigest(st);
    }

    result.quiescent = net.quiescent();
    result.cycles = net.now();
    result.faultsFired = schedule.fired();
    result.faultsSkipped = schedule.skipped();
    result.firedEvents = schedule.firedEvents();

    {
        Scope s(tr.spans, Layer::FinalCheck);
        watchdog.finalCheck();
        oracle.finalCheck();
    }

    result.violations = watchdog.violations();
    for (const std::string &v : oracle.violations())
        result.violations.push_back(v);
    if (const verify::CwgTracker *cwg = net.cwg()) {
        result.cwgCycles = cwg->cyclesDetected();
        result.cwgBenign = cwg->benignCycles();
        result.cwgViolations = cwg->violations().size();
        result.cwgWarnings = cwg->warnings().size();
        for (const verify::CwgCycle &c : cwg->violations()) {
            std::ostringstream os;
            os << "cwg: cycle " << c.at << ": " << c.diagnosis;
            result.violations.push_back(os.str());
        }
        for (const verify::CwgCycle &c : cwg->warnings()) {
            std::ostringstream os;
            os << "cwg: cycle " << c.at << ": " << c.diagnosis;
            result.warnings.push_back(os.str());
        }
        tr.counts.cwgCycles += result.cwgCycles;
        tr.counts.cwgBenign += result.cwgBenign;
    }
    if (!result.quiescent && !watchdog.deadlocked()) {
        std::ostringstream os;
        os << "drain budget (" << spec.drainCycles
           << " cycles) exhausted with " << net.activeMessages()
           << " messages still live";
        result.violations.push_back(os.str());
    }
    if (cfg.trafficArmed() && injector.offered() == 0) {
        result.degenerate = true;
        result.violations.push_back(
            "traffic: degenerate workload: 0 messages offered over " +
            std::to_string(net.now()) + " cycles with traffic armed");
    }

    for (const Network::HealRecord &h : net.healLog())
        result.healEvents.push_back(
            {h.at, h.knotHash, h.victim, h.attempt});

    net.attachTrace(nullptr);
    result.messages = net.counters().generated;
    result.counters = net.counters();
    result.passed = result.violations.empty();
    tr.counts.cycles += net.now();
    tr.counts.offered += injector.offered();
    return result;
}

} // namespace tpbench
