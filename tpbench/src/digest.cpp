#include "digest.hpp"

#include <cstdio>
#include <cstring>

#include "chaos/report.hpp"

namespace tpbench {

using namespace tpnet;

namespace {

class Fnv
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 1099511628211ull;
        }
    }

    void u64(std::uint64_t v) { bytes(&v, sizeof v); }

    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    void
    stat(const RunningStat &s)
    {
        u64(s.count());
        f64(s.mean());
        f64(s.variance());
        f64(s.min());
        f64(s.max());
    }

    void
    hist(const Histogram &h)
    {
        f64(h.binWidth());
        u64(h.bins());
        u64(h.total());
        for (std::size_t i = 0; i <= h.bins() && h.bins() > 0; ++i)
            u64(h.binCount(i));
    }

    void
    counters(const Counters &c)
    {
        for (std::uint64_t v :
             {c.generated, c.notAccepted, c.delivered, c.dropped, c.lost,
              c.retransmits, c.retriesScheduled, c.headerMoves,
              c.backtracks, c.misroutes, c.detoursBuilt, c.setupAborts,
              c.dataCrossings, c.ctrlCrossings, c.posAcks, c.negAcks,
              c.killFlits, c.msgAcks, c.dataFlitsDelivered,
              c.dynamicFaults, c.intermittentFaults, c.linksRestored,
              c.messagesKilled, c.headersSalvaged, c.knotsDetected,
              c.victimsAborted, c.healRetransmits, c.healEscalations,
              c.uniformFallbacks, c.repliesGenerated, c.repliesDelivered,
              c.repliesAbandoned, c.closedLoopPending, c.e2ePending,
              c.measuredGenerated, c.measuredDelivered, c.measuredDropped,
              c.windowDataFlits})
            u64(v);
        stat(c.healLatency);
        hist(c.healLatencyHist);
        stat(c.latency);
        hist(c.latencyHist);
        stat(c.e2eLatency);
        u64(c.classes.size());
        for (const ClassStat &cs : c.classes) {
            for (std::uint64_t v :
                 {cs.generated, cs.delivered, cs.dropped,
                  cs.measuredGenerated, cs.measuredDelivered,
                  cs.windowDataFlits})
                u64(v);
            stat(cs.latency);
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = kDigestBasis;
};

} // namespace

std::uint64_t
resultDigest(const RunResult &r)
{
    Fnv f;
    f.f64(r.offeredLoad);
    f.f64(r.throughput);
    f.f64(r.avgLatency);
    f.f64(r.p95Latency);
    f.f64(r.deliveredFraction);
    f.u64(r.undeliverable);
    f.u64(r.degenerate);
    f.counters(r.counters);
    const VcMetrics &vc = r.vc;
    f.stat(vc.occupancy);
    f.stat(vc.muxDegree);
    f.stat(vc.dataUtil);
    f.stat(vc.ctrlUtil);
    f.stat(vc.rcuDepth);
    f.hist(vc.occupancyHist);
    f.u64(vc.perVc.size());
    for (const RunningStat &s : vc.perVc)
        f.stat(s);
    f.u64(vc.samples);
    return f.value();
}

std::uint64_t
campaignDigest(const chaos::CampaignResult &r)
{
    Fnv f;
    f.str(chaos::campaignJson(r));
    f.counters(r.counters);
    f.u64(r.firedEvents.size());
    for (const chaos::FaultEvent &ev : r.firedEvents) {
        f.u64(ev.at);
        f.u64(static_cast<std::uint64_t>(ev.kind));
        f.u64(static_cast<std::uint64_t>(ev.node));
        f.u64(static_cast<std::uint64_t>(ev.port));
        f.u64(ev.downFor);
    }
    f.u64(r.tailDigest);
    f.u64(r.tailDigestFrom);
    f.u64(r.stateDigest);
    f.u64(r.checkpointsWritten);
    f.str(r.checkpointError);
    return f.value();
}

std::uint64_t
foldDigest(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace tpbench
