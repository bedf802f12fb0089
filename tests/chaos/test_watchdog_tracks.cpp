/**
 * @file
 * The watchdog's per-message progress tracks, driven by hand.
 *
 * Messages are offered on an idle network that never steps: the tests
 * advance only the clock (Network::skipTo) and set message fields
 * directly, so every stall, restart and report cycle is chosen here.
 * Covered: a message leaving and re-entering Active restarts its stall
 * clock; livelock and header-oscillation reports fire on the bound
 * cycle and once; a rebuilt-every-cycle reference model agrees with the
 * watchdog cycle by cycle under random state churn; and the tracks'
 * checkpoint bytes survive a save/restore unchanged.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/fault_schedule.hpp"
#include "chaos/oracle.hpp"
#include "chaos/snapshot.hpp"
#include "chaos/watchdog.hpp"
#include "core/network.hpp"
#include "helpers.hpp"
#include "obs/checkpoint.hpp"
#include "traffic/injector.hpp"

namespace tpnet {
namespace {

using namespace chaos;

constexpr Cycle bound = 100;

WatchdogConfig
trackConfig()
{
    WatchdogConfig w;
    w.globalStallBound = 0;  // per-message checks only
    w.msgStallBound = bound;
    w.validateEvery = 0;
    w.conserveEvery = 0;
    return w;
}

/** An idle network with @p n queued messages and a watchdog on it. */
struct Bench
{
    Network net;
    Rng faultRng{5};
    FaultSchedule schedule;
    DeliveryOracle oracle;
    Watchdog dog;
    Injector injector;

    explicit Bench(int n)
        : net(test::smallConfig(Protocol::TwoPhase, 4, 2)), oracle(net),
          dog(net, trackConfig()), injector(net)
    {
        for (int i = 0; i < n; ++i)
            EXPECT_TRUE(net.offerMessage(i, 15 - i));
    }

    const std::vector<MsgId> &ids() const
    {
        return net.liveMessageIds();
    }

    Message &msg(std::size_t i) { return *net.findMessage(ids()[i]); }

    /** One observe() per cycle through @p upto, the clock skipped. */
    void
    observeThrough(Cycle upto)
    {
        while (net.now() < upto) {
            net.skipTo(net.now() + 1);
            dog.observe();
        }
    }

    CampaignState
    state()
    {
        CampaignState st;
        st.net = &net;
        st.faultRng = &faultRng;
        st.schedule = &schedule;
        st.oracle = &oracle;
        st.watchdog = &dog;
        st.injector = &injector;
        return st;
    }
};

std::string
reportPrefix(Cycle at, MsgId id)
{
    std::ostringstream os;
    os << "cycle " << at << ": livelock: msg " << id << " ";
    return os.str();
}

TEST(WatchdogTracks, LeavingActiveRestartsTheStallClock)
{
    Bench b(3);
    ASSERT_EQ(b.ids().size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        b.msg(i).state = MsgState::Active;
    b.observeThrough(10);  // tracks start at the first observe, cycle 1

    // The middle message steps out of Active and its track is dropped;
    // back in Active at cycle 41 it starts a fresh stall clock.
    b.msg(1).state = MsgState::WaitRetry;
    b.observeThrough(40);
    b.msg(1).state = MsgState::Active;
    b.observeThrough(60);
    EXPECT_EQ(b.dog.nextDeadline(), 1 + bound);

    b.observeThrough(bound);
    EXPECT_TRUE(b.dog.violations().empty());
    b.observeThrough(1 + bound);
    const auto &v = b.dog.violations();
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v[0].rfind(reportPrefix(1 + bound, b.ids()[0]), 0), 0u)
        << v[0];
    EXPECT_EQ(v[1].rfind(reportPrefix(1 + bound, b.ids()[2]), 0), 0u)
        << v[1];

    // Flagged tracks no longer set deadlines; the restarted one does.
    EXPECT_EQ(b.dog.nextDeadline(), 41 + bound);
    b.observeThrough(40 + bound);
    EXPECT_EQ(b.dog.violations().size(), 2u);
    b.observeThrough(41 + bound);
    ASSERT_EQ(b.dog.violations().size(), 3u);
    EXPECT_EQ(b.dog.violations()[2].rfind(
                  reportPrefix(41 + bound, b.ids()[1]), 0),
              0u)
        << b.dog.violations()[2];
    b.observeThrough(500);
    EXPECT_EQ(b.dog.violations().size(), 3u);  // each reported once
}

TEST(WatchdogTracks, HeaderOscillationFiresOnTheBoundCycle)
{
    // Probe churn (hops) changes the full signature every cycle but not
    // the progress signature: the header-oscillation report fires
    // exactly one bound after the track started.
    Bench b(1);
    b.msg(0).state = MsgState::Active;
    while (b.net.now() < 300) {
        ++b.msg(0).hdr.hops;
        b.observeThrough(b.net.now() + 1);
        if (b.net.now() < 1 + bound) {
            ASSERT_TRUE(b.dog.violations().empty()) << b.net.now();
        }
    }
    ASSERT_EQ(b.dog.violations().size(), 1u);
    std::ostringstream want;
    want << "cycle " << 1 + bound
         << ": livelock: header oscillating: msg " << b.ids()[0] << " ";
    EXPECT_EQ(b.dog.violations()[0].rfind(want.str(), 0), 0u)
        << b.dog.violations()[0];
}

/**
 * Reference model of the per-message checks: every cycle a fresh map
 * over the tracked live messages, carrying each surviving track over.
 */
struct ReferenceTracks
{
    struct Track
    {
        std::uint64_t sig = 0, sig2 = 0;
        Cycle lastChange = 0, lastChange2 = 0;
        bool flagged = false;
    };
    std::map<MsgId, Track> tracks;
    std::size_t reports = 0;

    static std::uint64_t
    mix(std::initializer_list<std::uint64_t> vs)
    {
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (std::uint64_t v : vs) {
            h ^= v;
            h *= 0x100000001b3ull;
        }
        return h;
    }

    void
    observe(Network &net)
    {
        std::map<MsgId, Track> fresh;
        for (MsgId id : net.liveMessageIds()) {
            const Message &m = *net.findMessage(id);
            if (m.terminal() || m.state == MsgState::Queued ||
                m.state == MsgState::WaitRetry) {
                continue;
            }
            // Stand-ins for the two signatures: any change to the
            // fields the test churns must change them the same way.
            const std::uint64_t sig =
                mix({static_cast<std::uint64_t>(m.state),
                     static_cast<std::uint64_t>(m.hdr.hops),
                     static_cast<std::uint64_t>(m.injectedFlits)});
            const std::uint64_t sig2 =
                mix({static_cast<std::uint64_t>(m.state),
                     static_cast<std::uint64_t>(m.injectedFlits)});
            Track t;
            auto it = tracks.find(id);
            if (it != tracks.end()) {
                t = it->second;
                if (t.sig != sig) {
                    t.sig = sig;
                    t.lastChange = net.now();
                }
                if (t.sig2 != sig2) {
                    t.sig2 = sig2;
                    t.lastChange2 = net.now();
                }
            } else {
                t.sig = sig;
                t.sig2 = sig2;
                t.lastChange = t.lastChange2 = net.now();
            }
            if (!t.flagged && (net.now() - t.lastChange >= bound ||
                               net.now() - t.lastChange2 >= bound)) {
                t.flagged = true;
                ++reports;
            }
            fresh.emplace(id, t);
        }
        tracks = std::move(fresh);
    }

    Cycle
    nextDeadline() const
    {
        Cycle at = cycleNever;
        for (const auto &kv : tracks) {
            if (kv.second.flagged)
                continue;
            at = std::min({at, kv.second.lastChange + bound,
                           kv.second.lastChange2 + bound});
        }
        return at;
    }
};

TEST(WatchdogTracks, MatchesARebuiltMapUnderRandomChurn)
{
    Bench b(12);
    ReferenceTracks ref;
    Rng rng(99);
    for (std::size_t i = 0; i < b.ids().size(); ++i)
        b.msg(i).state = MsgState::Active;
    for (Cycle c = 1; c <= 3000; ++c) {
        for (std::size_t i = 0; i < b.ids().size(); ++i) {
            Message &m = b.msg(i);
            const std::uint64_t roll = rng.below(1000);
            if (roll < 4) {
                m.state = m.state == MsgState::Active
                              ? (roll < 2 ? MsgState::WaitRetry
                                          : MsgState::Queued)
                              : MsgState::Active;
            } else if (roll < 12) {
                ++m.hdr.hops;  // churn only
            } else if (roll < 15) {
                ++m.injectedFlits;  // real progress
            }
        }
        b.observeThrough(c);
        ref.observe(b.net);
        ASSERT_EQ(b.dog.nextDeadline(), ref.nextDeadline()) << c;
        ASSERT_EQ(b.dog.violations().size(), ref.reports) << c;
    }
    EXPECT_GT(ref.reports, 0u);
}

TEST(WatchdogTracks, CheckpointBytesSurviveSaveRestore)
{
    Bench a(6);
    for (std::size_t i = 0; i < a.ids().size(); ++i)
        a.msg(i).state = MsgState::Active;
    a.observeThrough(30);
    a.msg(2).state = MsgState::WaitRetry;
    a.observeThrough(bound + 10);  // some tracks flagged, one dropped
    a.msg(2).state = MsgState::Active;
    a.observeThrough(bound + 20);
    ASSERT_FALSE(a.dog.violations().empty());

    CampaignState stA = a.state();
    obs::CkWriter wa;
    serializeCampaign(wa, stA);
    std::ostringstream fa(std::ios::binary);
    wa.writeTo(fa, 1);

    Bench b(0);
    CampaignState stB = b.state();
    std::istringstream is(fa.str(), std::ios::binary);
    obs::CkReader r(is);
    ASSERT_TRUE(deserializeCampaign(r, stB)) << r.error();
    r.finish();
    ASSERT_TRUE(r.ok()) << r.error();

    obs::CkWriter wb;
    serializeCampaign(wb, stB);
    std::ostringstream fb(std::ios::binary);
    wb.writeTo(fb, 1);
    EXPECT_EQ(fb.str(), fa.str());

    // Restored tracks keep their clocks: the re-activated message is
    // reported on the same cycle in both runs.
    EXPECT_EQ(b.dog.nextDeadline(), a.dog.nextDeadline());
    a.observeThrough(3 * bound);
    b.observeThrough(3 * bound);
    EXPECT_EQ(b.dog.violations(), a.dog.violations());
}

} // namespace
} // namespace tpnet
