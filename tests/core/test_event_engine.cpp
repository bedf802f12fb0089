/**
 * @file
 * Unit tests of the activity-scheduling primitives (ActivitySet,
 * WakeupQueue) plus randomized digest-identity properties: the
 * event-driven engine must produce bit-identical traces, counters, and
 * campaign reports to the time-stepped engine, because it only changes
 * which entities are *visited*, never what a visit does.
 */

#include <algorithm>
#include <array>

#include <gtest/gtest.h>

#include "chaos/campaign.hpp"
#include "chaos/report.hpp"
#include "core/engine.hpp"
#include "core/network.hpp"
#include "helpers.hpp"
#include "obs/recorder.hpp"
#include "sim/rng.hpp"
#include "traffic/injector.hpp"

namespace tpnet {
namespace {

// --- ActivitySet --------------------------------------------------------

std::vector<std::uint32_t>
drainPass(ActivitySet &set, std::size_t rot)
{
    set.beginPass(rot);
    std::vector<std::uint32_t> order;
    for (std::uint32_t id; (id = set.next()) != ActivitySet::kNone;)
        order.push_back(id);
    return order;
}

TEST(ActivitySet, AddRemoveTracksCount)
{
    ActivitySet set;
    set.reset(8);
    EXPECT_TRUE(set.empty());
    set.add(3);
    set.add(5);
    set.add(3);  // idempotent
    EXPECT_EQ(set.count(), 2u);
    EXPECT_TRUE(set.active(3));
    EXPECT_FALSE(set.active(4));
    set.remove(3);
    set.remove(3);  // idempotent
    EXPECT_EQ(set.count(), 1u);
    EXPECT_FALSE(set.active(3));
}

TEST(ActivitySet, PassVisitsInRotationOrder)
{
    ActivitySet set;
    set.reset(8);
    set.add(1);
    set.add(3);
    set.add(6);
    // A full scan starting at offset 5 visits 5,6,7,0,1,2,3,4 and
    // finds the active subset in the order 6, 1, 3.
    EXPECT_EQ(drainPass(set, 5),
              (std::vector<std::uint32_t>{6, 1, 3}));
    // Entities stay active across passes until removed.
    EXPECT_EQ(drainPass(set, 0),
              (std::vector<std::uint32_t>{1, 3, 6}));
}

TEST(ActivitySet, MidPassAddAheadOfCursorJoinsThisPass)
{
    ActivitySet set;
    set.reset(8);
    set.add(2);
    set.beginPass(0);
    EXPECT_EQ(set.next(), 2u);
    // 5 is still ahead of a cursor at key 2: the full scan would have
    // reached it this cycle, so it must be visited now.
    set.add(5);
    EXPECT_EQ(set.next(), 5u);
    EXPECT_EQ(set.next(), ActivitySet::kNone);
}

TEST(ActivitySet, MidPassAddBehindCursorWaitsForNextPass)
{
    ActivitySet set;
    set.reset(8);
    set.add(4);
    set.beginPass(0);
    EXPECT_EQ(set.next(), 4u);
    // The full scan already passed offset 1 this cycle.
    set.add(1);
    EXPECT_EQ(set.next(), ActivitySet::kNone);
    EXPECT_TRUE(set.active(1));
    EXPECT_EQ(drainPass(set, 0),
              (std::vector<std::uint32_t>{1, 4}));
}

TEST(ActivitySet, RemovedMidPassEntityIsSkipped)
{
    ActivitySet set;
    set.reset(8);
    set.add(2);
    set.add(6);
    set.beginPass(0);
    EXPECT_EQ(set.next(), 2u);
    set.remove(6);
    EXPECT_EQ(set.next(), ActivitySet::kNone);
}

TEST(ActivitySet, ReaddedMidPassEntityIsVisitedOnce)
{
    // Deactivate then reactivate an entity that is ahead of the
    // cursor: it must still be visited, exactly once.
    ActivitySet set;
    set.reset(8);
    set.add(2);
    set.add(5);
    set.beginPass(0);
    EXPECT_EQ(set.next(), 2u);
    set.remove(5);
    set.add(5);
    EXPECT_EQ(set.next(), 5u);
    EXPECT_EQ(set.next(), ActivitySet::kNone);
}

TEST(ActivitySet, EmptyPassReturnsNoneImmediately)
{
    ActivitySet set;
    set.reset(4);
    EXPECT_EQ(drainPass(set, 3), std::vector<std::uint32_t>{});
}

/**
 * Naive reference of a rotation-ordered pass: a full scan over one
 * bool per entity starting at offset rot, re-reading the flags at each
 * step, so mid-pass changes take effect exactly as the scan reaches
 * (or has already passed) them.
 */
struct ScanReference
{
    std::vector<bool> on;
    std::size_t rot = 0;
    std::size_t scanned = 0;  ///< scan offsets consumed this pass

    explicit ScanReference(std::size_t n) : on(n, false) {}

    void
    beginPass(std::size_t r)
    {
        rot = r % on.size();
        scanned = 0;
    }

    std::uint32_t
    next()
    {
        while (scanned < on.size()) {
            const std::size_t id = (rot + scanned++) % on.size();
            if (on[id])
                return static_cast<std::uint32_t>(id);
        }
        return ActivitySet::kNone;
    }

    std::size_t
    count() const
    {
        return static_cast<std::size_t>(
            std::count(on.begin(), on.end(), true));
    }
};

/** One random add or remove, applied to both sets. */
void
churn(Rng &rng, ActivitySet &set, ScanReference &ref, std::size_t n)
{
    const auto id = static_cast<std::uint32_t>(rng.below(n));
    if (rng.chance(0.5)) {
        set.add(id);
        ref.on[id] = true;
    } else {
        set.remove(id);
        ref.on[id] = false;
    }
}

TEST(ActivitySet, RandomizedPassesMatchFullScanAcrossWordBoundaries)
{
    for (const std::size_t n :
         {1u, 63u, 64u, 65u, 127u, 128u, 129u, 256u, 1040u}) {
        Rng rng(0x5eed0000u + n);
        for (int trial = 0; trial < 24; ++trial) {
            ActivitySet set;
            set.reset(n);
            ScanReference ref(n);
            // Occupancy from near-empty to full, so sparse words, dense
            // words and whole-word runs all occur.
            const double density =
                std::array<double, 4>{1.0 / 64, 1.0 / 8, 0.5, 1.0}
                    [static_cast<std::size_t>(trial % 4)];
            for (std::size_t id = 0; id < n; ++id) {
                if (rng.chance(density)) {
                    set.add(static_cast<std::uint32_t>(id));
                    ref.on[id] = true;
                }
            }
            for (int pass = 0; pass < 6; ++pass) {
                const std::size_t rot = rng.below(2 * n);
                set.beginPass(rot);
                ref.beginPass(rot);
                // Changes between beginPass and the first next().
                for (int c = static_cast<int>(rng.below(3)); c > 0; --c)
                    churn(rng, set, ref, n);
                for (;;) {
                    const std::uint32_t got = set.next();
                    const std::uint32_t want = ref.next();
                    ASSERT_EQ(got, want)
                        << "n=" << n << " trial=" << trial
                        << " pass=" << pass << " rot=" << rot;
                    if (got == ActivitySet::kNone)
                        break;
                    // The visit may drop the entity being visited and
                    // re-add it (it must not come round again), and
                    // wake or drain others ahead of or behind the
                    // cursor.
                    if (rng.chance(0.3)) {
                        set.remove(got);
                        ref.on[got] = false;
                        if (rng.chance(0.5)) {
                            set.add(got);
                            ref.on[got] = true;
                        }
                    }
                    for (int c = static_cast<int>(rng.below(4)); c > 0;
                         --c) {
                        churn(rng, set, ref, n);
                    }
                }
                ASSERT_EQ(set.next(), ActivitySet::kNone);
                ASSERT_EQ(set.count(), ref.count());
                for (std::size_t id = 0; id < n; ++id) {
                    ASSERT_EQ(set.active(static_cast<std::uint32_t>(id)),
                              ref.on[id]);
                }
                // Changes between passes.
                for (int c = static_cast<int>(rng.below(8)); c > 0; --c)
                    churn(rng, set, ref, n);
            }
        }
    }
}

// --- WakeupQueue --------------------------------------------------------

TEST(WakeupQueue, PopsInCycleOrder)
{
    WakeupQueue q;
    q.reset(3);
    q.schedule(0, 30);
    q.schedule(1, 10);
    q.schedule(2, 20);
    EXPECT_EQ(q.nextAt(), 10u);
    EXPECT_EQ(q.pop(), 1u);
    EXPECT_EQ(q.pop(), 2u);
    EXPECT_EQ(q.pop(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pop(), WakeupQueue::kNone);
    EXPECT_EQ(q.nextAt(), cycleNever);
}

TEST(WakeupQueue, SameCycleWakeupsPopFifo)
{
    WakeupQueue q;
    q.reset(3);
    q.schedule(2, 7);
    q.schedule(0, 7);
    q.schedule(1, 7);
    EXPECT_EQ(q.pop(), 2u);
    EXPECT_EQ(q.pop(), 0u);
    EXPECT_EQ(q.pop(), 1u);
}

TEST(WakeupQueue, ReschedulingCoalescesToTheEarliestCycle)
{
    WakeupQueue q;
    q.reset(1);
    q.schedule(0, 50);
    q.schedule(0, 20);   // earlier wins
    EXPECT_EQ(q.scheduledAt(0), 20u);
    q.schedule(0, 80);   // later is ignored
    EXPECT_EQ(q.scheduledAt(0), 20u);
    EXPECT_EQ(q.nextAt(), 20u);
    EXPECT_EQ(q.pop(), 0u);
    // The stale entries at 50/80 were pruned, not delivered.
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.scheduledAt(0), cycleNever);
}

TEST(WakeupQueue, RescheduleWhilePendingReordersAgainstOtherTokens)
{
    WakeupQueue q;
    q.reset(2);
    q.schedule(0, 50);
    q.schedule(1, 30);
    EXPECT_EQ(q.nextAt(), 30u);
    q.schedule(0, 10);  // token 0 jumps ahead of token 1
    EXPECT_EQ(q.nextAt(), 10u);
    EXPECT_EQ(q.pop(), 0u);
    EXPECT_EQ(q.pop(), 1u);
    EXPECT_TRUE(q.empty());
}

TEST(WakeupQueue, CancelDisarmsAToken)
{
    WakeupQueue q;
    q.reset(2);
    q.schedule(0, 5);
    q.schedule(1, 9);
    q.cancel(0);
    EXPECT_EQ(q.nextAt(), 9u);
    EXPECT_EQ(q.pop(), 1u);
    EXPECT_TRUE(q.empty());
}

// --- Digest-identity properties -----------------------------------------

struct EngineRun
{
    std::uint64_t digest = 0;
    std::size_t events = 0;
    Cycle cycles = 0;
    std::uint64_t generated = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
};

EngineRun
runScenario(SimConfig cfg, bool event_engine, Cycle inject, Cycle drain)
{
    cfg.eventEngine = event_engine;
    Network net(cfg);
    Injector inj(net);
    obs::TraceRecorder rec;
    net.attachTrace(&rec);
    for (Cycle c = 0; c < inject; ++c) {
        inj.step();
        net.step();
    }
    inj.stop();
    for (Cycle c = 0; c < drain && !net.quiescent(); ++c)
        net.step();
    net.attachTrace(nullptr);
    EngineRun out;
    out.digest = rec.digest();
    out.events = rec.size();
    out.cycles = net.now();
    out.generated = net.counters().generated;
    out.delivered = net.counters().delivered;
    out.dropped = net.counters().dropped;
    return out;
}

TEST(EngineIdentity, RandomizedLoadedRunsAreBitIdentical)
{
    // Random protocol / load / fault mixes, each traced under both
    // engines. The trace covers every externally visible event, so a
    // matching digest means the engines executed the same simulation.
    Rng rng(0xE7E27u);
    const Protocol protos[] = {Protocol::Pcs, Protocol::Scouting,
                               Protocol::TwoPhase, Protocol::Duato};
    for (int trial = 0; trial < 6; ++trial) {
        SimConfig cfg = test::smallConfig(
            protos[rng.below(4)], rng.below(2) ? 8 : 4);
        cfg.load = 0.02 + 0.03 * static_cast<double>(rng.below(5));
        cfg.seed = rng.next();
        cfg.scoutK = static_cast<int>(rng.below(3));
        cfg.tailAck = rng.below(2) == 0;
        SCOPED_TRACE("trial " + std::to_string(trial));
        const EngineRun on = runScenario(cfg, true, 400, 20000);
        const EngineRun off = runScenario(cfg, false, 400, 20000);
        EXPECT_EQ(on.digest, off.digest);
        EXPECT_EQ(on.events, off.events);
        EXPECT_EQ(on.cycles, off.cycles);
        EXPECT_EQ(on.generated, off.generated);
        EXPECT_EQ(on.delivered, off.delivered);
        EXPECT_EQ(on.dropped, off.dropped);
        EXPECT_GT(on.generated, 0u);
    }
}

TEST(EngineIdentity, FaultedCampaignReportsAreByteIdentical)
{
    // Full chaos campaigns — faults, teardown, retries, watchdog,
    // idle-cycle skipping in the drain — reported as JSON. The report
    // embeds cycle numbers for every violation and heal, so byte
    // equality pins the skip path to the exact per-cycle semantics.
    for (std::uint64_t seed : {11ull, 23ull, 57ull}) {
        chaos::CampaignSpec spec;
        spec.cfg = test::smallConfig(Protocol::TwoPhase, 4);
        spec.cfg.load = 0.05;
        spec.cfg.maxRetries = 4;
        spec.seed = seed;
        spec.injectCycles = 1500;
        spec.drainCycles = 30000;
        spec.verifyCwg = true;
        spec.faults.horizon = 1500;
        spec.faults.earliest = 50;
        spec.faults.nodeKills = 1;
        spec.faults.linkKills = 1;
        spec.faults.intermittents = 2;
        SCOPED_TRACE("seed " + std::to_string(seed));

        spec.cfg.eventEngine = true;
        const chaos::CampaignResult on = chaos::runCampaign(spec);
        spec.cfg.eventEngine = false;
        const chaos::CampaignResult off = chaos::runCampaign(spec);

        EXPECT_EQ(chaos::campaignJson(on), chaos::campaignJson(off));
        EXPECT_EQ(on.cycles, off.cycles);
        EXPECT_EQ(on.healEvents, off.healEvents);
        EXPECT_EQ(on.violations, off.violations);
    }
}

} // namespace
} // namespace tpnet
