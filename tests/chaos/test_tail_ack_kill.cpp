/**
 * @file
 * Tail-ack / kill-walk race: a message acknowledgment completes a
 * message while a fault kill walk over its held path is still in
 * flight. When that walk finished, the kill completion used to see a
 * non-Delivered message and re-queue it for retransmission, so a
 * Complete message came back as Queued/Active with retries >= 1 and
 * the simulator aborted with "retiring non-terminal message".
 *
 * Both specs below hit the race before the fix: an 8-ary 2-cube with
 * 16-flit messages, tail acks, retry backoff 750 x 8 retries, two node
 * kills and four intermittent link outages of 2000-8000 cycles inside
 * a 500-cycle injection window, the CWG analyzer armed and a
 * checkpoint every 1000 cycles.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "chaos/campaign.hpp"
#include "helpers.hpp"

namespace tpnet {
namespace {

using namespace chaos;

CampaignSpec
tailAckDrainCampaign(Protocol proto, int scout_k, double load,
                     std::uint64_t seed)
{
    CampaignSpec s;
    s.cfg.topology = TopologyKind::Torus;
    s.cfg.k = 8;
    s.cfg.n = 2;
    s.cfg.protocol = proto;
    s.cfg.scoutK = scout_k;
    s.cfg.load = load;
    s.cfg.msgLength = 16;
    s.cfg.tailAck = true;
    s.cfg.retryBackoff = 750;
    s.cfg.maxRetries = 8;
    s.cfg.eventEngine = true;
    s.seed = seed;
    s.injectCycles = 500;
    s.drainCycles = 100000;
    s.verifyCwg = true;
    s.faults.horizon = s.injectCycles;
    s.faults.earliest = s.injectCycles / 100;
    s.faults.nodeKills = 2;
    s.faults.intermittents = 4;
    s.faults.downMin = 2000;
    s.faults.downMax = 8000;
    s.checkpointEvery = 1000;
    s.checkpointPath = (std::filesystem::path(::testing::TempDir()) /
                        ("tail_ack_kill_" + std::to_string(seed) + ".tpck"))
                           .string();
    return s;
}

void
expectCleanDrain(const CampaignSpec &spec)
{
    const CampaignResult r = runCampaign(spec);
    EXPECT_TRUE(r.passed) << (r.violations.empty() ? "?"
                                                   : r.violations.front());
    EXPECT_TRUE(r.quiescent);
    EXPECT_GT(r.faultsFired, 0u);
    // Tail acks turn every fault kill into a retransmission or an
    // undeliverable drop, never a silent loss.
    EXPECT_EQ(r.counters.lost, 0u);
}

TEST(TailAckKillRace, ScoutingK3CompletedMessageStaysRetired)
{
    expectCleanDrain(tailAckDrainCampaign(Protocol::Scouting, 3, 0.15, 7124));
}

TEST(TailAckKillRace, MbmCompletedMessageStaysRetired)
{
    expectCleanDrain(tailAckDrainCampaign(Protocol::MBm, 0, 0.05, 7155));
}

} // namespace
} // namespace tpnet
