/**
 * @file
 * The delivery oracle's violation texts, pinned byte for byte.
 *
 * The oracle's hooks are called by hand with hand-built messages on an
 * idle network, so every report kind fires once with known values: the
 * creation, delivery and termination anomalies, each terminal outcome's
 * checks (delivered, undeliverable, lost), and the final audit
 * (unterminated messages, the overflow line, counter cross-checks).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chaos/oracle.hpp"
#include "core/network.hpp"
#include "helpers.hpp"

namespace tpnet {
namespace {

using chaos::DeliveryOracle;

Message
makeMsg(MsgId id, NodeId src, NodeId dst)
{
    Message msg;
    msg.id = id;
    msg.src = src;
    msg.dst = dst;
    msg.length = 4;
    return msg;
}

Flit
tailOf(MsgId id)
{
    Flit flit;
    flit.type = FlitType::Tail;
    flit.msg = id;
    return flit;
}

TEST(OracleReports, CleanLifecyclesReportNothing)
{
    Network net(test::smallConfig(Protocol::TwoPhase, 4, 2));
    DeliveryOracle oracle(net);
    Message ok = makeMsg(1, 0, 5);
    ok.injectedFlits = ok.arrivedFlits = ok.length;
    oracle.messageCreated(10, ok);
    oracle.flitDelivered(20, ok.dst, tailOf(ok.id));
    oracle.messageTerminal(21, ok, MsgOutcome::Delivered);
    Message gaveUp = makeMsg(2, 1, 6);
    gaveUp.retries = net.config().maxRetries;
    oracle.messageCreated(11, gaveUp);
    oracle.messageTerminal(30, gaveUp, MsgOutcome::Undeliverable);
    Message lost = makeMsg(3, 2, 7);
    oracle.messageCreated(12, lost);
    oracle.messageTerminal(31, lost, MsgOutcome::Lost);
    EXPECT_TRUE(oracle.violations().empty());
    EXPECT_EQ(oracle.created(), 3u);
    EXPECT_EQ(oracle.deliveredOnce(), 1u);
}

TEST(OracleReports, EveryReportKindKeepsItsText)
{
    Network net(test::smallConfig(Protocol::TwoPhase, 4, 2));
    DeliveryOracle oracle(net);

    Message a = makeMsg(7, 3, 12);
    oracle.messageCreated(5, a);
    oracle.messageCreated(6, a);
    oracle.flitDelivered(7, a.dst, tailOf(99));
    oracle.messageTerminal(8, makeMsg(98, 0, 1), MsgOutcome::Lost);

    // Delivered: two tails, 3/4 flits arrived of 4 injected.
    oracle.flitDelivered(9, a.dst, tailOf(a.id));
    oracle.flitDelivered(10, a.dst, tailOf(a.id));
    a.injectedFlits = 4;
    a.arrivedFlits = 3;
    oracle.messageTerminal(11, a, MsgOutcome::Delivered);
    oracle.messageTerminal(12, a, MsgOutcome::Lost);
    oracle.flitDelivered(13, a.dst, tailOf(a.id));

    // Undeliverable after a tail, with retries left and both endpoints
    // healthy.
    Message u = makeMsg(8, 4, 9);
    u.retries = 1;
    oracle.messageCreated(14, u);
    oracle.flitDelivered(15, u.dst, tailOf(u.id));
    oracle.messageTerminal(16, u, MsgOutcome::Undeliverable);

    // Lost after a tail (tail acknowledgments off).
    Message l = makeMsg(9, 5, 10);
    oracle.messageCreated(17, l);
    oracle.flitDelivered(18, l.dst, tailOf(l.id));
    oracle.messageTerminal(19, l, MsgOutcome::Lost);

    // Eighteen messages never terminate: sixteen named, one summary.
    for (MsgId id = 20; id < 38; ++id)
        oracle.messageCreated(20, makeMsg(id, 1, 2));
    oracle.finalCheck();

    const std::vector<std::string> want = {
        "cycle 6: oracle: msg 7 created twice",
        "cycle 7: oracle: tail of unknown msg 99 delivered",
        "cycle 8: oracle: unknown msg 98 terminated",
        "cycle 10: oracle: duplicate delivery: tail of msg 7 ejected 2 "
        "times",
        "cycle 11: oracle: msg 7 completed with 2 tail deliveries (want "
        "exactly 1)",
        "cycle 11: oracle: msg 7 completed with 3/4 flits delivered (4 "
        "injected)",
        "cycle 12: oracle: msg 7 terminated twice (delivered then lost)",
        "cycle 13: oracle: duplicate delivery: tail of msg 7 ejected 3 "
        "times",
        "cycle 13: oracle: tail of msg 7 delivered after the message "
        "terminated (delivered)",
        "cycle 16: oracle: msg 8 declared undeliverable after its tail "
        "was delivered",
        "cycle 16: oracle: msg 8 declared undeliverable after 1 retries "
        "(max 3) with both endpoints healthy",
        "cycle 19: oracle: msg 9 counted lost after its tail was "
        "delivered",
    };
    std::vector<std::string> got = oracle.violations();
    ASSERT_GE(got.size(), want.size() + 17);
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << "report " << i;

    // finalCheck runs at the network's clock, cycle 0.
    std::size_t at = want.size();
    for (MsgId id = 20; id < 36; ++id, ++at) {
        EXPECT_EQ(got[at], "cycle 0: oracle: msg " + std::to_string(id) +
                               " (1->2, created at cycle 20) never "
                               "terminated");
    }
    EXPECT_EQ(got[at++],
              "cycle 0: oracle: 2 further unterminated messages");
    const std::vector<std::string> checks = {
        "cycle 0: oracle: generated mismatch: oracle saw 21, counters "
        "say 0",
        "cycle 0: oracle: delivered mismatch: oracle saw 1, counters say "
        "0",
        "cycle 0: oracle: undeliverable mismatch: oracle saw 1, counters "
        "say 0",
        "cycle 0: oracle: lost mismatch: oracle saw 1, counters say 0",
    };
    ASSERT_EQ(got.size(), at + checks.size());
    for (const std::string &line : checks)
        EXPECT_EQ(got[at++], line);
}

TEST(OracleReports, LossUnderTailAcksIsReported)
{
    SimConfig cfg = test::smallConfig(Protocol::TwoPhase, 4, 2);
    cfg.tailAck = true;
    Network net(cfg);
    DeliveryOracle oracle(net);
    const Message msg = makeMsg(4, 0, 3);
    oracle.messageCreated(1, msg);
    oracle.messageTerminal(2, msg, MsgOutcome::Lost);
    ASSERT_EQ(oracle.violations().size(), 1u);
    EXPECT_EQ(oracle.violations()[0],
              "cycle 2: oracle: msg 4 lost to a fault despite tail "
              "acknowledgments (retransmission) being enabled");
}

} // namespace
} // namespace tpnet
