/** @file The live-message table: id-indexed lookup, record reuse,
 *  window trimming, and its ordering contract with the network. */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/message_table.hpp"
#include "core/network.hpp"
#include "helpers.hpp"
#include "traffic/injector.hpp"

namespace tpnet {
namespace {

TEST(MessageTable, RetiredAndNeverIssuedIdsAreNull)
{
    MessageTable t;
    EXPECT_EQ(t.find(0), nullptr);
    EXPECT_EQ(t.find(-1), nullptr);
    for (MsgId id = 0; id < 5; ++id)
        EXPECT_EQ(t.insert(id).id, id);
    EXPECT_EQ(t.size(), 5u);
    t.erase(2);
    EXPECT_EQ(t.find(2), nullptr);   // retired inside the window
    t.erase(0);
    EXPECT_EQ(t.find(0), nullptr);   // retired and trimmed away
    EXPECT_EQ(t.find(5), nullptr);   // never issued, past the window
    EXPECT_EQ(t.find(-7), nullptr);  // never issued, before it
    ASSERT_NE(t.find(1), nullptr);
    EXPECT_EQ(t.find(1)->id, 1);
    ASSERT_NE(t.find(4), nullptr);
    EXPECT_EQ(t.find(4)->id, 4);
    EXPECT_EQ(t.size(), 3u);
    t.erase(2);  // double retire is a no-op
    EXPECT_EQ(t.size(), 3u);
}

TEST(MessageTable, RetiredRecordIsReusedReset)
{
    MessageTable t;
    Message &a = t.insert(0);
    a.state = MsgState::Complete;
    a.retries = 3;
    a.path.push_back(PathHop{});
    a.triedAt(9) = 0x5;
    Message *const slot = &a;
    t.erase(0);

    Message &b = t.insert(1);
    EXPECT_EQ(&b, slot);  // same storage, no new record
    EXPECT_EQ(t.pooled(), 1u);
    EXPECT_EQ(b.id, 1);
    EXPECT_EQ(b.state, MsgState::Queued);
    EXPECT_EQ(b.retries, 0);
    EXPECT_TRUE(b.path.empty());
    EXPECT_TRUE(b.visited.empty());
    EXPECT_EQ(t.find(0), nullptr);
    EXPECT_EQ(t.find(1), &b);
}

TEST(MessageTable, LongLivedOldestMessageHoldsTheWindow)
{
    MessageTable t;
    Message &oldest = t.insert(0);
    // Stream 10000 short-lived messages past the long-lived one: at
    // most two records are ever live, so the pool stays at two.
    for (MsgId id = 1; id <= 10000; ++id) {
        t.insert(id);
        t.erase(id);
    }
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(t.pooled(), 2u);
    EXPECT_EQ(t.span(), 10001u);  // 0 pins the window's front
    EXPECT_EQ(t.find(0), &oldest);
    EXPECT_EQ(t.find(5000), nullptr);

    t.insert(10001);
    t.erase(0);
    EXPECT_EQ(t.span(), 1u);  // trimmed to the one live id
    ASSERT_NE(t.find(10001), nullptr);
    EXPECT_EQ(t.find(10001)->id, 10001);
    EXPECT_EQ(t.find(0), nullptr);

    t.erase(10001);
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.span(), 0u);
    t.insert(20000);  // an empty window restarts at the next id
    EXPECT_EQ(t.span(), 1u);
    EXPECT_NE(t.find(20000), nullptr);
}

TEST(MessageTable, ForEachVisitsAscendingIds)
{
    MessageTable t;
    for (MsgId id = 10; id < 20; ++id)
        t.insert(id);
    t.erase(10);
    t.erase(13);
    t.erase(19);
    std::vector<MsgId> seen;
    t.forEach([&seen](const Message &m) { seen.push_back(m.id); });
    EXPECT_EQ(seen, (std::vector<MsgId>{11, 12, 14, 15, 16, 17, 18}));

    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.find(11), nullptr);
    t.insert(3);  // a cleared table accepts any starting id
    EXPECT_NE(t.find(3), nullptr);
}

TEST(MessageTable, NetworkLiveIdsMatchTheTable)
{
    SimConfig cfg = test::smallConfig(Protocol::TwoPhase, 4, 2);
    cfg.load = 0.2;
    cfg.msgLength = 8;
    cfg.watchdog = 0;
    Network net(cfg);
    Injector inj(net);
    for (int c = 0; c < 600; ++c) {
        inj.step();
        net.step();
    }
    const std::vector<MsgId> &ids = net.liveMessageIds();
    ASSERT_FALSE(ids.empty());
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    EXPECT_EQ(ids.size(), net.activeMessages());
    for (MsgId id : ids) {
        const Message *m = net.findMessage(id);
        ASSERT_NE(m, nullptr) << id;
        EXPECT_EQ(m->id, id);
    }
    EXPECT_EQ(net.findMessage(ids.back() + 1000), nullptr);
}

} // namespace
} // namespace tpnet
