// Tests of the benchmark's own helpers: the percentile rule, self time
// from nested spans, the metric-name charset, the replica equivalence
// check (a perturbed replica must be caught), the per-cycle clock marks
// of the step-timed replicas, and the screening of jobs that abort the
// process.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>

#include "chaos/campaign.hpp"
#include "core/simulator.hpp"
#include "digest.hpp"
#include "replica.hpp"
#include "screen.hpp"
#include "spans.hpp"
#include "workloads.hpp"

using namespace tpbench;

namespace {

std::vector<double>
iota(std::size_t n)
{
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<double>(i + 1);
    return v;
}

Span
span(std::int64_t start, std::int64_t end, std::int32_t parent,
     std::int64_t hook = 0)
{
    Span s;
    s.start = start;
    s.end = end;
    s.parent = parent;
    s.hookNs = hook;
    return s;
}

tpnet::SimConfig
smallSim()
{
    tpnet::SimConfig c;
    c.k = 8;
    c.n = 2;
    c.protocol = tpnet::Protocol::TwoPhase;
    c.msgLength = 8;
    c.load = 0.1;
    c.warmup = 200;
    c.measure = 600;
    c.drain = 4000;
    c.eventEngine = true;
    c.seed = 5;
    return c;
}

tpnet::chaos::CampaignSpec
smallCampaign()
{
    tpnet::chaos::CampaignSpec s;
    s.cfg = smallSim();
    s.cfg.tailAck = true;
    s.seed = 17;
    s.injectCycles = 600;
    s.verifyCwg = true;
    s.faults.horizon = 600;
    s.faults.nodeKills = 1;
    s.faults.intermittents = 2;
    s.checkpointEvery = 200;
    s.checkpointPath = TPBENCH_TEST_DIR "/test-checkpoint.tpck";
    return s;
}

} // namespace

TEST(Percentile, NeedsTenSamplesBeyond)
{
    double v = 0.0;
    EXPECT_TRUE(tailQuantile(iota(100), 0.90, &v));
    EXPECT_EQ(v, 90.0);
    EXPECT_FALSE(tailQuantile(iota(99), 0.90, &v));
    EXPECT_TRUE(tailQuantile(iota(1000), 0.99, &v));
    EXPECT_EQ(v, 990.0);
    EXPECT_FALSE(tailQuantile(iota(999), 0.99, &v));
    EXPECT_FALSE(tailQuantile({}, 0.5, &v));
}

TEST(Percentile, HighestSupportedQuantileStatesTheRule)
{
    EXPECT_EQ(highestSupportedQuantile(19), 0.0);
    EXPECT_EQ(highestSupportedQuantile(20), 0.5);
    EXPECT_EQ(highestSupportedQuantile(40), 0.75);
    EXPECT_EQ(highestSupportedQuantile(100), 0.90);
    EXPECT_EQ(highestSupportedQuantile(199), 0.90);
    EXPECT_EQ(highestSupportedQuantile(200), 0.95);
    EXPECT_EQ(highestSupportedQuantile(1000), 0.99);
    EXPECT_EQ(highestSupportedQuantile(10000), 0.999);
}

TEST(Percentile, MedianOfEvenAndOdd)
{
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheParent)
{
    std::vector<Span> s = {
        span(0, 100, -1, 5),  // 0: parent with 5 ns of hook time
        span(10, 30, 0),      // 1
        span(20, 50, 0),      // 2: overlaps 1 -> union [10, 50)
        span(90, 120, 0),     // 3: clipped to [90, 100)
        span(15, 20, 1),      // 4: grandchild, covered by 1 already
    };
    const std::vector<std::int64_t> self = selfTimes(s);
    EXPECT_EQ(self[0], 100 - 40 - 10 - 5);
    EXPECT_EQ(self[1], 20 - 5);
    EXPECT_EQ(self[2], 30);
    EXPECT_EQ(self[3], 30);
    EXPECT_EQ(self[4], 5);

    s[0].layer = Layer::Job;
    s[1].layer = s[2].layer = Layer::NetworkStep;
    s[3].layer = s[4].layer = Layer::InjectorStep;
    const auto t = layerSelfNs(s, self);
    EXPECT_EQ(t[static_cast<std::size_t>(Layer::NetworkStep)], 45);
    EXPECT_EQ(t[static_cast<std::size_t>(Layer::InjectorStep)], 35);
}

TEST(SelfTime, RecorderNestsScopesAndChargesHooksToTheInnermost)
{
    SpanRecorder rec;
    rec.setJob(7);
    {
        Scope job(rec, Layer::Job);
        {
            Scope step(rec, Layer::NetworkStep);
            rec.addHookTime(3);
        }
        Scope inj(rec, Layer::InjectorStep);
    }
    const std::vector<Span> &s = rec.spans();
    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s[0].parent, -1);
    EXPECT_EQ(s[1].parent, 0);
    EXPECT_EQ(s[2].parent, 0);
    EXPECT_EQ(s[1].hookNs, 3);
    EXPECT_EQ(s[0].hookNs, 0);
    for (const Span &x : s) {
        EXPECT_EQ(x.job, 7u);
        EXPECT_LE(x.start, x.end);
    }

    SpanRecorder off;
    off.setEnabled(false);
    {
        Scope a(off, Layer::Job);
        off.addHookTime(1);
    }
    EXPECT_TRUE(off.spans().empty());
}

TEST(MetricName, Charset)
{
    EXPECT_TRUE(validMetricName("core.step_s"));
    EXPECT_TRUE(validMetricName("a-b_c.9"));
    EXPECT_TRUE(validMetricName("9lives"));
    EXPECT_TRUE(validMetricName(std::string(64, 'x')));
    EXPECT_FALSE(validMetricName(std::string(65, 'x')));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName(".step"));
    EXPECT_FALSE(validMetricName("_step"));
    EXPECT_FALSE(validMetricName("step s"));
    EXPECT_FALSE(validMetricName("step/s"));
    EXPECT_FALSE(validMetricName("step\xc2\xb5s"));
}

TEST(MetricName, EveryDeclaredNameIsValid)
{
    std::ifstream f(TPBENCH_ROOT "/BENCHMARK.json");
    ASSERT_TRUE(f) << "BENCHMARK.json not found";
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string text = ss.str();
    const std::regex name("\"name\":\\s*\"([^\"]*)\"");
    int n = 0;
    for (auto it = std::sregex_iterator(text.begin(), text.end(), name);
         it != std::sregex_iterator(); ++it, ++n)
        EXPECT_TRUE(validMetricName((*it)[1].str())) << (*it)[1].str();
    EXPECT_GT(n, 10);
}

TEST(Replica, SimulationMatchesSimulatorRunAndPerturbationIsCaught)
{
    const tpnet::SimConfig cfg = smallSim();
    const std::uint64_t want =
        resultDigest(tpnet::Simulator(cfg).run(0));

    Tracer tr;
    EXPECT_EQ(resultDigest(tracedRun(cfg, 0, tr)), want);
    EXPECT_GT(tr.counts.cyclesStepped, 0u);
    EXPECT_FALSE(tr.spans.spans().empty());

    Tracer bad;
    bad.perturb = true;
    EXPECT_NE(resultDigest(tracedRun(cfg, 0, bad)), want);
}

TEST(Replica, StepTimedReplicasMatchAndMarkEveryCycle)
{
    const tpnet::SimConfig cfg = smallSim();
    std::vector<std::int64_t> marks;
    Tracer tr;
    tr.spans.setEnabled(false);
    tr.marks = &marks;
    EXPECT_EQ(resultDigest(tracedRun(cfg, 0, tr)),
              resultDigest(tpnet::Simulator(cfg).run(0)));
    EXPECT_TRUE(tr.spans.spans().empty());
    // One mark at the start, then one per cycle-loop iteration.
    EXPECT_EQ(marks.size(), tr.counts.cyclesStepped + 1);
    EXPECT_TRUE(std::is_sorted(marks.begin(), marks.end()));

    const tpnet::chaos::CampaignSpec spec = smallCampaign();
    marks.clear();
    Tracer ct;
    ct.spans.setEnabled(false);
    ct.marks = &marks;
    EXPECT_EQ(campaignDigest(tracedCampaign(spec, ct)),
              campaignDigest(tpnet::chaos::runCampaign(spec)));
    EXPECT_EQ(marks.size(), ct.counts.cyclesStepped + 1);
    EXPECT_TRUE(std::is_sorted(marks.begin(), marks.end()));
}

TEST(Replica, CampaignMatchesRunCampaignAndPerturbationIsCaught)
{
    const tpnet::chaos::CampaignSpec spec = smallCampaign();
    const tpnet::chaos::CampaignResult lib =
        tpnet::chaos::runCampaign(spec);
    ASSERT_TRUE(lib.passed);
    ASSERT_GT(lib.checkpointsWritten, 0u);

    Tracer tr;
    EXPECT_EQ(campaignDigest(tracedCampaign(spec, tr)),
              campaignDigest(lib));
    EXPECT_EQ(tr.counts.checkpoints, lib.checkpointsWritten);
    EXPECT_GT(tr.counts.hookCalls[static_cast<std::size_t>(
                  Hook::MessageCreated)],
              0u);

    Tracer bad;
    bad.perturb = true;
    EXPECT_NE(campaignDigest(tracedCampaign(spec, bad)),
              campaignDigest(lib));
}

TEST(Workloads, SeedDeterminesTheJobSet)
{
    for (const std::string &name : workloadNames()) {
        Workload a, b, c;
        ASSERT_TRUE(makeWorkload(name, 3, "ck", &a));
        ASSERT_TRUE(makeWorkload(name, 3, "ck", &b));
        ASSERT_TRUE(makeWorkload(name, 4, "ck", &c));
        if (a.simulation) {
            EXPECT_EQ(a.sim.seed, b.sim.seed);
            EXPECT_NE(a.sim.seed, c.sim.seed);
        } else {
            ASSERT_EQ(a.campaigns.size(), b.campaigns.size());
            EXPECT_EQ(a.campaigns[0].seed, b.campaigns[0].seed);
            EXPECT_NE(a.campaigns[0].seed, c.campaigns[0].seed);
        }
    }
    Workload w;
    EXPECT_FALSE(makeWorkload("no-such-workload", 1, "ck", &w));
}

TEST(Screen, JobsThatAbortAreFoundAndTheOthersStillRun)
{
    const std::string log = TPBENCH_TEST_DIR "/screen-log.txt";
    std::remove(log.c_str());
    const std::vector<std::size_t> crashed =
        crashingJobs(6, [&](std::size_t i) {
            if (i == 1 || i == 4 || i == 5)
                std::abort();
            std::ofstream(log, std::ios::app) << i << ' ';
        });
    EXPECT_EQ(crashed, (std::vector<std::size_t>{1, 4, 5}));
    std::ifstream in(log);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), "0 2 3 ");

    EXPECT_TRUE(crashingJobs(3, [](std::size_t) {}).empty());
}
