/**
 * @file
 * The command-line table of SimConfig (sim/options.hpp): every row
 * formats and parses back exactly, onto any base config, and
 * tpnet_verify's replay lines rebuild the campaign they were printed
 * for.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <set>

#include "chaos/manifest.hpp"
#include "verify_grid.hpp"

namespace tpnet {
namespace {

/** Split a joinArgs() line into words the way a POSIX shell would. */
std::vector<std::string>
shellSplit(const std::string &line)
{
    std::vector<std::string> words;
    std::string word;
    bool in_word = false;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (quoted) {
            if (c == '"')
                quoted = false;
            else if (c == '\\' && i + 1 < line.size())
                word += line[++i];
            else
                word += c;
        } else if (c == ' ') {
            if (in_word)
                words.push_back(word);
            word.clear();
            in_word = false;
        } else {
            in_word = true;
            if (c == '"')
                quoted = true;
            else
                word += c;
        }
    }
    if (in_word)
        words.push_back(word);
    return words;
}

/** Parse @p args (no program name) or fail the test. */
void
parseArgs(OptionParser &parser, const std::vector<std::string> &args)
{
    std::vector<const char *> argv{"prog"};
    for (const std::string &arg : args)
        argv.push_back(arg.c_str());
    std::string err;
    ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data(),
                             &err))
        << err;
}

/** A SimConfig with every table field drawn at random. */
SimConfig
randomConfig(std::mt19937_64 &rng)
{
    const auto pick = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    const auto real = [&] {
        const double awkward[] = {0.0, 0.15, 1.0 / 3.0, 0.1 + 0.2,
                                  2.5e-7, 0.999999999};
        return pick(0, 1) ? awkward[pick(0, 5)]
                          : std::uniform_real_distribution<double>(
                                0.0, 4.0)(rng);
    };
    SimConfig c;
    c.protocol = static_cast<Protocol>(pick(0, 5));
    c.topology = static_cast<TopologyKind>(pick(0, 3));
    c.k = pick(2, 32);
    c.n = pick(1, 4);
    c.expressGap = pick(2, 8);
    c.dfRouters = pick(2, 8);
    c.dfGlobal = pick(1, 4);
    c.msgLength = pick(1, 64);
    c.scoutK = pick(0, 6);
    c.misrouteLimit = pick(0, 9);
    c.maxRetries = pick(0, 9);
    c.adaptiveVcs = pick(0, 4);
    c.escapeVcs = pick(1, 4);
    c.bufDepth = pick(1, 8);
    c.load = real();
    c.pattern = static_cast<TrafficPattern>(pick(0, 6));
    for (int i = pick(0, 3); i > 0; --i) {
        TrafficClassConfig tc;
        tc.pattern = static_cast<TrafficPattern>(pick(0, 6));
        tc.load = real();
        tc.msgLength = pick(0, 16);
        tc.priority = pick(0, 3);
        if (pick(0, 1)) {
            tc.hotspotFraction = real() / 4.0 + 1e-3;
            tc.hotspotCount = pick(1, 8);
        }
        if (pick(0, 1)) {
            tc.burstLen = pick(1, 64);
            tc.burstDuty = real() / 4.0 + 1e-3;
        }
        tc.outstanding = pick(0, 4);
        tc.replyLength = pick(0, 8);
        c.trafficClasses.push_back(tc);
    }
    c.staticNodeFaults = pick(0, 20);
    c.staticLinkFaults = pick(0, 20);
    c.dynamicNodeFaults = real();
    c.dynamicLinkFaults = real();
    c.intermittentFaults = real();
    c.intermittentDownCycles = pick(1, 2000);
    c.markUnsafe = pick(0, 1);
    c.tailAck = pick(0, 1);
    c.hardwareAcks = pick(0, 1);
    c.verifyCwg = pick(0, 1);
    c.recoveryMode = pick(0, 1);
    c.victimPolicy = static_cast<VictimPolicy>(pick(0, 2));
    c.maxHealAttempts = pick(1, 16);
    c.seed = rng();
    c.warmup = rng() >> pick(0, 63);
    c.measure = rng() >> pick(0, 63);
    c.eventEngine = pick(0, 1);
    return c;
}

TEST(ConfigRows, SpellingsAreUniqueAndOldOnesAreGone)
{
    std::set<std::string> names;
    for (const ConfigRow &row : configRows())
        EXPECT_TRUE(names.insert(row.name).second) << row.name;
    for (const char *old : {"K", "tailack", "hw-acks", "faults", "mesh"})
        EXPECT_EQ(names.count(old), 0u) << old;
}

TEST(ConfigRows, DoublesRoundTripExactly)
{
    for (double v : {0.15, 1.0 / 3.0, 0.1 + 0.2, 5e-324, 1e300, -0.5}) {
        double back = 0.0;
        ASSERT_TRUE(parseValue(formatValue(v), &back)) << formatValue(v);
        EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0) << formatValue(v);
    }
    EXPECT_EQ(formatValue(0.15), "0.15");
}

TEST(ConfigRows, FormatParsesBackOntoAGridCell)
{
    // Format a random config against a verify grid cell, parse the
    // arguments back onto that cell: the digest must match the random
    // config's, so every row carries its field exactly.
    std::mt19937_64 rng(20261020);
    const tools::VerifyCli verify;
    std::set<TopologyKind> kinds;
    std::size_t with_classes = 0;
    for (int iter = 0; iter < 400; ++iter) {
        const SimConfig cfg = randomConfig(rng);
        const SimConfig cell =
            verify.cellSpec(rng() % 1000 + 1, 1.0).cfg;
        kinds.insert(cfg.topology);
        with_classes += !cfg.trafficClasses.empty();

        OptionParser out("out", "formatter");
        ConfigOptions all;
        all.bind(out);
        const std::string line = joinArgs(all.format(cfg, cell));

        OptionParser in("in", "parser");
        ConfigOptions rows;
        rows.bind(in);
        parseArgs(in, shellSplit(line));
        SimConfig back = cell;
        rows.applyTo(&back);
        EXPECT_EQ(chaos::configDigest(back), chaos::configDigest(cfg)) << line;
        EXPECT_EQ(back.eventEngine, cfg.eventEngine) << line;
        EXPECT_TRUE(all.format(back, cfg).empty()) << line;
    }
    EXPECT_EQ(kinds.size(), 4u);
    EXPECT_GT(with_classes, 100u);
}

TEST(ConfigRows, EnumAndClassErrorsUseTheParserPath)
{
    OptionParser parser("prog", "test");
    ConfigOptions rows;
    rows.bind(parser);
    const char *bad_protocol[] = {"prog", "--protocol", "XY"};
    std::string err;
    EXPECT_FALSE(parser.parse(3, bad_protocol, &err));
    EXPECT_EQ(err, "bad value 'XY' for --protocol");
    const char *bad_classes[] = {"prog", "--classes", "pattern=nope"};
    EXPECT_FALSE(parser.parse(3, bad_classes, &err));
    EXPECT_NE(err.find("bad value 'pattern=nope' for --classes: unknown "
                       "traffic pattern"),
              std::string::npos)
        << err;
}

/** Build tpnet_verify's options from @p args. */
void
bindVerify(tools::VerifyCli *cli, OptionParser *parser,
           const std::vector<std::string> &args)
{
    cli->bind(*parser);
    parseArgs(*parser, args);
    std::string err;
    ASSERT_TRUE(cli->resolve(&err)) << err;
}

TEST(VerifyReplay, ReplayLineRebuildsTheCampaign)
{
    // Every grid cell under several command lines, each both as run
    // and after shrinker-style edits; the printed replay line must
    // rebuild a spec with the same campaign digest.
    const std::vector<std::vector<std::string>> command_lines = {
        {},
        {"--max-cycles", "6000", "--drain", "150000", "--fault-scale",
         "2"},
        {"--topology", "dragonfly", "--df-global", "2"},
        {"--classes", "pattern=uniform,load=0.3333333333333333",
         "--tail-ack", "--recovery", "--victim", "random"},
        {"--topology", "mesh", "--k", "6", "--inject", "3000",
         "--node-kills", "1", "--hardware-acks=0"},
    };
    for (const auto &args : command_lines) {
        tools::VerifyCli cli;
        OptionParser parser("tpnet_verify", "run");
        bindVerify(&cli, &parser, args);
        for (std::uint64_t seed = 1; seed <= cli.grid.size(); ++seed) {
            for (int edit = 0; edit < 3; ++edit) {
                chaos::CampaignSpec spec = cli.spec(seed, cli.faultScale);
                if (edit == 1) {
                    spec.cfg.k = 4;
                    spec.cfg.load /= 2.0;
                    spec.injectCycles /= 2;
                    spec.faults.horizon = spec.injectCycles;
                    spec.faults.earliest = spec.injectCycles / 100;
                } else if (edit == 2) {
                    spec.faults.linkKills = 0;
                    spec.cfg.tailAck = !spec.cfg.tailAck;
                    spec.scriptedFaults = {{21, chaos::FaultKind::NodeKill,
                                            56, -1, 0}};
                }
                const std::string line =
                    joinArgs(cli.replayArgs(spec));

                tools::VerifyCli replay;
                OptionParser again("tpnet_verify", "replay");
                bindVerify(&replay, &again, shellSplit(line));
                EXPECT_EQ(replay.replaySeed, seed) << line;
                const chaos::CampaignSpec rebuilt =
                    replay.spec(replay.replaySeed, replay.faultScale);
                EXPECT_EQ(chaos::campaignSpecDigest(rebuilt),
                          chaos::campaignSpecDigest(spec))
                    << line;
            }
        }
    }
}

TEST(VerifyReplay, UnchangedCampaignNeedsOnlyItsSeed)
{
    tools::VerifyCli cli;
    OptionParser parser("tpnet_verify", "run");
    bindVerify(&cli, &parser, {});
    EXPECT_EQ(joinArgs(cli.replayArgs(cli.spec(78, cli.faultScale))),
              "--replay-seed 78");
}

} // namespace
} // namespace tpnet
