/**
 * @file
 * tpnet_chaos — the standing robustness gate.
 *
 * Runs N seeded chaos campaigns across a grid of (topology size,
 * offered load, fault intensity, K-policy, tail-acks on/off). Every
 * campaign injects randomized node kills, permanent link kills, and
 * intermittent link faults into live traffic, with the progress
 * watchdog and the delivery oracle auditing the run. Any invariant
 * violation fails the campaign; the tool prints the failing seed and
 * exits nonzero with the campaign's replay line, which reproduces it
 * bit-for-bit:
 *
 *   tpnet_chaos --replay-seed <seed> [options that differ from the cell]
 *
 * SimConfig options come from the shared table in sim/options.hpp. A
 * given option wins over every grid cell: --k, --load, --scout-k and
 * --tail-ack pin their grid axis to the given value.
 *
 * Examples:
 *   tpnet_chaos --campaigns 50 --max-cycles 20000
 *   tpnet_chaos --campaigns 8 --k 4 --fault-scale 2
 *   tpnet_chaos --replay-seed 1337 --verbose
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/report.hpp"
#include "sim/options.hpp"
#include "shard_cli.hpp"

namespace {

using namespace tpnet;

/** One cell of the campaign grid. */
struct GridPoint
{
    int k;
    double load;
    int scoutK;
    bool tailAck;
    double faultScale;
};

std::string
describe(const SimConfig &cfg, double fault_scale)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "k=%d load=%.2f K=%d %s fx%.1f",
                  cfg.k, cfg.load, cfg.scoutK,
                  cfg.tailAck ? "TAck" : "noAck", fault_scale);
    return buf;
}

/**
 * The grid is a pure function of --no-vary-size, and a campaign's cell
 * is a pure function of its seed — so --replay-seed reproduces the
 * exact run without any extra state.
 */
std::vector<GridPoint>
buildGrid(bool vary_size)
{
    std::vector<int> ks{8};
    if (vary_size)
        ks.push_back(4);
    const double loads[] = {0.05, 0.15};
    const int scout_ks[] = {0, 3};
    const bool tacks[] = {false, true};
    const double scales[] = {1.0, 2.0};

    std::vector<GridPoint> grid;
    for (int k : ks)
        for (double load : loads)
            for (int sk : scout_ks)
                for (bool tack : tacks)
                    for (double fx : scales)
                        grid.push_back({k, load, sk, tack, fx});
    return grid;
}

/** The campaign of grid cell @p g, before any given option. */
chaos::CampaignSpec
cellSpec(const SimConfig &base, const GridPoint &g, std::uint64_t seed,
         Cycle inject, Cycle drain, double fault_scale)
{
    chaos::CampaignSpec spec;
    spec.cfg = base;
    spec.cfg.k = g.k;
    spec.cfg.load = g.load;
    spec.cfg.scoutK = g.scoutK;
    spec.cfg.tailAck = g.tailAck;
    spec.seed = seed;
    spec.injectCycles = inject;
    spec.drainCycles = drain;

    const double fx = fault_scale * g.faultScale;
    spec.faults.horizon = inject;
    spec.faults.earliest = inject / 100;
    spec.faults.nodeKills = static_cast<int>(std::lround(2.0 * fx));
    spec.faults.linkKills = static_cast<int>(std::lround(2.0 * fx));
    spec.faults.intermittents = static_cast<int>(std::lround(3.0 * fx));
    spec.faults.downMin = 100;
    spec.faults.downMax = 2000;
    return spec;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tpnet;
    using namespace tpnet::chaos;

    SimConfig base;
    base.maxRetries = 6;

    ConfigOptions rows;
    int campaigns = 20;
    int jobs = 0;
    std::uint64_t max_cycles = 20000;
    std::uint64_t drain_cycles = 200000;
    std::uint64_t seed = 1;
    std::uint64_t replay_seed = 0;
    double fault_scale = 1.0;
    bool no_vary_size = false;
    bool verbose = false;
    bool hook_skip_kills = false;
    std::string json_path;
    tools::ShardCli shardcli;
    tools::CheckpointCli ckcli;

    OptionParser parser(
        "tpnet_chaos",
        "randomized fault-injection campaigns with a progress watchdog "
        "and an exactly-once delivery oracle; exits nonzero on any "
        "invariant violation. Grid axes: k (8, 4), load, scout-k, "
        "tail-ack and fault scale; --k, --load, --scout-k and --tail-ack "
        "pin their axis");
    parser.addInt("campaigns", "number of seeded campaigns", &campaigns);
    parser.addJobs(&jobs);
    parser.addUint64("max-cycles", "traffic injection window per campaign",
                     &max_cycles);
    parser.addUint64("drain", "extra cycles allowed to reach quiescence",
                     &drain_cycles);
    parser.addUint64("seed", "base seed (campaign i uses seed + i)",
                     &seed);
    parser.addUint64("replay-seed",
                     "replay exactly one campaign by its seed",
                     &replay_seed);
    rows.bind(parser, {"protocol", "topology", "k", "n", "express-gap",
                       "df-routers", "df-global", "length", "scout-k",
                       "retries", "load", "classes", "tail-ack",
                       "verify-cwg", "recovery", "victim",
                       "no-event-skip"});
    parser.addDouble("fault-scale",
                     "global multiplier on the per-campaign fault mix",
                     &fault_scale);
    parser.addFlag("no-vary-size", "keep the grid's k axis at 8 only",
                   &no_vary_size);
    parser.addFlag("verbose", "print every violation in full", &verbose);
    parser.addString("json",
                     "write per-campaign structured results (CWG "
                     "counts, warnings, recovery stats) to this file",
                     &json_path);
    parser.addFlag("hook-skip-kills",
                   "TEST HOOK: break recovery on purpose to prove the "
                   "oracle detects it (campaigns must FAIL)",
                   &hook_skip_kills);
    tools::addShardOptions(parser, &shardcli);
    tools::addCheckpointOptions(parser, &ckcli);

    if (const auto rc = parser.parseOrExit(argc, argv, 2))
        return *rc;
    SimConfig run_cfg = base;
    rows.applyTo(&run_cfg);
    if (run_cfg.recoveryMode && run_cfg.protocol == Protocol::DimOrder) {
        std::fprintf(stderr, "error: --recovery requires an adaptive "
                             "protocol (DOR has no knot to heal "
                             "around)\n");
        return 2;
    }

    const std::vector<GridPoint> grid = buildGrid(!no_vary_size);

    const bool replay = parser.given("replay-seed");
    std::string error;
    if (!tools::resolveShardCli(&shardcli, !json_path.empty(), replay,
                                &error) ||
        !tools::validateCheckpointCli(ckcli, replay, &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
    }

    std::vector<std::uint64_t> seeds;
    if (replay) {
        seeds.push_back(replay_seed);
    } else {
        if (campaigns < 1) {
            // A gate that runs zero campaigns passes vacuously; refuse.
            std::fprintf(stderr, "error: --campaigns must be >= 1\n");
            return 2;
        }
        for (int i = 0; i < campaigns; ++i)
            seeds.push_back(seed + static_cast<std::uint64_t>(i));
    }

    // Build every campaign spec up front, fan the independent,
    // seed-replayable campaigns out across the pool, then report in
    // seed order — output and exit code are identical for any --jobs.
    std::vector<CampaignSpec> specs;
    specs.reserve(seeds.size());
    for (std::uint64_t s : seeds) {
        CampaignSpec spec = cellSpec(base, grid[s % grid.size()], s,
                                     max_cycles, drain_cycles,
                                     fault_scale);
        rows.applyTo(&spec.cfg);
        spec.injectSkipKillBug = hook_skip_kills;
        if (replay)
            tools::applyCheckpointCli(ckcli, &spec);
        specs.push_back(spec);
    }

    // Sharded execution: the full spec list above is exactly what a
    // monolithic run would execute, so the shard keys, the manifest,
    // and the merge validation all derive from it.
    tools::ShardRun shard;
    if (const auto rc = tools::enterShard(shardcli, "tpnet_chaos", &specs,
                                          &seeds, json_path, &shard))
        return *rc;

    std::printf("# tpnet_chaos: %zu campaign(s), protocol %s, grid of "
                "%zu cells, inject %llu + drain %llu cycles%s\n",
                seeds.size(), protocolName(run_cfg.protocol), grid.size(),
                static_cast<unsigned long long>(max_cycles),
                static_cast<unsigned long long>(drain_cycles),
                run_cfg.recoveryMode ? ", RECOVERY mode" : "");

    const std::vector<CampaignResult> results =
        runCampaigns(specs, jobs);

    int failures = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const std::uint64_t s = seeds[i];
        const GridPoint &g = grid[s % grid.size()];
        const CampaignResult &r = results[i];
        std::printf("%-28s %s\n",
                    describe(specs[i].cfg, g.faultScale).c_str(),
                    r.summary().c_str());
        if (!r.passed) {
            ++failures;
            const std::size_t show =
                verbose ? r.violations.size()
                        : std::min<std::size_t>(r.violations.size(), 5);
            for (std::size_t i = 0; i < show; ++i)
                std::printf("    ! %s\n", r.violations[i].c_str());
            if (show < r.violations.size()) {
                std::printf("    ! ... %zu more (--verbose for all)\n",
                            r.violations.size() - show);
            }
            if (!replay) {
                // The given options and the campaign options that shape
                // the grid or the spec, each only when it differs from
                // what --replay-seed alone would rebuild.
                const CampaignSpec cell =
                    cellSpec(base, g, s, max_cycles, drain_cycles,
                             fault_scale);
                std::vector<std::string> args{
                    "tpnet_chaos", "--replay-seed", std::to_string(s)};
                for (const std::string &a : rows.format(specs[i].cfg,
                                                        cell.cfg))
                    args.push_back(a);
                const auto campaignOpt = [&](const char *name,
                                             const std::string &value) {
                    if (parser.given(name)) {
                        args.push_back(std::string("--") + name);
                        args.push_back(value);
                    }
                };
                campaignOpt("max-cycles", formatValue(max_cycles));
                campaignOpt("drain", formatValue(drain_cycles));
                campaignOpt("fault-scale", formatValue(fault_scale));
                if (no_vary_size)
                    args.push_back("--no-vary-size");
                if (hook_skip_kills)
                    args.push_back("--hook-skip-kills");
                std::printf("    replay: %s\n", joinArgs(args).c_str());
            }
        }
        std::fflush(stdout);
    }

    if (replay && tools::checkpointArmed(ckcli))
        tools::printCheckpointReport(ckcli, results[0]);
    if (!tools::writeResults(shardcli, shard, "tpnet_chaos", results,
                             json_path)) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     json_path.c_str());
        return 2;
    }
    if (failures == 0) {
        std::printf("# all %zu campaign(s) clean\n", seeds.size());
        return 0;
    }
    std::printf("# %d of %zu campaign(s) FAILED\n", failures,
                seeds.size());
    return 1;
}
