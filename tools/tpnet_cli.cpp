/**
 * @file
 * tpnet_cli — command-line driver for the simulator.
 *
 * Run any configuration without writing code: pick the protocol,
 * geometry, flow control parameters, fault load, and traffic, then run
 * a single point, a replicated point (the paper's 95%-CI methodology),
 * or an offered-load sweep. `--stats` appends a structural
 * network-statistics report.
 *
 * Every SimConfig option comes from the shared table in
 * sim/options.hpp (configRows()), so it is spelled the same here as in
 * tpnet_chaos, tpnet_verify and tpnet_trace.
 *
 * Examples:
 *   tpnet_cli --protocol TP --load 0.2 --node-faults 10
 *   tpnet_cli --protocol MB-m --sweep "0.05,0.1,0.15,0.2" --reps 3
 *   tpnet_cli --protocol TP --scout-k 3 --node-faults 20 --load 0.25 --stats
 *   tpnet_cli --protocol SR --scout-k 3 --k 8 --n 3 --length 16 --dynamic 5
 */

#include <cstdio>
#include <iostream>
#include <sstream>

#include "chaos/manifest.hpp"
#include "core/tpnet.hpp"
#include "metrics/netstats.hpp"
#include "sim/options.hpp"

#include "core/pool.hpp"

namespace {

using namespace tpnet;

/** Parse a comma-separated load list; false names the bad entry. */
bool
parseLoads(const std::string &csv, std::vector<double> *loads,
           std::string *bad)
{
    std::istringstream is(csv);
    std::string item;
    while (std::getline(is, item, ',')) {
        double load = 0.0;
        if (!parseValue(item, &load)) {
            *bad = item;
            return false;
        }
        loads->push_back(load);
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tpnet;

    SimConfig cfg;
    ConfigOptions rows;
    std::string sweep;
    std::string shard_text;
    int reps = 1;
    int jobs = 0;
    bool stats = false;

    OptionParser parser(
        "tpnet_cli",
        "flit-level simulator of fault-tolerant routing with "
        "configurable flow control (Dao/Duato/Yalamanchili, ISCA'95)");
    rows.bind(parser);
    parser.addInt("reps", "max replications (95% CI rule when > 1)",
                  &reps);
    parser.addString("sweep", "comma-separated offered loads", &sweep);
    parser.addString("shard",
                     "sweep only: run the load points whose index mod "
                     "N equals i (\"i/N\", round-robin like the "
                     "campaign tools)",
                     &shard_text);
    parser.addJobs(&jobs);
    parser.addFlag("stats", "print structural network statistics",
                   &stats);

    if (const auto rc = parser.parseOrExit(argc, argv, 1))
        return *rc;
    rows.applyTo(&cfg);
    std::vector<double> loads;
    std::string bad_load;
    if (!parseLoads(sweep, &loads, &bad_load)) {
        std::fprintf(stderr, "error: bad load '%s' in --sweep\n",
                     bad_load.c_str());
        return 1;
    }
    chaos::ShardSpec shard;
    if (!shard_text.empty()) {
        if (!chaos::parseShardSpec(shard_text, &shard)) {
            std::fprintf(stderr, "error: malformed --shard '%s' "
                                 "(expected i/N with 0 <= i < N)\n",
                         shard_text.c_str());
            return 1;
        }
        if (sweep.empty()) {
            std::fprintf(stderr, "error: --shard needs --sweep\n");
            return 1;
        }
    }
    cfg.validate();

    std::printf("# %s\n", cfg.summary().c_str());

    if (!sweep.empty()) {
        if (!shard_text.empty()) {
            std::vector<double> mine;
            for (std::size_t i = 0; i < loads.size(); ++i)
                if (chaos::shardOwns(shard, i))
                    mine.push_back(loads[i]);
            std::printf("# shard %d/%d: %zu of %zu load point(s)\n",
                        shard.index, shard.count, mine.size(),
                        loads.size());
            loads.swap(mine);
        }
        SweepOptions opt;
        opt.minReps = reps > 1 ? 2 : 1;
        opt.maxReps = static_cast<std::size_t>(reps);
        opt.jobs = jobs;
        const Series s =
            loadSweep(cfg, protocolName(cfg.protocol), loads, opt);
        printSeries(std::cout, s, "offered");
        for (const SeriesPoint &pt : s.points) {
            if (pt.result.mean.degenerate) {
                std::fprintf(stderr,
                             "error: degenerate workload at offered "
                             "load %g: traffic armed but 0 messages "
                             "offered (pattern self-maps on this "
                             "topology?)\n",
                             pt.x);
                return 1;
            }
        }
        return 0;
    }

    bool degenerate = false;
    if (reps > 1) {
        SweepOptions opt;
        opt.minReps = 2;
        opt.maxReps = static_cast<std::size_t>(reps);
        opt.jobs = jobs;
        const ReplicatedResult r = runReplicated(cfg, opt);
        std::printf("%s\n%s\n", RunResult::header().c_str(),
                    r.mean.row().c_str());
        std::printf("# %zu replications, latency CI95 +-%.2f, "
                    "converged=%s\n",
                    r.replications, r.latencyHw95,
                    r.converged ? "yes" : "no");
        degenerate = r.mean.degenerate;
    } else {
        const RunResult r = Simulator(cfg).run();
        std::printf("%s\n%s\n", RunResult::header().c_str(),
                    r.row().c_str());
        degenerate = r.degenerate;
    }
    if (degenerate) {
        std::fprintf(stderr,
                     "error: degenerate workload: traffic armed but 0 "
                     "messages offered (pattern self-maps on this "
                     "topology?)\n");
        return 1;
    }

    if (stats) {
        // Re-run a short window on a live network for the snapshot.
        Network net(cfg);
        Injector inj(net);
        for (Cycle c = 0; c < cfg.warmup + cfg.measure; ++c) {
            inj.step();
            net.step();
        }
        std::printf("\n%s", collectStats(net).report().c_str());
    }
    return 0;
}
