/**
 * @file
 * tpnet_verify — fuzz the CWG deadlock analyzer across protocol grids.
 *
 * Runs N seeded chaos campaigns with the channel-wait-for-graph tracker
 * armed, sweeping {DP, PCS, SR K=1..5, TP K=0, TP K=3} x topology
 * (8-ary 2-cube, binary and 4-ary 3-cubes, 16-ary 2-cube, 8-ary
 * 2-mesh, express cube, dragonfly) x offered load x fault intensity x
 * ack configuration (TAck, hardware acks).
 * Every campaign audits deadlock freedom online: any wait cycle through
 * an escape class and any knot (a blocked set whose entire candidate
 * ownership closes over itself with no exit) is a violation; benign
 * cycles that persist past their bound surface as warnings. The
 * watchdog and delivery oracle run too, so ordinary chaos violations
 * are also caught.
 *
 * The grid interleaves its topology blocks round-robin, so any window
 * of consecutive seeds (e.g. a 25-campaign CI smoke) samples every
 * topology, including the 3-cubes, the 16-ary torus, and the
 * workload-library cells (bursty on-off, multi-class permutation
 * mixes, closed-loop request-reply).
 *
 * When a campaign fails (and --no-shrink is not given), the tool
 * shrinks it to a minimal still-failing case: class-level reductions
 * first (halve the injection window, drop fault classes, shrink the
 * topology, halve the load), then event-level delta debugging of the
 * pinned fault timeline — each individual kill/restore event is
 * removed if the failure survives without it. The minimal case is
 * printed as a single replayable command: the seed plus every option
 * that differs from the seed's grid cell, with the surviving events
 * inline. SimConfig options come from the shared table in
 * sim/options.hpp; one given on the command line beats every cell.
 *
 * With --recovery the same grid runs in knot-triggered deadlock
 * recovery mode (DESIGN.md Section 6g): escape bandwidth is released
 * to the adaptive pool, and every confirmed knot is healed by aborting
 * a victim instead of being reported as a violation — only heal-budget
 * escalations (livelock) fail a campaign. --compare runs the headline
 * avoidance-vs-recovery experiment: both modes over the full grid at
 * each point of a fault-intensity axis, summarized as one table.
 *
 * Examples:
 *   tpnet_verify --campaigns 200 --jobs 8
 *   tpnet_verify --campaigns 25 --max-cycles 6000
 *   tpnet_verify --campaigns 200 --recovery --victim fewest-hops
 *   tpnet_verify --compare --campaigns 80 --jobs 8
 *   tpnet_verify --replay-seed 42 --k 16 --n 2 --verbose
 *   tpnet_verify --replay-seed 42 --fault-events "120:n:5:-1:0"
 */

#include <cstdio>
#include <string>
#include <vector>

#include "chaos/report.hpp"
#include "chaos/shrink.hpp"
#include "sim/log.hpp"
#include "verify_grid.hpp"

namespace {

using namespace tpnet;
using namespace tpnet::chaos;
using tools::VerifyCli;

/** Aggregate one mode x fault-intensity cell of the comparison. */
struct ModeTotals
{
    int failures = 0;
    std::uint64_t violations = 0;
    std::uint64_t delivered = 0;
    std::uint64_t undeliverable = 0;
    std::uint64_t lost = 0;
    std::uint64_t knots = 0;
    std::uint64_t victims = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t escalations = 0;
    RunningStat healLat;

    void
    fold(const CampaignResult &r)
    {
        if (!r.passed)
            ++failures;
        violations += r.violations.size();
        delivered += r.counters.delivered;
        undeliverable += r.counters.dropped;
        lost += r.counters.lost;
        knots += r.counters.knotsDetected;
        victims += r.counters.victimsAborted;
        retransmits += r.counters.healRetransmits;
        escalations += r.counters.healEscalations;
        healLat.merge(r.counters.healLatency);
    }
};

/**
 * The headline experiment: avoidance (reserved escape bandwidth,
 * Theorem 3 contract verified online) vs recovery (escape pool freed,
 * knots detected and healed) over the full grid, swept across a fault-
 * intensity axis — repeated for each entry of a workload axis (legacy
 * open-loop uniform, bursty on-off uniform, and a two-class transpose
 * mix), so flow-control modes are compared under permutation and
 * bursty traffic, not just Poisson uniform. Each (workload, fx, mode)
 * cell runs the same seeds, so the fault timelines are shared between
 * the columns.
 */
int
runComparison(const VerifyCli &cli)
{
    const double axis[] = {0.5, 1.0, 2.0, 4.0};
    struct WorkloadAxis
    {
        const char *name;
        const char *classes;  ///< "" = the grid cell's own workload
    };
    const WorkloadAxis workloads[] = {
        {"uniform", ""},
        {"bursty", "pattern=uniform,load=0.15,burst=8,duty=0.25"},
        {"transpose", "pattern=transpose,load=0.10,prio=1;"
                      "pattern=uniform,load=0.05"},
    };

    std::printf("# avoidance vs recovery: %d campaign(s) per cell over "
                "the %zu-cell grid, fault-intensity axis x{0.5, 1, 2, "
                "4}, workload axis x{uniform, bursty, transpose}, "
                "victim policy %s\n",
                cli.campaigns, cli.grid.size(),
                victimPolicyName(cli.spec(cli.seed, 1.0).cfg.victimPolicy));
    std::printf("# %-9s %-4s %-10s %5s %5s %7s %8s %8s %5s %10s %8s "
                "%7s %9s\n",
                "workload", "fx", "mode", "fail", "viol", "knots",
                "victims", "retx", "esc", "delivered", "undeliv",
                "lost", "heal_lat");

    std::vector<CampaignResult> all_results;
    int failures = 0;
    for (const WorkloadAxis &w : workloads) {
    for (double fx : axis) {
        for (int mode = 0; mode < 2; ++mode) {
            const bool recovery = mode == 1;
            std::vector<CampaignSpec> specs;
            specs.reserve(static_cast<std::size_t>(cli.campaigns));
            for (int i = 0; i < cli.campaigns; ++i) {
                CampaignSpec spec = cli.spec(
                    cli.seed + static_cast<std::uint64_t>(i), fx);
                std::string err;
                if (w.classes[0] != '\0' &&
                    !setConfigOption(&spec.cfg, "classes", w.classes,
                                     &err))
                    tpnet_panic("bad workload axis spec '", w.classes,
                                "': ", err);
                spec.cfg.recoveryMode = recovery;
                specs.push_back(spec);
            }
            const std::vector<CampaignResult> results =
                runCampaigns(specs, cli.jobs);
            ModeTotals t;
            for (const CampaignResult &r : results)
                t.fold(r);
            failures += t.failures;
            char lat[32];
            if (t.healLat.count() > 0)
                std::snprintf(lat, sizeof lat, "%9.1f",
                              t.healLat.mean());
            else
                std::snprintf(lat, sizeof lat, "%9s", "-");
            std::printf("  %-9s %-4.1f %-10s %5d %5llu %7llu %8llu "
                        "%8llu %5llu %10llu %8llu %7llu %s\n",
                        w.name, fx,
                        recovery ? "recovery" : "avoidance",
                        t.failures,
                        static_cast<unsigned long long>(t.violations),
                        static_cast<unsigned long long>(t.knots),
                        static_cast<unsigned long long>(t.victims),
                        static_cast<unsigned long long>(t.retransmits),
                        static_cast<unsigned long long>(t.escalations),
                        static_cast<unsigned long long>(t.delivered),
                        static_cast<unsigned long long>(
                            t.undeliverable),
                        static_cast<unsigned long long>(t.lost), lat);
            std::fflush(stdout);
            for (const CampaignResult &r : results)
                all_results.push_back(r);
        }
    }
    }

    if (!cli.jsonPath.empty() &&
        !writeCampaignJson(cli.jsonPath, "tpnet_verify --compare",
                           all_results)) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     cli.jsonPath.c_str());
        return 2;
    }
    if (failures == 0) {
        std::printf("# comparison clean: no violations in either "
                    "mode\n");
        return 0;
    }
    std::printf("# %d campaign(s) FAILED across the comparison\n",
                failures);
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    VerifyCli cli;
    OptionParser parser(
        "tpnet_verify",
        "fuzz the online channel-wait-for-graph deadlock analyzer "
        "(knot-based verdicts) across protocol / topology / K / load / "
        "fault grids; failing seeds are shrunk class-level then "
        "event-by-event to a minimal replayable case. A given option "
        "beats every grid cell");
    cli.bind(parser);

    if (const auto rc = parser.parseOrExit(argc, argv, 2))
        return *rc;
    const bool replay = parser.given("replay-seed");
    std::string error;
    if (!cli.resolve(&error) ||
        !tools::resolveShardCli(&cli.shard, !cli.jsonPath.empty(), replay,
                                &error) ||
        !tools::validateCheckpointCli(cli.checkpoint, replay, &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
    }
    if (cli.campaigns < 1) {
        // A gate that runs zero campaigns passes vacuously; refuse.
        std::fprintf(stderr, "error: --campaigns must be >= 1\n");
        return 2;
    }

    if (cli.compare) {
        if (tools::sharded(cli.shard) || !cli.shard.mergeDir.empty() ||
            !cli.shard.manifestPath.empty() ||
            tools::checkpointArmed(cli.checkpoint)) {
            std::fprintf(stderr, "error: sharding/checkpoint options "
                                 "cannot be combined with --compare\n");
            return 2;
        }
        for (const char *axis :
             {"classes", "recovery", "fault-scale", "node-kills",
              "link-kills", "intermittents", "fault-events"}) {
            if (parser.given(axis)) {
                std::fprintf(stderr, "error: --%s is an axis of "
                                     "--compare\n",
                             axis);
                return 2;
            }
        }
        return runComparison(cli);
    }

    std::vector<std::uint64_t> seeds;
    if (replay) {
        seeds.push_back(cli.replaySeed);
    } else {
        for (int i = 0; i < cli.campaigns; ++i)
            seeds.push_back(cli.seed + static_cast<std::uint64_t>(i));
    }

    std::vector<CampaignSpec> specs;
    specs.reserve(seeds.size());
    for (std::uint64_t s : seeds) {
        CampaignSpec spec = cli.spec(s, cli.faultScale);
        if (replay)
            tools::applyCheckpointCli(cli.checkpoint, &spec);
        specs.push_back(spec);
    }
    const bool recovery = specs.front().cfg.recoveryMode;

    // Sharded execution: the full spec list above is exactly what a
    // monolithic run would execute, so the shard keys, the manifest,
    // and the merge validation all derive from it.
    tools::ShardRun shard;
    if (const auto rc = tools::enterShard(cli.shard, "tpnet_verify",
                                          &specs, &seeds, cli.jsonPath,
                                          &shard))
        return *rc;

    std::printf("# tpnet_verify: %zu campaign(s), grid of %zu cells "
                "(8-ary/16-ary 2-cubes, binary/4-ary 3-cubes, mesh, "
                "express cube, dragonfly, ack variants, workload "
                "cells), inject %llu + drain %llu "
                "cycles, CWG armed%s\n",
                seeds.size(), cli.grid.size(),
                static_cast<unsigned long long>(cli.maxCycles),
                static_cast<unsigned long long>(cli.drain),
                recovery ? ", RECOVERY mode" : "");

    const std::vector<CampaignResult> results =
        runCampaigns(specs, cli.jobs);

    int failures = 0;
    std::uint64_t cycles_seen = 0;
    std::uint64_t benign_seen = 0;
    std::uint64_t warnings_seen = 0;
    std::uint64_t knots_seen = 0;
    std::uint64_t victims_seen = 0;
    std::uint64_t retx_seen = 0;
    std::uint64_t esc_seen = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const CampaignResult &r = results[i];
        cycles_seen += r.cwgCycles;
        benign_seen += r.cwgBenign;
        warnings_seen += r.cwgWarnings;
        knots_seen += r.counters.knotsDetected;
        victims_seen += r.counters.victimsAborted;
        retx_seen += r.counters.healRetransmits;
        esc_seen += r.counters.healEscalations;
        std::printf("%-40s %s\n",
                    describe(specs[i].cfg, cli.cell(seeds[i])).c_str(),
                    r.summary().c_str());
        if (cli.verbose) {
            for (const std::string &w : r.warnings)
                std::printf("    ~ %s\n", w.c_str());
        }
        if (r.passed) {
            std::fflush(stdout);
            continue;
        }
        ++failures;
        const std::size_t show =
            cli.verbose ? r.violations.size()
                    : std::min<std::size_t>(r.violations.size(), 5);
        for (std::size_t j = 0; j < show; ++j)
            std::printf("    ! %s\n", r.violations[j].c_str());
        if (show < r.violations.size()) {
            std::printf("    ! ... %zu more (--verbose for all)\n",
                        r.violations.size() - show);
        }
        const std::size_t dump =
            cli.verbose ? r.liveDump.size()
                    : std::min<std::size_t>(r.liveDump.size(), 10);
        for (std::size_t j = 0; j < dump; ++j)
            std::printf("    live %s\n", r.liveDump[j].c_str());
        if (dump < r.liveDump.size()) {
            std::printf("    live ... %zu more (--verbose for all)\n",
                        r.liveDump.size() - dump);
        }
        if (!cli.noShrink) {
            const ShrinkOutcome shrunk =
                shrinkCampaign(specs[i], runCampaign);
            std::printf("    shrunk %d class step(s) + %d event "
                        "step(s)%s -> minimal replay:\n"
                        "      tpnet_verify %s\n",
                        shrunk.classSteps, shrunk.eventSteps,
                        shrunk.eventsPinned ? ""
                                            : " (timeline not pinned)",
                        joinArgs(cli.replayArgs(shrunk.spec)).c_str());
        } else if (!replay) {
            std::printf("    replay: tpnet_verify %s\n",
                        joinArgs(cli.replayArgs(specs[i])).c_str());
        }
        std::fflush(stdout);
    }

    std::printf("# cwg: %llu wait cycle(s) observed across all "
                "campaigns, %llu benign, %llu persistent warning(s)\n",
                static_cast<unsigned long long>(cycles_seen),
                static_cast<unsigned long long>(benign_seen),
                static_cast<unsigned long long>(warnings_seen));
    if (recovery) {
        std::printf("# recovery: %llu knot(s) detected, %llu victim "
                    "abort(s), %llu retransmission(s), %llu "
                    "escalation(s)\n",
                    static_cast<unsigned long long>(knots_seen),
                    static_cast<unsigned long long>(victims_seen),
                    static_cast<unsigned long long>(retx_seen),
                    static_cast<unsigned long long>(esc_seen));
    }
    if (replay && tools::checkpointArmed(cli.checkpoint))
        tools::printCheckpointReport(cli.checkpoint, results[0]);
    if (!tools::writeResults(cli.shard, shard, "tpnet_verify", results,
                             cli.jsonPath)) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     cli.jsonPath.c_str());
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
