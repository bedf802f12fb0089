/**
 * @file
 * tpbench — host time of the tpnet simulator on fixed workloads.
 *
 *   tpbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
 *
 * A pass runs a workload's fixed job set once: one Simulator::run, or a
 * list of chaos::runCampaign calls. Passes repeat until S seconds are
 * spent; every pass of one seed must produce the same simulated results
 * (the sim_digest line).
 *
 * --trace 0 times untraced passes and prints the end-to-end metrics.
 * An untraced pass runs the replicas of Simulator::run and runCampaign
 * (replica.hpp) with spans off and is timed per cycle-loop iteration.
 * The library entry points themselves run one pass, and every pass
 * must reproduce its results bit for bit. --trace 1 alternates untraced
 * passes with traced replica passes, checks those the same way, writes
 * the spans of the first traced pass to DIR/spans-<workload>.tsv and
 * prints the per-layer metrics (medians over all traced passes).
 *
 * The last stdout line is one JSON object: correct, attempted, failed,
 * metrics. Exit status 3 means a replica or determinism mismatch, 2 a
 * usage error, 4 a metric that cannot be reported, 5 that every job
 * aborted the process. A job that aborts (tpnet_panic) is found first in
 * forked children (screen.hpp) and counts as failed in every pass.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "core/network.hpp"
#include "core/simulator.hpp"
#include "digest.hpp"
#include "replica.hpp"
#include "screen.hpp"
#include "spans.hpp"
#include "workloads.hpp"

using namespace tpnet;
using namespace tpbench;

namespace {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string out = ".bench_build/tpbench-run";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "tpbench: %s\nusage: tpbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v, &end, 10);
            if (*v == '-' || *end)
                usage("--seed takes a non-negative integer");
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v, &end);
            if (*end || !(o.seconds > 0.0) || o.seconds > 3600.0)
                usage("--seconds takes a number in (0, 3600]");
        } else if (a == "--trace") {
            if (std::strcmp(v, "0") && std::strcmp(v, "1"))
                usage("--trace takes 0 or 1");
            o.trace = *v - '0';
        } else if (a == "--out") {
            o.out = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

double
seconds(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/** Simulated totals of one pass, summed over its jobs. */
struct Work
{
    std::uint64_t cycles = 0;  ///< simulated cycles advanced
    Counters c;                ///< summed scalar counters (see add())
    VcMetrics vc;
    Histogram latency{8.0, 256};
    double throughput = 0.0;   ///< simulation workloads only
    double deliveredFrac = 0.0;
    std::uint64_t faultsFired = 0;
    std::uint64_t nodeCycles = 0;

    void
    add(const Counters &k)
    {
        c.generated += k.generated;
        c.notAccepted += k.notAccepted;
        c.delivered += k.delivered;
        c.dropped += k.dropped;
        c.lost += k.lost;
        c.retransmits += k.retransmits;
        c.headerMoves += k.headerMoves;
        c.backtracks += k.backtracks;
        c.misroutes += k.misroutes;
        c.detoursBuilt += k.detoursBuilt;
        c.setupAborts += k.setupAborts;
        c.dataCrossings += k.dataCrossings;
        c.ctrlCrossings += k.ctrlCrossings;
        c.posAcks += k.posAcks;
        c.negAcks += k.negAcks;
        c.killFlits += k.killFlits;
        c.dataFlitsDelivered += k.dataFlitsDelivered;
        c.dynamicFaults += k.dynamicFaults;
        c.linksRestored += k.linksRestored;
        c.messagesKilled += k.messagesKilled;
        latency.merge(k.latencyHist);
    }

    std::uint64_t flitHops() const
    {
        return c.dataCrossings + c.ctrlCrossings;
    }
};

struct Pass
{
    double wall = 0.0;              ///< host seconds
    std::vector<double> jobWall;    ///< host seconds per job
    std::uint64_t digest = kDigestBasis;
    int jobs = 0;
    int failed = 0;
    Work work;
    // Traced passes only.
    JobCounts counts;
    std::array<std::int64_t, kLayers> layerNs{};  ///< self time per layer
    std::vector<double> stepUs;     ///< self time of each Network::step
};

/** Correctness of one simulation job; empty when it passes. */
std::string
checkRun(const RunResult &r)
{
    const Counters &k = r.counters;
    if (r.degenerate || k.measuredGenerated == 0 || !(r.throughput > 0.0))
        return "degenerate workload: nothing measured";
    if (k.measuredDelivered + k.measuredDropped != k.measuredGenerated)
        return "measured messages not conserved at drain end: " +
               std::to_string(k.measuredGenerated) + " generated, " +
               std::to_string(k.measuredDelivered) + " delivered, " +
               std::to_string(k.measuredDropped) + " dropped";
    if (k.delivered + k.dropped + k.lost > k.generated)
        return "more messages retired than generated";
    return {};
}

/** Correctness of one campaign job; empty when it passes. */
std::string
checkCampaign(const chaos::CampaignResult &r)
{
    if (!r.passed)
        return r.violations.empty() ? "campaign failed"
                                    : "campaign failed: " + r.violations[0];
    if (!r.quiescent || r.degenerate)
        return "campaign not quiescent or degenerate";
    const Counters &k = r.counters;
    if (k.delivered + k.dropped + k.lost != k.generated)
        return "messages not conserved at quiescence";
    return {};
}

class Bench
{
  public:
    explicit Bench(const Workload &w) : w_(w)
    {
        if (w_.simulation) {
            setupCfgs_.push_back(replicationConfig(w_.sim, 0));
        } else {
            for (const chaos::CampaignSpec &spec : w_.campaigns)
                setupCfgs_.push_back(campaignConfig(spec));
        }
    }

    std::size_t
    jobCount() const
    {
        return w_.simulation ? 1 : w_.campaigns.size();
    }

    /** Run job @p i through the library, discarding the result. */
    void
    runJob(std::size_t i) const
    {
        if (w_.simulation)
            Simulator(w_.sim).run(0);
        else
            chaos::runCampaign(w_.campaigns[i]);
    }

    /**
     * Jobs that abort the process (a simulator panic) are left out of
     * every pass and counted as failed in each.
     */
    void
    setCrashed(const std::vector<std::size_t> &jobs)
    {
        crashed_.assign(jobCount(), false);
        for (std::size_t i : jobs) {
            crashed_[i] = true;
            failures.insert("job " + std::to_string(i) +
                            ": the simulator aborted (see stderr)");
        }
    }

    std::size_t
    liveJobs() const
    {
        return static_cast<std::size_t>(
            std::count(crashed_.begin(), crashed_.end(), false));
    }

    /** One pass through the library entry points, untraced. */
    Pass
    library()
    {
        Pass p;
        const std::int64_t t0 = nowNs();
        for (std::size_t i = 0; i < jobCount(); ++i) {
            if (crashed_[i]) {
                noteCrash(p);
                continue;
            }
            const std::int64_t j0 = nowNs();
            if (w_.simulation) {
                const RunResult r = Simulator(w_.sim).run(0);
                p.jobWall.push_back(seconds(nowNs() - j0));
                noteRun(p, r);
            } else {
                const chaos::CampaignResult r =
                    chaos::runCampaign(w_.campaigns[i]);
                p.jobWall.push_back(seconds(nowNs() - j0));
                noteCampaign(p, r);
            }
        }
        p.wall = seconds(nowNs() - t0);
        return p;
    }

    /**
     * One timed pass: the replicas with spans off and a clock read after
     * every cycle-loop iteration, lowering fastest[i] to the fastest
     * host seconds seen for segment i, one iteration of one job. On a
     * shared host a job of a second, or a pass of campaigns, rarely
     * runs clear of co-tenants from start to end, but each cycle of a
     * tenth of a millisecond or less does in some pass (METRICS.md).
     */
    Pass
    timed()
    {
        Pass p;
        Tracer tr;
        tr.spans.setEnabled(false);
        tr.marks = &marks_;
        std::size_t segment = 0;
        const std::int64_t t0 = nowNs();
        for (std::size_t i = 0; i < jobCount(); ++i) {
            if (crashed_[i]) {
                noteCrash(p);
                continue;
            }
            marks_.clear();
            if (w_.simulation) {
                const RunResult r = tracedRun(w_.sim, 0, tr);
                marks_.push_back(nowNs());
                noteRun(p, r);
            } else {
                const chaos::CampaignResult r =
                    tracedCampaign(w_.campaigns[i], tr);
                marks_.push_back(nowNs());
                noteCampaign(p, r);
            }
            p.jobWall.push_back(seconds(marks_.back() - marks_.front()));
            segment = foldFastest(segment);
        }
        p.wall = seconds(nowNs() - t0);
        sized_ = true;
        if (segment != fastest.size())
            segmentMismatch();
        return p;
    }

    /**
     * Size fastest for @p segments per pass up front, so that growing it
     * does not move the peak resident set from run to run.
     */
    void reserveSegments(std::size_t segments) { fastest.reserve(segments); }

    /** One pass through the traced replicas; @p tr holds its spans. */
    Pass
    traced(Tracer &tr)
    {
        Pass p;
        tr.counts = JobCounts{};
        tr.spans.clear();
        const std::int64_t t0 = nowNs();
        for (std::size_t i = 0; i < jobCount(); ++i) {
            if (crashed_[i]) {
                noteCrash(p);
                continue;
            }
            tr.spans.setJob(nextJob_++);
            if (w_.simulation)
                noteRun(p, tracedRun(w_.sim, 0, tr));
            else
                noteCampaign(p, tracedCampaign(w_.campaigns[i], tr));
        }
        p.wall = seconds(nowNs() - t0);
        p.counts = tr.counts;
        if (w_.simulation)
            p.work.cycles = tr.counts.cycles;

        const std::vector<Span> &spans = tr.spans.spans();
        const std::vector<std::int64_t> self = selfTimes(spans);
        p.layerNs = layerSelfNs(spans, self);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            if (spans[i].layer == Layer::NetworkStep)
                p.stepUs.push_back(static_cast<double>(self[i]) * 1e-3);
        }
        return p;
    }

    /**
     * Construct (and destroy) every Network of one pass, repeatedly for
     * about @p budget seconds (at least once), lowering @p best[i] to
     * the fastest host seconds seen for network i.
     */
    void
    measureSetup(double budget, std::vector<double> &best)
    {
        best.resize(setupCfgs_.size(), HUGE_VAL);
        const std::int64_t start = nowNs();
        do {
            for (std::size_t i = 0; i < setupCfgs_.size(); ++i) {
                const std::int64_t t0 = nowNs();
                {
                    Network net(setupCfgs_[i]);
                }
                best[i] = std::min(best[i], seconds(nowNs() - t0));
            }
        } while (seconds(nowNs() - start) < budget);
    }

    std::set<std::string> failures;
    /// Per timed segment, the fastest host seconds over timed passes.
    /// Every pass runs the same live jobs in the same order and, being
    /// deterministic, the same cycles, so segment i is the same work
    /// in each.
    std::vector<double> fastest;

  private:
    /**
     * Fold the segments of the job just timed into fastest, from index
     * @p first on (the first pass appends them). @return the index
     * after the job's last segment.
     */
    std::size_t
    foldFastest(std::size_t first)
    {
        const std::size_t n = marks_.size() - 1;
        if (!sized_)
            fastest.resize(first + n, HUGE_VAL);
        if (first + n > fastest.size())
            segmentMismatch();
        for (std::size_t k = 0; k < n; ++k)
            fastest[first + k] = std::min(
                fastest[first + k], seconds(marks_[k + 1] - marks_[k]));
        return first + n;
    }

    [[noreturn]] static void
    segmentMismatch()
    {
        std::fprintf(stderr, "tpbench: passes differ in segments\n");
        std::exit(3);
    }

    void
    noteCrash(Pass &p)
    {
        ++p.jobs;
        ++p.failed;
        p.digest = foldDigest(p.digest, 0);
    }

    void
    noteRun(Pass &p, const RunResult &r)
    {
        ++p.jobs;
        p.digest = foldDigest(p.digest, resultDigest(r));
        const std::string err = checkRun(r);
        if (!err.empty()) {
            ++p.failed;
            failures.insert(err);
        }
        p.work.add(r.counters);
        p.work.vc.merge(r.vc);
        p.work.throughput += r.throughput;
        p.work.deliveredFrac += r.deliveredFraction;
    }

    void
    noteCampaign(Pass &p, const chaos::CampaignResult &r)
    {
        ++p.jobs;
        p.digest = foldDigest(p.digest, campaignDigest(r));
        const std::string err = checkCampaign(r);
        if (!err.empty()) {
            ++p.failed;
            failures.insert("seed " + std::to_string(r.seed) + ": " + err);
        }
        p.work.add(r.counters);
        p.work.cycles += r.cycles;
        p.work.faultsFired += r.faultsFired;
        p.work.nodeCycles +=
            r.cycles * static_cast<std::uint64_t>(
                           w_.campaigns.front().cfg.nodes());
    }

    const Workload &w_;
    std::vector<bool> crashed_;
    std::vector<SimConfig> setupCfgs_;
    std::uint32_t nextJob_ = 0;
    std::vector<std::int64_t> marks_;
    bool sized_ = false;  ///< fastest has every segment of a pass
};

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

double
ratio(double a, double b)
{
    return b > 0.0 ? a / b : 0.0;
}

std::string
fmt(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
emit(const std::vector<Metric> &metrics, bool correct, int attempted,
     int failed)
{
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        if (!validMetricName(m.name) || !std::isfinite(m.value)) {
            std::fprintf(stderr, "tpbench: bad metric %s = %g\n",
                         m.name.c_str(), m.value);
            std::exit(4);
        }
        std::printf("metric %-28s %22s %s\n", m.name.c_str(),
                    fmt(m.value).c_str(), m.unit);
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                fmt(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

/**
 * Peak resident set of this process image, from VmHWM. getrusage's
 * ru_maxrss would also count the parent that exec'd us.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    std::fprintf(stderr, "tpbench: no VmHWM in /proc/self/status\n");
    std::exit(4);
}

[[noreturn]] void
mismatch(const char *what, std::uint64_t want, std::uint64_t got)
{
    std::fprintf(stderr,
                 "tpbench: %s: digest %s differs from the reference %s\n",
                 what, hex64(got).c_str(), hex64(want).c_str());
    std::exit(3);
}

/** End-to-end metrics from untraced passes. */
std::vector<Metric>
endToEnd(const std::vector<Pass> &passes, const std::vector<double> &fastest,
         std::uint64_t cycles, std::uint64_t flitHops, double setup)
{
    // Every segment at its fastest over the run, summed: on a shared
    // host, co-tenants slow the same work by up to half for seconds to
    // minutes at a time, which moves a run's median pass several times
    // more than this (METRICS.md).
    std::vector<double> walls, jobBest = passes.front().jobWall;
    for (const Pass &p : passes) {
        walls.push_back(p.wall);
        for (std::size_t i = 0; i < jobBest.size(); ++i)
            jobBest[i] = std::min(jobBest[i], p.jobWall[i]);
    }
    const double wall = std::accumulate(fastest.begin(), fastest.end(), 0.0);
    std::printf("pass wall_s: min %.6f median %.6f over %zu passes; "
                "fastest of each job summed %.6f; fastest of each of %zu "
                "segments summed %.6f\n",
                *std::min_element(walls.begin(), walls.end()),
                median(walls), walls.size(),
                std::accumulate(jobBest.begin(), jobBest.end(), 0.0),
                fastest.size(), wall);
    return {
        {"wall_s", wall, "s"},
        {"setup_s", setup, "s"},
        {"sim_cycles_per_s", ratio(static_cast<double>(cycles), wall), "1/s"},
        {"flit_hops_per_s", ratio(static_cast<double>(flitHops), wall),
         "1/s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

/** Per-layer metrics from traced passes (and the untraced ones beside). */
std::vector<Metric>
perLayer(bool simulation, const std::vector<Pass> &tracedPasses,
         const std::vector<Pass> &untracedPasses)
{
    auto medianOf = [&](auto f) {
        std::vector<double> v;
        for (const Pass &p : tracedPasses)
            v.push_back(f(p));
        return median(v);
    };
    auto layerS = [&](std::initializer_list<Layer> ls) {
        return medianOf([&](const Pass &p) {
            std::int64_t ns = 0;
            for (Layer l : ls)
                ns += p.layerNs[static_cast<std::size_t>(l)];
            return seconds(ns);
        });
    };
    const Pass &p0 = tracedPasses.front();
    const Work &w = p0.work;
    const JobCounts &k = p0.counts;
    const double stepped = static_cast<double>(k.cyclesStepped);
    const double skipped = static_cast<double>(k.cyclesSkipped);
    const double hops = static_cast<double>(w.flitHops());
    const double stepS = layerS({Layer::NetworkStep});

    std::vector<double> stepUs;
    for (const Pass &p : tracedPasses)
        stepUs.insert(stepUs.end(), p.stepUs.begin(), p.stepUs.end());
    double stepP99 = 0.0;
    if (!tailQuantile(stepUs, 0.99, &stepP99)) {
        std::fprintf(stderr, "tpbench: too few steps for a p99\n");
        std::exit(4);
    }

    static constexpr const char *hookNames[kHooks] = {
        "messageCreated", "flitDelivered", "messageTerminal"};
    std::uint64_t hookCalls = 0;
    for (std::size_t i = 0; i < kHooks; ++i) {
        hookCalls += k.hookCalls[i];
        std::printf("oracle hook %-16s %10llu calls %12lld ns\n",
                    hookNames[i],
                    static_cast<unsigned long long>(k.hookCalls[i]),
                    static_cast<long long>(k.hookNs[i]));
    }
    const double oracleS = medianOf([](const Pass &p) {
        std::int64_t ns = 0;
        for (std::int64_t h : p.counts.hookNs)
            ns += h;
        return seconds(ns);
    });

    // Per-campaign host seconds, untraced. A campaign pass supplies
    // one sample per campaign; simulation workloads have none.
    std::vector<double> campaignS;
    double campaignP90 = 0.0;
    if (!simulation) {
        for (const Pass &p : untracedPasses)
            campaignS.insert(campaignS.end(), p.jobWall.begin(),
                             p.jobWall.end());
        if (!tailQuantile(campaignS, 0.90, &campaignP90)) {
            std::fprintf(stderr, "tpbench: too few campaigns for a p90\n");
            std::exit(4);
        }
        // The highest percentile this sample supports, beside the fixed
        // p90 metric.
        const double q = highestSupportedQuantile(campaignS.size());
        double tail = 0.0;
        tailQuantile(campaignS, q, &tail);
        std::printf("campaign_s p%g %.6f s over %zu campaigns\n", q * 100.0,
                    tail, campaignS.size());
    }

    std::vector<double> tracedWall, plainWall;
    for (const Pass &p : tracedPasses)
        tracedWall.push_back(p.wall);
    for (const Pass &p : untracedPasses)
        plainWall.push_back(p.wall);

    const double nodeCycles = static_cast<double>(w.nodeCycles);
    const double retired =
        static_cast<double>(w.c.delivered + w.c.dropped + w.c.lost);
    const double nJobs = static_cast<double>(p0.jobs);

    return {
        {"core.step_s", stepS, "s"},
        {"core.step_us_p50", median(stepUs), "us"},
        {"core.step_us_p99", stepP99, "us"},
        {"core.cycles_stepped", stepped, "count"},
        {"core.cycles_skipped", skipped, "count"},
        {"core.skip_frac", ratio(skipped, stepped + skipped), "ratio"},
        {"core.ns_per_flit_hop", ratio(stepS * 1e9, hops), "ns"},
        {"core.live_msgs_mean",
         ratio(static_cast<double>(k.liveMsgSum), stepped), "count"},
        {"core.net_ctor_s", layerS({Layer::NetworkCtor}), "s"},
        {"topology.build_s", layerS({Layer::MakeTopology}), "s"},
        {"traffic.inject_s", layerS({Layer::InjectorStep}), "s"},
        {"traffic.offered", static_cast<double>(k.offered), "count"},
        {"traffic.rejected_frac",
         ratio(static_cast<double>(w.c.notAccepted),
               static_cast<double>(w.c.generated + w.c.notAccepted)),
         "ratio"},
        {"obs.sample_s",
         layerS({Layer::MetricsTick, Layer::MetricsSkipIdle}), "s"},
        {"obs.samples", static_cast<double>(w.vc.samples), "count"},
        {"obs.checkpoint_s", layerS({Layer::CheckpointWrite}), "s"},
        {"obs.checkpoint_bytes", static_cast<double>(k.checkpointBytes),
         "bytes"},
        {"obs.checkpoints", static_cast<double>(k.checkpoints), "count"},
        {"chaos.fault_apply_s", layerS({Layer::FaultApply}), "s"},
        {"chaos.faults_fired", static_cast<double>(w.faultsFired), "count"},
        {"chaos.watchdog_s",
         layerS({Layer::WatchdogObserve, Layer::WatchdogSkipTo}), "s"},
        {"chaos.oracle_s", oracleS, "s"},
        {"chaos.oracle_events", static_cast<double>(hookCalls), "count"},
        {"chaos.final_check_s", layerS({Layer::FinalCheck}), "s"},
        {"chaos.campaign_s_p50", median(campaignS), "s"},
        {"chaos.campaign_s_p90", campaignP90, "s"},
        {"chaos.campaign_samples", static_cast<double>(campaignS.size()),
         "count"},
        {"verify.cwg_wait_cycles", static_cast<double>(k.cwgCycles),
         "count"},
        {"verify.cwg_benign", static_cast<double>(k.cwgBenign), "count"},
        {"routing.header_moves", static_cast<double>(w.c.headerMoves),
         "count"},
        {"routing.backtracks", static_cast<double>(w.c.backtracks),
         "count"},
        {"routing.misroutes", static_cast<double>(w.c.misroutes), "count"},
        {"routing.detours", static_cast<double>(w.c.detoursBuilt), "count"},
        {"routing.setup_aborts", static_cast<double>(w.c.setupAborts),
         "count"},
        {"routing.backtrack_ratio",
         ratio(static_cast<double>(w.c.backtracks),
               static_cast<double>(w.c.headerMoves)),
         "ratio"},
        {"flow.data_hops", static_cast<double>(w.c.dataCrossings), "count"},
        {"flow.ctrl_hops", static_cast<double>(w.c.ctrlCrossings), "count"},
        {"flow.ctrl_share",
         ratio(static_cast<double>(w.c.ctrlCrossings), hops), "ratio"},
        {"flow.neg_ack_ratio",
         ratio(static_cast<double>(w.c.negAcks),
               static_cast<double>(w.c.posAcks + w.c.negAcks)),
         "ratio"},
        {"flow.kill_flits", static_cast<double>(w.c.killFlits), "count"},
        {"fault.dynamic_faults", static_cast<double>(w.c.dynamicFaults),
         "count"},
        {"fault.msgs_killed", static_cast<double>(w.c.messagesKilled),
         "count"},
        {"fault.links_restored", static_cast<double>(w.c.linksRestored),
         "count"},
        {"fault.retransmits", static_cast<double>(w.c.retransmits),
         "count"},
        {"router.vc_occupancy", w.vc.occupancy.mean(), "ratio"},
        {"router.data_util", w.vc.dataUtil.mean(), "flits/cycle"},
        {"router.ctrl_util", w.vc.ctrlUtil.mean(), "flits/cycle"},
        {"router.rcu_depth", w.vc.rcuDepth.mean(), "count"},
        {"model.throughput",
         simulation ? w.throughput / nJobs
             : ratio(static_cast<double>(w.c.dataFlitsDelivered),
                     nodeCycles),
         "flits/node/cycle"},
        {"model.delivered_frac",
         simulation ? w.deliveredFrac / nJobs
             : ratio(static_cast<double>(w.c.delivered), retired),
         "ratio"},
        {"model.latency_p50_cycles", w.latency.percentile(0.5), "cycles"},
        {"model.latency_p99_cycles", w.latency.percentile(0.99), "cycles"},
        {"trace.overhead_frac",
         ratio(median(tracedWall), median(plainWall)) - 1.0, "ratio"},
    };
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream os(path, std::ios::trunc);
    os << "# job\tspan\tparent\tname\tstart_ns\tend_ns\thook_ns\n";
    const std::int64_t base = spans.empty() ? 0 : spans.front().start;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << s.job << '\t' << i << '\t' << s.parent << '\t'
           << layerName(s.layer) << '\t' << s.start - base << '\t'
           << s.end - base << '\t' << s.hookNs << '\n';
    }
    if (!os) {
        std::fprintf(stderr, "tpbench: cannot write %s\n", path.c_str());
        std::exit(4);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    std::error_code ec;
    std::filesystem::create_directories(opt.out, ec);
    if (ec)
        usage(("cannot create " + opt.out).c_str());

    Workload w;
    if (!makeWorkload(opt.workload, opt.seed,
                      opt.out + "/checkpoint-" + opt.workload + ".tpck",
                      &w))
        usage(("unknown workload " + opt.workload).c_str());

    Bench bench(w);
    Tracer tracer;
    std::vector<Pass> plain, tracedPasses;
    std::vector<Span> firstSpans;  // of the first traced pass
    int attempted = 0, failed = 0;
    auto count = [&](const Pass &p) {
        attempted += p.jobs;
        failed += p.failed;
    };
    auto printFailures = [&] {
        for (const std::string &f : bench.failures)
            std::printf("FAIL %s\n", f.c_str());
    };

    // A job that aborts the process (a simulator panic) is found first,
    // in forked children; it is left out of every pass and counted as
    // failed in each.
    bench.setCrashed(crashingJobs(
        bench.jobCount(), [&](std::size_t i) { bench.runJob(i); }));
    if (bench.liveJobs() == 0) {
        printFailures();
        std::fprintf(stderr, "tpbench: every job aborted; nothing to time\n");
        return 5;
    }

    // Reference pass: the replica with span recording off, untimed. It
    // warms caches and the allocator, and gives the simulated cycle
    // count (which Simulator::run does not report). Every later pass,
    // traced or not, must reproduce its digest.
    tracer.spans.setEnabled(false);
    const Pass ref = bench.traced(tracer);
    tracer.spans.setEnabled(true);
    count(ref);
    const std::uint64_t cycles = ref.work.cycles;
    const std::uint64_t flitHops = ref.work.flitHops();
    std::printf("workload %s seed %llu: %d jobs per pass, %llu cycles, "
                "%llu flit hops\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), ref.jobs,
                static_cast<unsigned long long>(cycles),
                static_cast<unsigned long long>(flitHops));
    std::printf("sim_digest %s\n", hex64(ref.digest).c_str());

    // Passes are timed through the replicas; the library entry points
    // themselves must give the same results.
    {
        const Pass lib = bench.library();
        count(lib);
        if (lib.digest != ref.digest)
            mismatch("library pass vs replica", ref.digest, lib.digest);
        std::printf("library pass %.6f s, same results as the replica\n",
                    lib.wall);
    }
    // A timed pass has one segment per cycle-loop iteration and one
    // closing each job.
    bench.reserveSegments(ref.counts.cyclesStepped + bench.liveJobs());

    double setup = 0.0;
    const std::int64_t start = nowNs();
    auto elapsed = [&] { return seconds(nowNs() - start); };
    auto runUntraced = [&] {
        Pass p = bench.timed();
        count(p);
        if (p.digest != ref.digest)
            mismatch("timed pass vs reference pass", ref.digest, p.digest);
        plain.push_back(std::move(p));
    };

    if (opt.trace == 0) {
        // Set-up is timed in short bursts before every pass, so that its
        // minimum is taken over the whole run rather than one moment.
        std::vector<double> setupBest, walls;
        for (;;) {
            bench.measureSetup(0.1, setupBest);
            runUntraced();
            walls.push_back(plain.back().wall);
            if (plain.size() >= 3 && elapsed() + median(walls) > opt.seconds)
                break;
        }
        for (double s : setupBest)
            setup += s;
    } else {
        // Alternate so both kinds see the same machine conditions. A
        // campaign workload runs until its untraced campaigns support a
        // p90 (at least 100 samples).
        const std::size_t live = bench.liveJobs();
        const std::size_t minPasses =
            w.simulation ? 2 : std::max<std::size_t>(2, (99 + live) / live);
        for (;;) {
            runUntraced();
            Pass t = bench.traced(tracer);
            count(t);
            if (t.digest != ref.digest)
                mismatch("traced replica pass", ref.digest, t.digest);
            if (tracedPasses.empty())
                firstSpans = tracer.spans.spans();
            tracedPasses.push_back(std::move(t));
            const double per =
                elapsed() / static_cast<double>(plain.size());
            if (plain.size() >= minPasses && elapsed() + per > opt.seconds)
                break;
        }
    }

    printFailures();
    std::printf("passes %zu untraced, %zu traced; jobs %d attempted, %d "
                "failed\n",
                plain.size(), tracedPasses.size(), attempted, failed);

    std::vector<Metric> metrics;
    if (opt.trace == 0) {
        metrics = endToEnd(plain, bench.fastest, cycles, flitHops, setup);
    } else {
        metrics = perLayer(w.simulation, tracedPasses, plain);
        const std::string path = opt.out + "/spans-" + opt.workload + ".tsv";
        writeSpans(path, firstSpans);
        std::printf("spans of the first traced pass (%zu) written to %s\n",
                    firstSpans.size(), path.c_str());
    }
    emit(metrics, failed == 0, attempted, failed);
    return 0;
}
