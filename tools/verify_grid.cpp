#include "verify_grid.hpp"

#include <cmath>
#include <cstdio>

#include "sim/log.hpp"

namespace tpnet {
namespace tools {

using chaos::CampaignSpec;

/**
 * Protocol and topology coverage is the point here: every flow-control
 * mechanism the paper configures (Duato baseline, circuit setup,
 * scouting at each K, two-phase with and without scouting) gets fuzzed
 * against the same fault timelines, on the paper's own topologies
 * (Section 6 evaluates 16-ary 2-cubes; Section 5.0 walks a 3-cube).
 */
std::vector<GridPoint>
verifyGrid()
{
    struct ProtoCell
    {
        Protocol proto;
        int scoutK;
    };
    const ProtoCell protos[] = {
        {Protocol::Duato, 0},    {Protocol::Pcs, 0},
        {Protocol::Scouting, 1}, {Protocol::Scouting, 2},
        {Protocol::Scouting, 3}, {Protocol::Scouting, 4},
        {Protocol::Scouting, 5}, {Protocol::TwoPhase, 0},
        {Protocol::TwoPhase, 3},
    };

    // Block 0: the original 8-ary 2-cube grid.
    std::vector<std::vector<GridPoint>> blocks(1);
    for (const ProtoCell &p : protos)
        for (double load : {0.05, 0.15})
            for (double fx : {1.0, 2.0})
                blocks[0].push_back(
                    {p.proto, p.scoutK, load, fx, 8, 2});

    // Block 1: binary 3-cube (the n=3 hypercube of Section 5.0 —
    // 8 nodes, so faults bite hard).
    blocks.emplace_back();
    for (const ProtoCell &p : protos)
        blocks.back().push_back({p.proto, p.scoutK, 0.10, 1.0, 2, 3});

    // Block 2: 4-ary 3-cube (64 nodes, three dimensions of adaptivity).
    blocks.emplace_back();
    for (const ProtoCell &p : protos)
        blocks.back().push_back({p.proto, p.scoutK, 0.15, 2.0, 4, 3});

    // Block 3: 16-ary 2-cube (the Section 6 evaluation topology) at a
    // higher injection load.
    blocks.emplace_back();
    for (const ProtoCell &p : protos)
        blocks.back().push_back({p.proto, p.scoutK, 0.25, 2.0, 16, 2});

    // Block 4: high load on the base torus — saturation transients.
    blocks.emplace_back();
    for (const ProtoCell &p : protos)
        blocks.back().push_back({p.proto, p.scoutK, 0.30, 1.0, 8, 2});

    // Block 5: ack-configuration cells — tail acks and hardware ack
    // signalling change teardown timing, the raw material of kill
    // races.
    blocks.emplace_back();
    const ProtoCell ackProtos[] = {
        {Protocol::Duato, 0},
        {Protocol::Pcs, 0},
        {Protocol::Scouting, 3},
        {Protocol::TwoPhase, 3},
    };
    for (const ProtoCell &p : ackProtos) {
        GridPoint tack{p.proto, p.scoutK, 0.15, 2.0, 8, 2};
        tack.tailAck = true;
        blocks.back().push_back(tack);
        GridPoint hw{p.proto, p.scoutK, 0.15, 2.0, 8, 2};
        hw.hardwareAcks = true;
        blocks.back().push_back(hw);
    }

    // Block 6: workload-library cells — bursty on-off injection,
    // multi-class permutation mixes with a hotspot background, and
    // closed-loop request-reply traffic, all on the base torus. The
    // rest of the grid leaves the traffic layer at open-loop uniform;
    // these cells fuzz the injector's burst machines, priority
    // arbitration, and reply dependencies against the same fault
    // timelines.
    blocks.emplace_back();
    struct WorkloadCell
    {
        const char *name;
        const char *classes;
    };
    const WorkloadCell workloads[] = {
        {"bursty", "pattern=uniform,load=0.15,burst=8,duty=0.25"},
        {"transpose+hot", "pattern=transpose,load=0.10,prio=1;"
                          "pattern=uniform,load=0.05,hotspot=0.1,"
                          "hotspots=4"},
        {"closed-loop", "pattern=uniform,load=0.10,outstanding=2,"
                        "replylen=4"},
        {"bursty-tornado", "pattern=tornado,load=0.12,burst=16,"
                           "duty=0.5"},
    };
    for (const WorkloadCell &w : workloads) {
        for (const ProtoCell &p : ackProtos) {
            GridPoint cell{p.proto, p.scoutK, 0.15, 2.0, 8, 2};
            cell.workload = w.name;
            cell.classes = w.classes;
            blocks.back().push_back(cell);
        }
    }

    // Block 7: 8-ary 2-mesh — first-class mesh: no wraparound
    // channels, boundary-truncated escape routing (single dateline
    // class suffices, but the grid keeps the configured default).
    blocks.emplace_back();
    for (const ProtoCell &p : protos) {
        GridPoint cell{p.proto, p.scoutK, 0.15, 2.0, 8, 2};
        cell.topo = TopologyKind::Mesh;
        blocks.back().push_back(cell);
    }

    // Block 8: 8-ary 2-cube with express channels of stride 4 —
    // adaptive hops can cross datelines in stride-length jumps while
    // the escape subnetwork stays the local-channel e-cube.
    blocks.emplace_back();
    for (const ProtoCell &p : protos) {
        GridPoint cell{p.proto, p.scoutK, 0.15, 2.0, 8, 2};
        cell.topo = TopologyKind::Express;
        cell.expressGap = 4;
        blocks.back().push_back(cell);
    }

    // Block 9: dragonfly with 4-router groups and 2 global channels
    // per router (9 groups, 36 nodes) — hierarchical escape routing
    // with destination-group VC classes instead of datelines.
    blocks.emplace_back();
    for (const ProtoCell &p : protos) {
        GridPoint cell{p.proto, p.scoutK, 0.15, 2.0, 8, 2};
        cell.topo = TopologyKind::Dragonfly;
        cell.dfRouters = 4;
        cell.dfGlobal = 2;
        blocks.back().push_back(cell);
    }

    // Interleave the blocks round-robin so consecutive seeds sample
    // every topology.
    std::vector<GridPoint> grid;
    std::size_t idx = 0;
    for (bool any = true; any; ++idx) {
        any = false;
        for (const auto &block : blocks) {
            if (idx < block.size()) {
                grid.push_back(block[idx]);
                any = true;
            }
        }
    }
    return grid;
}

std::string
describe(const SimConfig &cfg, const GridPoint &g)
{
    char topo[32];
    switch (cfg.topology) {
      case TopologyKind::Mesh:
        std::snprintf(topo, sizeof topo, "%2d-ary %d-mesh", cfg.k, cfg.n);
        break;
      case TopologyKind::Express:
        std::snprintf(topo, sizeof topo, "%2d-ary %d-xc/e%d", cfg.k, cfg.n,
                      cfg.expressGap);
        break;
      case TopologyKind::Dragonfly:
        std::snprintf(topo, sizeof topo, "dfly(%d,%d)", cfg.dfRouters,
                      cfg.dfGlobal);
        break;
      default:
        std::snprintf(topo, sizeof topo, "%2d-ary %d-cube", cfg.k, cfg.n);
        break;
    }
    char buf[112];
    std::snprintf(buf, sizeof buf,
                  "%-4s %-13s K=%d load=%.2f fx%.1f%s%s",
                  protocolName(cfg.protocol), topo, cfg.scoutK, cfg.load,
                  g.faultScale, cfg.tailAck ? " TAck" : "",
                  cfg.hardwareAcks ? " HWAck" : "");
    std::string out = buf;
    if (!g.workload.empty())
        out += " [" + g.workload + "]";
    return out;
}

void
VerifyCli::bind(OptionParser &parser)
{
    parser_ = &parser;
    parser.addInt("campaigns", "number of seeded campaigns", &campaigns);
    parser.addJobs(&jobs);
    parser.addUint64("max-cycles", "traffic injection window per campaign",
                     &maxCycles);
    parser.addUint64("drain", "extra cycles allowed to reach quiescence",
                     &drain);
    parser.addUint64("seed", "base seed (campaign i uses seed + i)",
                     &seed);
    parser.addUint64("replay-seed",
                     "replay exactly one campaign by its seed",
                     &replaySeed);
    rows.bind(parser, {"protocol", "topology", "k", "n", "express-gap",
                       "df-routers", "df-global", "scout-k", "load",
                       "classes", "tail-ack", "hardware-acks", "recovery",
                       "victim", "no-event-skip"});
    parser.addUint64("inject", "override: injection window", &inject);
    parser.addInt("node-kills", "override: node kill count", &nodeKills);
    parser.addInt("link-kills", "override: link kill count", &linkKills);
    parser.addInt("intermittents", "override: intermittent fault count",
                  &intermittents);
    parser.addString("fault-events",
                     "override: pinned fault timeline "
                     "(at:kind:node:port:down,... with kind n|l|i); "
                     "replaces the randomized schedule",
                     &faultEvents);
    parser.addDouble("fault-scale",
                     "global multiplier on the per-campaign fault mix",
                     &faultScale);
    parser.addFlag("compare",
                   "headline experiment: avoidance vs recovery over "
                   "the grid across a fault-intensity axis",
                   &compare);
    parser.addString("json",
                     "write per-campaign structured results (CWG "
                     "counts, warnings, recovery stats) to this file",
                     &jsonPath);
    parser.addFlag("no-shrink", "report failures without minimizing",
                   &noShrink);
    parser.addFlag("verbose", "print every violation in full", &verbose);
    addShardOptions(parser, &shard);
    addCheckpointOptions(parser, &checkpoint);
}

bool
VerifyCli::resolve(std::string *error)
{
    if (!chaos::parseFaultEvents(faultEvents, &scripted)) {
        *error = "malformed --fault-events '" + faultEvents + "'";
        return false;
    }
    return true;
}

CampaignSpec
VerifyCli::cellSpec(std::uint64_t s, double fx) const
{
    const GridPoint &g = cell(s);
    CampaignSpec spec;
    spec.cfg = base;
    spec.cfg.protocol = g.proto;
    spec.cfg.scoutK = g.scoutK;
    spec.cfg.load = g.load;
    spec.cfg.k = g.k;
    spec.cfg.n = g.n;
    spec.cfg.topology = g.topo;
    spec.cfg.expressGap = g.expressGap;
    spec.cfg.dfRouters = g.dfRouters;
    spec.cfg.dfGlobal = g.dfGlobal;
    spec.cfg.tailAck = g.tailAck;
    spec.cfg.hardwareAcks = g.hardwareAcks;
    std::string err;
    if (!g.classes.empty() &&
        !setConfigOption(&spec.cfg, "classes", g.classes, &err))
        tpnet_panic("bad grid workload spec '", g.classes, "': ", err);
    spec.seed = s;
    spec.injectCycles = maxCycles;
    spec.drainCycles = drain;
    spec.verifyCwg = true;

    const double scale = fx * g.faultScale;
    spec.faults.horizon = maxCycles;
    spec.faults.earliest = maxCycles / 100;
    spec.faults.nodeKills = static_cast<int>(std::lround(2.0 * scale));
    spec.faults.linkKills = static_cast<int>(std::lround(2.0 * scale));
    spec.faults.intermittents = static_cast<int>(std::lround(3.0 * scale));
    spec.faults.downMin = 100;
    spec.faults.downMax = 2000;
    return spec;
}

CampaignSpec
VerifyCli::spec(std::uint64_t s, double fx) const
{
    CampaignSpec spec = cellSpec(s, fx);
    rows.applyTo(&spec.cfg);
    if (parser_->given("topology")) {
        // A topology override re-bases the whole grid, including
        // workload cells whose patterns are defined on cube
        // coordinates or node-index bits. Coerce those to uniform
        // (keeping load, bursts, priorities, and closed-loop settings)
        // rather than dying in validate(); an explicit --classes still
        // rejects loudly.
        const bool cube = spec.cfg.topology != TopologyKind::Dragonfly;
        const int nn = spec.cfg.nodes();
        const bool pow2 = (nn & (nn - 1)) == 0;
        const auto unsupported = [&](TrafficPattern p) {
            if (!cube)
                return p != TrafficPattern::Uniform;
            return !pow2 && (p == TrafficPattern::BitReversal ||
                             p == TrafficPattern::Shuffle);
        };
        if (unsupported(spec.cfg.pattern))
            spec.cfg.pattern = TrafficPattern::Uniform;
        if (!parser_->given("classes")) {
            for (TrafficClassConfig &tc : spec.cfg.trafficClasses)
                if (unsupported(tc.pattern))
                    tc.pattern = TrafficPattern::Uniform;
        }
    }
    if (parser_->given("inject")) {
        spec.injectCycles = inject;
        spec.faults.horizon = inject;
        spec.faults.earliest = inject / 100;
    }
    if (parser_->given("node-kills"))
        spec.faults.nodeKills = nodeKills;
    if (parser_->given("link-kills"))
        spec.faults.linkKills = linkKills;
    if (parser_->given("intermittents"))
        spec.faults.intermittents = intermittents;
    if (!scripted.empty())
        spec.scriptedFaults = scripted;
    return spec;
}

std::vector<std::string>
VerifyCli::replayArgs(const CampaignSpec &spec) const
{
    const VerifyCli defaults;
    const CampaignSpec cell = defaults.cellSpec(spec.seed,
                                                defaults.faultScale);
    std::vector<std::string> args{"--replay-seed", formatValue(spec.seed)};
    for (const std::string &arg : rows.format(spec.cfg, cell.cfg))
        args.push_back(arg);
    const auto campaignOpt = [&](const char *name, auto value, auto ref) {
        if (value != ref) {
            args.push_back(std::string("--") + name);
            args.push_back(formatValue(value));
        }
    };
    campaignOpt("inject", spec.injectCycles, cell.injectCycles);
    campaignOpt("drain", spec.drainCycles, cell.drainCycles);
    campaignOpt("node-kills", spec.faults.nodeKills, cell.faults.nodeKills);
    campaignOpt("link-kills", spec.faults.linkKills, cell.faults.linkKills);
    campaignOpt("intermittents", spec.faults.intermittents,
                cell.faults.intermittents);
    if (!spec.scriptedFaults.empty()) {
        args.push_back("--fault-events");
        args.push_back(chaos::formatFaultEvents(spec.scriptedFaults));
    }
    return args;
}

} // namespace tools
} // namespace tpnet
