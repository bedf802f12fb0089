/**
 * @file
 * tpnet_trace — record, inspect, and replay flit-level event traces
 * (DESIGN.md §6e), and render the Fig. 1 time-space diagram either from
 * a live run (legacy mode) or offline from a recorded trace.
 *
 * Subcommands:
 *   record  run a canonical seeded scenario with a TraceRecorder
 *           attached and write the binary trace (plus optional JSONL);
 *           --jobs N records N concurrent copies and verifies their
 *           digests match before writing. Prints the 64-bit digest.
 *   dump    print recorded events as JSONL, filterable by kind/message.
 *   replay  rebuild the Fig. 1 time-space diagram from a recorded
 *           trace (no simulation) and print the re-computed digest.
 *   digest  print the digest and record count of a trace file.
 *   check   run the trace-level property checks (VC conservation and,
 *           with --scout-k, the Section 2.2 scout-gap invariant).
 *   ckinfo  print the header of a campaign checkpoint file (version,
 *           payload size, payload digest, config digest).
 *
 * Without a subcommand, the legacy live mode renders the diagram of a
 * single freshly simulated message:
 *   tpnet_trace --protocol SR --scout-k 3 --hops 5 --length 8
 *
 * SimConfig options (--protocol, --scout-k, --classes, ...) come from
 * the shared table in sim/options.hpp.
 *
 * Examples:
 *   tpnet_trace --seed 7 record --scenario sr-k3 --out t.bin
 *   tpnet_trace replay --in t.bin
 *   tpnet_trace dump --in t.bin --kind vc-alloc | head
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/pool.hpp"
#include "core/tpnet.hpp"
#include "metrics/timespace.hpp"
#include "obs/checkpoint.hpp"
#include "obs/recorder.hpp"
#include "obs/replay.hpp"
#include "obs/trace_format.hpp"
#include "sim/options.hpp"

namespace {

using namespace tpnet;

/** Parse a comma-separated list of node ids below @p count. */
bool
parseNodes(const std::string &csv, int count, std::vector<NodeId> *nodes)
{
    std::istringstream is(csv);
    std::string item;
    int node = 0;
    while (std::getline(is, item, ',')) {
        if (!parseValue(item, &node) || node < 0 || node >= count)
            return false;
        nodes->push_back(static_cast<NodeId>(node));
    }
    return true;
}

int
scenarioIndex(const std::string &name)
{
    for (std::size_t i = 0; i < 4; ++i) {
        if (name == obs::goldenSpecName(i))
            return static_cast<int>(i);
    }
    return -1;
}

bool
loadTrace(const std::string &path, std::vector<obs::TraceEvent> *events,
          std::uint64_t *digest, std::uint64_t *seed)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
        return false;
    }
    obs::TraceReader reader(is);
    if (!reader.ok()) {
        std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                     reader.error().c_str());
        return false;
    }
    const obs::CheckResult read = obs::readAll(reader, events);
    if (!read.ok) {
        std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                     read.error.c_str());
        return false;
    }
    *digest = reader.digest();
    if (seed)
        *seed = reader.info().seed;
    return true;
}

int
cmdRecord(OptionParser &parser, int argc, const char *const *argv)
{
    std::string out = "trace.bin";
    std::string jsonl;
    std::string scenario = "sr-k3";
    std::uint64_t seed = 1;
    int jobs = 1;
    int cycles = 0;
    ConfigOptions rows;
    parser.addString("out", "output trace file", &out);
    parser.addString("jsonl", "also write a JSONL text dump here",
                     &jsonl);
    parser.addString("scenario",
                     "wr-faultfree | sr-k3 | tp-staticfault | tp-dynkill",
                     &scenario);
    parser.addUint64("seed", "scenario seed", &seed);
    parser.addInt("cycles", "injection window override (0: default)",
                  &cycles);
    rows.bind(parser, {"classes", "recovery", "victim", "no-event-skip"});
    parser.addJobs(&jobs);

    if (const auto rc = parser.parseOrExit(argc, argv, 1))
        return *rc;

    const int idx = scenarioIndex(scenario);
    if (idx < 0) {
        std::fprintf(stderr, "error: unknown scenario '%s'\n",
                     scenario.c_str());
        return 1;
    }
    obs::RecordSpec spec =
        obs::goldenSpecs(seed)[static_cast<std::size_t>(idx)];
    if (cycles > 0)
        spec.cycles = static_cast<Cycle>(cycles);
    rows.applyTo(&spec.cfg);

    const obs::TraceRecorder rec =
        obs::recordRun(spec, resolveJobs(jobs));

    std::ofstream os(out, std::ios::binary);
    if (!os) {
        std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
        return 1;
    }
    rec.writeBinary(os, seed);
    if (!jsonl.empty()) {
        std::ofstream js(jsonl);
        if (!js) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         jsonl.c_str());
            return 1;
        }
        rec.writeJsonl(js);
    }
    std::printf("recorded %s seed %" PRIu64 ": %zu events -> %s\n",
                scenario.c_str(), seed, rec.size(), out.c_str());
    std::printf("digest %016" PRIx64 "\n", rec.digest());
    return 0;
}

int
cmdDump(OptionParser &parser, int argc, const char *const *argv)
{
    std::string in = "trace.bin";
    std::string kind;
    std::uint64_t msg = ~0ull;
    int limit = 0;
    parser.addString("in", "input trace file", &in);
    parser.addString("kind",
                     "only this record kind (cross | inject | deliver | "
                     "vc-alloc | vc-release | probe | msg-create | "
                     "msg-terminal)",
                     &kind);
    parser.addUint64("msg", "only this message id", &msg);
    parser.addInt("limit", "stop after N matching events (0: all)",
                  &limit);

    if (const auto rc = parser.parseOrExit(argc, argv, 1))
        return *rc;

    std::vector<obs::TraceEvent> events;
    std::uint64_t digest = 0;
    if (!loadTrace(in, &events, &digest, nullptr))
        return 1;

    int printed = 0;
    for (const obs::TraceEvent &ev : events) {
        if (!kind.empty() && kind != obs::traceEventKindName(ev.kind))
            continue;
        if (msg != ~0ull && ev.msg != static_cast<std::int64_t>(msg))
            continue;
        std::printf("%s\n", obs::traceEventJson(ev).c_str());
        if (limit > 0 && ++printed >= limit)
            break;
    }
    return 0;
}

int
cmdReplay(OptionParser &parser, int argc, const char *const *argv)
{
    std::string in = "trace.bin";
    std::uint64_t msg = ~0ull;
    int width = 120;
    parser.addString("in", "input trace file", &in);
    parser.addUint64("msg",
                     "message to diagram (default: first delivered)",
                     &msg);
    parser.addInt("width", "max diagram columns", &width);

    if (const auto rc = parser.parseOrExit(argc, argv, 1))
        return *rc;

    std::vector<obs::TraceEvent> events;
    std::uint64_t digest = 0;
    std::uint64_t seed = 0;
    if (!loadTrace(in, &events, &digest, &seed))
        return 1;

    const MsgId target = msg == ~0ull ? invalidMsg
                                      : static_cast<MsgId>(msg);
    const TimeSpaceTrace ts = obs::replayTimeSpace(events, target);
    std::printf("# replay of %s  seed %" PRIu64 "  (%zu events)\n",
                in.c_str(), seed, events.size());
    std::fputs(ts.render(static_cast<std::size_t>(width)).c_str(),
               stdout);
    std::printf("max header lead %d links\n", ts.maxHeaderLead());
    std::printf("digest %016" PRIx64 "\n", digest);
    return 0;
}

int
cmdDigest(OptionParser &parser, int argc, const char *const *argv)
{
    std::string in = "trace.bin";
    parser.addString("in", "input trace file", &in);

    if (const auto rc = parser.parseOrExit(argc, argv, 1))
        return *rc;

    std::vector<obs::TraceEvent> events;
    std::uint64_t digest = 0;
    std::uint64_t seed = 0;
    if (!loadTrace(in, &events, &digest, &seed))
        return 1;
    std::printf("%016" PRIx64 "  %zu events  seed %" PRIu64 "\n", digest,
                events.size(), seed);
    return 0;
}

int
cmdCheck(OptionParser &parser, int argc, const char *const *argv)
{
    std::string in = "trace.bin";
    int scout_k = 0;
    bool partial = false;
    parser.addString("in", "input trace file", &in);
    parser.addInt("scout-k", "check the scout-gap invariant with this K",
                  &scout_k);
    parser.addFlag("partial",
                   "trace did not run to quiescence (skip the "
                   "all-released check)",
                   &partial);

    if (const auto rc = parser.parseOrExit(argc, argv, 1))
        return *rc;

    std::vector<obs::TraceEvent> events;
    std::uint64_t digest = 0;
    if (!loadTrace(in, &events, &digest, nullptr))
        return 1;

    int failures = 0;
    const obs::CheckResult vc = obs::checkVcBalance(events, !partial);
    if (vc.ok) {
        std::printf("vc-balance: ok (%zu alloc/release events)\n",
                    vc.checked);
    } else {
        std::printf("vc-balance: FAIL — %s\n", vc.error.c_str());
        ++failures;
    }
    if (parser.given("scout-k")) {
        const obs::CheckResult gap = obs::checkScoutGap(events, scout_k);
        if (gap.ok) {
            std::printf("scout-gap (K=%d): ok (%zu data crossings)\n",
                        scout_k, gap.checked);
        } else {
            std::printf("scout-gap (K=%d): FAIL — %s\n", scout_k,
                        gap.error.c_str());
            ++failures;
        }
    }
    return failures ? 1 : 0;
}

int
cmdCkInfo(OptionParser &parser, int argc, const char *const *argv)
{
    std::string in = "campaign.ck";
    parser.addString("in", "input checkpoint file", &in);

    if (const auto rc = parser.parseOrExit(argc, argv, 1))
        return *rc;

    std::ifstream is(in, std::ios::binary);
    if (!is) {
        std::fprintf(stderr, "error: cannot open %s\n", in.c_str());
        return 1;
    }
    obs::CheckpointFileInfo info;
    std::string error;
    if (!obs::readCheckpointInfo(is, &info, &error)) {
        std::fprintf(stderr, "error: %s: %s\n", in.c_str(),
                     error.c_str());
        return 1;
    }
    std::printf("version %u  flags %u\n", info.version, info.flags);
    std::printf("payload %" PRIu64 " bytes  digest %016" PRIx64 "\n",
                info.payloadSize, info.payloadDigest);
    std::printf("config digest %016" PRIx64 "\n", info.configDigest);
    return 0;
}

int
legacyLive(int argc, const char *const *argv)
{
    SimConfig cfg;
    cfg.msgLength = 8;
    cfg.load = 0.0;
    cfg.protocol = Protocol::Scouting;
    ConfigOptions rows;
    std::string fail_csv;
    int hops = 5;
    int dst = -1;
    int src = 0;
    int width = 120;

    OptionParser parser("tpnet_trace",
                        "time-space diagram of one message (Fig. 1) on a "
                        "torus or mesh; see also the record/dump/replay/"
                        "digest/check subcommands");
    rows.bind(parser, {"protocol", "topology", "k", "n", "length",
                       "scout-k", "m"});
    parser.addInt("hops", "path length along dim 0 (ignored with --dst)",
                  &hops);
    parser.addInt("src", "source node id", &src);
    parser.addInt("dst", "destination node id (-1: use --hops)", &dst);
    parser.addString("fail", "comma-separated failed node ids",
                     &fail_csv);
    parser.addInt("width", "max diagram columns", &width);

    if (const auto rc = parser.parseOrExit(argc, argv, 1))
        return *rc;
    rows.applyTo(&cfg);
    if (cfg.topology != TopologyKind::Torus &&
        cfg.topology != TopologyKind::Mesh) {
        std::fprintf(stderr,
                     "error: the time-space synthesizer only draws "
                     "torus/mesh paths; record a trace on --topology "
                     "%s with tpnet_cli and use the dump/replay "
                     "subcommands instead\n",
                     topologyName(cfg.topology));
        return 1;
    }
    cfg.validate();

    if (cfg.protocol == Protocol::Scouting && cfg.scoutK == 0)
        cfg.scoutK = 3;  // an SR diagram with K = 0 is just WR
    if (dst < 0) {
        const int dx = std::min(hops, cfg.k / 2 - 1);
        const int dy = hops - dx;
        dst = src;
        OffsetVec coords{};
        TorusTopology topo(cfg.k, cfg.n,
                           cfg.topology == TopologyKind::Torus);
        for (int d = 0; d < cfg.n; ++d)
            coords[d] = topo.coord(src, d);
        coords[0] = (coords[0] + dx) % cfg.k;
        if (cfg.n > 1)
            coords[1] = (coords[1] + dy) % cfg.k;
        dst = topo.nodeAt(coords);
    }

    std::vector<NodeId> fails;
    if (!parseNodes(fail_csv, cfg.nodes(), &fails)) {
        std::fprintf(stderr, "error: --fail '%s' is not a list of node "
                             "ids below %d\n",
                     fail_csv.c_str(), cfg.nodes());
        return 1;
    }
    Network net(cfg);
    for (NodeId f : fails) {
        if (f == src || f == dst) {
            std::fprintf(stderr, "error: cannot fail src/dst node %d\n",
                         f);
            return 1;
        }
        net.failNode(f);
    }

    TimeSpaceTrace trace(0);
    net.attachTrace(&trace);
    net.setMeasuring(true);
    net.offerMessage(src, dst);
    for (Cycle c = 0; c < 100000 && net.activeMessages() > 0; ++c)
        net.step();

    std::printf("# %s   src=%d dst=%d\n", cfg.summary().c_str(), src,
                dst);
    std::fputs(trace.render(static_cast<std::size_t>(width)).c_str(),
               stdout);
    if (net.counters().delivered == 1) {
        std::printf("delivered: latency %.0f cycles, max header lead "
                    "%d links\n",
                    net.counters().latency.mean(),
                    trace.maxHeaderLead());
    } else {
        std::printf("NOT delivered (undeliverable or still searching)\n");
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // The subcommand is the first argument naming one; flags may precede
    // it (`tpnet_trace --seed 7 record` works). Everything else is
    // passed on to the subcommand's parser.
    static const struct
    {
        const char *name;
        const char *what;
        int (*run)(OptionParser &, int, const char *const *);
    } commands[] = {
        {"record", "record a canonical seeded scenario", cmdRecord},
        {"dump", "print recorded events as JSONL", cmdDump},
        {"replay", "time-space diagram from a recorded trace", cmdReplay},
        {"digest", "digest and record count of a trace file", cmdDigest},
        {"check", "trace-level property checks", cmdCheck},
        {"ckinfo", "header of a campaign checkpoint file", cmdCkInfo},
    };
    const auto *const none = std::end(commands);
    const auto *sub = none;
    std::vector<const char *> rest{argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (sub == none) {
            sub = std::find_if(std::begin(commands), none, [&](auto &c) {
                return std::strcmp(argv[i], c.name) == 0;
            });
            if (sub != none)
                continue;
        }
        rest.push_back(argv[i]);
    }
    const int rargc = static_cast<int>(rest.size());
    if (sub == none)
        return legacyLive(rargc, rest.data());
    OptionParser parser(std::string("tpnet_trace ") + sub->name, sub->what);
    return sub->run(parser, rargc, rest.data());
}
