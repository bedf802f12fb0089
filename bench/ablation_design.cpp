/**
 * @file
 * Ablations of the design choices DESIGN.md calls out:
 *
 *  - adaptive VC count (Duato's unrestricted partition width),
 *  - data buffer (DIBU) depth,
 *  - injection-queue limit (the Section 6.0 congestion control),
 *  - misroute budget m under faults (Theorem 2 uses 6),
 *  - torus vs mesh.
 *
 * Each knob is swept at a moderate and a near-saturation load on the
 * paper's 16-ary 2-cube with the TP protocol.
 */

#include "common.hpp"

namespace {

using namespace tpnet;

void
runPoint(const char *group, const std::string &label, const SimConfig &cfg)
{
    Simulator sim(cfg);
    const RunResult r = sim.run();
    std::printf("%-14s %-22s load=%.2f  thr=%.4f  lat=%7.1f  del=%5.1f%%\n",
                group, label.c_str(), cfg.load, r.throughput,
                r.avgLatency, r.deliveredFraction * 100.0);
}

} // namespace

int
main()
{
    using namespace tpnet;
    bench::banner("ablation_design — VCs, buffers, queues, m, mesh",
                  "DESIGN.md section 7 (design-choice ablations)");

    const double loads[] = {0.15, 0.30};

    for (double load : loads) {
        for (int avcs : {1, 2, 4}) {
            SimConfig cfg = bench::paperConfig(Protocol::TwoPhase);
            cfg.adaptiveVcs = avcs;
            cfg.load = load;
            runPoint("adaptive-vcs", std::to_string(avcs), cfg);
        }
        std::printf("\n");
    }

    for (double load : loads) {
        for (int depth : {2, 4, 8, 16}) {
            SimConfig cfg = bench::paperConfig(Protocol::TwoPhase);
            cfg.bufDepth = depth;
            cfg.load = load;
            runPoint("buffer-depth", std::to_string(depth), cfg);
        }
        std::printf("\n");
    }

    for (double load : loads) {
        for (int limit : {2, 8, 32}) {
            SimConfig cfg = bench::paperConfig(Protocol::TwoPhase);
            cfg.injQueueLimit = limit;
            cfg.load = load;
            runPoint("inj-queue", std::to_string(limit), cfg);
        }
        std::printf("\n");
    }

    // Misroute budget under faults: too small fails detours, larger
    // budgets buy reachability at the price of longer searches.
    for (int m : {1, 3, 6}) {
        SimConfig cfg = bench::paperConfig(Protocol::TwoPhase);
        cfg.misrouteLimit = m;
        cfg.staticNodeFaults = 10;
        cfg.load = 0.15;
        runPoint("misroute-m", std::to_string(m), cfg);
    }
    std::printf("\n");

    // Torus vs mesh at equal load: the mesh's smaller bisection and
    // longer paths saturate earlier.
    for (double load : loads) {
        for (TopologyKind kind : {TopologyKind::Torus, TopologyKind::Mesh}) {
            SimConfig cfg = bench::paperConfig(Protocol::TwoPhase);
            cfg.topology = kind;
            cfg.load = load;
            runPoint("topology", topologyName(kind), cfg);
        }
        std::printf("\n");
    }
    return 0;
}
