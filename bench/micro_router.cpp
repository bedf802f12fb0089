/**
 * @file
 * Google-benchmark micro suite: costs of the router-architecture
 * primitives of Section 5.0 (header codec, CMU-style bookkeeping) and
 * of the simulation engine itself (cycle cost idle/loaded, fault
 * machinery), plus ablation handles (misroute budget m, VC count).
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common.hpp"
#include "core/engine.hpp"

namespace {

using namespace tpnet;

void
BM_HeaderCodecPack(benchmark::State &state)
{
    HeaderCodec codec(16, 2);
    HeaderState hdr;
    hdr.misroutes = 3;
    hdr.offset[0] = -5;
    hdr.offset[1] = 7;
    for (auto _ : state)
        benchmark::DoNotOptimize(codec.pack(hdr));
}
BENCHMARK(BM_HeaderCodecPack);

void
BM_HeaderCodecUnpack(benchmark::State &state)
{
    HeaderCodec codec(16, 2);
    HeaderState hdr;
    hdr.offset[0] = -5;
    hdr.offset[1] = 7;
    const std::uint64_t raw = codec.pack(hdr);
    for (auto _ : state)
        benchmark::DoNotOptimize(codec.unpack(raw));
}
BENCHMARK(BM_HeaderCodecUnpack);

void
BM_TorusOffsets(benchmark::State &state)
{
    TorusTopology topo(16, 2);
    NodeId a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(topo.offsets(a, 255 - a));
        a = (a + 17) % 256;
    }
}
BENCHMARK(BM_TorusOffsets);

void
BM_RngDraw(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.below(256));
}
BENCHMARK(BM_RngDraw);

/**
 * One rotation-ordered ActivitySet pass over a 1024-entity universe
 * with every range(0)-th entity active (64: sparse, 8, 1: full). With
 * range(1) set, each visit also wakes the entity right after it, which
 * joins the same pass and drains on its visit (the mid-pass add of a
 * data visit waking a neighbour). Offsets rotate by 8 per pass, like
 * the network's round-robin start.
 */
void
BM_ActivitySetPass(benchmark::State &state)
{
    constexpr std::uint32_t n = 1024;
    const auto every = static_cast<std::uint32_t>(state.range(0));
    const bool midPassAdd = state.range(1) != 0;
    ActivitySet set;
    set.reset(n);
    for (std::uint32_t id = 0; id < n; id += every)
        set.add(id);
    std::size_t rot = 0;
    std::uint64_t visits = 0;
    for (auto _ : state) {
        set.beginPass(rot);
        for (std::uint32_t id; (id = set.next()) != ActivitySet::kNone;) {
            benchmark::DoNotOptimize(id);
            ++visits;
            if (!midPassAdd)
                continue;
            if (id % every == 0)
                set.add(id + 1);
            else
                set.remove(id);
        }
        rot = (rot + 8) % n;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(visits));
}
BENCHMARK(BM_ActivitySetPass)
    ->Args({64, 0})
    ->Args({8, 0})
    ->Args({1, 0})
    ->Args({8, 1});

/** Cost of one network cycle at a given offered load (x1000 cycles). */
void
BM_NetworkCycle(benchmark::State &state)
{
    SimConfig cfg = bench::paperConfig(Protocol::TwoPhase);
    cfg.load = static_cast<double>(state.range(0)) / 100.0;
    Network net(cfg);
    Injector inj(net);
    // Warm the network into steady state.
    for (int c = 0; c < 2000; ++c) {
        inj.step();
        net.step();
    }
    for (auto _ : state) {
        inj.step();
        net.step();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkCycle)->Arg(0)->Arg(10)->Arg(25);

/** End-to-end single message setup+delivery, per protocol. */
void
BM_OneMessage(benchmark::State &state)
{
    const Protocol proto = static_cast<Protocol>(state.range(0));
    SimConfig cfg = bench::paperConfig(proto);
    cfg.load = 0.0;
    for (auto _ : state) {
        Network net(cfg);
        net.offerMessage(0, 8 + 16 * 4);
        while (net.activeMessages() > 0)
            net.step();
        benchmark::DoNotOptimize(net.counters().delivered);
    }
}
BENCHMARK(BM_OneMessage)
    ->Arg(static_cast<int>(Protocol::Duato))
    ->Arg(static_cast<int>(Protocol::TwoPhase))
    ->Arg(static_cast<int>(Protocol::MBm));

/** Unsafe-region recomputation with a 20-fault pattern. */
void
BM_RecomputeUnsafe(benchmark::State &state)
{
    SimConfig cfg = bench::paperConfig(Protocol::TwoPhase);
    cfg.staticNodeFaults = 20;
    Network net(cfg);
    for (auto _ : state)
        net.recomputeUnsafe();
}
BENCHMARK(BM_RecomputeUnsafe);

/**
 * Ablation: misroute budget m (Theorem 2 uses 6). Measures cycles to
 * deliver one message through a Fig. 5-style blocked destination.
 */
void
BM_DetourSearchBudget(benchmark::State &state)
{
    SimConfig cfg = bench::paperConfig(Protocol::TwoPhase);
    cfg.load = 0.0;
    cfg.misrouteLimit = static_cast<int>(state.range(0));
    std::uint64_t delivered = 0, cycles = 0;
    for (auto _ : state) {
        Network net(cfg);
        const NodeId dst = 8 + 16 * 4;
        net.failNode(dst + 1);
        net.failNode(dst - 1);
        net.failNode(dst + 16);
        net.offerMessage(0, dst);
        Cycle c = 0;
        while (net.activeMessages() > 0 && c < 50000) {
            net.step();
            ++c;
        }
        delivered += net.counters().delivered;
        cycles += c;
    }
    state.counters["delivered"] =
        static_cast<double>(delivered) /
        static_cast<double>(state.iterations());
    state.counters["cycles"] =
        static_cast<double>(cycles) /
        static_cast<double>(state.iterations());
}
BENCHMARK(BM_DetourSearchBudget)->Arg(1)->Arg(3)->Arg(6);

} // namespace

/**
 * Custom main so micro_router speaks the same CLI as the figure
 * benches: `--json out.json` maps onto Google-benchmark's JSON
 * reporter (`--benchmark_out`), and `--jobs` is accepted and ignored
 * (the micro benches are inherently single-threaded). Everything else
 * is passed through to the benchmark library untouched.
 */
int
main(int argc, char **argv)
{
    std::vector<std::string> args;
    args.reserve(static_cast<std::size_t>(argc) + 2);
    args.emplace_back(argc > 0 ? argv[0] : "micro_router");
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--json" && i + 1 < argc) {
            args.push_back("--benchmark_out=" + std::string(argv[++i]));
            args.emplace_back("--benchmark_out_format=json");
        } else if (a.rfind("--json=", 0) == 0) {
            args.push_back("--benchmark_out=" + a.substr(7));
            args.emplace_back("--benchmark_out_format=json");
        } else if (a == "--jobs" && i + 1 < argc) {
            ++i;
        } else if (a.rfind("--jobs=", 0) != 0) {
            args.push_back(a);
        }
    }
    std::vector<char *> cargs;
    cargs.reserve(args.size());
    for (std::string &s : args)
        cargs.push_back(s.data());
    int cargc = static_cast<int>(cargs.size());

    ::benchmark::Initialize(&cargc, cargs.data());
    if (::benchmark::ReportUnrecognizedArguments(cargc, cargs.data()))
        return 1;
    ::benchmark::RunSpecifiedBenchmarks();
    ::benchmark::Shutdown();
    return 0;
}
