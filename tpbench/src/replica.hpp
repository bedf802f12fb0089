/**
 * @file
 * Traced replicas of the two library run loops the benchmark times:
 * Simulator::run and chaos::runCampaign. Each replica makes the same
 * library calls in the same order and records a span around every call
 * into a layer. They must reproduce the library's results bit for bit
 * (checked by digest on every traced pass), so the per-layer numbers
 * describe the program the end-to-end numbers time.
 */

#ifndef TPBENCH_REPLICA_HPP
#define TPBENCH_REPLICA_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "chaos/campaign.hpp"
#include "metrics/collector.hpp"
#include "sim/config.hpp"
#include "spans.hpp"

namespace tpbench {

/** The TraceSink hooks chaos::DeliveryOracle implements. */
enum class Hook : std::uint8_t {
    MessageCreated,
    FlitDelivered,
    MessageTerminal,
    Count,
};
constexpr std::size_t kHooks = static_cast<std::size_t>(Hook::Count);

/** Work counts of one job that spans do not carry. */
struct JobCounts
{
    std::uint64_t cycles = 0;        ///< final Network::now()
    std::uint64_t cyclesStepped = 0;
    std::uint64_t cyclesSkipped = 0;
    std::uint64_t liveMsgSum = 0;    ///< activeMessages() after each step
    std::uint64_t offered = 0;       ///< Injector::offered()
    std::uint64_t checkpoints = 0;
    std::uint64_t checkpointBytes = 0;
    std::uint64_t cwgCycles = 0;
    std::uint64_t cwgBenign = 0;
    std::array<std::uint64_t, kHooks> hookCalls{};
    std::array<std::int64_t, kHooks> hookNs{};
};

/** Where a replica records: spans plus counts. */
struct Tracer
{
    SpanRecorder spans;
    JobCounts counts;
    /// When set, a replica appends nowNs() at its start and at the end
    /// of every cycle-loop iteration, so consecutive marks bound one
    /// stepped cycle (with any skip after it). The caller marks the end
    /// once the replica has returned and its Network is destroyed.
    std::vector<std::int64_t> *marks = nullptr;
    /// Test-only: run one extra Injector::step before the first cycle,
    /// so the replica no longer matches the library loop.
    bool perturb = false;
};

/** Replica of Simulator(cfg).run(replication) without a sink. */
tpnet::RunResult tracedRun(const tpnet::SimConfig &cfg,
                           std::uint64_t replication, Tracer &tr);

/**
 * Replica of chaos::runCampaign(spec) for specs without restorePath or
 * injectSkipKillBug. CampaignResult::liveDump is left empty: it is a
 * diagnostic of failed drains that no digest covers.
 */
tpnet::chaos::CampaignResult tracedCampaign(
    const tpnet::chaos::CampaignSpec &spec, Tracer &tr);

} // namespace tpbench

#endif // TPBENCH_REPLICA_HPP
