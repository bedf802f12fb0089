/**
 * @file
 * The benchmark's workloads. Each is a fixed set of jobs (one
 * Simulator::run, or a list of chaos campaigns) built from the workload
 * name and a seed alone; a "pass" runs that set once.
 */

#ifndef TPBENCH_WORKLOADS_HPP
#define TPBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "sim/config.hpp"

namespace tpbench {

struct Workload
{
    /// Simulation workloads run Simulator(sim).run(0) once per pass.
    bool simulation = true;
    tpnet::SimConfig sim;
    /// Campaign workloads run every spec once per pass, in order.
    std::vector<tpnet::chaos::CampaignSpec> campaigns;
};

/**
 * Names accepted by makeWorkload. BENCHMARK.json lists the first two;
 * the others run by name only (see METRICS.md).
 */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name for @p seed. Campaign checkpoints are written
 * to @p checkpoint_path (overwritten by every campaign). @return false
 * when the name is unknown.
 */
bool makeWorkload(const std::string &name, std::uint64_t seed,
                  const std::string &checkpoint_path, Workload *out);

/** The SimConfig runCampaign builds its Network from. */
tpnet::SimConfig campaignConfig(const tpnet::chaos::CampaignSpec &spec);

/** The SimConfig Simulator::run builds replication @p rep from. */
tpnet::SimConfig replicationConfig(const tpnet::SimConfig &base,
                                   std::uint64_t rep);

} // namespace tpbench

#endif // TPBENCH_WORKLOADS_HPP
