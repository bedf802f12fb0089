/**
 * @file
 * tpnet_verify's campaign grid and command line, shared by the tool and
 * by the test that pins its replay lines.
 *
 * A campaign is its grid cell (a pure function of the seed) with every
 * option given on the command line applied on top: SimConfig options
 * through the shared table (sim/options.hpp), and the campaign options
 * (--inject, --node-kills, ..., --fault-events) onto the fault
 * schedule. A replay line is the seed plus exactly the options that
 * differ from what `--replay-seed` alone rebuilds, so it reproduces the
 * campaign bit for bit.
 */

#ifndef TPNET_TOOLS_VERIFY_GRID_HPP
#define TPNET_TOOLS_VERIFY_GRID_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "sim/options.hpp"
#include "shard_cli.hpp"

namespace tpnet {
namespace tools {

/** One cell of the fuzz grid. */
struct GridPoint
{
    Protocol proto;
    int scoutK;
    double load;
    double faultScale;
    int k;                    ///< radix
    int n;                    ///< dimensions
    /// Topology family; the cube fields above only apply to cube kinds.
    TopologyKind topo = TopologyKind::Torus;
    int expressGap = 4;       ///< express-channel stride (Express)
    int dfRouters = 4;        ///< routers per group (Dragonfly)
    int dfGlobal = 1;         ///< global channels per router (Dragonfly)
    bool tailAck = false;
    bool hardwareAcks = false;
    /// Workload-library cell: a --classes spec replacing the open-loop
    /// uniform injector (empty = legacy uniform at `load`).
    std::string workload;     ///< short display tag
    std::string classes;      ///< --classes spec
};

/** The 123-cell grid, topology blocks interleaved round-robin. */
std::vector<GridPoint> verifyGrid();

/** One-line description of a campaign's config and cell. */
std::string describe(const SimConfig &cfg, const GridPoint &g);

/** tpnet_verify's options: SimConfig rows plus campaign options. */
struct VerifyCli
{
    SimConfig base;          ///< the config under every grid cell
    ConfigOptions rows;      ///< given SimConfig options beat the cell
    int campaigns = 50;
    int jobs = 0;
    Cycle maxCycles = 8000;
    Cycle drain = 200000;
    std::uint64_t seed = 1;
    std::uint64_t replaySeed = 0;
    double faultScale = 1.0;
    Cycle inject = 0;
    int nodeKills = 0;
    int linkKills = 0;
    int intermittents = 0;
    std::string faultEvents;
    std::vector<chaos::FaultEvent> scripted;  ///< parsed --fault-events
    bool noShrink = false;
    bool verbose = false;
    bool compare = false;
    std::string jsonPath;
    ShardCli shard;
    CheckpointCli checkpoint;
    std::vector<GridPoint> grid = verifyGrid();

    VerifyCli() { base.maxRetries = 6; }

    /** Register every option; @p parser must outlive this object. */
    void bind(OptionParser &parser);

    /** Post-parse checks (--fault-events); false with *error set. */
    bool resolve(std::string *error);

    const GridPoint &cell(std::uint64_t s) const
    {
        return grid[s % grid.size()];
    }

    /** Campaign @p s of the grid at fault scale @p fx, as the cell
     *  alone defines it. */
    chaos::CampaignSpec cellSpec(std::uint64_t s, double fx) const;

    /** Campaign @p s: its cell with every given option applied. */
    chaos::CampaignSpec spec(std::uint64_t s, double fx) const;

    /** Arguments (after the program name) that rebuild @p spec. */
    std::vector<std::string>
    replayArgs(const chaos::CampaignSpec &spec) const;

  private:
    const OptionParser *parser_ = nullptr;
};

} // namespace tools
} // namespace tpnet

#endif // TPNET_TOOLS_VERIFY_GRID_HPP
