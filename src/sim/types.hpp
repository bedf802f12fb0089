/**
 * @file
 * Fundamental scalar types and constants shared by every tpnet module.
 *
 * The simulator models torus-connected, bidirectional k-ary n-cubes
 * (Section 2.1 of Dao/Duato/Yalamanchili, ISCA'95). Ports of a router are
 * numbered 2d (positive direction) and 2d+1 (negative direction) for each
 * dimension d; a unidirectional physical link is identified globally by
 * (source node, output port).
 */

#ifndef TPNET_SIM_TYPES_HPP
#define TPNET_SIM_TYPES_HPP

#include <cstdint>

namespace tpnet {

/** Simulation time in cycles. One flit crosses one physical lane/cycle. */
using Cycle = std::uint64_t;

/** Node (PE + router) identifier, 0 .. k^n - 1. */
using NodeId = std::int32_t;

/** Message identifier, unique over a simulation run. */
using MsgId = std::int64_t;

/** Global unidirectional link identifier: node * radix + port. */
using LinkId = std::int32_t;

constexpr NodeId invalidNode = -1;
constexpr MsgId invalidMsg = -1;
constexpr LinkId invalidLink = -1;

/** Maximum supported torus dimensionality (header offset fields). */
constexpr int maxDims = 4;

/**
 * Maximum router radix any topology may declare. Bounded by the
 * 32-bit tried-port masks of the RCU history store (one bit per
 * output port) and the per-port misroute-balance array in the header.
 */
constexpr int maxPorts = 32;

/**
 * Default data FIFO (DIBU) depth per VC, in flits. Fifo stores buffers
 * of up to this many flits inline, without a heap buffer.
 */
constexpr int defaultBufDepth = 4;

/** Sentinel output port meaning "deliver to the local PE". */
constexpr int ejectPort = -2;

/** Registered topology families (see topology/registry.hpp). */
enum class TopologyKind : std::uint8_t {
    Torus,      ///< k-ary n-cube with wraparound (the paper's network)
    Mesh,       ///< k-ary n-mesh (no wraparound channels)
    Express,    ///< torus plus express channels of stride e per dimension
    Dragonfly,  ///< hierarchical: a-router groups, h global links/router
};

/**
 * Direction along a dimension. Port number for dimension d is
 * 2d + (dir == Minus ? 1 : 0).
 */
enum class Dir : std::uint8_t { Plus = 0, Minus = 1 };

/** Port number of (dimension, direction). */
constexpr int
portOf(int dim, Dir dir)
{
    return 2 * dim + (dir == Dir::Minus ? 1 : 0);
}

/** Dimension a port travels along. */
constexpr int
dimOf(int port)
{
    return port / 2;
}

/** Direction a port travels in. */
constexpr Dir
dirOf(int port)
{
    return (port & 1) ? Dir::Minus : Dir::Plus;
}

/** Port at the far end of a link entered through @p port. */
constexpr int
oppositePort(int port)
{
    return port ^ 1;
}

/** Signed step (+1/-1) of a direction. */
constexpr int
stepOf(Dir dir)
{
    return dir == Dir::Plus ? 1 : -1;
}

} // namespace tpnet

#endif // TPNET_SIM_TYPES_HPP
