/**
 * @file
 * Express-channel k-ary n-cube: the torus of Section 2.1 augmented with
 * one express channel pair of stride e per dimension and direction
 * (after Dally's express cubes). Ports [0, 2n) are the ordinary local
 * torus channels; ports [2n, 4n) are express, numbered 2n + 2d (+e in
 * dimension d) and 2n + 2d + 1 (-e), so the even/odd port pairing (and
 * oppositePort arrival) of the cube family is preserved.
 *
 * Express channels are purely adaptive capacity: the escape subfunction
 * is the unchanged local-channel e-cube with dateline classes, so the
 * torus Theorem 3 argument carries over verbatim. An express hop that
 * passes the wrap edge sets its dimension's dateline bit exactly like a
 * local wraparound hop.
 */

#ifndef TPNET_TOPOLOGY_EXPRESS_HPP
#define TPNET_TOPOLOGY_EXPRESS_HPP

#include <vector>

#include "topology/torus.hpp"

namespace tpnet {

/** Torus with express channels of stride @p gap in every dimension. */
class ExpressCubeTopology : public TorusTopology
{
  public:
    ExpressCubeTopology(int k, int n, int gap);

    int gap() const { return gap_; }

    const char *name() const override { return "express"; }
    TopologyKind kind() const override { return TopologyKind::Express; }

    int diameter() const override;
    double avgMinDistance() const override;

    NodeId neighbor(NodeId node, int port) const override;

    int distance(NodeId from, NodeId to) const override;

    PortList profitablePorts(NodeId cur, NodeId dst) const override;
    bool portProfitable(NodeId cur, int port, NodeId dst) const override;

    std::uint8_t datelineAfter(NodeId node, int port,
                               std::uint8_t state) const override;

  private:
    bool isExpress(int port) const { return port >= 2 * n_; }
    int expressDim(int port) const { return (port - 2 * n_) / 2; }
    /** Signed coordinate step of @p port (+1/-1 local, +e/-e express). */
    int stepFor(int port) const;
    /** Remaining ring distance in @p port's dimension from cur to dst. */
    int ringDelta(NodeId cur, NodeId dst, int dim) const;

    int gap_;
    /** ringDist_[c]: min hops to cover residue c with steps {±1, ±e}. */
    std::vector<int> ringDist_;
};

} // namespace tpnet

#endif // TPNET_TOPOLOGY_EXPRESS_HPP
