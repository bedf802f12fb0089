#include "topology/express.hpp"

#include <algorithm>
#include <queue>

#include "sim/log.hpp"

namespace tpnet {

ExpressCubeTopology::ExpressCubeTopology(int k, int n, int gap)
    : TorusTopology(k, n, true), gap_(gap)
{
    if (gap < 2 || gap >= k)
        tpnet_fatal("express gap ", gap, " out of range [2, k) for k=", k);
    // Same node set as the torus, but 4n ports per node.
    initGeometry(stride_[n_], 4 * n_);

    // BFS over one ring's residues with steps {+-1, +-gap}: minimal hop
    // count to cover each coordinate delta. Shared by all dimensions.
    ringDist_.assign(static_cast<std::size_t>(k_), -1);
    ringDist_[0] = 0;
    std::queue<int> frontier;
    frontier.push(0);
    while (!frontier.empty()) {
        const int c = frontier.front();
        frontier.pop();
        for (int step : {1, -1, gap_, -gap_}) {
            const int next = ((c + step) % k_ + k_) % k_;
            if (ringDist_[next] < 0) {
                ringDist_[next] = ringDist_[c] + 1;
                frontier.push(next);
            }
        }
    }
}

int
ExpressCubeTopology::diameter() const
{
    return n_ * *std::max_element(ringDist_.begin(), ringDist_.end());
}

double
ExpressCubeTopology::avgMinDistance() const
{
    double ring = 0.0;
    for (int c = 0; c < k_; ++c)
        ring += ringDist_[c];
    ring /= static_cast<double>(k_);
    return ring * static_cast<double>(n_);
}

int
ExpressCubeTopology::stepFor(int port) const
{
    if (!isExpress(port))
        return stepOf(dirOf(port));
    return (port - 2 * n_) % 2 == 0 ? gap_ : -gap_;
}

NodeId
ExpressCubeTopology::neighbor(NodeId node, int port) const
{
    if (!isExpress(port))
        return TorusTopology::neighbor(node, port);
    const int dim = expressDim(port);
    const int c =
        ((coord(node, dim) + stepFor(port)) % k_ + k_) % k_;
    return node + (c - coord(node, dim)) * stride_[dim];
}

int
ExpressCubeTopology::ringDelta(NodeId cur, NodeId dst, int dim) const
{
    return ((coord(dst, dim) - coord(cur, dim)) % k_ + k_) % k_;
}

int
ExpressCubeTopology::distance(NodeId from, NodeId to) const
{
    int dist = 0;
    for (int d = 0; d < n_; ++d)
        dist += ringDist_[static_cast<std::size_t>(ringDelta(from, to, d))];
    return dist;
}

bool
ExpressCubeTopology::portProfitable(NodeId cur, int port, NodeId dst) const
{
    if (cur == dst)
        return false;
    const int dim = isExpress(port) ? expressDim(port) : dimOf(port);
    const int delta = ringDelta(cur, dst, dim);
    const int after = ((delta - stepFor(port)) % k_ + k_) % k_;
    return ringDist_[static_cast<std::size_t>(after)] <
           ringDist_[static_cast<std::size_t>(delta)];
}

PortList
ExpressCubeTopology::profitablePorts(NodeId cur, NodeId dst) const
{
    // Per dimension prefer the express channel over the local one (cover
    // distance in fewer hops); across dimensions keep the cube heuristic
    // of serving the dimension with the most remaining distance first.
    PortList ports;
    for (int d = 0; d < n_; ++d) {
        for (int port : {2 * n_ + 2 * d, 2 * n_ + 2 * d + 1,
                         portOf(d, Dir::Plus), portOf(d, Dir::Minus)}) {
            if (portProfitable(cur, port, dst))
                ports.push_back(port);
        }
    }
    ports.stableSort([this, cur, dst](int a, int b) {
        const int da = isExpress(a) ? expressDim(a) : dimOf(a);
        const int db = isExpress(b) ? expressDim(b) : dimOf(b);
        return ringDist_[static_cast<std::size_t>(ringDelta(cur, dst, da))] >
               ringDist_[static_cast<std::size_t>(ringDelta(cur, dst, db))];
    });
    return ports;
}

std::uint8_t
ExpressCubeTopology::datelineAfter(NodeId node, int port,
                                   std::uint8_t state) const
{
    if (!isExpress(port))
        return TorusTopology::datelineAfter(node, port, state);
    // An express hop crosses its ring's dateline (the k-1 -> 0 edge) when
    // the stride passes the wrap point.
    const int dim = expressDim(port);
    const int c = coord(node, dim);
    const bool crosses =
        stepFor(port) > 0 ? (c + gap_ >= k_) : (c - gap_ < 0);
    if (crosses)
        state |= static_cast<std::uint8_t>(1u << dim);
    return state;
}

} // namespace tpnet
