/**
 * @file
 * Per-node router state (paper Section 5.0, Fig. 8).
 *
 * The blocks of the router chip map onto this model as follows: the LCUs
 * and DIBU/CIBU FIFOs live in the Link objects of the incident links; the
 * RCU is the rcuQueue served at one header per cycle plus the routing
 * protocol object; the history store and unsafe store are realized by the
 * header state frames / link unsafe bits; the counter management unit
 * (CMU) is the per-VC counter in VcState; the crossbar is the per-output
 * arbitration over the mapped-input lists kept here.
 */

#ifndef TPNET_ROUTER_ROUTER_HPP
#define TPNET_ROUTER_ROUTER_HPP

#include <deque>
#include <vector>

#include "sim/types.hpp"

namespace tpnet {

struct VcState;

/** Reference to one input virtual channel of a router. */
struct InRef
{
    LinkId link = invalidLink;  ///< incoming link (its VCs are our DIBUs)
    int vc = -1;
    /** The trio itself, resolved when the input is mapped so the data
     *  phase reaches it without touching the Link (see Network::
     *  inputRef). Identity is (link, vc) alone. */
    VcState *state = nullptr;

    bool operator==(const InRef &o) const
    {
        return link == o.link && vc == o.vc;
    }
};

/** A header awaiting routing service at a router's RCU. */
struct RcuEntry
{
    MsgId msg = invalidMsg;
    int epoch = 0;  ///< stale entries of earlier setup attempts are skipped
};

/** State of one routing node. */
class Router
{
  public:
    NodeId id = invalidNode;

    /** Failed PE+router: removed from the network (Section 2.4). */
    bool faulty = false;

    /**
     * Headers waiting for the RCU. The RCU routes at most one header per
     * cycle; headers that cannot make progress rotate to the back of the
     * queue (the control FIFOs arbitrating for the RCU, Fig. 8).
     */
    std::deque<RcuEntry> rcuQueue;

    /**
     * Crossbar input lists: mappedInputs[port] holds the input VCs whose
     * circuits are currently mapped to output port `port`; ejectInputs
     * holds those mapped to the local PE. Maintained on reserve/release
     * so the data phase does not scan every input VC.
     */
    std::vector<std::vector<InRef>> mappedInputs;
    std::vector<InRef> ejectInputs;

    /** Round-robin pointers for output-port / ejection arbitration. */
    std::vector<std::size_t> outRR;
    std::size_t ejectRR = 0;

    // --- Statistics --------------------------------------------------------
    std::size_t maxRcuDepth = 0;
    std::uint64_t headersRouted = 0;

    void
    init(NodeId id_, int radix)
    {
        id = id_;
        mappedInputs.assign(static_cast<std::size_t>(radix), {});
        outRR.assign(static_cast<std::size_t>(radix), 0);
    }

    /** Register a mapped input VC with an output port (or ejection). */
    void
    mapInput(int out_port, const InRef &in)
    {
        if (out_port == ejectPort)
            ejectInputs.push_back(in);
        else
            mappedInputs[static_cast<std::size_t>(out_port)].push_back(in);
    }

    /** Remove a mapped input VC from an output port (or ejection). */
    void
    unmapInput(int out_port, const InRef &in)
    {
        auto &list = out_port == ejectPort
            ? ejectInputs
            : mappedInputs[static_cast<std::size_t>(out_port)];
        for (std::size_t i = 0; i < list.size(); ++i) {
            if (list[i] == in) {
                list.erase(list.begin() +
                           static_cast<std::ptrdiff_t>(i));
                return;
            }
        }
    }
};

} // namespace tpnet

#endif // TPNET_ROUTER_ROUTER_HPP
