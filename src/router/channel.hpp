/**
 * @file
 * Virtual channel trio state (paper Section 2.3, Fig. 2).
 *
 * Each unidirectional virtual channel is a trio (data, corresponding,
 * complementary). The data channel is realized as the DIBU FIFO at the
 * downstream router; the corresponding channel carries the routing header
 * over the multiplexed control lane; the complementary channel carries
 * acknowledgment/kill flits in the opposite direction (on the reverse
 * wire's control lane). The per-VC CMU counter and programmable K register
 * of Section 5.0 live here as well.
 */

#ifndef TPNET_ROUTER_CHANNEL_HPP
#define TPNET_ROUTER_CHANNEL_HPP

#include "router/flit.hpp"
#include "sim/fifo.hpp"
#include "sim/types.hpp"

namespace tpnet {

/**
 * State of one virtual channel trio on one unidirectional link.
 *
 * The crossbar mapping (outPort, outVc) is the state the downstream
 * router's RCU programs when it routes the circuit's header onward:
 * data flits at the head of this VC's DIBU move through the downstream
 * crossbar to (outPort, outVc), or to the local PE when outPort is
 * ejectPort.
 */
struct VcState
{
    // The arbitration fields the data phase reads on every visit come
    // first, then the DIBU's bookkeeping and its inline flits, so the
    // hot state fills the first 48 bytes and the front flit follows.

    /** Message whose circuit currently holds this trio. */
    MsgId owner = invalidMsg;

    /** Crossbar mapping at the downstream router (valid when routed). */
    int outPort = -1;
    int outVc = -1;

    /** CMU acknowledgment counter for the circuit on this channel. */
    int counter = 0;

    /** Programmed scouting distance K for this circuit (Section 5.0). */
    int kReg = 0;

    /** True once the downstream RCU has routed the circuit onward. */
    bool routed = false;

    /**
     * Detour hold: while set, data flits may not leave this channel even
     * if the counter has reached K ("all channels (or none) in a detour
     * are accepted before the data flits resume progress", Section 4.0).
     */
    bool hold = false;

    /** Data input buffer (DIBU) at the downstream router. */
    Fifo<Flit> data;

    /** True when data flits may advance out of this channel. */
    bool
    dataEnabled() const
    {
        return routed && !hold && counter >= kReg;
    }

    /** Reserve the trio for a circuit. */
    void
    reserve(MsgId msg, int k_reg, bool held)
    {
        owner = msg;
        routed = false;
        outPort = -1;
        outVc = -1;
        counter = 0;
        kReg = k_reg;
        hold = held;
    }

    /** Return the trio to the free pool (buffers must be drained/purged). */
    void
    release()
    {
        owner = invalidMsg;
        routed = false;
        outPort = -1;
        outVc = -1;
        counter = 0;
        kReg = 0;
        hold = false;
    }

    bool free() const { return owner == invalidMsg; }
};

} // namespace tpnet

#endif // TPNET_ROUTER_CHANNEL_HPP
