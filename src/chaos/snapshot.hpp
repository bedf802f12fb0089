/**
 * @file
 * Campaign checkpoint/restore: serialize the complete dynamic state of
 * a running campaign harness at a cycle boundary, and load it back into
 * a freshly constructed harness of the same spec.
 *
 * What is serialized is exactly the dynamic state: both network RNG
 * streams, every link's virtual-channel trios and control queues, every
 * router's RCU queue and crossbar maps, every live message (header,
 * path, history store, gates), the injection queues, counters, the CWG
 * analyzer's full wait graph, the fault timeline position, the delivery
 * oracle's books, the watchdog's progress tracks, and the injector
 * gate. Configuration-derived state (geometry, routing protocol,
 * topology, trace attachment) is NOT serialized — the Network
 * constructor rebuilds it, and the checkpoint header's config digest
 * refuses restores under a different spec.
 *
 * All unordered containers are written in sorted key order, so writing
 * the same state twice produces identical bytes and a restored run is
 * bit-identical to the straight-through run (the golden-digest tests
 * assert both).
 *
 * The field lists live in one TU (snapshot.cpp) as a single symmetric
 * io() routine per type, driven by obs::CkWriter / obs::CkReader.
 */

#ifndef TPNET_CHAOS_SNAPSHOT_HPP
#define TPNET_CHAOS_SNAPSHOT_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace tpnet {

class Network;
class Rng;
class Injector;

namespace obs {
class CkWriter;
class CkReader;
} // namespace obs

namespace chaos {

class DeliveryOracle;
class FaultSchedule;
class Watchdog;

/**
 * The live harness objects of one campaign run, plus the phase the
 * run's outer loop is in: 0 = injection window, 1 = drain, 2 = final
 * (post-loop digest). All pointers must be non-null.
 */
struct CampaignState
{
    Network *net = nullptr;
    Rng *faultRng = nullptr;
    FaultSchedule *schedule = nullptr;
    DeliveryOracle *oracle = nullptr;
    Watchdog *watchdog = nullptr;
    Injector *injector = nullptr;
    std::uint8_t phase = 0;
    /**
     * Payload buffer writeCampaignCheckpoint() serializes into; kept
     * here so a campaign's checkpoints reuse one allocation.
     */
    std::vector<std::uint8_t> ckBuffer;
};

/** Serialize the harness into @p w (payload only, no header). */
void serializeCampaign(obs::CkWriter &w, CampaignState &st);

/**
 * Load the harness from @p r. The targets must be freshly constructed
 * from the same spec the checkpoint was recorded under. @return false
 * when the reader reports an error (state may be partially written —
 * the caller must discard the harness).
 */
bool deserializeCampaign(obs::CkReader &r, CampaignState &st);

/**
 * FNV-1a 64 digest of the serialized harness state, folded field by
 * field without materialising the payload.
 */
std::uint64_t campaignStateDigest(CampaignState &st);

/**
 * Write a complete checkpoint file (header + payload) at @p path,
 * atomically (temp file + rename) so a crash mid-write never corrupts
 * the previous checkpoint. The payload is built in @p st.ckBuffer.
 * @p config_digest identifies the campaign spec
 * (chaos::campaignSpecDigest). @return false with *error set on I/O
 * failure.
 */
bool writeCampaignCheckpoint(const std::string &path,
                             std::uint64_t config_digest,
                             CampaignState &st, std::string *error);

/**
 * Read a checkpoint file back into the harness. Validates the header,
 * the payload digest, that @p config_digest matches the one recorded,
 * and that the payload is consumed exactly. @return false with *error
 * set on any failure (harness state is then undefined — discard it).
 */
bool readCampaignCheckpoint(const std::string &path,
                            std::uint64_t config_digest,
                            CampaignState &st, std::string *error);

} // namespace chaos
} // namespace tpnet

#endif // TPNET_CHAOS_SNAPSHOT_HPP
