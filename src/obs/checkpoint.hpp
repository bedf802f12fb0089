/**
 * @file
 * Versioned binary checkpoint container + tail-digest trace tee.
 *
 * A checkpoint file is a 40-byte header followed by an opaque
 * little-endian payload (DESIGN.md §6h):
 *
 *   header:  magic "TPCK" | u16 version | u16 flags
 *            | u64 payload_size | u64 payload_digest
 *            | u64 config_digest | u64 reserved
 *
 * The payload digest is FNV-1a 64 over the payload bytes, so a flipped
 * or truncated byte is rejected before any state is deserialized. The
 * config digest is supplied by the caller (a digest of the campaign
 * spec the snapshot belongs to) and lets restore refuse a checkpoint
 * recorded under a different configuration. The payload itself is
 * written through CkWriter / read back through CkReader — symmetric
 * reference-taking primitives so one field list per type serves both
 * save and load (see src/chaos/snapshot.cpp).
 *
 * DigestTee is a TraceSink that folds every event into a running
 * FNV-1a digest using the exact trace_format record encoding (the
 * TraceEventSink mapping TraceRecorder shares), optionally forwarding
 * to a downstream sink. Resetting it at a checkpoint boundary yields a
 * "tail digest" over the events after the snapshot — the golden value
 * a restore-then-run must reproduce bit-identically.
 */

#ifndef TPNET_OBS_CHECKPOINT_HPP
#define TPNET_OBS_CHECKPOINT_HPP

#include <bit>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/event_sink.hpp"
#include "obs/trace_format.hpp"
#include "sim/types.hpp"

namespace tpnet::obs {

/** Current checkpoint container version. */
constexpr std::uint16_t checkpointFormatVersion = 1;

/** Parsed checkpoint-file header. */
struct CheckpointFileInfo
{
    std::uint16_t version = checkpointFormatVersion;
    std::uint16_t flags = 0;
    std::uint64_t payloadSize = 0;
    std::uint64_t payloadDigest = 0;
    std::uint64_t configDigest = 0;
};

/**
 * Checkpoint payload writer. Primitives take non-const references so
 * the identical io() field list drives both directions; the writer
 * only reads through them. Every field is appended whole and folded
 * into a running FNV-1a payload digest (fnvFold), so payloadDigest()
 * needs no second pass over the bytes. A writer constructed over
 * nullptr keeps only that digest and the byte count and never
 * materialises the payload.
 */
class CkWriter
{
  public:
    static constexpr bool isReader = false;

    /** Buffer the payload in a writer-owned vector. */
    CkWriter() : buf_(&own_) {}

    /**
     * Buffer the payload in @p buf, overwriting its contents; its size
     * carries over as capacity, so repeated checkpoints reuse one
     * allocation. nullptr: digest only, no payload kept.
     */
    explicit CkWriter(std::vector<std::uint8_t> *buf) : buf_(buf) {}

    CkWriter(const CkWriter &) = delete;
    CkWriter &operator=(const CkWriter &) = delete;

    void u8(std::uint8_t &v) { put(v, 1); }
    void u16(std::uint16_t &v) { put(v, 2); }
    void u32(std::uint32_t &v) { put(v, 4); }
    void u64(std::uint64_t &v) { put(v, 8); }
    void i32(std::int32_t &v) { put(static_cast<std::uint32_t>(v), 4); }
    void i64(std::int64_t &v) { put(static_cast<std::uint64_t>(v), 8); }

    /**
     * Bit-pattern transport: restore reproduces the exact double, so
     * folded statistics stay bit-identical across a round trip.
     */
    void f64(double &v) { put(std::bit_cast<std::uint64_t>(v), 8); }

    void b(bool &v) { put(v ? 1 : 0, 1); }
    void str(std::string &v);

    std::uint64_t bytes() const { return size_; }

    /** FNV-1a 64 of the payload written so far. */
    std::uint64_t payloadDigest() const { return digest_; }

    /** Emit header + payload to @p os (not on a digest-only writer). */
    void writeTo(std::ostream &os, std::uint64_t config_digest) const;

  private:
    /** Append the @p n low bytes of @p v, little-endian. */
    void
    put(std::uint64_t v, unsigned n)
    {
        digest_ = fnvFold(digest_, v, n);
        if (buf_) {
            // Stores all 8 bytes; the ones past n are zero and land in
            // the slack reserve() keeps, to be overwritten next.
            std::uint8_t *p = reserve(8);
            if constexpr (std::endian::native == std::endian::little) {
                std::memcpy(p, &v, 8);
            } else {
                for (unsigned i = 0; i < 8; ++i)
                    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
            }
        }
        size_ += n;
    }

    /** Make room for @p n bytes at the write position; return it. */
    std::uint8_t *
    reserve(std::size_t n)
    {
        if (buf_->size() < size_ + n)
            grow(n);
        return buf_->data() + size_;
    }

    void grow(std::size_t n);

    std::vector<std::uint8_t> own_;
    std::vector<std::uint8_t> *buf_;
    std::uint64_t size_ = 0;
    std::uint64_t digest_ = fnvOffsetBasis;
};

/**
 * Checkpoint reader. Construction parses and validates the header,
 * reads the payload, and verifies the payload digest; field reads
 * then mirror CkWriter. Errors (bad magic, version mismatch,
 * truncation, digest mismatch, payload under/overrun) are reported
 * via ok()/error(), never by aborting.
 */
class CkReader
{
  public:
    static constexpr bool isReader = true;

    explicit CkReader(std::istream &is);

    bool ok() const { return error_.empty(); }
    const std::string &error() const { return error_; }
    const CheckpointFileInfo &info() const { return info_; }

    /** Unread payload bytes (container-size plausibility checks). */
    std::size_t remaining() const { return payload_.size() - pos_; }

    void u8(std::uint8_t &v);
    void u16(std::uint16_t &v);
    void u32(std::uint32_t &v);
    void u64(std::uint64_t &v);
    void i32(std::int32_t &v);
    void i64(std::int64_t &v);
    void f64(double &v);
    void b(bool &v);
    void str(std::string &v);

    /**
     * Declare deserialization complete: any unread payload bytes are
     * an error (state layout drift between writer and reader).
     */
    void finish();

    /**
     * Record a structural failure discovered by the deserializer
     * itself (e.g. a serialized count that contradicts the network
     * geometry). First failure wins; subsequent reads become no-ops.
     */
    void fail(const std::string &why);

  private:
    const std::uint8_t *take(std::size_t n);

    CheckpointFileInfo info_;
    std::vector<std::uint8_t> payload_;
    std::size_t pos_ = 0;
    std::string error_;
};

/** Parse only the header of a checkpoint file (ckinfo subcommand). */
bool readCheckpointInfo(std::istream &is, CheckpointFileInfo *info,
                        std::string *error);

/**
 * TraceSink folding every event into a running FNV-1a digest over the
 * trace_format record encoding (foldTraceEvent over TraceEventSink's
 * records, the mapping TraceRecorder shares), forwarding each hook to
 * an optional downstream sink. reset(cycle) restarts the digest at a
 * checkpoint boundary so digest() covers only the tail after it.
 */
class DigestTee : public TraceEventSink<DigestTee>
{
  public:
    explicit DigestTee(TraceSink *downstream = nullptr)
        : TraceEventSink(downstream)
    {
    }

    /** TraceEventSink callback. */
    void
    onEvent(const TraceEvent &ev)
    {
        digest_ = foldTraceEvent(digest_, ev);
        ++records_;
    }

    /** Restart the digest; subsequent events form the tail. */
    void reset(Cycle from);

    std::uint64_t digest() const { return digest_; }
    std::uint64_t records() const { return records_; }

    /** Cycle of the last reset (0 if never reset). */
    Cycle tailFrom() const { return tailFrom_; }

  private:
    std::uint64_t digest_ = fnvOffsetBasis;
    std::uint64_t records_ = 0;
    Cycle tailFrom_ = 0;
};

} // namespace tpnet::obs

#endif // TPNET_OBS_CHECKPOINT_HPP
