/**
 * @file
 * Field-wise FNV-1a folding against the byte-serial reference.
 *
 * foldTraceEvent() and CkWriter's running payload digest skip each
 * field's zero high bytes with one multiply by a prime power; these
 * randomized property tests pin both to fnv1a64() over the bytes the
 * trace and checkpoint formats actually emit, including every field
 * boundary value and every significant-byte count.
 */

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/checkpoint.hpp"
#include "obs/trace_format.hpp"
#include "sim/rng.hpp"

namespace tpnet::obs {
namespace {

constexpr std::size_t ckHeaderSize = 40;

/** A value of at most @p bytes significant bytes, biased to edges. */
std::uint64_t
fieldValue(Rng &rng, unsigned bytes)
{
    static const std::uint64_t edges[] = {
        0, 1, 255, 256, 0xffffull, 0x10000ull, 0xffffffffull,
        0x100000000ull, ~std::uint64_t{0},
        std::uint64_t{1} << 63, (std::uint64_t{1} << 63) - 1,
    };
    const std::uint64_t mask = bytes >= 8
                                   ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << (8 * bytes)) - 1;
    if (rng.chance(0.4))
        return edges[rng.below(std::size(edges))] & mask;
    // Uniform over the significant-byte count, then over the value.
    const unsigned sig = static_cast<unsigned>(rng.below(bytes + 1));
    if (sig == 0)
        return 0;
    const std::uint64_t top = std::uint64_t{1} << (8 * (sig - 1));
    return (top | (rng.next() & (top * 255 + (top - 1)))) & mask;
}

std::uint64_t
encodedDigest(const TraceEvent &ev, std::uint64_t h = fnvOffsetBasis)
{
    std::uint8_t rec[traceRecordSize];
    encodeTraceEvent(ev, rec);
    return fnv1a64(rec, sizeof(rec), h);
}

/** Split a serialized checkpoint into (header digest, payload bytes). */
std::string
payloadOf(const CkWriter &w, std::uint64_t *header_digest)
{
    std::ostringstream os(std::ios::binary);
    w.writeTo(os, 0);
    const std::string file = os.str();
    std::uint64_t d = 0;
    for (int i = 0; i < 8; ++i)
        d |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(file[16 + i]))
             << (8 * i);
    *header_digest = d;
    return file.substr(ckHeaderSize);
}

TEST(DigestFold, FnvFoldMatchesByteSerialForEveryWidth)
{
    Rng rng(2027);
    for (unsigned n = 1; n <= 8; ++n) {
        for (int i = 0; i < 2000; ++i) {
            const std::uint64_t v = fieldValue(rng, n);
            std::uint8_t bytes[8];
            for (unsigned b = 0; b < n; ++b)
                bytes[b] = static_cast<std::uint8_t>(v >> (8 * b));
            const std::uint64_t h = rng.next();
            ASSERT_EQ(fnvFold(h, v, n), fnv1a64(bytes, n, h))
                << "n=" << n << " v=" << v;
        }
    }
}

TEST(DigestFold, TraceEventFoldMatchesEncodedRecord)
{
    Rng rng(1);
    std::uint64_t folded = fnvOffsetBasis;
    std::uint64_t serial = fnvOffsetBasis;
    for (int i = 0; i < 20000; ++i) {
        TraceEvent ev;
        ev.kind = static_cast<TraceEventKind>(rng.below(8));
        ev.flitType = static_cast<std::uint8_t>(fieldValue(rng, 1));
        ev.detail = static_cast<std::uint8_t>(fieldValue(rng, 1));
        ev.vc = static_cast<std::int8_t>(fieldValue(rng, 1));
        ev.link = static_cast<std::uint32_t>(fieldValue(rng, 4));
        ev.node = static_cast<std::uint32_t>(fieldValue(rng, 4));
        ev.cycle = fieldValue(rng, 8);
        ev.msg = static_cast<std::int64_t>(fieldValue(rng, 8));
        ev.seq = static_cast<std::int32_t>(fieldValue(rng, 4));
        ev.hop = static_cast<std::int32_t>(fieldValue(rng, 4));
        ev.epoch = static_cast<std::int32_t>(fieldValue(rng, 4));
        ev.aux = static_cast<std::uint32_t>(fieldValue(rng, 4));
        ASSERT_EQ(foldTraceEvent(fnvOffsetBasis, ev), encodedDigest(ev));
        folded = foldTraceEvent(folded, ev);
        serial = encodedDigest(ev, serial);
    }
    EXPECT_EQ(folded, serial);
}

TEST(DigestFold, TraceEventFoldBoundaryRecords)
{
    TraceEvent zero;
    zero.kind = TraceEventKind::FlitCrossed;
    zero.flitType = 0;
    zero.detail = 0;
    zero.vc = 0;
    zero.link = 0;
    zero.node = 0;
    zero.msg = 0;
    EXPECT_EQ(foldTraceEvent(fnvOffsetBasis, zero), encodedDigest(zero));

    TraceEvent ones = zero;
    ones.vc = -1;
    ones.link = 0xffffffffu;
    ones.node = 0xffffffffu;
    ones.cycle = ~Cycle{0};
    ones.msg = -1;
    ones.seq = ones.hop = ones.epoch = -1;
    ones.aux = 0xffffffffu;
    EXPECT_EQ(foldTraceEvent(fnvOffsetBasis, ones), encodedDigest(ones));

    for (std::int64_t m : {std::numeric_limits<std::int64_t>::min(),
                           std::numeric_limits<std::int64_t>::max(),
                           std::int64_t{1}, std::int64_t{255},
                           std::int64_t{256}}) {
        TraceEvent ev;  // the defaults: not-a-flit, no link, no node
        ev.msg = m;
        ev.cycle = static_cast<Cycle>(m);
        EXPECT_EQ(foldTraceEvent(fnvOffsetBasis, ev), encodedDigest(ev))
            << m;
    }
}

TEST(DigestFold, CkWriterRunningDigestMatchesEmittedPayload)
{
    Rng rng(7);
    for (int round = 0; round < 200; ++round) {
        CkWriter w;
        const int fields = static_cast<int>(rng.below(300));
        for (int i = 0; i < fields; ++i) {
            const std::uint64_t v8 = fieldValue(rng, 8);
            switch (rng.below(9)) {
              case 0: {
                  auto v = static_cast<std::uint8_t>(v8);
                  w.u8(v);
                  break;
              }
              case 1: {
                  auto v = static_cast<std::uint16_t>(fieldValue(rng, 2));
                  w.u16(v);
                  break;
              }
              case 2: {
                  auto v = static_cast<std::uint32_t>(fieldValue(rng, 4));
                  w.u32(v);
                  break;
              }
              case 3: {
                  std::uint64_t v = v8;
                  w.u64(v);
                  break;
              }
              case 4: {
                  auto v = static_cast<std::int32_t>(fieldValue(rng, 4));
                  w.i32(v);
                  break;
              }
              case 5: {
                  auto v = static_cast<std::int64_t>(v8);
                  w.i64(v);
                  break;
              }
              case 6: {
                  double v = rng.chance(0.2)
                                 ? 0.0
                                 : (rng.uniform() - 0.5) * 1e6;
                  w.f64(v);
                  break;
              }
              case 7: {
                  bool v = rng.chance(0.5);
                  w.b(v);
                  break;
              }
              default: {
                  std::string s(rng.below(40), '\0');
                  for (char &c : s)
                      c = static_cast<char>(rng.below(256));
                  w.str(s);
                  break;
              }
            }
        }
        std::uint64_t header = 0;
        const std::string payload = payloadOf(w, &header);
        ASSERT_EQ(payload.size(), w.bytes());
        ASSERT_EQ(w.payloadDigest(),
                  fnv1a64(payload.data(), payload.size()));
        ASSERT_EQ(header, w.payloadDigest());
    }
}

TEST(DigestFold, ReusedAndDigestOnlyWritersMatchAFreshWriter)
{
    // A reused buffer keeps a longer earlier payload's stale bytes past
    // the new end; they must never reach the file. A digest-only writer
    // must agree on both the digest and the byte count.
    auto fill = [](CkWriter &w, std::uint64_t seed, int fields) {
        Rng rng(seed);
        for (int i = 0; i < fields; ++i) {
            std::uint64_t v = fieldValue(rng, 8);
            std::string s(rng.below(5), 'x');
            w.u64(v);
            w.str(s);
        }
    };
    std::vector<std::uint8_t> buf;
    {
        CkWriter big(&buf);
        fill(big, 11, 5000);
    }
    CkWriter fresh, reused(&buf), digestOnly(nullptr);
    fill(fresh, 12, 100);
    fill(reused, 12, 100);
    fill(digestOnly, 12, 100);

    std::uint64_t h1 = 0, h2 = 0;
    EXPECT_EQ(payloadOf(reused, &h2), payloadOf(fresh, &h1));
    EXPECT_EQ(h1, h2);
    EXPECT_EQ(digestOnly.payloadDigest(), fresh.payloadDigest());
    EXPECT_EQ(digestOnly.bytes(), fresh.bytes());
}

} // namespace
} // namespace tpnet::obs
