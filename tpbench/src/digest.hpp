/**
 * @file
 * Bit-exact digests of simulated results. Two runs of one program on
 * one seed must give equal digests; the traced replicas are held to the
 * same digest as the library calls they copy.
 */

#ifndef TPBENCH_DIGEST_HPP
#define TPBENCH_DIGEST_HPP

#include <cstdint>
#include <string>

#include "chaos/campaign.hpp"
#include "metrics/collector.hpp"

namespace tpbench {

/** FNV-1a 64 over every simulated statistic of a RunResult. */
std::uint64_t resultDigest(const tpnet::RunResult &r);

/**
 * FNV-1a 64 over a campaign result: its campaignJson document, its
 * counters, its fired fault timeline and its checkpoint digests.
 */
std::uint64_t campaignDigest(const tpnet::chaos::CampaignResult &r);

/** Fold @p v into the running digest @p h (FNV-1a 64 over its bytes). */
std::uint64_t foldDigest(std::uint64_t h, std::uint64_t v);

constexpr std::uint64_t kDigestBasis = 14695981039346656037ull;

std::string hex64(std::uint64_t v);

} // namespace tpbench

#endif // TPBENCH_DIGEST_HPP
