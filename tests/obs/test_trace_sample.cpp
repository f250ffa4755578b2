// The deterministic 1-in-N trace sampler (obs/trace_sample.h): the
// decision is a pure function of the record hash, and the hit rate
// follows N.
#include "obs/trace_sample.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

namespace cellscope::obs {
namespace {

TEST(TraceSampler, DecisionIsDeterministicAndScalesWithN) {
  auto& sampler = TraceSampler::instance();
  const std::uint32_t saved = sampler.sample_every();
  sampler.set_sample_every(0);
  EXPECT_FALSE(sampler.active());
  EXPECT_FALSE(sampler.sampled(mix64(123)));  // off samples nothing

  sampler.set_sample_every(1);
  EXPECT_TRUE(sampler.sampled(mix64(123)));  // 1-in-1 samples everything

  sampler.set_sample_every(8);
  std::size_t hits = 0;
  constexpr std::size_t kRecords = 4096;
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    const bool first = sampler.sampled(mix64(i));
    EXPECT_EQ(first, sampler.sampled(mix64(i)));  // same record, same call
    if (first) ++hits;
  }
  // A well-mixed hash lands near 1-in-8 (generous bounds, deterministic
  // inputs so this cannot flake).
  EXPECT_GT(hits, kRecords / 16);
  EXPECT_LT(hits, kRecords / 4);
  sampler.set_sample_every(saved);
}

}  // namespace
}  // namespace cellscope::obs
