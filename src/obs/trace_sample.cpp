#include "obs/trace_sample.h"

#include <cstdlib>

#include "common/string_util.h"

namespace cellscope::obs {

TraceSampler::TraceSampler() {
  const char* env = std::getenv("CELLSCOPE_TRACE_SAMPLE");
  if (env == nullptr || *env == '\0') return;
  if (const auto parsed = parse_u64(env, 1, 0xFFFFFFFFULL))
    every_.store(static_cast<std::uint32_t>(*parsed),
                 std::memory_order_relaxed);
}

TraceSampler& TraceSampler::instance() {
  static TraceSampler* sampler = new TraceSampler;  // never destroyed
  return *sampler;
}

}  // namespace cellscope::obs
