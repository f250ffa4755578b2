#include "obs/trace_sample.h"

#include <cstdio>

#include "common/error.h"
#include "common/string_util.h"

namespace cellscope::obs {

TraceSampler::TraceSampler() {
  try {
    every_.store(static_cast<std::uint32_t>(
                     env_u64("CELLSCOPE_TRACE_SAMPLE", 0, 1, 0xFFFFFFFFULL)),
                 std::memory_order_relaxed);
  } catch (const InvalidArgument& e) {
    // A bad knob must not take the process down from a lazy singleton;
    // say so once and leave sampling off.
    std::fprintf(stderr, "cellscope: ignoring %s\n", e.what());
  }
}

TraceSampler& TraceSampler::instance() {
  static TraceSampler* sampler = new TraceSampler;  // never destroyed
  return *sampler;
}

}  // namespace cellscope::obs
