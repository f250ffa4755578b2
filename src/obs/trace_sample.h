// Deterministic 1-in-N record sampling for per-record tracing.
//
// Stage spans (obs/timer.h) trace the pipeline at batch granularity; to
// reconstruct a *single record's* path (ingest → window-update →
// classify) without paying per-record tracing cost, a cheap hash of the
// record's identity decides — identically at every stage — whether the
// record is traced. CELLSCOPE_TRACE_SAMPLE=N enables sampling at 1-in-N
// (N=1 traces every record; unset or 0 disables). Because the decision
// is a pure function of record content, the same record samples the same
// way at offer, drain, and classify time with no state carried between
// stages — a trace context that costs one multiply-shift per check.
#pragma once

#include <atomic>
#include <cstdint>

namespace cellscope::obs {

/// splitmix64 finalizer — a fast, well-mixed 64-bit hash step. Public so
/// call sites can fold multiple fields before sampling.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Process-global sampling knob (CELLSCOPE_TRACE_SAMPLE).
class TraceSampler {
 public:
  /// Singleton; first call reads CELLSCOPE_TRACE_SAMPLE (an integer in
  /// [1, 2^32 - 1]; any other set value prints one "cellscope: ignoring"
  /// line on stderr and leaves sampling off).
  static TraceSampler& instance();

  /// 0 = sampling off; N >= 1 = trace one record in N.
  std::uint32_t sample_every() const noexcept {
    return every_.load(std::memory_order_relaxed);
  }
  void set_sample_every(std::uint32_t every) noexcept {
    every_.store(every, std::memory_order_relaxed);
  }

  bool active() const noexcept { return sample_every() != 0; }

  /// Whether the record with this (well-mixed) hash is traced. Callers
  /// must pass the same hash at every stage for the decision to stick.
  bool sampled(std::uint64_t hash) const noexcept {
    const std::uint32_t every = sample_every();
    return every != 0 && hash % every == 0;
  }

  TraceSampler(const TraceSampler&) = delete;
  TraceSampler& operator=(const TraceSampler&) = delete;

 private:
  TraceSampler();

  std::atomic<std::uint32_t> every_{0};
};

}  // namespace cellscope::obs
