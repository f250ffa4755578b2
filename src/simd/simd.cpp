#include "simd/simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "simd/kernels.h"

namespace cellscope::simd {

namespace {

Isa detect() {
#ifdef CELLSCOPE_SIMD_ENABLE_AVX2
  if (detail::cpu_has_avx2()) return Isa::kAvx2;
#endif
#ifdef CELLSCOPE_SIMD_ENABLE_NEON
  return Isa::kNeon;  // NEON is architectural on aarch64
#endif
  return Isa::kScalar;
}

/// Clamp a requested ISA to what the CPU can actually run — the
/// dispatcher must never select instructions the hardware lacks.
Isa clamp_to_detected(Isa requested, const char* origin) {
  const Isa available = detected_isa();
  bool supported = requested == Isa::kScalar || requested == available;
  if (!supported) {
    std::fprintf(stderr,
                 "cellscope: %s requested simd isa '%s' but this cpu "
                 "supports '%s'; using '%s'\n",
                 origin, std::string(isa_name(requested)).c_str(),
                 std::string(isa_name(available)).c_str(),
                 std::string(isa_name(available)).c_str());
    return available;
  }
  return requested;
}

Isa env_isa() {
  static const Isa isa = [] {
    const char* spec = std::getenv("CELLSCOPE_SIMD");
    if (spec == nullptr || *spec == '\0') return detected_isa();
    const auto parsed = parse_isa(spec);
    if (!parsed.has_value()) {
      if (std::string_view(spec) != "auto")
        std::fprintf(stderr,
                     "cellscope: ignoring CELLSCOPE_SIMD='%s' (expected "
                     "scalar|neon|avx2|auto)\n",
                     spec);
      return detected_isa();
    }
    return clamp_to_detected(*parsed, "CELLSCOPE_SIMD");
  }();
  return isa;
}

/// force_isa() override; -1 = none. Relaxed is fine: tests flip it from
/// single-threaded setup before launching kernel work.
std::atomic<int> g_forced{-1};

}  // namespace

Isa detected_isa() {
  static const Isa isa = detect();
  return isa;
}

Isa active_isa() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Isa>(forced);
  return env_isa();
}

void force_isa(std::optional<Isa> isa) {
  if (!isa.has_value()) {
    g_forced.store(-1, std::memory_order_relaxed);
    return;
  }
  g_forced.store(static_cast<int>(clamp_to_detected(*isa, "force_isa")),
                 std::memory_order_relaxed);
}

std::string_view isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kNeon:
      return "neon";
    case Isa::kAvx2:
      return "avx2";
  }
  return "scalar";
}

std::optional<Isa> parse_isa(std::string_view name) {
  if (name == "scalar") return Isa::kScalar;
  if (name == "neon") return Isa::kNeon;
  if (name == "avx2") return Isa::kAvx2;
  return std::nullopt;  // "auto", "", or unknown
}

void dot_4x8(const double* const rows[kDotBlockRows], const double* packed,
             std::size_t dim, double out[kDotBlockRows * kDotBlockCols]) {
  switch (active_isa()) {
#ifdef CELLSCOPE_SIMD_ENABLE_AVX2
    case Isa::kAvx2:
      return detail::dot_4x8_avx2(rows, packed, dim, out);
#endif
#ifdef CELLSCOPE_SIMD_ENABLE_NEON
    case Isa::kNeon:
      return detail::dot_4x8_neon(rows, packed, dim, out);
#endif
    default:
      return detail::dot_4x8_scalar(rows, packed, dim, out);
  }
}

}  // namespace cellscope::simd
