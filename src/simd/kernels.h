// Internal per-ISA entry points behind simd.h's dispatcher.
//
// Every ISA implements dot_4x8 with identical IEEE semantics (see
// simd.h's bit-compatibility contract). The scalar TU is the canonical
// reference; vector TUs are compiled with their ISA flags plus
// -ffp-contract=off in their own translation units so no other code
// needs non-baseline codegen.
#pragma once

#include <cstddef>

// CELLSCOPE_SIMD_ENABLE_AVX2 / _NEON are defined by src/simd/CMakeLists
// for the whole cs_simd target exactly when the matching kernel TU is
// built with its ISA flags — declarations, definitions, and dispatch
// cases all key off the same macro, so a flag/arch mismatch is a compile
// error instead of a silent illegal-instruction time bomb.

namespace cellscope::simd::detail {

void dot_4x8_scalar(const double* const rows[4], const double* packed,
                    std::size_t dim, double* out);

#ifdef CELLSCOPE_SIMD_ENABLE_AVX2
bool cpu_has_avx2();
void dot_4x8_avx2(const double* const rows[4], const double* packed,
                  std::size_t dim, double* out);
#endif

#ifdef CELLSCOPE_SIMD_ENABLE_NEON
void dot_4x8_neon(const double* const rows[4], const double* packed,
                  std::size_t dim, double* out);
#endif

}  // namespace cellscope::simd::detail
