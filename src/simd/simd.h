// Runtime-dispatched SIMD kernel for the pairwise-distance tile.
//
// One kernel lives here: dot_4x8, the register-blocked micro-kernel of
// the distance tile, the one hot loop where vector code pays (DESIGN.md
// §12). The widest instruction set the CPU supports is picked once at
// startup via cpuid (AVX2 on x86-64, NEON on aarch64), overridable with
// CELLSCOPE_SIMD=scalar|avx2|neon|auto or force_isa() from tests.
//
// The bit-compatibility contract: the kernel is vectorized WITHOUT
// reassociating its floating-point reductions. It runs 32 dot products
// side by side, each one summing in ascending-element order, and no FMA
// contraction is permitted in any kernel TU (-ffp-contract=off, no FMA
// intrinsics), so every ISA produces bit-identical results, pinned by
// the `-L par` and `-L simd` suites.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

namespace cellscope::simd {

/// Instruction sets the dispatcher can select. Order is by width:
/// comparisons (a > b) mean "wider than".
enum class Isa {
  kScalar = 0,
  kNeon = 1,
  kAvx2 = 2,
};

/// Widest ISA this CPU supports (detected once; cpuid on x86-64).
Isa detected_isa();

/// The ISA kernels actually dispatch on: force_isa() override if set,
/// else CELLSCOPE_SIMD from the environment, else detected_isa(). A
/// requested ISA the CPU cannot run is reported on stderr and clamped to
/// detected_isa() — the dispatcher never emits unsupported instructions.
Isa active_isa();

/// Test/tooling override; nullopt restores env/auto selection. Clamped to
/// detected_isa() like the env knob. Not thread-safe against in-flight
/// kernels — flip it only from single-threaded test setup.
void force_isa(std::optional<Isa> isa);

/// "scalar" | "neon" | "avx2".
std::string_view isa_name(Isa isa);

/// Parses "scalar" / "neon" / "avx2"; "auto" or "" yields nullopt
/// (= use detected); any other spelling also yields nullopt.
std::optional<Isa> parse_isa(std::string_view name);

// ---------------------------------------------------------------------
// The kernel. It dispatches on active_isa() per call (one predictable
// branch against work of O(dim)).

/// Rows and columns of one dot_4x8 register block.
inline constexpr std::size_t kDotBlockRows = 4;
inline constexpr std::size_t kDotBlockCols = 8;

/// The distance tile's register-blocked micro-kernel: 4 rows against 8
/// packed columns, 32 dot products at once.
///   out[8r + c] = Σ_d rows[r][d] · packed[8d + c]   (r < 4, c < 8)
/// Each output is one accumulation chain from +0.0 in ascending-d order,
/// mul then add — bit-identical to the plain scalar `dot += a[d] * b[d]`
/// loop. `packed` holds eight equal-length columns interleaved
/// element-wise (the GEMM-style pack the distance tile builds per column
/// group); the four rows are read in place and may alias each other.
void dot_4x8(const double* const rows[kDotBlockRows], const double* packed,
             std::size_t dim, double out[kDotBlockRows * kDotBlockCols]);

}  // namespace cellscope::simd
