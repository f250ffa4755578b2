// Test-side oracles: reference checks the tests hold production results
// against, and the counting helpers suites share. Nothing in src/ calls
// these, so they live with the tests.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "city/tower.h"
#include "obs/quality.h"
#include "traffic/trace_generator.h"
#include "traffic/trace_record.h"

namespace cellscope {

/// Verifies the KKT conditions of a candidate simplex least-squares
/// solution within `tol`: feasibility, and ∇ᵢ ≥ λ with equality on the
/// support (∇ the objective gradient, λ the equality multiplier).
/// Returns true when satisfied.
bool check_simplex_kkt(const std::vector<std::vector<double>>& components,
                       const std::vector<double>& target,
                       const std::vector<double>& x, double tol = 1e-6);

/// Count of towers per region.
std::array<std::size_t, kNumRegions> region_histogram(
    const std::vector<Tower>& towers);

/// The clean bytes per (tower, slot) of a trace in generate_trace's
/// emission order, indexed [tower_id][slot] for tower ids below
/// `n_towers` — what a perfect §2.2 cleaner plus vectorizer recovers.
/// Each injected copy directly follows its original, so a record is an
/// original exactly when its (user, tower, start) differs from the last
/// original's; the originals' bytes are summed in emission order. Throws
/// when a tower id is n_towers or more.
std::vector<std::vector<double>> emitted_clean_bytes(
    const std::vector<TrafficLog>& logs, std::size_t n_towers);

/// generate_trace's options for days [0, day_end) in sessions ten times
/// the default's bytes, as the stream fixtures use: ~9,000 records per
/// tower-day instead of ~95,000, which keeps trace fixtures small.
TraceOptions coarse_days(int day_end);

/// FNV-1a 64's offset basis: the hash of no bytes.
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ull;

/// FNV-1a 64 over `size` bytes at `data`, continuing from `hash` — the
/// fingerprint the pin tests hold a result's exact bytes to.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t hash = kFnv1aBasis);

namespace obs {

/// Every row is z-score normalized: |mean| <= tolerance and
/// |stddev - 1| <= tolerance (constant rows, which z-score to all-zero,
/// are exempt from the stddev bound). value = worst deviation seen.
/// The whole-city form of the pipeline's zscore_normalized verdict:
/// check_zscore_worst(worst_deviation(d), tolerance) over
/// d[r] = zscore_row_deviation(rows[r]).
CheckResult check_zscore_rows(const std::vector<std::vector<double>>& rows,
                              double tolerance = 1e-6);

}  // namespace obs
}  // namespace cellscope
