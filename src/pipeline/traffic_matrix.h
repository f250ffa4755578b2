// The per-tower traffic matrix — output of the vectorizer, input to
// clustering and all analyses.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/time_grid.h"

namespace cellscope {

class ThreadPool;

/// Rows are towers, columns are 10-minute slots (raw bytes). The paper's
/// Xj vectors (§3.2) are the z-scored rows.
struct TrafficMatrix {
  std::vector<std::uint32_t> tower_ids;        ///< row -> tower id
  std::vector<std::vector<double>> rows;       ///< raw bytes, [n][4032]

  std::size_t n() const { return rows.size(); }

  /// Row index of a tower id; throws if absent.
  std::size_t row_of(std::uint32_t tower_id) const;

  /// Validates the invariants (ids unique, rows rectangular of kSlots).
  void check() const;
};

/// Z-scores every row (the vectorizer's normalization phase). Rows are
/// independent, so a pool parallelizes them with bit-identical output.
std::vector<std::vector<double>> zscore_rows(const TrafficMatrix& matrix,
                                             ThreadPool* pool = nullptr);

/// Folds one 4032-slot row to its mean week (1008 slots) — the optional
/// dimensionality reduction for clustering (DESIGN.md §5.2). Slot j is
/// weeks 0..3 of slot j summed from 0.0 in ascending week order, then
/// divided by 4: bit-identical to the `week[s % 1008] += row[s]` sweep.
/// Throws unless the row has 4032 slots.
std::vector<double> fold_week(std::span<const double> row);

/// fold_week over every row. Rows are independent, so a pool
/// parallelizes them with bit-identical output.
std::vector<std::vector<double>> fold_to_week(
    const std::vector<std::vector<double>>& rows, ThreadPool* pool = nullptr);

/// Column-wise sum across rows (the city-aggregate series of Fig. 1/12).
std::vector<double> aggregate_series(const TrafficMatrix& matrix);

/// Column-wise sum over a subset of row indices (a cluster's aggregate).
std::vector<double> aggregate_series(const TrafficMatrix& matrix,
                                     const std::vector<std::size_t>& rows);

}  // namespace cellscope
