#include "pipeline/traffic_matrix.h"

#include <unordered_set>

#include "common/error.h"
#include "common/stats.h"
#include "mapred/thread_pool.h"

namespace cellscope {

std::size_t TrafficMatrix::row_of(std::uint32_t tower_id) const {
  for (std::size_t i = 0; i < tower_ids.size(); ++i)
    if (tower_ids[i] == tower_id) return i;
  throw InvalidArgument("tower id not present in matrix: " +
                        std::to_string(tower_id));
}

void TrafficMatrix::check() const {
  CS_CHECK_MSG(tower_ids.size() == rows.size(),
               "tower_ids and rows must have equal length");
  std::unordered_set<std::uint32_t> seen;
  for (const auto id : tower_ids)
    CS_CHECK_MSG(seen.insert(id).second, "duplicate tower id in matrix");
  for (const auto& row : rows)
    CS_CHECK_MSG(row.size() == TimeGrid::kSlots,
                 "every row must have 4032 slots");
}

std::vector<std::vector<double>> zscore_rows(const TrafficMatrix& matrix,
                                             ThreadPool* pool) {
  std::vector<std::vector<double>> out(matrix.n());
  for_each_index(pool, matrix.n(),
                 [&](std::size_t i) { out[i] = zscore(matrix.rows[i]); });
  return out;
}

std::vector<double> fold_week(std::span<const double> row) {
  CS_CHECK_MSG(row.size() == TimeGrid::kSlots,
               "fold_week expects 4032-slot rows");
  constexpr std::size_t kPeriod = TimeGrid::kSlotsPerWeek;
  constexpr std::size_t kWeeks = TimeGrid::kWeeks;
  std::vector<double> week(kPeriod);
  for (std::size_t j = 0; j < kPeriod; ++j) {
    double acc = 0.0;
    for (std::size_t w = 0; w < kWeeks; ++w) acc += row[w * kPeriod + j];
    week[j] = acc / static_cast<double>(kWeeks);
  }
  return week;
}

std::vector<std::vector<double>> fold_to_week(
    const std::vector<std::vector<double>>& rows, ThreadPool* pool) {
  std::vector<std::vector<double>> out(rows.size());
  for_each_index(pool, rows.size(),
                 [&](std::size_t i) { out[i] = fold_week(rows[i]); });
  return out;
}

std::vector<double> aggregate_series(const TrafficMatrix& matrix) {
  std::vector<std::size_t> all(matrix.n());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return aggregate_series(matrix, all);
}

std::vector<double> aggregate_series(const TrafficMatrix& matrix,
                                     const std::vector<std::size_t>& rows) {
  std::vector<double> out(TimeGrid::kSlots, 0.0);
  for (const std::size_t r : rows) {
    CS_CHECK_MSG(r < matrix.n(), "row index out of range");
    const auto& row = matrix.rows[r];
    for (std::size_t s = 0; s < out.size(); ++s) out[s] += row[s];
  }
  return out;
}

}  // namespace cellscope
