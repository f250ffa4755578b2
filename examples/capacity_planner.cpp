// Capacity planning / load balancing: the paper's ISP use case — "an ISP
// cannot obtain the optimal performance by using the same load balancing
// strategy on different towers" (§3.1).
//
// This example turns the discovered patterns into operational advice:
//   * per-pattern maintenance windows (lowest-traffic hours),
//   * per-pattern provisioning headroom (peak-to-mean ratio — how much
//     capacity sits idle off-peak),
//   * complementarity: which pattern pairs peak at different times and
//     could share pooled backhaul capacity.
//
//   $ ./capacity_planner [n_towers] [seed]
#include <iostream>

#include "core/cellscope.h"
#include "flag_util.h"

int main(int argc, char** argv) {
  using namespace cellscope;

  ExperimentConfig config;
  config.n_towers =
      examples::arg_u64(argc, argv, 1, "n_towers", 600, 20, UINT32_MAX);
  config.seed = examples::arg_u64(argc, argv, 2, "seed", 2015);

  std::cout << "Capacity planner: pattern-aware tower operations ("
            << config.n_towers << " towers)\n\n";
  const auto experiment = Experiment::run(config);

  // 1. Maintenance windows and provisioning per pattern.
  TextTable table("per-pattern operations sheet (weekday)");
  table.set_header({"pattern", "towers", "maintenance window",
                    "peak hour", "peak/mean", "advice"});
  std::vector<std::vector<double>> weekday_profiles;
  std::vector<FunctionalRegion> regions;
  for (std::size_t c = 0; c < experiment.n_clusters(); ++c) {
    const auto region = experiment.labeling().region_of_cluster[c];
    const auto aggregate = experiment.cluster_aggregate(c);
    const auto features = compute_time_features(aggregate);
    const auto& day = features.weekday.mean_day;
    weekday_profiles.push_back(day);
    regions.push_back(region);

    // Maintenance window: the 2-hour block with the least traffic.
    double best_total = 1e300;
    int best_start = 0;
    const int block = 12;  // 12 slots = 2 hours
    for (int start = 0; start < TimeGrid::kSlotsPerDay; ++start) {
      double total = 0.0;
      for (int offset = 0; offset < block; ++offset)
        total += day[static_cast<std::size_t>((start + offset) %
                                              TimeGrid::kSlotsPerDay)];
      if (total < best_total) {
        best_total = total;
        best_start = start;
      }
    }
    const double peak_to_mean = features.weekday.max_traffic /
                                (sum(day) / static_cast<double>(day.size()));
    std::string advice;
    if (peak_to_mean > 4.0) advice = "burst capacity / borrow off-peak";
    else if (peak_to_mean > 2.0) advice = "standard diurnal provisioning";
    else advice = "flat provisioning, cheapest per byte";
    table.add_row(
        {region_name(region),
         std::to_string(experiment.rows_of_cluster(c).size()),
         TimeGrid::format_time_of_day(best_start) + "-" +
             TimeGrid::format_time_of_day((best_start + block) %
                                          TimeGrid::kSlotsPerDay),
         format_peak_time(features.weekday.peak_hour),
         format_double(peak_to_mean, 2), advice});
  }
  std::cout << table.render() << "\n";

  // 2. Complementarity: normalized-profile correlation between patterns.
  // Anti-correlated pairs can pool capacity (one peaks while the other
  // idles).
  std::cout << "pattern complementarity (weekday profile correlation; "
               "lower = better pooling partners):\n\n";
  TextTable pairs("pairwise correlation");
  std::vector<std::string> header = {""};
  for (const auto region : regions)
    header.push_back(region_name(region).substr(0, 6));
  pairs.set_header(header);
  double best_pair_value = 2.0;
  std::pair<std::size_t, std::size_t> best_pair{0, 0};
  for (std::size_t a = 0; a < weekday_profiles.size(); ++a) {
    std::vector<std::string> row = {region_name(regions[a])};
    for (std::size_t b = 0; b < weekday_profiles.size(); ++b) {
      const double rho = pearson(weekday_profiles[a], weekday_profiles[b]);
      row.push_back(format_double(rho, 2));
      if (a < b && rho < best_pair_value) {
        best_pair_value = rho;
        best_pair = {a, b};
      }
    }
    pairs.add_row(row);
  }
  std::cout << pairs.render() << "\n";
  std::cout << "best pooling partners: " << region_name(regions[best_pair.first])
            << " + " << region_name(regions[best_pair.second])
            << " (correlation " << format_double(best_pair_value, 2)
            << ") — their peaks do not coincide, so shared backhaul can be "
               "dimensioned below the sum of individual peaks.\n\n";

  // 3. Quantify the pooling gain for the best pair.
  const auto& profile_a = weekday_profiles[best_pair.first];
  const auto& profile_b = weekday_profiles[best_pair.second];
  double peak_a = max_value(profile_a);
  double peak_b = max_value(profile_b);
  std::vector<double> pooled(profile_a.size());
  for (std::size_t s = 0; s < pooled.size(); ++s)
    pooled[s] = profile_a[s] + profile_b[s];
  const double pooled_peak = max_value(pooled);
  std::cout << "capacity if provisioned separately: " << format_bytes(peak_a)
            << " + " << format_bytes(peak_b) << " = "
            << format_bytes(peak_a + peak_b) << " per 10 min\n";
  std::cout << "capacity if pooled:                 "
            << format_bytes(pooled_peak) << " per 10 min ("
            << format_double(100.0 * (1.0 - pooled_peak / (peak_a + peak_b)),
                             1)
            << "% saving)\n";
  return 0;
}
