// Quickstart: run the full CellScope pipeline on a synthetic city and
// print what the paper's system would report — the discovered traffic
// patterns, their urban-function labels, and how well the labels match the
// (latent) ground truth.
//
//   $ ./quickstart [n_towers] [seed]
#include <iostream>

#include "core/cellscope.h"
#include "flag_util.h"

int main(int argc, char** argv) {
  using namespace cellscope;

  ExperimentConfig config;
  config.n_towers =
      examples::arg_u64(argc, argv, 1, "n_towers", 800, 20, UINT32_MAX);
  config.seed = examples::arg_u64(argc, argv, 2, "seed", 2015);

  std::cout << "CellScope quickstart: " << config.n_towers
            << " towers, seed " << config.seed << "\n\n";

  const Experiment experiment = Experiment::run(config);

  // The metric tuner's verdict.
  std::cout << "Davies-Bouldin sweep (the metric tuner):\n";
  for (const auto& point : experiment.dbi_sweep_result()) {
    std::cout << "  k=" << point.k << "  threshold=" << point.threshold
              << "  DBI=" << point.dbi
              << (point.k == experiment.chosen_cut().k ? "   <- chosen"
                                                       : "")
              << "\n";
  }
  std::cout << "\nIdentified " << experiment.n_clusters()
            << " traffic patterns.\n\n";

  // Cluster shares and labels (the paper's Table 1).
  TextTable table("Clusters and their urban-function labels");
  table.set_header({"cluster", "label", "towers", "share"});
  for (std::size_t c = 0; c < experiment.n_clusters(); ++c) {
    const auto rows = experiment.rows_of_cluster(c);
    table.add_row(
        {std::to_string(c + 1),
         region_name(experiment.labeling().region_of_cluster[c]),
         std::to_string(rows.size()),
         format_double(100.0 * static_cast<double>(rows.size()) /
                           static_cast<double>(config.n_towers),
                       2) +
             "%"});
  }
  std::cout << table.render() << "\n";

  std::cout << "Label accuracy vs latent ground truth: "
            << format_double(100.0 * experiment.validation().accuracy, 2)
            << "%\n\n";

  // One day of each pattern, normalized.
  for (std::size_t c = 0; c < experiment.n_clusters(); ++c) {
    const auto aggregate = experiment.cluster_aggregate(c);
    const auto features = compute_time_features(aggregate);
    std::cout << "Pattern #" << c + 1 << " ("
              << region_name(experiment.labeling().region_of_cluster[c])
              << "): weekday peak at "
              << format_peak_time(features.weekday.peak_hour)
              << ", valley at "
              << format_peak_time(features.weekday.valley_hour)
              << ", weekday/weekend ratio "
              << format_double(features.weekday_weekend_ratio, 2) << "\n";
  }
  return 0;
}
