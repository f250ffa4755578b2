// Figure 6 — the pattern identifier's output:
//   (a) Davies-Bouldin index across clustering cuts (minimum at 5),
//   (b) per-cluster CDF of member distance to the cluster centroid,
//   (c)-(g) the five cluster-mean traffic patterns.
#include <iostream>

#include "bench_common.h"

int main() {
  using namespace cellscope;
  using namespace cellscope::bench;

  banner("Figure 6", "DBI sweep, distance CDFs, and the five patterns");
  const auto& e = experiment();

  // (a) The metric tuner's sweep.
  TextTable sweep_table("(a) Davies-Bouldin index vs clustering cut");
  sweep_table.set_header({"k", "stop threshold", "DBI", "note"});
  for (const auto& point : e.dbi_sweep_result()) {
    std::string note;
    if (!point.valid) note = "rejected (cluster below noise floor)";
    if (point.k == e.chosen_cut().k) note = "<- chosen (minimum DBI)";
    sweep_table.add_row({std::to_string(point.k),
                         format_double(point.threshold, 2),
                         format_double(point.dbi, 4), note});
  }
  std::cout << sweep_table.render();
  std::cout << "paper: DBI minimized at five clusters (threshold 16.33 on "
               "their 4032-dim scale)\n\n";

  // (b) CDF of distance to centroid, per cluster, in the clustering space.
  const auto& folded = e.folded();
  const auto centroids = cluster_centroids(folded, e.labels());
  std::vector<std::vector<double>> cdf_series;
  std::vector<std::string> cdf_names;
  for (std::size_t c = 0; c < e.n_clusters(); ++c) {
    std::vector<double> distances;
    for (const auto row : e.rows_of_cluster(c))
      distances.push_back(euclidean_distance(folded[row], centroids[c]));
    const auto cdf = empirical_cdf(distances, 48);
    std::vector<double> f;
    for (const auto& [x, p] : cdf) f.push_back(p);
    cdf_series.push_back(std::move(f));
    cdf_names.push_back("#" + std::to_string(c + 1) + " " +
                        region_name(e.labeling().region_of_cluster[c]));
    std::cout << "  cluster #" << c + 1 << " ("
              << region_name(e.labeling().region_of_cluster[c])
              << "): 80th-percentile distance "
              << format_double(quantile(distances, 0.8), 2) << "\n";
  }
  LineChartOptions cdf_options;
  cdf_options.title = "(b) CDF of member distance to centroid (x spans each "
                      "cluster's min..max)";
  cdf_options.series_names = cdf_names;
  cdf_options.height = 10;
  std::cout << "\n" << line_chart(cdf_series, cdf_options) << "\n";

  // (c)-(g) The five patterns: cluster-mean z-scored traffic, one week.
  for (std::size_t c = 0; c < e.n_clusters(); ++c) {
    const auto aggregate = e.cluster_aggregate(c);
    const auto z = zscore(aggregate);
    std::vector<double> week(z.begin(), z.begin() + TimeGrid::kSlotsPerWeek);
    LineChartOptions options;
    options.title = "(" + std::string(1, static_cast<char>('c' + c)) +
                    ") pattern #" + std::to_string(c + 1) + ": " +
                    region_name(e.labeling().region_of_cluster[c]) +
                    " (one week, z-scored)";
    options.x_label = "Mon .. Sun";
    options.height = 9;
    std::cout << line_chart(week, options) << "\n";
    export_series("fig06_pattern" + std::to_string(c + 1), week, "zscore");
  }

  std::cout << "CSV exported to " << figure_output_dir() << "/fig06_*.csv\n";
  return 0;
}
