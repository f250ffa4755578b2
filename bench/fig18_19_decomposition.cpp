// Figures 18 & 19 — one comprehensive tower's convex decomposition shown
// in both domains: the frequency-space combination of the four primary
// components (Fig. 18) and the time-domain stack of the weighted primary
// traffic patterns against the tower's own normalized traffic (Fig. 19).
#include <iostream>

#include "bench_common.h"

int main() {
  using namespace cellscope;
  using namespace cellscope::bench;

  banner("Figures 18 & 19",
         "Convex decomposition of one comprehensive tower (the paper's P5)");
  const auto& e = experiment();
  const auto& features = e.freq_features();
  const auto& reps = e.representatives();

  std::array<std::array<double, 3>, 4> primaries;
  std::array<std::vector<double>, 4> primary_series;
  for (int r = 0; r < 4; ++r) {
    primaries[r] = features[reps[r]].qp_feature();
    primary_series[r] = zscore(e.matrix().rows[reps[r]]);
  }

  // Pick the 5th comprehensive tower (the paper decomposes P5).
  const auto comprehensive_rows = e.rows_of_cluster(
      *e.cluster_of_region(FunctionalRegion::kComprehensive));
  const std::size_t target_row =
      comprehensive_rows[std::min<std::size_t>(4,
                                               comprehensive_rows.size() - 1)];
  const auto target_feature = features[target_row].qp_feature();
  const auto decomposition = decompose_feature(target_feature, primaries);

  // Fig 18: the frequency-space view.
  TextTable table("Fig 18 — frequency-space combination");
  table.set_header({"", "A28", "P28", "A56", "weight"});
  table.add_row({"target tower", format_double(target_feature[0], 3),
                 format_double(target_feature[1], 3),
                 format_double(target_feature[2], 3), ""});
  std::array<double, 3> fitted{};
  for (int r = 0; r < 4; ++r) {
    table.add_row({"F" + std::to_string(r + 1) + " (" +
                       region_name(static_cast<FunctionalRegion>(r)) + ")",
                   format_double(primaries[r][0], 3),
                   format_double(primaries[r][1], 3),
                   format_double(primaries[r][2], 3),
                   format_double(decomposition.coefficients[r], 3)});
    for (int d = 0; d < 3; ++d)
      fitted[d] += decomposition.coefficients[r] * primaries[r][d];
  }
  table.add_row({"fitted F^r", format_double(fitted[0], 3),
                 format_double(fitted[1], 3), format_double(fitted[2], 3),
                 "residual " + format_double(decomposition.residual, 3)});
  std::cout << table.render() << "\n";

  // Fig 19: the time-domain view (first week).
  const auto combined =
      combine_series(decomposition.coefficients, primary_series);
  const auto target_series = zscore(e.matrix().rows[target_row]);
  std::vector<double> target_week(
      target_series.begin(), target_series.begin() + TimeGrid::kSlotsPerWeek);
  std::vector<double> combined_week(
      combined.begin(), combined.begin() + TimeGrid::kSlotsPerWeek);
  LineChartOptions options;
  options.title = "Fig 19 — tower traffic vs convex combination of the four "
                  "primary patterns (one week, z-scored)";
  options.series_names = {"tower", "combination"};
  options.height = 12;
  std::cout << line_chart({target_week, combined_week}, options) << "\n";
  std::cout << "time-domain correlation: "
            << format_double(pearson(target_series, combined), 3) << "\n\n";

  // Individual components, as the right panel of the paper's Fig 19.
  for (int r = 0; r < 4; ++r) {
    if (decomposition.coefficients[r] < 0.01) continue;
    std::vector<double> component_week;
    for (int s = 0; s < TimeGrid::kSlotsPerWeek; ++s)
      component_week.push_back(decomposition.coefficients[r] *
                               primary_series[r][static_cast<std::size_t>(s)]);
    LineChartOptions comp_options;
    comp_options.title =
        "component: " + format_double(decomposition.coefficients[r], 2) +
        " x " + region_name(static_cast<FunctionalRegion>(r));
    comp_options.height = 6;
    std::cout << line_chart(component_week, comp_options) << "\n";
  }

  std::cout << "latent mixture of this tower (synthetic ground truth):";
  for (const double w :
       e.intensity().model(e.matrix().tower_ids[target_row]).mixture)
    std::cout << " " << format_double(w, 2);
  std::cout << "\n";
  return 0;
}
