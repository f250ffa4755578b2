// Tower decomposition: the paper's §5.3 component analysis as a tool —
// given any tower, report what mix of urban functions the area around it
// serves, from its traffic alone.
//
//   $ ./tower_decomposition [n_towers] [seed] [tower_id]
#include <iostream>

#include "core/cellscope.h"
#include "flag_util.h"

int main(int argc, char** argv) {
  using namespace cellscope;

  ExperimentConfig config;
  config.n_towers =
      examples::arg_u64(argc, argv, 1, "n_towers", 600, 20, UINT32_MAX);
  config.seed = examples::arg_u64(argc, argv, 2, "seed", 2015);

  const auto experiment = Experiment::run(config);
  const auto& features = experiment.freq_features();
  const auto& reps = experiment.representatives();

  std::array<std::array<double, 3>, 4> primaries;
  for (int r = 0; r < 4; ++r) primaries[r] = features[reps[r]].qp_feature();

  // Which tower? Default: the first comprehensive tower.
  std::size_t row;
  if (argc > 3) {
    row = experiment.matrix().row_of(static_cast<std::uint32_t>(
        examples::arg_u64(argc, argv, 3, "tower_id", 0, 0, UINT32_MAX)));
  } else {
    row = experiment
              .rows_of_cluster(*experiment.cluster_of_region(
                  FunctionalRegion::kComprehensive))
              .front();
  }
  const auto& tower = experiment.towers()[row];

  std::cout << "Tower " << experiment.matrix().tower_ids[row] << " at ("
            << format_double(tower.position.lat, 4) << ", "
            << format_double(tower.position.lon, 4) << "), address "
            << tower.address << "\n\n";

  // Frequency features and decomposition.
  const auto& f = features[row];
  std::cout << "frequency features: A_week="
            << format_double(f.amp_week, 3)
            << " A_day=" << format_double(f.amp_day, 3)
            << " P_day=" << format_double(f.phase_day, 3)
            << " A_half=" << format_double(f.amp_half_day, 3) << "\n\n";

  const auto decomposition = decompose_feature(f.qp_feature(), primaries);
  std::vector<std::string> labels;
  std::vector<double> weights;
  for (int r = 0; r < 4; ++r) {
    labels.push_back(region_name(static_cast<FunctionalRegion>(r)));
    weights.push_back(decomposition.coefficients[r]);
  }
  std::cout << bar_chart(labels, weights,
                         "urban-function mix inferred from traffic "
                         "(convex decomposition)",
                         40)
            << "residual " << format_double(decomposition.residual, 3)
            << "\n\n";

  // Cross-check 1: POI composition around the tower.
  const auto counts = experiment.pois().counts_near(tower.position,
                                                    kPoiRadiusM);
  std::vector<double> poi_values;
  for (int t = 0; t < kNumPoiTypes; ++t)
    poi_values.push_back(static_cast<double>(counts[t]));
  std::cout << bar_chart(labels, poi_values, "POI counts within 200 m", 40)
            << "\n";

  // Cross-check 2: the latent generator mixture (ground truth only the
  // synthetic city has).
  const auto& latent =
      experiment.intensity().model(experiment.matrix().tower_ids[row])
          .mixture;
  std::vector<double> latent_values(latent.begin(), latent.end());
  std::cout << bar_chart(labels, latent_values,
                         "latent traffic mixture (synthetic ground truth)",
                         40)
            << "\n";

  // The tower's week, against its convex reconstruction.
  std::array<std::vector<double>, 4> primary_series;
  for (int r = 0; r < 4; ++r)
    primary_series[r] = zscore(experiment.matrix().rows[reps[r]]);
  const auto combined =
      combine_series(decomposition.coefficients, primary_series);
  const auto own = zscore(experiment.matrix().rows[row]);
  std::vector<double> own_week(own.begin(),
                               own.begin() + TimeGrid::kSlotsPerWeek);
  std::vector<double> combined_week(
      combined.begin(), combined.begin() + TimeGrid::kSlotsPerWeek);
  LineChartOptions options;
  options.title = "tower traffic vs its convex reconstruction (one week, "
                  "z-scored)";
  options.series_names = {"tower", "reconstruction"};
  options.height = 12;
  std::cout << line_chart({own_week, combined_week}, options);
  std::cout << "time-domain correlation: "
            << format_double(pearson(own, combined), 3) << "\n";
  return 0;
}
