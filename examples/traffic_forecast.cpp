// Traffic forecasting: the paper's user-facing motivation — "mobile users
// ... can choose towers with predicted lower traffic and enjoy better
// services" (§1). Forecast every tower's next week, then answer a user
// query: which nearby tower will be least loaded at a given hour?
//
//   $ ./traffic_forecast [n_towers] [seed]
#include <iostream>

#include "core/cellscope.h"
#include "flag_util.h"

int main(int argc, char** argv) {
  using namespace cellscope;

  ExperimentConfig config;
  config.n_towers =
      examples::arg_u64(argc, argv, 1, "n_towers", 400, 20, UINT32_MAX);
  config.seed = examples::arg_u64(argc, argv, 2, "seed", 2015);

  std::cout << "Traffic forecast: predict week 4 from weeks 1-3, then pick "
               "the least-loaded nearby tower\n\n";
  const auto experiment = Experiment::run(config);

  const std::size_t train = 3 * TimeGrid::kSlotsPerWeek;
  const std::size_t test = TimeGrid::kSlotsPerWeek;

  // Forecast every tower's week 4 spectrally; collect accuracy.
  std::vector<std::vector<double>> forecasts(experiment.matrix().n());
  double smape_total = 0.0;
  for (std::size_t row = 0; row < experiment.matrix().n(); ++row) {
    const auto& series = experiment.matrix().rows[row];
    const std::span<const double> history(series.data(), train);
    forecasts[row] = spectral_forecast(history, test);
    smape_total += smape(
        std::span<const double>(series.data() + train, test), forecasts[row]);
  }
  std::cout << "mean sMAPE of the week-4 forecast over "
            << experiment.matrix().n() << " towers: "
            << format_double(smape_total /
                                 static_cast<double>(experiment.matrix().n()),
                             3)
            << "\n\n";

  // A user at the city center on Thursday at 18:00 of week 4: rank the
  // five nearest towers by *predicted* load and check the pick against
  // the actual week-4 traffic.
  const LatLon user = experiment.city().box().center();
  std::vector<LatLon> positions;
  for (const auto& t : experiment.towers()) positions.push_back(t.position);
  const SpatialIndex index(experiment.city().box(), positions);
  std::vector<std::size_t> nearby;
  for (double radius = 1000.0; nearby.size() < 5; radius *= 2.0)
    nearby = index.query_radius(user, radius);
  if (nearby.size() > 5) nearby.resize(5);

  const std::size_t query_slot =
      static_cast<std::size_t>(TimeGrid::slot_at(3, 18, 0)) %
      static_cast<std::size_t>(TimeGrid::kSlotsPerWeek);

  TextTable table("five nearest towers, Thursday 18:00 (week 4)");
  table.set_header({"tower", "pattern", "predicted load", "actual load"});
  std::size_t best_predicted = nearby.front();
  std::size_t best_actual = nearby.front();
  double best_predicted_value = 1e300;
  double best_actual_value = 1e300;
  for (const auto row : nearby) {
    const double predicted = forecasts[row][query_slot];
    const double actual =
        experiment.matrix().rows[row][train + query_slot];
    if (predicted < best_predicted_value) {
      best_predicted_value = predicted;
      best_predicted = row;
    }
    if (actual < best_actual_value) {
      best_actual_value = actual;
      best_actual = row;
    }
    const auto cluster = static_cast<std::size_t>(experiment.labels()[row]);
    table.add_row(
        {std::to_string(experiment.matrix().tower_ids[row]),
         region_name(experiment.labeling().region_of_cluster[cluster]),
         format_bytes(predicted) + "/10min", format_bytes(actual) + "/10min"});
  }
  std::cout << table.render() << "\n";
  std::cout << "recommended tower (predicted): "
            << experiment.matrix().tower_ids[best_predicted]
            << "; truly least loaded: "
            << experiment.matrix().tower_ids[best_actual]
            << (best_predicted == best_actual ? "  — correct pick"
                                              : "  — near miss")
            << "\n";
  return 0;
}
