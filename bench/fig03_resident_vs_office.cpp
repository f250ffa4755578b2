// Figure 3 — normalized one-day traffic of four residential towers vs four
// business-district towers: residential traffic has two peaks and stays
// high at night; office traffic has one midday peak and dies at night.
#include <iostream>

#include "bench_common.h"

int main() {
  using namespace cellscope;
  using namespace cellscope::bench;

  banner("Figure 3",
         "Normalized profiles: 4 residential vs 4 business-district towers");
  const auto& e = experiment();

  auto pick_towers = [&](FunctionalRegion region) {
    std::vector<std::size_t> rows;
    for (std::size_t i = 0; i < e.towers().size() && rows.size() < 4; ++i)
      if (e.towers()[i].true_region == region) rows.push_back(i);
    return rows;
  };

  auto day_profile = [&](std::size_t row) {
    // Mean weekday, normalized by its maximum (the paper's normalization).
    const auto features = compute_time_features(e.matrix().rows[row]);
    return max_normalize(features.weekday.mean_day);
  };

  for (const auto& [region, label] :
       {std::pair{FunctionalRegion::kResident, "Residential towers"},
        std::pair{FunctionalRegion::kOffice, "Business-district towers"}}) {
    const auto rows = pick_towers(region);
    std::vector<std::vector<double>> series;
    std::vector<std::string> names;
    for (const auto row : rows) {
      series.push_back(day_profile(row));
      names.push_back("tower " + std::to_string(e.matrix().tower_ids[row]));
    }
    LineChartOptions options;
    options.title = std::string(label) + " — normalized mean weekday";
    options.series_names = names;
    options.x_label = "hour of day 0..24";
    options.height = 12;
    std::cout << line_chart(series, options) << "\n";

    // Night level: mean normalized traffic 1:00-5:00.
    double night = 0.0;
    std::size_t count = 0;
    for (const auto& s : series) {
      for (int slot = 6; slot < 30; ++slot) {
        night += s[static_cast<std::size_t>(slot)];
        ++count;
      }
    }
    std::cout << "  mean normalized night traffic (1:00-5:00): "
              << format_double(night / static_cast<double>(count), 3) << "\n\n";

    std::vector<std::string> columns = {"slot"};
    std::vector<std::vector<double>> data;
    std::vector<double> index(series[0].size());
    for (std::size_t i = 0; i < index.size(); ++i)
      index[i] = static_cast<double>(i);
    data.push_back(index);
    for (std::size_t i = 0; i < series.size(); ++i) {
      columns.push_back(names[i]);
      data.push_back(series[i]);
    }
    export_columns(region == FunctionalRegion::kResident
                       ? "fig03_residential"
                       : "fig03_business",
                   columns, data);
  }

  std::cout << "Paper's contrast: residential = two peaks + high night; "
               "office = one midday peak + near-zero night.\n";
  std::cout << "CSV exported to " << figure_output_dir() << "/fig03_*.csv\n";
  return 0;
}
