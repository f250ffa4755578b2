// Extension — traffic forecasting (the paper's §1 use case: users pick
// towers with predicted lower traffic; ISPs provision per pattern).
//
// Trains on the first three weeks of every tower's series and scores the
// fourth week: seasonal-naive vs the spectral forecaster vs the
// pattern-template cold-start forecaster (which sees only the first day).
#include <iostream>

#include "bench_common.h"
#include "forecast/metrics.h"
#include "forecast/pattern_forecaster.h"
#include "forecast/seasonal_naive.h"
#include "forecast/spectral_forecaster.h"
#include "obs/metrics.h"
#include "obs/timer.h"

int main() {
  using namespace cellscope;
  using namespace cellscope::bench;

  enable_json_report("ext_forecast_accuracy");
  banner("Extension: forecasting",
         "Week-4 forecast accuracy per method (trained on weeks 1-3)");
  const auto& e = experiment();

  // Pattern templates: labeled cluster centroids (z-scored weeks).
  const auto centroids = cluster_centroids(e.folded(), e.labels());
  PatternForecaster pattern_forecaster(centroids);

  const std::size_t train = 3 * TimeGrid::kSlotsPerWeek;
  const std::size_t test = TimeGrid::kSlotsPerWeek;

  struct Tally {
    double smape_total = 0.0;
    double skill_total = 0.0;
  };
  Tally naive_tally;
  Tally spectral_tally;
  Tally pattern_tally;

  const std::size_t sample =
      std::min<std::size_t>(e.matrix().n(), 300);  // keep runtime bounded
  obs::MetricsRegistry::instance()
      .counter("cellscope.ext.forecast_rows")
      .add(sample);
  {
    obs::StageSpan span("ext.forecast_sweep", "ext", obs::LogLevel::kDebug);
    span.annotate({"towers", sample});
    for (std::size_t row = 0; row < sample; ++row) {
      const auto& series = e.matrix().rows[row];
      const std::span<const double> history(series.data(), train);
      const std::span<const double> actual(series.data() + train, test);

      const auto naive = seasonal_naive_forecast(history, test);
      const auto spectral = spectral_forecast(history, test);
      // Cold start: only the first day observed.
      const std::span<const double> one_day(series.data(),
                                            TimeGrid::kSlotsPerDay);
      auto pattern = pattern_forecaster.forecast(
          one_day, train + test - TimeGrid::kSlotsPerDay,
          pattern_forecaster.match(one_day));
      const std::vector<double> pattern_week(pattern.end() - static_cast<long>(test),
                                             pattern.end());

      naive_tally.smape_total += smape(actual, naive);
      naive_tally.skill_total += mae_skill_vs_mean(actual, naive);
      spectral_tally.smape_total += smape(actual, spectral);
      spectral_tally.skill_total += mae_skill_vs_mean(actual, spectral);
      pattern_tally.smape_total += smape(actual, pattern_week);
      pattern_tally.skill_total += mae_skill_vs_mean(actual, pattern_week);
    }
  }

  const double n = static_cast<double>(sample);
  TextTable table("mean forecast error over " + std::to_string(sample) +
                  " towers (lower is better)");
  table.set_header({"method", "history used", "sMAPE", "MAE skill vs mean"});
  table.add_row({"seasonal naive", "3 weeks",
                 format_double(naive_tally.smape_total / n, 3),
                 format_double(naive_tally.skill_total / n, 3)});
  table.add_row({"spectral (harmonic truncation)", "3 weeks",
                 format_double(spectral_tally.smape_total / n, 3),
                 format_double(spectral_tally.skill_total / n, 3)});
  table.add_row({"pattern template (cold start)", "1 day",
                 format_double(pattern_tally.smape_total / n, 3),
                 format_double(pattern_tally.skill_total / n, 3)});
  std::cout << table.render() << "\n";
  std::cout
      << "readings:\n"
      << "  * on MAE skill the spectral forecaster beats seasonal-naive "
         "by averaging sampling noise out of the weekly shape — the "
         "operational payoff of the paper's frequency-domain model (its "
         "sMAPE is hurt by the harmonic truncation clipping deep "
         "night-valley values, which sMAPE weights heavily);\n"
      << "  * the cold-start forecaster reaches the best accuracy from a "
         "single day of history because five templates cover every tower "
         "(the paper's central claim turned into a provisioning tool).\n";
  return 0;
}
