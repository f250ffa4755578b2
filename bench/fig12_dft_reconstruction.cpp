// Figure 12 — (a) the DFT of the aggregate traffic has three dominant
// peaks at k = 4 (week), 28 (day), 56 (half day); (b) the time series
// reconstructed from only these components (plus DC and conjugates)
// overlays the original, losing < 6% of energy.
#include <iostream>
#include <numeric>

#include "bench_common.h"

int main() {
  using namespace cellscope;
  using namespace cellscope::bench;

  banner("Figure 12",
         "Aggregate-traffic DFT and principal-component reconstruction");
  const auto& e = experiment();
  const auto total = e.total_aggregate();

  // (a) Amplitude spectrum up to k = 100.
  std::vector<std::size_t> bins(100);
  std::iota(bins.begin(), bins.end(), std::size_t{1});
  std::vector<double> amplitude;  // amplitude[k - 1] = |X[k]|
  for (const Complex& x : dft_bins(total, bins))
    amplitude.push_back(std::abs(x));
  LineChartOptions spec_options;
  spec_options.title = "(a) |DFT| of the aggregate traffic, k = 1..100";
  spec_options.x_label = "frequency index k (4 = week, 28 = day, 56 = half "
                         "day)";
  spec_options.height = 12;
  std::cout << line_chart(amplitude, spec_options) << "\n";

  for (const std::size_t k :
       {kWeeklyComponent, kDailyComponent, kHalfDailyComponent}) {
    const double a = amplitude[k - 1];
    const bool local_peak = a > amplitude[k - 2] && a > amplitude[k];
    std::cout << "  k=" << k << ": |X[k]| = " << sci(a)
              << (local_peak ? "  (local peak ✓)" : "  (NOT a local peak)")
              << "\n";
  }

  // (b) Reconstruction from the three components, first week shown.
  const auto reconstructed = reconstruct_principal(total);
  std::vector<double> original_week(total.begin(),
                                    total.begin() + TimeGrid::kSlotsPerWeek);
  std::vector<double> reconstructed_week(
      reconstructed.begin(), reconstructed.begin() + TimeGrid::kSlotsPerWeek);
  LineChartOptions rec_options;
  rec_options.title = "(b) original vs reconstructed (first week)";
  rec_options.series_names = {"original", "reconstructed"};
  rec_options.height = 12;
  std::cout << "\n"
            << line_chart({original_week, reconstructed_week}, rec_options)
            << "\n";

  const double loss = energy_loss(total, reconstructed);
  std::cout << "relative energy loss of the 3-component reconstruction: "
            << format_double(100.0 * loss, 2) << "%   (paper: < 6%)\n";
  std::cout << "Pearson correlation original vs reconstruction: "
            << format_double(pearson(total, reconstructed), 4) << "\n";

  export_series("fig12a_spectrum", amplitude, "amplitude");
  export_columns("fig12b_reconstruction", {"original", "reconstructed"},
                 {total, reconstructed});
  std::cout << "\nCSV exported to " << figure_output_dir() << "/fig12*.csv\n";
  return 0;
}
