// Figure 13 — the variance across towers of the DFT amplitude at each
// frequency: the three principal components (k = 4, 28, 56) have by far
// the highest variance, i.e. they are the discriminating features between
// traffic patterns.
#include <algorithm>
#include <iostream>

#include "bench_common.h"

int main() {
  using namespace cellscope;
  using namespace cellscope::bench;

  banner("Figure 13",
         "Variance of per-tower DFT amplitude at each frequency");
  const auto& e = experiment();
  const auto variance_spectrum =
      amplitude_variance_spectrum(zscore_rows(e.matrix()), 100);

  std::vector<double> plot(variance_spectrum.begin() + 1,
                           variance_spectrum.end());
  LineChartOptions options;
  options.title = "variance of amplitude across towers, k = 1..100";
  options.x_label = "frequency index k";
  options.height = 12;
  std::cout << line_chart(plot, options) << "\n";

  // Rank the frequencies by variance.
  std::vector<std::pair<double, std::size_t>> ranked;
  for (std::size_t k = 1; k <= 100; ++k)
    ranked.emplace_back(variance_spectrum[k], k);
  std::sort(ranked.rbegin(), ranked.rend());
  std::cout << "top-5 most discriminating frequencies: ";
  for (int i = 0; i < 5; ++i) std::cout << "k=" << ranked[i].second << " ";
  std::cout << "\n(paper: the three principal components k=4, 28, 56 "
               "dominate; daily harmonics like k=84 are also strong in "
               "spiky synthetic profiles)\n\n";

  for (const std::size_t k :
       {kWeeklyComponent, kDailyComponent, kHalfDailyComponent}) {
    const bool peak = variance_spectrum[k] > variance_spectrum[k - 1] &&
                      variance_spectrum[k] > variance_spectrum[k + 1];
    std::cout << "  k=" << k
              << ": variance = " << format_double(variance_spectrum[k], 4)
              << (peak ? "  (local peak ✓)" : "") << "\n";
  }

  export_series("fig13_variance_spectrum", variance_spectrum, "variance");
  std::cout << "\nCSV exported to " << figure_output_dir()
            << "/fig13_variance_spectrum.csv\n";
  return 0;
}
