// Figure 14 — per-pattern aggregate traffic reconstructed from the three
// principal frequency components, plus the per-pattern spectra: the
// reconstruction tracks the original, and the spectra differ most at
// k = 4, 28, 56.
#include <iostream>
#include <numeric>

#include "bench_common.h"

int main() {
  using namespace cellscope;
  using namespace cellscope::bench;

  banner("Figure 14",
         "Reconstructed per-pattern traffic and per-pattern spectra");
  const auto& e = experiment();

  std::vector<std::size_t> bins(100);  // k = 1..100
  std::iota(bins.begin(), bins.end(), std::size_t{1});
  std::vector<std::vector<double>> spectra;
  std::vector<std::string> names;
  for (const auto region :
       {FunctionalRegion::kResident, FunctionalRegion::kTransport,
        FunctionalRegion::kOffice, FunctionalRegion::kEntertainment}) {
    const auto aggregate = e.region_aggregate(region);
    const auto reconstructed = reconstruct_principal(aggregate);

    std::vector<double> original_week(
        aggregate.begin(), aggregate.begin() + TimeGrid::kSlotsPerWeek);
    std::vector<double> reconstructed_week(
        reconstructed.begin(),
        reconstructed.begin() + TimeGrid::kSlotsPerWeek);
    LineChartOptions options;
    options.title = region_name(region) + " — original vs 3-component "
                    "reconstruction (first week)";
    options.series_names = {"original", "reconstructed"};
    options.height = 9;
    std::cout << line_chart({original_week, reconstructed_week}, options);
    std::cout << "  energy loss "
              << format_double(100.0 * energy_loss(aggregate, reconstructed),
                               1)
              << "%, correlation "
              << format_double(pearson(aggregate, reconstructed), 3)
              << "\n\n";

    std::vector<double> amplitude;
    for (const Complex& x : dft_bins(aggregate, bins))
      amplitude.push_back(std::abs(x));
    spectra.push_back(max_normalize(amplitude));
    names.push_back(region_name(region));
  }

  LineChartOptions spec_options;
  spec_options.title =
      "per-pattern amplitude spectra (each normalized by its max), k=1..100";
  spec_options.series_names = names;
  spec_options.x_label = "frequency index k";
  spec_options.height = 12;
  std::cout << line_chart(spectra, spec_options) << "\n";
  std::cout << "paper: the four spectra differ most at the three principal "
               "components — transport's k=56 (half-day) stands out, "
               "office's k=4 (week) is the strongest weekly line.\n";

  export_columns("fig14_spectra", names, spectra);
  std::cout << "CSV exported to " << figure_output_dir()
            << "/fig14_spectra.csv\n";
  return 0;
}
