// Land-use inference: the paper's management-department use case — infer
// what an area is used for from cellular traffic alone (§1: "government
// may infer the land usage ... by looking at the patterns of cellular
// traffic").
//
// This example trains nothing: it runs the unsupervised pipeline on one
// city, takes the labeled cluster centroids as pattern templates, then
// classifies the towers of a *second, differently seeded* city by
// nearest-template matching and scores against that city's latent ground
// truth — i.e., do patterns learned in one city transfer to another?
//
//   $ ./land_use_inference [n_towers] [seed_a] [seed_b]
#include <iostream>

#include "core/cellscope.h"
#include "flag_util.h"

namespace {

using namespace cellscope;

/// Labeled pattern templates from a completed experiment: z-scored
/// mean-week centroid per region.
struct Templates {
  std::vector<std::vector<double>> centroid;  // indexed by region
};

Templates learn_templates(const Experiment& experiment) {
  const auto centroids =
      cluster_centroids(experiment.folded(), experiment.labels());
  Templates templates;
  templates.centroid.resize(kNumRegions);
  for (std::size_t c = 0; c < centroids.size(); ++c) {
    const auto region = experiment.labeling().region_of_cluster[c];
    templates.centroid[static_cast<int>(region)] = centroids[c];
  }
  return templates;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n_towers =
      examples::arg_u64(argc, argv, 1, "n_towers", 600, 20, UINT32_MAX);
  const std::uint64_t seed_a = examples::arg_u64(argc, argv, 2, "seed_a", 2015);
  const std::uint64_t seed_b =
      examples::arg_u64(argc, argv, 3, "seed_b", 31337);

  std::cout << "Land-use inference: learn patterns in city A (seed " << seed_a
            << "), classify city B (seed " << seed_b << ")\n\n";

  ExperimentConfig config_a;
  config_a.n_towers = n_towers;
  config_a.seed = seed_a;
  const auto city_a = Experiment::run(config_a);
  const auto templates = learn_templates(city_a);
  std::cout << "city A: " << city_a.n_clusters()
            << " patterns discovered, label accuracy "
            << format_double(100.0 * city_a.validation().accuracy, 1)
            << "%\n";

  // City B: an unseen city; we only use its traffic matrix.
  ExperimentConfig config_b;
  config_b.n_towers = n_towers;
  config_b.seed = seed_b;
  const auto city_b = Experiment::run(config_b);
  const auto& folded_b = city_b.folded();

  std::array<std::array<std::size_t, kNumRegions>, kNumRegions> confusion{};
  std::size_t correct = 0;
  for (std::size_t i = 0; i < folded_b.size(); ++i) {
    double best = 1e300;
    FunctionalRegion predicted = FunctionalRegion::kComprehensive;
    for (const auto region : all_regions()) {
      const auto& centroid = templates.centroid[static_cast<int>(region)];
      if (centroid.empty()) continue;
      const double d = euclidean_distance(folded_b[i], centroid);
      if (d < best) {
        best = d;
        predicted = region;
      }
    }
    const auto truth = city_b.towers()[i].true_region;
    ++confusion[static_cast<int>(truth)][static_cast<int>(predicted)];
    if (truth == predicted) ++correct;
  }

  std::cout << "city B: " << folded_b.size()
            << " towers classified by nearest learned template\n\n";
  TextTable table("confusion matrix (rows = truth, cols = predicted)");
  std::vector<std::string> header = {"truth \\ pred"};
  for (const auto region : all_regions())
    header.push_back(region_name(region).substr(0, 6));
  table.set_header(header);
  for (const auto truth : all_regions()) {
    std::vector<std::string> row = {region_name(truth)};
    for (const auto predicted : all_regions())
      row.push_back(std::to_string(
          confusion[static_cast<int>(truth)][static_cast<int>(predicted)]));
    table.add_row(row);
  }
  std::cout << table.render() << "\n";
  std::cout << "cross-city land-use inference accuracy: "
            << format_double(100.0 * static_cast<double>(correct) /
                                 static_cast<double>(folded_b.size()),
                             2)
            << "%\n";
  std::cout << "\nTakeaway: the five patterns are city-independent "
               "templates — traffic shape alone reveals land use.\n";
  return 0;
}
