#include "traffic/intensity_model.h"

#include <cmath>

#include "common/error.h"
#include "common/stats.h"

namespace cellscope {

IntensityModel IntensityModel::create(const std::vector<Tower>& towers,
                                      const IntensityOptions& options) {
  CS_CHECK_MSG(!towers.empty(), "need at least one tower");
  CS_CHECK_MSG(options.purity_leak >= 0.0 && options.purity_leak < 1.0,
               "purity_leak must be in [0, 1)");
  Rng rng(options.seed);

  // Expected cluster sizes calibrate per-tower scale so that cluster
  // aggregates land near the published Table 4 magnitudes.
  std::array<std::size_t, kNumRegions> counts{};
  for (const auto& t : towers) ++counts[static_cast<int>(t.true_region)];

  std::array<double, kNumRegions> cluster_peak{};
  for (const FunctionalRegion r : all_regions())
    cluster_peak[static_cast<int>(r)] =
        TrafficProfile::canonical(r).peak_bytes();

  std::vector<TowerTrafficModel> models(towers.size());
  for (const auto& t : towers) {
    TowerTrafficModel m;
    const int region = static_cast<int>(t.true_region);

    if (t.true_region == FunctionalRegion::kComprehensive) {
      const auto alpha = std::vector<double>(
          options.comprehensive_alpha.begin(),
          options.comprehensive_alpha.end());
      const auto w = rng.dirichlet(alpha);
      for (int i = 0; i < 4; ++i) m.mixture[i] = w[i];
    } else {
      // Nearly pure: leak a little mass to the other profiles so pure
      // clusters have realistic within-cluster spread.
      const auto leak = rng.dirichlet({1.0, 1.0, 1.0});
      const double eps = options.purity_leak * rng.uniform();
      int j = 0;
      for (int i = 0; i < 4; ++i) {
        if (i == region) {
          m.mixture[i] = 1.0 - eps;
        } else {
          m.mixture[i] = eps * leak[j];
          ++j;
        }
      }
    }

    // Lognormal scale spread with mean 1, centered on the cluster share.
    const double sigma = options.scale_sigma;
    const double unit = rng.lognormal(-sigma * sigma / 2.0, sigma);
    const double denom = std::max<std::size_t>(1, counts[region]);
    m.scale = cluster_peak[region] / static_cast<double>(denom) * unit;
    m.noise_cv = options.noise_cv;
    models[t.id] = m;
  }
  return IntensityModel(std::move(models));
}

IntensityModel::IntensityModel(std::vector<TowerTrafficModel> models)
    : models_(std::move(models)) {
  unit_profiles_.reserve(4);
  for (const auto& p : pure_profiles()) {
    auto s = p.series();
    const double peak = max_value(s);
    for (auto& v : s) v /= peak;
    unit_profiles_.push_back(std::move(s));
  }
}

const TowerTrafficModel& IntensityModel::model(std::uint32_t tower_id) const {
  CS_CHECK_MSG(tower_id < models_.size(), "tower id out of range");
  return models_[tower_id];
}

std::vector<double> IntensityModel::expected_series(
    std::uint32_t tower_id) const {
  std::vector<double> out;
  fill_expected(tower_id, out);
  return out;
}

void IntensityModel::fill_expected(std::uint32_t tower_id,
                                   std::vector<double>& out) const {
  const auto& m = model(tower_id);
  out.assign(TimeGrid::kSlots, 0.0);
  for (int i = 0; i < 4; ++i) {
    if (m.mixture[i] == 0.0) continue;
    const auto& p = unit_profiles_[i];
    for (std::size_t s = 0; s < TimeGrid::kSlots; ++s)
      out[s] += m.mixture[i] * p[s];
  }
  for (auto& v : out) v *= m.scale;
}

std::vector<double> IntensityModel::sample_series(std::uint32_t tower_id,
                                                  Rng& rng) const {
  std::vector<double> out;
  sample_series(tower_id, rng, out);
  return out;
}

void IntensityModel::sample_series(std::uint32_t tower_id, Rng& rng,
                                   std::vector<double>& out) const {
  fill_expected(tower_id, out);
  const double cv = model(tower_id).noise_cv;
  if (cv <= 0.0) return;
  // Multiplicative lognormal noise with mean 1 and the requested CV.
  const double sigma = std::sqrt(std::log(1.0 + cv * cv));
  const double mu = -sigma * sigma / 2.0;
  for (auto& v : out) v *= rng.lognormal(mu, sigma);
}

std::vector<std::array<double, 4>> IntensityModel::mixtures() const {
  std::vector<std::array<double, 4>> out;
  out.reserve(models_.size());
  for (const auto& m : models_) out.push_back(m.mixture);
  return out;
}

}  // namespace cellscope
