// Per-tower traffic intensity model.
//
// Each tower's expected traffic is a convex combination of the four pure
// canonical profiles plus multiplicative noise — exactly the structure the
// paper discovers in §5 ("the traffic of any tower can be constructed using
// a linear combination of four primary components"). Pure-region towers put
// almost all weight on their own profile; comprehensive towers draw a
// Dirichlet mixture. The model exposes both the latent mixture (ground
// truth for the component-analysis validation, Table 6) and sampled noisy
// series (input to the measurement pipeline).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "city/tower.h"
#include "common/rng.h"
#include "traffic/profiles.h"

namespace cellscope {

/// Latent traffic parameters of one tower.
struct TowerTrafficModel {
  /// Convex weights over the four pure profiles (resident, transport,
  /// office, entertainment); sums to 1.
  std::array<double, 4> mixture{};
  /// Absolute scale: the tower's expected series is
  /// scale * sum_i mixture[i] * pure_profile_i(slot) / pure_peak_i-free.
  double scale = 1.0;
  /// Coefficient of variation of the per-slot multiplicative noise.
  double noise_cv = 0.12;
};

/// Contamination mass spread over foreign profiles for pure towers: a
/// pure tower keeps at least 1 - kPurityLeak of its mixture at home.
inline constexpr double kPurityLeak = 0.04;

/// Options for building the intensity model.
struct IntensityOptions {
  std::uint64_t seed = 1234;
  /// Per-slot multiplicative noise CV.
  double noise_cv = 0.12;
};

/// Latent per-tower traffic model for a deployment.
class IntensityModel {
 public:
  /// Builds the latent model for every tower (deterministic in the seed).
  static IntensityModel create(const std::vector<Tower>& towers,
                               const IntensityOptions& options);

  /// Latent parameters of one tower.
  const TowerTrafficModel& model(std::uint32_t tower_id) const;

  /// Noise-free expected series (4032 slots, bytes per slot).
  std::vector<double> expected_series(std::uint32_t tower_id) const;

  /// Expected series with multiplicative lognormal noise applied per
  /// slot — what the "measured" trace aggregates to.
  std::vector<double> sample_series(std::uint32_t tower_id, Rng& rng) const;

  /// The same series written into `out` (resized to 4032 slots), reusing
  /// its capacity — so a caller that reserves rows up front decides which
  /// thread's allocator owns them.
  void sample_series(std::uint32_t tower_id, Rng& rng,
                     std::vector<double>& out) const;

  std::size_t size() const { return models_.size(); }

  /// Per-tower mixtures for all towers (e.g. to condition POI generation).
  std::vector<std::array<double, 4>> mixtures() const;

 private:
  explicit IntensityModel(std::vector<TowerTrafficModel> models);

  /// expected_series into `out`, reusing its capacity.
  void fill_expected(std::uint32_t tower_id, std::vector<double>& out) const;

  std::vector<TowerTrafficModel> models_;
  // Normalized pure-profile series (peak 1.0) shared across towers.
  std::vector<std::vector<double>> unit_profiles_;
};

}  // namespace cellscope
