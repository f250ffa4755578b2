#include "city/deployment.h"

#include <algorithm>

#include "common/error.h"
#include "geo/address_codec.h"

namespace cellscope {

std::vector<Tower> deploy_towers(const CityModel& city,
                                 const DeploymentOptions& options) {
  CS_CHECK_MSG(options.n_towers > 0, "need at least one tower");
  double mix_sum = 0.0;
  for (const double v : options.region_mix) {
    CS_CHECK_MSG(v >= 0.0, "region mix must be non-negative");
    mix_sum += v;
  }
  CS_CHECK_MSG(mix_sum > 0.0, "region mix must not be all zero");

  Rng rng(options.seed);
  const AddressCodec codec(city.box());
  std::vector<double> weights(options.region_mix.begin(),
                              options.region_mix.end());

  // Deterministic quota allocation (largest remainder) so that cluster
  // shares match the requested mixture exactly even at small n — the
  // Table 1 reproduction depends on it.
  std::array<std::size_t, kNumRegions> quota{};
  std::size_t assigned = 0;
  std::vector<std::pair<double, int>> remainders;
  for (int r = 0; r < kNumRegions; ++r) {
    const double exact =
        static_cast<double>(options.n_towers) * weights[r] / mix_sum;
    quota[r] = static_cast<std::size_t>(exact);
    assigned += quota[r];
    remainders.emplace_back(exact - static_cast<double>(quota[r]), r);
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (std::size_t i = 0; assigned < options.n_towers; ++i, ++assigned)
    ++quota[remainders[i % remainders.size()].second];

  std::vector<Tower> towers;
  towers.reserve(options.n_towers);
  for (int r = 0; r < kNumRegions; ++r) {
    const auto region = static_cast<FunctionalRegion>(r);
    for (std::size_t i = 0; i < quota[r]; ++i) {
      Tower t;
      t.id = static_cast<std::uint32_t>(towers.size());
      t.position = city.sample_location(region, rng);
      t.address = codec.encode(t.position);
      t.true_region = region;
      towers.push_back(std::move(t));
    }
  }
  // Interleave regions so tower id carries no region information.
  rng.shuffle(towers);
  for (std::size_t i = 0; i < towers.size(); ++i)
    towers[i].id = static_cast<std::uint32_t>(i);
  return towers;
}

}  // namespace cellscope
