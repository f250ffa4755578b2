#include "city/poi.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "analysis/poi_features.h"
#include "city/deployment.h"
#include "common/error.h"
#include "core/experiment.h"
#include "support/oracles.h"
#include "traffic/intensity_model.h"

namespace cellscope {
namespace {

std::vector<Tower> towers_of_region(FunctionalRegion region, std::size_t n) {
  const auto city = CityModel::create_default();
  DeploymentOptions options;
  options.n_towers = n;
  options.region_mix = {};
  options.region_mix[static_cast<int>(region)] = 1.0;
  return deploy_towers(city, options);
}

TEST(PoiDatabase, CountsNearFindsGeneratedPois) {
  const auto city = CityModel::create_default();
  const auto towers = towers_of_region(FunctionalRegion::kResident, 30);
  const auto db =
      PoiDatabase::generate(city, towers, PoiGenerationOptions{});
  // Resident towers must see many resident POIs within 200 m.
  double total = 0.0;
  for (const auto& t : towers) {
    const auto counts = db.counts_near(t.position, 200.0);
    total += static_cast<double>(counts[static_cast<int>(PoiType::kResident)]);
  }
  EXPECT_GT(total / static_cast<double>(towers.size()), 20.0);
}

TEST(PoiDatabase, DominantTypeMatchesRegion) {
  const auto city = CityModel::create_default();
  for (const auto region :
       {FunctionalRegion::kOffice, FunctionalRegion::kEntertainment}) {
    const auto towers = towers_of_region(region, 40);
    const auto db =
        PoiDatabase::generate(city, towers, PoiGenerationOptions{});
    // Averaged over towers, the region's own POI type (vs the other
    // non-resident types) dominates; resident POIs are everywhere by
    // construction, as in the real city.
    std::array<double, kNumPoiTypes> avg{};
    for (const auto& t : towers) {
      const auto counts = db.counts_near(t.position, 200.0);
      for (int i = 0; i < kNumPoiTypes; ++i)
        avg[i] += static_cast<double>(counts[i]);
    }
    const int own = static_cast<int>(poi_type_of_region(region));
    for (int i = 0; i < kNumPoiTypes; ++i) {
      if (i == own || i == static_cast<int>(PoiType::kResident)) continue;
      EXPECT_GT(avg[own], avg[i]) << region_name(region);
    }
  }
}

TEST(PoiDatabase, ScaleMultipliesCounts) {
  const auto city = CityModel::create_default();
  const auto towers = towers_of_region(FunctionalRegion::kOffice, 30);
  PoiGenerationOptions small;
  small.scale = 0.2;
  PoiGenerationOptions large;
  large.scale = 2.0;
  const auto db_small = PoiDatabase::generate(city, towers, small);
  const auto db_large = PoiDatabase::generate(city, towers, large);
  EXPECT_GT(db_large.total(PoiType::kOffice),
            3 * db_small.total(PoiType::kOffice));
}

TEST(PoiDatabase, GenerationIsDeterministic) {
  const auto city = CityModel::create_default();
  const auto towers = towers_of_region(FunctionalRegion::kResident, 20);
  const auto a = PoiDatabase::generate(city, towers, PoiGenerationOptions{});
  const auto b = PoiDatabase::generate(city, towers, PoiGenerationOptions{});
  ASSERT_EQ(a.pois().size(), b.pois().size());
  for (std::size_t i = 0; i < a.pois().size(); ++i) {
    EXPECT_EQ(a.pois()[i].type, b.pois()[i].type);
    EXPECT_DOUBLE_EQ(a.pois()[i].position.lat, b.pois()[i].position.lat);
  }
}

TEST(PoiDatabase, MixtureAwareGenerationFollowsWeights) {
  const auto city = CityModel::create_default();
  const auto towers = towers_of_region(FunctionalRegion::kComprehensive, 40);
  // All towers fully entertainment-weighted: entertainment POIs dominate.
  std::vector<std::array<double, 4>> mixtures(
      towers.size(), std::array<double, 4>{0.0, 0.0, 0.0, 1.0});
  const auto db =
      PoiDatabase::generate(city, towers, mixtures, PoiGenerationOptions{});
  EXPECT_GT(db.total(PoiType::kEntertain), db.total(PoiType::kOffice));
  EXPECT_GT(db.total(PoiType::kEntertain), db.total(PoiType::kResident));
}

TEST(PoiDatabase, ExpectedCountMatchesTable2Structure) {
  // Dominance structure of the generation matrix (cf. Table 2): each pure
  // region's own type (other than the ubiquitous resident type) is its
  // largest non-resident mean.
  EXPECT_GT(PoiDatabase::expected_count(FunctionalRegion::kOffice,
                                        PoiType::kOffice),
            PoiDatabase::expected_count(FunctionalRegion::kOffice,
                                        PoiType::kEntertain));
  EXPECT_GT(PoiDatabase::expected_count(FunctionalRegion::kEntertainment,
                                        PoiType::kEntertain),
            PoiDatabase::expected_count(FunctionalRegion::kEntertainment,
                                        PoiType::kOffice));
  EXPECT_GT(PoiDatabase::expected_count(FunctionalRegion::kTransport,
                                        PoiType::kTransport),
            PoiDatabase::expected_count(FunctionalRegion::kResident,
                                        PoiType::kTransport));
}

TEST(PoiDatabase, CountsAreMonotoneInRadius) {
  const auto city = CityModel::create_default();
  const auto towers = towers_of_region(FunctionalRegion::kOffice, 10);
  const auto db = PoiDatabase::generate(city, towers, PoiGenerationOptions{});
  for (const auto& t : towers) {
    const auto near = db.counts_near(t.position, 100.0);
    const auto far = db.counts_near(t.position, 400.0);
    for (int i = 0; i < kNumPoiTypes; ++i) EXPECT_LE(near[i], far[i]);
  }
}

TEST(PoiDatabase, ExplicitConstructionAndTotals) {
  const auto box = shanghai_bbox();
  std::vector<Poi> pois = {{PoiType::kOffice, {31.2, 121.5}},
                           {PoiType::kOffice, {31.2, 121.5}},
                           {PoiType::kResident, {31.21, 121.51}}};
  const PoiDatabase db(box, pois);
  EXPECT_EQ(db.total(PoiType::kOffice), 2u);
  EXPECT_EQ(db.total(PoiType::kResident), 1u);
  EXPECT_EQ(db.total(PoiType::kTransport), 0u);
  const auto counts = db.counts_near({31.2, 121.5}, 50.0);
  EXPECT_EQ(counts[static_cast<int>(PoiType::kOffice)], 2u);
}

TEST(PoiDatabase, MixtureSizeMismatchThrows) {
  const auto city = CityModel::create_default();
  const auto towers = towers_of_region(FunctionalRegion::kOffice, 5);
  std::vector<std::array<double, 4>> mixtures(3);
  EXPECT_THROW(
      PoiDatabase::generate(city, towers, mixtures, PoiGenerationOptions{}),
      Error);
}

TEST(PoiDatabase, RejectsNonPositiveScale) {
  const auto city = CityModel::create_default();
  const auto towers = towers_of_region(FunctionalRegion::kOffice, 5);
  PoiGenerationOptions bad;
  bad.scale = 0.0;
  EXPECT_THROW(PoiDatabase::generate(city, towers, bad), Error);
}

TEST(PoiDatabase, PinsTheTwoHundredTowerCity) {
  // The POIs of the 200-tower city of seed 2015, conditioned on its
  // traffic mixtures: FNV-1a 64 over each POI's type and position, in
  // generation order.
  ExperimentConfig config;
  config.seed = 2015;
  config.n_towers = 200;
  const CityRecipe recipe = city_recipe(config);
  const auto city = CityModel::create_default(recipe.city_seed);
  const auto towers = deploy_towers(city, recipe.deployment);
  const auto intensity = IntensityModel::create(towers, recipe.intensity);
  const auto db = PoiDatabase::generate(city, towers, intensity.mixtures(),
                                        PoiGenerationOptions{});
  std::uint64_t hash = kFnv1aBasis;
  for (const auto& p : db.pois()) {
    const int type = static_cast<int>(p.type);
    hash = fnv1a(&type, sizeof type, hash);
    hash = fnv1a(&p.position.lat, sizeof p.position.lat, hash);
    hash = fnv1a(&p.position.lon, sizeof p.position.lon, hash);
  }
  EXPECT_EQ(db.pois().size(), 47996u);
  EXPECT_EQ(hash, 0xb484461fba6e7a30ull);
}

/// The 2,000-tower city of seed 2015 and its POIs, conditioned on its
/// traffic mixtures.
struct TwoThousandTowerCity {
  std::vector<Tower> towers;
  PoiDatabase db;
};

TwoThousandTowerCity two_thousand_tower_city() {
  ExperimentConfig config;
  config.seed = 2015;
  config.n_towers = 2000;
  const CityRecipe recipe = city_recipe(config);
  const auto city = CityModel::create_default(recipe.city_seed);
  auto towers = deploy_towers(city, recipe.deployment);
  const auto intensity = IntensityModel::create(towers, recipe.intensity);
  auto db = PoiDatabase::generate(city, towers, intensity.mixtures(),
                                  PoiGenerationOptions{});
  return {std::move(towers), std::move(db)};
}

TEST(PoiDatabase, CountsMatchBruteForceAtEveryTowerOfTheTwoThousandTowerCity) {
  // The oracle reads every POI whose latitude is within r (plus 1 %, on
  // the 6,371 km sphere) of the tower's — a band 2r wide that holds every
  // hit — and counts those haversine_m puts within r.
  const auto [towers, db] = two_thousand_tower_city();
  constexpr double kSphereRadiusM = 6371000.0;
  const double band_deg =
      1.01 * kPoiRadiusM / kSphereRadiusM * 180.0 / std::numbers::pi;
  std::vector<Poi> by_lat = db.pois();
  const auto south_of = [](const Poi& p, double lat) {
    return p.position.lat < lat;
  };
  std::sort(by_lat.begin(), by_lat.end(), [](const Poi& a, const Poi& b) {
    return a.position.lat < b.position.lat;
  });
  std::size_t hits = 0;
  for (const auto& t : towers) {
    std::array<std::size_t, kNumPoiTypes> expected{};
    for (auto it = std::lower_bound(by_lat.begin(), by_lat.end(),
                                    t.position.lat - band_deg, south_of);
         it != by_lat.end() && it->position.lat <= t.position.lat + band_deg;
         ++it) {
      if (haversine_m(it->position, t.position) <= kPoiRadiusM)
        ++expected[static_cast<int>(it->type)];
    }
    ASSERT_EQ(db.counts_near(t.position, kPoiRadiusM), expected)
        << "tower " << t.id;
    for (const auto c : expected) hits += c;
  }
  EXPECT_GT(hits, 100 * towers.size());
}

TEST(PoiDatabase, PinsTheCountsOfTheTwoThousandTowerCity) {
  // FNV-1a 64 over every tower's four counts within 200 m, in tower order.
  const auto [towers, db] = two_thousand_tower_city();
  std::uint64_t hash = kFnv1aBasis;
  for (const auto& t : towers) {
    const auto counts = db.counts_near(t.position, kPoiRadiusM);
    hash = fnv1a(counts.data(), sizeof counts, hash);
  }
  EXPECT_EQ(db.pois().size(), 473347u);
  EXPECT_EQ(hash, 0x1d83ad1003ff0b2full);
}

}  // namespace
}  // namespace cellscope
