// Figure 8 — micro-scale validation: take two map areas, color them by
// the ground-truth functional region (from the city model's intensity
// fields), overlay the towers' *traffic-derived* cluster labels, and check
// that labels match the underlying functional regions.
#include <iostream>

#include "bench_common.h"

int main() {
  using namespace cellscope;
  using namespace cellscope::bench;

  banner("Figure 8",
         "Case studies: tower labels vs ground-truth functional regions in "
         "two map areas");
  const auto& e = experiment();

  // Area A: around the CBD. Area B: around a residential neighborhood.
  const auto office_center =
      e.city().hotspots(FunctionalRegion::kOffice).front().center;
  const auto resident_center =
      e.city().hotspots(FunctionalRegion::kResident).front().center;

  char region_glyphs[kNumRegions];
  region_glyphs[static_cast<int>(FunctionalRegion::kResident)] = 'r';
  region_glyphs[static_cast<int>(FunctionalRegion::kTransport)] = 't';
  region_glyphs[static_cast<int>(FunctionalRegion::kOffice)] = 'o';
  region_glyphs[static_cast<int>(FunctionalRegion::kEntertainment)] = 'e';
  region_glyphs[static_cast<int>(FunctionalRegion::kComprehensive)] = '.';

  int areas_checked = 0;
  double total_match = 0.0;
  std::size_t total_towers = 0;

  for (const auto& [center, label] :
       {std::pair{office_center, "Area A (business district)"},
        std::pair{resident_center, "Area B (residential neighborhood)"}}) {
    ++areas_checked;
    const double half_deg_lat = 2.5 / km_per_degree_lat();
    const double half_deg_lon = 2.5 / km_per_degree_lon(center.lat);
    const BoundingBox area{center.lat - half_deg_lat,
                           center.lat + half_deg_lat,
                           center.lon - half_deg_lon,
                           center.lon + half_deg_lon};

    // Background: ground-truth region at each map cell (lowercase glyph);
    // overlay towers with their traffic label (uppercase glyph).
    const std::size_t rows = 16;
    const std::size_t cols = 48;
    std::vector<std::string> canvas(rows, std::string(cols, ' '));
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t col = 0; col < cols; ++col) {
        const LatLon p{
            area.lat_min + (static_cast<double>(r) + 0.5) / rows *
                               (area.lat_max - area.lat_min),
            area.lon_min + (static_cast<double>(col) + 0.5) / cols *
                               (area.lon_max - area.lon_min)};
        canvas[rows - 1 - r][col] =
            region_glyphs[static_cast<int>(e.city().region_at(p))];
      }
    }

    std::size_t matches = 0;
    std::size_t towers_in_area = 0;
    for (std::size_t i = 0; i < e.towers().size(); ++i) {
      const auto& tower = e.towers()[i];
      if (!area.contains(tower.position)) continue;
      ++towers_in_area;
      const auto labeled =
          e.labeling().region_of_cluster[static_cast<std::size_t>(
              e.labels()[i])];
      if (labeled == tower.true_region) ++matches;
      const auto r = static_cast<std::size_t>(
          (tower.position.lat - area.lat_min) /
          (area.lat_max - area.lat_min) * rows);
      const auto col = static_cast<std::size_t>(
          (tower.position.lon - area.lon_min) /
          (area.lon_max - area.lon_min) * cols);
      if (r < rows && col < cols)
        canvas[rows - 1 - r][col] = static_cast<char>(
            std::toupper(region_glyphs[static_cast<int>(labeled)]));
    }

    std::cout << label << " — 5 km x 5 km\n"
              << "  background = ground-truth region (r/t/o/e/.), "
                 "UPPERCASE = tower's traffic-derived label\n";
    for (const auto& line : canvas) std::cout << "  |" << line << "|\n";
    std::cout << "  towers in area: " << towers_in_area
              << ", label matches ground truth: " << matches << " ("
              << format_double(towers_in_area
                                   ? 100.0 * static_cast<double>(matches) /
                                         static_cast<double>(towers_in_area)
                                   : 0.0,
                               1)
              << "%)\n\n";
    total_match += static_cast<double>(matches);
    total_towers += towers_in_area;
  }

  std::cout << "overall case-study match: "
            << format_double(100.0 * total_match /
                                 static_cast<double>(total_towers),
                             1)
            << "%   (paper: \"labels exactly match the functional "
               "regions\")\n";
  return 0;
}
