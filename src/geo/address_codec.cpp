#include "geo/address_codec.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "common/error.h"
#include "common/string_util.h"

namespace cellscope {

AddressCodec::AddressCodec(const BoundingBox& box) : box_(box) {
  CS_CHECK_MSG(box.lat_max > box.lat_min && box.lon_max > box.lon_min,
               "bounding box must be non-degenerate");
}

namespace {

// Packs a per-axis index pair into one component value, keeping the address
// scheme one-dimensional per level like real street numbering.
int pack(int a, int b, int n) { return a * n + b; }

void unpack(int v, int n, int& a, int& b) {
  a = v / n;
  b = v % n;
}

}  // namespace

std::string AddressCodec::encode(const LatLon& p) const {
  const LatLon q = box_.clamp(p);
  const double fy = (q.lat - box_.lat_min) / (box_.lat_max - box_.lat_min);
  const double fx = (q.lon - box_.lon_min) / (box_.lon_max - box_.lon_min);
  const int total = kDistricts * kStreets * kNumbers;  // cells per axis
  const int iy = std::min(total - 1, static_cast<int>(fy * total));
  const int ix = std::min(total - 1, static_cast<int>(fx * total));

  const int dy = iy / (kStreets * kNumbers);
  const int sy = (iy / kNumbers) % kStreets;
  const int ny = iy % kNumbers;
  const int dx = ix / (kStreets * kNumbers);
  const int sx = (ix / kNumbers) % kStreets;
  const int nx = ix % kNumbers;

  char buf[80];
  std::snprintf(buf, sizeof(buf), "District-%d/Street-%d/No-%d",
                pack(dy, dx, kDistricts), pack(sy, sx, kStreets),
                pack(ny, nx, kNumbers));
  return buf;
}

std::optional<LatLon> AddressCodec::decode(const std::string& address) const {
  const auto parts = split(address, '/');
  if (parts.size() != 3) return std::nullopt;
  auto parse_field = [](const std::string& field, const char* prefix,
                        int limit) -> std::optional<int> {
    if (!starts_with(field, prefix)) return std::nullopt;
    const std::string digits = field.substr(std::string(prefix).size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
      return std::nullopt;
    // from_chars, not atoi: a digit run longer than int is undefined
    // behavior under atoi and must reject, not wrap or saturate.
    int v = 0;
    const char* end = digits.data() + digits.size();
    const auto [ptr, ec] = std::from_chars(digits.data(), end, v);
    if (ec != std::errc() || ptr != end) return std::nullopt;
    if (v < 0 || v >= limit * limit) return std::nullopt;
    return v;
  };
  const auto d = parse_field(parts[0], "District-", kDistricts);
  const auto s = parse_field(parts[1], "Street-", kStreets);
  const auto n = parse_field(parts[2], "No-", kNumbers);
  if (!d || !s || !n) return std::nullopt;

  int dy, dx, sy, sx, ny, nx;
  unpack(*d, kDistricts, dy, dx);
  unpack(*s, kStreets, sy, sx);
  unpack(*n, kNumbers, ny, nx);

  const int total = kDistricts * kStreets * kNumbers;
  const int iy = dy * kStreets * kNumbers + sy * kNumbers + ny;
  const int ix = dx * kStreets * kNumbers + sx * kNumbers + nx;
  // Cell center.
  const double fy = (static_cast<double>(iy) + 0.5) / total;
  const double fx = (static_cast<double>(ix) + 0.5) / total;
  return LatLon{box_.lat_min + fy * (box_.lat_max - box_.lat_min),
                box_.lon_min + fx * (box_.lon_max - box_.lon_min)};
}

}  // namespace cellscope
