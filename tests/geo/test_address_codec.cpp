#include "geo/address_codec.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"

namespace cellscope {
namespace {

TEST(AddressCodec, EncodeDecodeRoundTripsWithinTolerance) {
  const auto box = shanghai_bbox();
  const AddressCodec codec(box);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const LatLon p{rng.uniform(box.lat_min, box.lat_max),
                   rng.uniform(box.lon_min, box.lon_max)};
    const auto decoded = codec.decode(codec.encode(p));
    ASSERT_TRUE(decoded.has_value());
    // The address scheme quantizes to roughly 10 m.
    EXPECT_LT(haversine_m(p, *decoded), 15.0);
  }
}

TEST(AddressCodec, EncodingIsDeterministic) {
  const AddressCodec codec(shanghai_bbox());
  const LatLon p{31.2, 121.5};
  EXPECT_EQ(codec.encode(p), codec.encode(p));
}

TEST(AddressCodec, AddressHasExpectedShape) {
  const AddressCodec codec(shanghai_bbox());
  const auto address = codec.encode({31.2, 121.5});
  EXPECT_TRUE(address.starts_with("District-"));
  EXPECT_NE(address.find("/Street-"), std::string::npos);
  EXPECT_NE(address.find("/No-"), std::string::npos);
}

TEST(AddressCodec, MalformedAddressesDecodeToNull) {
  const AddressCodec codec(shanghai_bbox());
  EXPECT_FALSE(codec.decode("").has_value());
  EXPECT_FALSE(codec.decode("garbage").has_value());
  EXPECT_FALSE(codec.decode("District-1/Street-2").has_value());
  EXPECT_FALSE(codec.decode("District-x/Street-2/No-3").has_value());
  EXPECT_FALSE(codec.decode("District-1/Street-2/No-99999999").has_value());
  EXPECT_FALSE(codec.decode("Distric-1/Street-2/No-3").has_value());
}

TEST(AddressCodec, OverlongDigitRunsDecodeToNullNotUndefinedBehavior) {
  // std::atoi on a digit run wider than int is undefined behavior; the
  // from_chars decode must reject these instead of wrapping into a
  // (possibly in-range) value that silently geocodes somewhere.
  const AddressCodec codec(shanghai_bbox());
  const std::string thirty_digits(30, '9');
  EXPECT_FALSE(
      codec.decode("District-" + thirty_digits + "/Street-2/No-3")
          .has_value());
  EXPECT_FALSE(
      codec.decode("District-1/Street-" + thirty_digits + "/No-3")
          .has_value());
  EXPECT_FALSE(
      codec.decode("District-1/Street-2/No-" + thirty_digits).has_value());
  // Just past INT_MAX, and a zero-padded in-range value for contrast.
  EXPECT_FALSE(
      codec.decode("District-2147483648/Street-2/No-3").has_value());
  EXPECT_TRUE(codec.decode("District-0001/Street-2/No-3").has_value());
}

}  // namespace
}  // namespace cellscope
