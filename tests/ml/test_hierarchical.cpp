#include "ml/hierarchical.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <set>

#include "common/error.h"
#include "common/rng.h"
#include "mapred/thread_pool.h"
#include "obs/metrics.h"

namespace cellscope {
namespace {

/// Well-separated Gaussian blobs with known memberships.
struct Blobs {
  std::vector<std::vector<double>> points;
  std::vector<int> truth;
};

Blobs make_blobs(std::size_t k, std::size_t per_cluster, double separation,
                 std::uint64_t seed) {
  Rng rng(seed);
  Blobs blobs;
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t i = 0; i < per_cluster; ++i) {
      blobs.points.push_back({separation * static_cast<double>(c) +
                                  rng.normal(0.0, 0.3),
                              rng.normal(0.0, 0.3)});
      blobs.truth.push_back(static_cast<int>(c));
    }
  }
  return blobs;
}

/// True iff the two labelings induce identical partitions.
bool same_partition(const std::vector<int>& a, const std::vector<int>& b) {
  std::map<int, int> fwd;
  std::map<int, int> rev;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (fwd.contains(a[i]) && fwd[a[i]] != b[i]) return false;
    if (rev.contains(b[i]) && rev[b[i]] != a[i]) return false;
    fwd[a[i]] = b[i];
    rev[b[i]] = a[i];
  }
  return true;
}

TEST(Hierarchical, RecoversWellSeparatedBlobs) {
  const auto blobs = make_blobs(4, 25, 10.0, 1);
  const auto dendrogram =
      Dendrogram::run(DistanceMatrix::compute(blobs.points),
                      Linkage::kAverage);
  EXPECT_TRUE(same_partition(dendrogram.cut_k(4), blobs.truth));
}

TEST(Hierarchical, AllLinkagesRecoverSeparatedBlobs) {
  const auto blobs = make_blobs(3, 20, 12.0, 2);
  for (const auto linkage :
       {Linkage::kSingle, Linkage::kComplete, Linkage::kAverage}) {
    const auto dendrogram =
        Dendrogram::run(DistanceMatrix::compute(blobs.points), linkage);
    EXPECT_TRUE(same_partition(dendrogram.cut_k(3), blobs.truth));
  }
}

TEST(Hierarchical, HasExactlyNMinusOneMerges) {
  const auto blobs = make_blobs(2, 10, 5.0, 3);
  const auto dendrogram = Dendrogram::run(
      DistanceMatrix::compute(blobs.points), Linkage::kAverage);
  EXPECT_EQ(dendrogram.merges().size(), 19u);
  EXPECT_EQ(dendrogram.n(), 20u);
}

TEST(Hierarchical, MergeDistancesAreSorted) {
  const auto blobs = make_blobs(3, 15, 6.0, 4);
  const auto dendrogram = Dendrogram::run(
      DistanceMatrix::compute(blobs.points), Linkage::kAverage);
  const auto& merges = dendrogram.merges();
  for (std::size_t i = 1; i < merges.size(); ++i)
    EXPECT_LE(merges[i - 1].distance, merges[i].distance);
}

TEST(Hierarchical, CutKOneIsOneCluster) {
  const auto blobs = make_blobs(2, 8, 5.0, 5);
  const auto dendrogram = Dendrogram::run(
      DistanceMatrix::compute(blobs.points), Linkage::kAverage);
  const auto labels = dendrogram.cut_k(1);
  for (const int l : labels) EXPECT_EQ(l, 0);
}

TEST(Hierarchical, CutKNIsAllSingletons) {
  const auto blobs = make_blobs(2, 8, 5.0, 6);
  const auto dendrogram = Dendrogram::run(
      DistanceMatrix::compute(blobs.points), Linkage::kAverage);
  const auto labels = dendrogram.cut_k(16);
  std::set<int> distinct(labels.begin(), labels.end());
  EXPECT_EQ(distinct.size(), 16u);
}

TEST(Hierarchical, LabelsAreDenseAndOrderedBySmallestMember) {
  const auto blobs = make_blobs(3, 10, 8.0, 7);
  const auto dendrogram = Dendrogram::run(
      DistanceMatrix::compute(blobs.points), Linkage::kAverage);
  const auto labels = dendrogram.cut_k(3);
  // Point 0 must be labeled 0; the first point with a different label
  // must be labeled 1; and so on.
  EXPECT_EQ(labels[0], 0);
  int next_expected = 1;
  for (const int l : labels) {
    EXPECT_LE(l, next_expected);
    if (l == next_expected) ++next_expected;
  }
  EXPECT_EQ(num_clusters(labels), 3u);
}

TEST(Hierarchical, SingleLinkageChainsCompleteLinkageDoesNot) {
  // A chain of points at distance 1 each. Single linkage absorbs the whole
  // chain through unit gaps, so no merge is farther than 1; complete
  // linkage's cluster diameter grows past 1 before the chain is joined.
  std::vector<std::vector<double>> chain;
  for (int i = 0; i < 8; ++i)
    chain.push_back({static_cast<double>(i), 0.0});
  const auto single =
      Dendrogram::run(DistanceMatrix::compute(chain), Linkage::kSingle);
  EXPECT_LE(single.merges().back().distance, 1.0);
  const auto complete =
      Dendrogram::run(DistanceMatrix::compute(chain), Linkage::kComplete);
  EXPECT_GT(complete.merges().back().distance, 1.0);
}

TEST(Hierarchical, AverageLinkageMergeDistanceIsMeanPairwise) {
  // Two pairs: {0,1} at x=0,1 and {2,3} at x=10,11. The final average-
  // linkage merge distance must be the mean of all 4 cross distances:
  // (10 + 11 + 9 + 10) / 4 = 10.
  std::vector<std::vector<double>> points = {
      {0.0}, {1.0}, {10.0}, {11.0}};
  const auto dendrogram =
      Dendrogram::run(DistanceMatrix::compute(points), Linkage::kAverage);
  EXPECT_NEAR(dendrogram.merges().back().distance, 10.0, 1e-5);
}

/// The NN-chain loop as it stood before the triangle repack: a full-width
/// scan of the original n slots with active flags, and a Lance-Williams
/// update through index_of for every k. Kept verbatim (over a plain
/// condensed vector) as the oracle the repacking linkage must reproduce.
std::vector<Merge> reference_merges(std::size_t n, std::vector<float> cond,
                                    Linkage linkage) {
  const auto index_of = [n](std::size_t i, std::size_t j) {
    if (i > j) std::swap(i, j);
    return i * n - i * (i + 1) / 2 + (j - i - 1);
  };
  const auto at = [&](std::size_t i, std::size_t j) -> double {
    return i == j ? 0.0 : cond[index_of(i, j)];
  };
  const auto lance_williams = [linkage](double d_ki, double d_kj,
                                        std::size_t size_i,
                                        std::size_t size_j) {
    switch (linkage) {
      case Linkage::kSingle:
        return std::min(d_ki, d_kj);
      case Linkage::kComplete:
        return std::max(d_ki, d_kj);
      case Linkage::kAverage:
        break;
    }
    const double ni = static_cast<double>(size_i);
    const double nj = static_cast<double>(size_j);
    return (ni * d_ki + nj * d_kj) / (ni + nj);
  };
  std::vector<bool> active(n, true);
  std::vector<std::size_t> size(n, 1);
  std::vector<std::size_t> rep(n);
  std::iota(rep.begin(), rep.end(), std::size_t{0});
  std::vector<Merge> merges;
  std::vector<std::size_t> chain;
  std::size_t remaining = n;
  auto nearest_active = [&](std::size_t i) -> std::size_t {
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_j = n;
    std::size_t idx = i - 1;
    for (std::size_t j = 0; j < i; ++j) {
      if (active[j]) {
        const double d = cond[idx];
        if (d < best) {
          best = d;
          best_j = j;
        }
      }
      idx += n - j - 2;
    }
    const float* row = cond.data() + i * n - i * (i + 1) / 2;
    for (std::size_t j = i + 1; j < n; ++j) {
      if (!active[j]) continue;
      const double d = row[j - i - 1];
      if (d < best) {
        best = d;
        best_j = j;
      }
    }
    return best_j;
  };
  while (remaining > 1) {
    if (chain.empty()) {
      for (std::size_t i = 0; i < n; ++i) {
        if (active[i]) {
          chain.push_back(i);
          break;
        }
      }
    }
    for (;;) {
      const std::size_t top = chain.back();
      const std::size_t nn = nearest_active(top);
      if (chain.size() >= 2 && nn == chain[chain.size() - 2]) {
        const std::size_t i = std::min(top, nn);
        const std::size_t j = std::max(top, nn);
        const double d = at(i, j);
        merges.push_back({std::min(rep[i], rep[j]),
                          std::max(rep[i], rep[j]), d});
        for (std::size_t k = 0; k < n; ++k) {
          if (!active[k] || k == i || k == j) continue;
          cond[index_of(k, i)] = static_cast<float>(
              lance_williams(at(k, i), at(k, j), size[i], size[j]));
        }
        size[i] += size[j];
        rep[i] = std::min(rep[i], rep[j]);
        active[j] = false;
        --remaining;
        chain.pop_back();
        chain.pop_back();
        break;
      }
      chain.push_back(nn);
    }
  }
  std::stable_sort(merges.begin(), merges.end(),
                   [](const Merge& x, const Merge& y) {
                     return x.distance < y.distance;
                   });
  return merges;
}

/// Repacks the linkage performs over n leaves: one each time the active
/// count falls to 3/4 of the slot count while there are more than 64 slots.
std::uint64_t expected_repacks(std::size_t n) {
  std::uint64_t repacks = 0;
  std::size_t slots = n;
  for (std::size_t active = n - 1; active >= 1; --active) {
    if (slots > 64 && 4 * active <= 3 * slots) {
      slots = active;
      ++repacks;
    }
  }
  return repacks;
}

TEST(Hierarchical, MergesMatchReferenceLoop) {
  // Every case also runs on pools of 2, 3, 4 and 8 threads: n = 1,000 and
  // 2,500 start above the 512 slots where the linkage splits its scans and
  // updates, and the grid's exact ties then straddle the range boundaries.
  auto& registry = obs::MetricsRegistry::instance();
  auto& repack_counter = registry.counter("cellscope.ml.linkage_repacks");
  auto& scanned_counter =
      registry.counter("cellscope.ml.linkage_slots_scanned");
  ThreadPool pool2(2);
  ThreadPool pool3(3);
  ThreadPool pool4(4);
  ThreadPool pool8(8);
  for (const std::size_t n : {2, 3, 64, 65, 66, 129, 300, 1000, 2500}) {
    Rng rng(n);
    std::vector<std::vector<double>> uniform(n);
    std::vector<std::vector<double>> grid(n);  // many exact ties
    for (std::size_t i = 0; i < n; ++i) {
      for (int d = 0; d < 3; ++d) {
        uniform[i].push_back(rng.uniform(0.0, 1.0));
        grid[i].push_back(static_cast<double>(rng.uniform_int(0, 3)));
      }
    }
    for (const auto* points : {&uniform, &grid}) {
      const auto matrix = DistanceMatrix::compute(*points);
      for (const auto linkage :
           {Linkage::kSingle, Linkage::kComplete, Linkage::kAverage}) {
        const auto want = reference_merges(n, matrix.condensed(), linkage);
        std::uint64_t serial_scanned = 0;
        for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool2,
                                 &pool3, &pool4, &pool8}) {
          SCOPED_TRACE(::testing::Message()
                       << "n=" << n
                       << (points == &grid ? " grid" : " uniform")
                       << " linkage=" << static_cast<int>(linkage)
                       << " threads="
                       << (pool != nullptr ? pool->thread_count() : 0));
          const std::uint64_t repacks_before = repack_counter.value();
          const std::uint64_t scanned_before = scanned_counter.value();
          const auto got = Dendrogram::run(matrix, linkage, pool).merges();
          const std::uint64_t repacks =
              repack_counter.value() - repacks_before;
          const std::uint64_t scanned =
              scanned_counter.value() - scanned_before;
          EXPECT_EQ(repacks, expected_repacks(n));
          if (n == 2500) {
            EXPECT_GE(repacks, 10u);
          }
          if (pool == nullptr)
            serial_scanned = scanned;
          else
            EXPECT_EQ(scanned, serial_scanned);
          ASSERT_EQ(got.size(), want.size());
          for (std::size_t m = 0; m < want.size(); ++m) {
            ASSERT_EQ(got[m].a, want[m].a) << "merge " << m;
            ASSERT_EQ(got[m].b, want[m].b) << "merge " << m;
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got[m].distance),
                      std::bit_cast<std::uint64_t>(want[m].distance))
                << "merge " << m;
          }
        }
      }
    }
  }
}

TEST(Hierarchical, CutKValidatesRange) {
  const auto blobs = make_blobs(2, 5, 5.0, 11);
  const auto dendrogram = Dendrogram::run(
      DistanceMatrix::compute(blobs.points), Linkage::kAverage);
  EXPECT_THROW(dendrogram.cut_k(0), Error);
  EXPECT_THROW(dendrogram.cut_k(11), Error);
}

TEST(ClusterHelpers, NumClustersAndMembers) {
  const std::vector<int> labels = {0, 1, 0, 2, 1};
  EXPECT_EQ(num_clusters(labels), 3u);
}

TEST(ClusterHelpers, NegativeLabelsRejected) {
  EXPECT_THROW(num_clusters({0, -1}), Error);
  EXPECT_THROW(num_clusters({}), Error);
}

// Parameterized robustness: blob recovery across cluster counts and seeds.
class HierarchicalRecovery
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HierarchicalRecovery, RecoversBlobsAcrossShapes) {
  const auto [k, seed] = GetParam();
  const auto blobs =
      make_blobs(static_cast<std::size_t>(k), 15, 10.0,
                 static_cast<std::uint64_t>(seed));
  const auto dendrogram = Dendrogram::run(
      DistanceMatrix::compute(blobs.points), Linkage::kAverage);
  EXPECT_TRUE(same_partition(dendrogram.cut_k(static_cast<std::size_t>(k)),
                             blobs.truth));
}

INSTANTIATE_TEST_SUITE_P(Shapes, HierarchicalRecovery,
                         ::testing::Combine(::testing::Values(2, 3, 5, 7),
                                            ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace cellscope
