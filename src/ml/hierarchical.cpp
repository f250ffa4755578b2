#include "ml/hierarchical.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>

#include "common/error.h"
#include "mapred/thread_pool.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace cellscope {

namespace {

/// The linkage repacks its triangle only above this many slots: a triangle
/// over 64 slots (2,016 floats, ~8 KB) already sits in L1.
constexpr std::size_t kMinRepackSlots = 64;

/// The linkage splits each scan and each update across the pool from this
/// many slots up; below it a dispatch costs more than the range it splits
/// (DESIGN.md §8).
constexpr std::size_t kMinParallelSlots = 512;

/// Union-find over leaf indices.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

double lance_williams(Linkage linkage, double d_ki, double d_kj,
                      std::size_t size_i, std::size_t size_j) {
  switch (linkage) {
    case Linkage::kSingle:
      return std::min(d_ki, d_kj);
    case Linkage::kComplete:
      return std::max(d_ki, d_kj);
    case Linkage::kAverage: {
      const double ni = static_cast<double>(size_i);
      const double nj = static_cast<double>(size_j);
      return (ni * d_ki + nj * d_kj) / (ni + nj);
    }
  }
  throw InvalidArgument("unknown linkage");
}

}  // namespace

Dendrogram Dendrogram::run(DistanceMatrix distances, Linkage linkage,
                           ThreadPool* pool) {
  obs::ScopedTimer timer(
      obs::MetricsRegistry::instance().histogram("cellscope.ml.cluster_ms"));
  const std::size_t n = distances.n();

  // The working triangle: condensed distances between m slots. Slots hold
  // the clusters in ascending leaf order, and a merge always lands in the
  // lower slot, so a scan in slot order is a scan in leaf order and ties
  // resolve exactly as over the original n items. Merged-away slots stay
  // (inactive) until the active count falls to 3/4 of m; then the triangle
  // is repacked in place onto the active slots only.
  std::vector<float> cond = std::move(distances).release();
  std::size_t m = n;
  std::vector<unsigned char> active(n, 1);
  std::vector<std::size_t> size(n, 1);
  std::vector<std::size_t> rep(n);  // smallest leaf in the cluster
  std::iota(rep.begin(), rep.end(), std::size_t{0});

  std::vector<Merge> merges;
  merges.reserve(n - 1);

  // Nearest-neighbor chain, as slot indices.
  std::vector<std::size_t> chain;
  chain.reserve(n);
  std::size_t remaining = n;
  std::uint64_t slots_scanned = 0;
  std::uint64_t repacks = 0;

  // Condensed index of (i, i + 1): row i starts there, and entry (i, j),
  // i < j, sits j - i - 1 further on.
  const auto row_start = [&m](std::size_t i) {
    return i * m - i * (i + 1) / 2;
  };

  // Each scan and each update splits into `parts` ranges, run as one pool
  // job: the pool's thread count at kMinParallelSlots slots and up, one
  // range (a plain call) below that or without a pool.
  const std::size_t pool_parts = pool != nullptr ? pool->thread_count() : 1;
  const auto parts_now = [&] {
    return m >= kMinParallelSlots ? pool_parts : std::size_t{1};
  };

  // The hottest loop of the clustering: scan slot i's row of the triangle.
  // Entries (j, i) for j < i sit down column i at decreasing strides
  // (m - j - 2 apart); entries (i, j) for j > i are contiguous. Part p
  // scans the p-th of `parts` ranges of each half in ascending j with a
  // strict <, so each range reports its lowest tied slot; nearest_active
  // then combines the ranges in ascending j under the same strict <, and
  // the lowest tied slot of the whole row wins, as in one serial pass.
  struct Nearest {
    double d;
    std::size_t j;
  };
  std::vector<Nearest> nearest_of(2 * pool_parts);
  std::size_t scan_i = 0;
  std::size_t scan_parts = 1;
  const std::function<void(std::size_t)> scan_part = [&](std::size_t p) {
    const std::size_t i = scan_i;
    const std::size_t parts = scan_parts;
    const std::size_t slots = m;
    Nearest col{std::numeric_limits<double>::infinity(), slots};
    const std::size_t col_begin = i * p / parts;
    const std::size_t col_end = i * (p + 1) / parts;
    std::size_t idx = row_start(col_begin) + (i - col_begin - 1);  // (col_begin, i)
    for (std::size_t j = col_begin; j < col_end; ++j) {
      if (active[j]) {
        const double d = cond[idx];
        if (d < col.d) col = {d, j};
      }
      idx += slots - j - 2;
    }
    Nearest row_best{std::numeric_limits<double>::infinity(), slots};
    const std::size_t row_len = slots - i - 1;
    const std::size_t row_begin = i + 1 + row_len * p / parts;
    const std::size_t row_end = i + 1 + row_len * (p + 1) / parts;
    const float* row = cond.data() + row_start(i);  // row[j - i - 1]
    for (std::size_t j = row_begin; j < row_end; ++j) {
      if (!active[j]) continue;
      const double d = row[j - i - 1];
      if (d < row_best.d) row_best = {d, j};
    }
    nearest_of[p] = col;
    nearest_of[parts + p] = row_best;
  };
  const auto nearest_active = [&](std::size_t i) -> std::size_t {
    slots_scanned += m;
    scan_i = i;
    scan_parts = parts_now();
    for_each_index(pool, scan_parts, scan_part);
    Nearest best{std::numeric_limits<double>::infinity(), m};  // sentinel
    for (std::size_t q = 0; q < 2 * scan_parts; ++q)
      if (nearest_of[q].d < best.d) best = nearest_of[q];
    return best.j;
  };

  // Lance-Williams update of slot i < j's distances to every other active
  // slot k, over the three k ranges with stepped offsets: k < i reads
  // (k, i) and (k, j) on row k, j - i apart; i < k < j reads (i, k) on row
  // i and (k, j) down column j; k > j reads rows i and j side by side.
  // Part p updates the p-th of `parts` ranges of each of the three, so
  // the parts do equal work whatever i and j are.
  // Every k writes only its own entry with i and reads only entries with
  // j, which no k writes, so the parts never touch each other's data.
  std::size_t merge_i = 0;
  std::size_t merge_j = 0;
  std::size_t merge_parts = 1;
  const std::function<void(std::size_t)> merge_part = [&](std::size_t p) {
    const std::size_t i = merge_i;
    const std::size_t j = merge_j;
    const std::size_t parts = merge_parts;
    const std::size_t slots = m;
    const auto updated = [&](double d_ki, double d_kj) {
      return static_cast<float>(
          lance_williams(linkage, d_ki, d_kj, size[i], size[j]));
    };
    // The p-th of `parts` ranges of [first, first + count).
    const auto range = [&](std::size_t first, std::size_t count) {
      return std::pair{first + count * p / parts,
                       first + count * (p + 1) / parts};
    };
    const auto [low, below_i] = range(0, i);
    std::size_t idx = row_start(low) + (i - low - 1);  // (low, i)
    for (std::size_t k = low; k < below_i; ++k) {
      if (active[k]) cond[idx] = updated(cond[idx], cond[idx + (j - i)]);
      idx += slots - k - 2;
    }
    float* row_i = cond.data() + row_start(i);  // row_i[k - i - 1] = (i, k)
    const auto [above_i, below_j] = range(i + 1, j - i - 1);
    idx = row_start(above_i) + (j - above_i - 1);  // (above_i, j)
    for (std::size_t k = above_i; k < below_j; ++k) {
      if (active[k]) row_i[k - i - 1] = updated(row_i[k - i - 1], cond[idx]);
      idx += slots - k - 2;
    }
    const float* row_j = cond.data() + row_start(j);  // row_j[k - j - 1]
    const auto [above_j, tail_end] = range(j + 1, slots - j - 1);
    for (std::size_t k = above_j; k < tail_end; ++k) {
      if (active[k])
        row_i[k - i - 1] = updated(row_i[k - i - 1], row_j[k - j - 1]);
    }
  };
  const auto merge_into = [&](std::size_t i, std::size_t j) {
    merge_i = i;
    merge_j = j;
    merge_parts = parts_now();
    for_each_index(pool, merge_parts, merge_part);
  };

  // Moves the active slots' entries forward onto a triangle over just those
  // slots. Entries keep their relative order, so every entry's new index is
  // at most its old one and one ascending pass over the same buffer is safe.
  const auto repack = [&] {
    std::vector<std::size_t> kept;  // old slot of each new slot, ascending
    kept.reserve(remaining);
    for (std::size_t s = 0; s < m; ++s)
      if (active[s]) kept.push_back(s);
    const std::size_t packed = kept.size();
    std::size_t write = 0;
    for (std::size_t a = 0; a < packed; ++a) {
      const std::size_t p = kept[a];
      const std::size_t row = row_start(p);
      for (std::size_t b = a + 1; b < packed; ++b) {
        const std::size_t read = row + (kept[b] - p - 1);
        CS_DCHECK_MSG(write <= read, "repack must only move entries forward");
        cond[write++] = cond[read];
      }
    }
    CS_DCHECK_MSG(write == packed * (packed - 1) / 2,
                  "repacked triangle has the wrong size");
    cond.resize(write);
    for (std::size_t a = 0; a < packed; ++a) {
      size[a] = size[kept[a]];
      rep[a] = rep[kept[a]];
    }
    size.resize(packed);
    rep.resize(packed);
    for (auto& c : chain)
      c = static_cast<std::size_t>(
          std::lower_bound(kept.begin(), kept.end(), c) - kept.begin());
    active.assign(packed, 1);
    m = packed;
    ++repacks;
  };

  while (remaining > 1) {
    if (chain.empty()) {
      // Start from the lowest-index active cluster.
      for (std::size_t i = 0; i < m; ++i) {
        if (active[i]) {
          chain.push_back(i);
          break;
        }
      }
    }
    for (;;) {
      const std::size_t top = chain.back();
      const std::size_t nn = nearest_active(top);
      CS_CHECK_MSG(nn < m, "no active neighbor found");
      if (chain.size() >= 2 && nn == chain[chain.size() - 2]) {
        // Reciprocal nearest neighbors: merge top and nn into the lower
        // slot and deactivate the upper one.
        const std::size_t i = std::min(top, nn);
        const std::size_t j = std::max(top, nn);
        const double d = cond[row_start(i) + (j - i - 1)];
        merges.push_back({std::min(rep[i], rep[j]),
                          std::max(rep[i], rep[j]), d});
        merge_into(i, j);
        size[i] += size[j];
        rep[i] = std::min(rep[i], rep[j]);
        active[j] = 0;
        --remaining;
        chain.pop_back();
        chain.pop_back();
        if (m > kMinRepackSlots && 4 * remaining <= 3 * m) repack();
        break;
      }
      chain.push_back(nn);
    }
  }

  // Reducible linkages give a (numerically almost) monotone dendrogram;
  // sort by distance for count cuts and the DBI sweep. Stability keeps equal-
  // distance merges in construction (hence dependency-safe) order.
  std::stable_sort(merges.begin(), merges.end(),
                   [](const Merge& x, const Merge& y) {
                     return x.distance < y.distance;
                   });
  auto& metrics = obs::MetricsRegistry::instance();
  metrics.counter("cellscope.ml.merge_steps").add(merges.size());
  metrics.counter("cellscope.ml.linkage_slots_scanned").add(slots_scanned);
  metrics.counter("cellscope.ml.linkage_repacks").add(repacks);
  obs::log_debug("hierarchical.done",
                 {{"leaves", n},
                  {"merges", merges.size()},
                  {"repacks", repacks},
                  {"wall_ms", timer.elapsed_ms()}});
  return Dendrogram(n, std::move(merges));
}

Dendrogram::Dendrogram(std::size_t n, std::vector<Merge> merges)
    : n_(n), merges_(std::move(merges)) {
  CS_CHECK_MSG(merges_.size() == n_ - 1, "a dendrogram over n leaves has n-1 merges");
}

std::vector<int> Dendrogram::labels_after(std::size_t m) const {
  CS_CHECK_MSG(m <= merges_.size(), "merge count out of range");
  UnionFind uf(n_);
  for (std::size_t i = 0; i < m; ++i)
    uf.unite(merges_[i].a, merges_[i].b);

  // Dense labels ordered by smallest member index.
  std::vector<int> labels(n_, -1);
  int next = 0;
  std::vector<int> label_of_root(n_, -1);
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t root = uf.find(i);
    if (label_of_root[root] == -1) label_of_root[root] = next++;
    labels[i] = label_of_root[root];
  }
  return labels;
}

std::vector<int> Dendrogram::cut_k(std::size_t k) const {
  CS_CHECK_MSG(k >= 1 && k <= n_, "k must be in [1, n]");
  return labels_after(n_ - k);
}

std::size_t num_clusters(const std::vector<int>& labels) {
  CS_CHECK_MSG(!labels.empty(), "empty label vector");
  int max_label = -1;
  for (const int l : labels) {
    CS_CHECK_MSG(l >= 0, "labels must be non-negative");
    max_label = std::max(max_label, l);
  }
  return static_cast<std::size_t>(max_label) + 1;
}

}  // namespace cellscope
