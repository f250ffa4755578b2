// Per-tower incremental traffic accumulator — the streaming counterpart
// of one TrafficMatrix row.
//
// A TowerWindow maintains the paper's 10-minute bin grid as a rolling
// 4-week (4032-bin) ring buffer: add() is O(1) — route the record's start
// minute to its bin, accumulate bytes, and update the running first and
// second moments incrementally, so a live z-score query never rescans the
// grid. Bins store exact integer byte counts; because integer addition is
// commutative and associative, the final grid is bit-identical regardless
// of arrival order or shard assignment — the foundation of the
// stream-vs-batch equivalence contract (DESIGN.md §9).
//
// Ring semantics: bin index = (start_minute / 10) % 4032, with a per-bin
// cycle stamp (absolute slot / 4032). A record from a newer cycle resets
// the bin before accumulating; a record from an older cycle than the one
// the bin holds is stale and rejected. The window therefore always holds
// the most recent four weeks of data the stream has delivered.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/time_grid.h"

namespace cellscope {

/// Streaming per-tower 4-week bin grid with O(1) updates and incremental
/// moments.
class TowerWindow {
 public:
  /// Outcome of one add().
  enum class Apply {
    kApplied,  ///< bytes accumulated into the window
    kStale,    ///< record older than the bin's retained cycle — rejected
  };

  /// One observed bin, exported for checkpointing.
  struct ObservedBin {
    std::uint32_t slot = 0;   ///< ring index in [0, kSlots)
    std::uint32_t cycle = 0;  ///< 4-week cycle the bin's data belongs to
    std::uint64_t bytes = 0;  ///< exact accumulated bytes
  };

  /// Serializable full state (snapshot.h). `sumsq` is carried verbatim so
  /// a restored window resumes with bit-identical moments.
  struct State {
    std::vector<ObservedBin> bins;  ///< ascending slot order
    double sumsq = 0.0;
  };

  TowerWindow();

  /// Accumulates `bytes` into the bin containing `start_minute` (absolute
  /// minutes since stream epoch). O(1).
  Apply add(std::uint64_t start_minute, std::uint64_t bytes);

  /// Number of bins that have received at least one record (a zero-byte
  /// record still marks its bin observed).
  std::size_t observed_slots() const { return observed_; }

  /// Exact total bytes across all retained bins.
  std::uint64_t total_bytes() const { return total_bytes_; }

  /// Highest cycle any record has touched (0 before the ring ever wraps).
  std::uint32_t latest_cycle() const { return latest_cycle_; }

  /// Event-time high watermark of this window: the largest start_minute
  /// any applied record carried (0 before the first record) — the
  /// per-tower counterpart of the ingestor's shard watermark, kept O(1)
  /// so the introspection plane can report per-tower progress without a
  /// grid scan. Recomputed exactly from bins on checkpoint restore.
  std::uint64_t latest_minute() const { return latest_minute_; }

  /// Mean bytes per bin over the full grid (unobserved bins count as 0),
  /// from the running sum — O(1).
  double mean() const;

  /// Population variance over the full grid from the running second
  /// moment — O(1). Incremental floating-point updates drift from the
  /// batch value by at most ~1e-9 relative; the equivalence-critical
  /// vectors below never use it.
  double variance() const;

  /// The window as a batch-layout row: raw_vector()[i] is ring slot i —
  /// for a stream confined to the measurement month, exactly the
  /// TrafficMatrix row the batch vectorizer builds.
  std::vector<double> raw_vector() const;

  /// zscore(raw_vector()) via the same helper the batch normalization
  /// uses — bit-identical to zscore_rows on the equivalent matrix row.
  std::vector<double> zscored() const;

  /// The mean-week fold of zscored(), computed by the batch fold_week
  /// itself — bit-identical to the batch clustering representation.
  std::vector<double> folded_week() const;

  /// Raw bin values from the first to the last observed ring slot,
  /// inclusive (unobserved bins inside the span read 0) — the short
  /// history a cold-start classifier matches on. Empty when nothing was
  /// observed.
  std::vector<double> observed_history() const;

  /// Exports the full state for checkpointing (ascending slot order).
  State state() const;

  /// Rebuilds a window from a checkpointed state. Integer accumulators
  /// are recomputed exactly; `sumsq` is restored verbatim.
  static TowerWindow from_state(const State& state);

 private:
  std::vector<std::uint64_t> bins_;   // [kSlots] exact bytes
  std::vector<std::int32_t> cycles_;  // [kSlots]; -1 = never observed
  std::uint32_t latest_cycle_ = 0;
  std::uint64_t latest_minute_ = 0;
  std::size_t observed_ = 0;
  std::uint64_t total_bytes_ = 0;
  double sumsq_ = 0.0;  // running sum of squared bin values
};

}  // namespace cellscope
