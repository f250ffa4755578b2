#include "stream/tower_window.h"

#include <algorithm>

#include "common/error.h"
#include "common/stats.h"
#include "pipeline/traffic_matrix.h"

namespace cellscope {

TowerWindow::TowerWindow()
    : bins_(TimeGrid::kSlots, 0), cycles_(TimeGrid::kSlots, -1) {}

TowerWindow::Apply TowerWindow::add(std::uint64_t start_minute,
                                    std::uint64_t bytes) {
  const std::uint64_t abs_slot = start_minute / TimeGrid::kSlotMinutes;
  const auto slot = static_cast<std::size_t>(abs_slot % TimeGrid::kSlots);
  const auto cycle = static_cast<std::uint32_t>(abs_slot / TimeGrid::kSlots);

  const std::int32_t held = cycles_[slot];
  if (held >= 0 && cycle < static_cast<std::uint32_t>(held))
    return Apply::kStale;  // older than the data the ring retains here

  std::uint64_t old = bins_[slot];
  if (held < 0) {
    ++observed_;
  } else if (cycle > static_cast<std::uint32_t>(held)) {
    // The ring rolled past this bin: evict the previous cycle's bytes.
    total_bytes_ -= old;
    sumsq_ -= static_cast<double>(old) * static_cast<double>(old);
    bins_[slot] = 0;
    old = 0;
  }
  const std::uint64_t updated = old + bytes;
  bins_[slot] = updated;
  cycles_[slot] = static_cast<std::int32_t>(cycle);
  latest_cycle_ = std::max(latest_cycle_, cycle);
  latest_minute_ = std::max(latest_minute_, start_minute);
  total_bytes_ += bytes;
  sumsq_ += static_cast<double>(updated) * static_cast<double>(updated) -
            static_cast<double>(old) * static_cast<double>(old);
  return Apply::kApplied;
}

double TowerWindow::mean() const {
  return static_cast<double>(total_bytes_) /
         static_cast<double>(TimeGrid::kSlots);
}

double TowerWindow::variance() const {
  const double m = mean();
  const double v =
      sumsq_ / static_cast<double>(TimeGrid::kSlots) - m * m;
  return v > 0.0 ? v : 0.0;  // clamp incremental round-off
}

std::vector<double> TowerWindow::raw_vector() const {
  std::vector<double> out(TimeGrid::kSlots, 0.0);
  for (std::size_t s = 0; s < bins_.size(); ++s)
    out[s] = static_cast<double>(bins_[s]);
  return out;
}

std::vector<double> TowerWindow::zscored() const { return zscore(raw_vector()); }

std::vector<double> TowerWindow::folded_week() const {
  // The batch fold's own single-row routine, so the streaming
  // representation is the batch representation, bit for bit.
  return fold_week(zscored());
}

std::vector<double> TowerWindow::observed_history() const {
  std::size_t first = bins_.size();
  std::size_t last = 0;
  for (std::size_t s = 0; s < cycles_.size(); ++s) {
    if (cycles_[s] < 0) continue;
    first = std::min(first, s);
    last = s;
  }
  if (first == bins_.size()) return {};
  std::vector<double> out;
  out.reserve(last - first + 1);
  for (std::size_t s = first; s <= last; ++s)
    out.push_back(static_cast<double>(bins_[s]));
  return out;
}

TowerWindow::State TowerWindow::state() const {
  State state;
  state.bins.reserve(observed_);
  for (std::size_t s = 0; s < bins_.size(); ++s) {
    if (cycles_[s] < 0) continue;
    state.bins.push_back({static_cast<std::uint32_t>(s),
                          static_cast<std::uint32_t>(cycles_[s]), bins_[s]});
  }
  state.sumsq = sumsq_;
  return state;
}

TowerWindow TowerWindow::from_state(const State& state) {
  TowerWindow window;
  for (const auto& bin : state.bins) {
    CS_CHECK_MSG(bin.slot < TimeGrid::kSlots,
                 "checkpointed bin slot out of range");
    CS_CHECK_MSG(window.cycles_[bin.slot] < 0,
                 "duplicate slot in checkpointed window");
    window.bins_[bin.slot] = bin.bytes;
    window.cycles_[bin.slot] = static_cast<std::int32_t>(bin.cycle);
    window.latest_cycle_ = std::max(window.latest_cycle_, bin.cycle);
    // Bin-granular reconstruction: the exact record start minute is gone,
    // so the restored watermark rounds down to the newest bin's slot start.
    const std::uint64_t abs_slot =
        static_cast<std::uint64_t>(bin.cycle) * TimeGrid::kSlots + bin.slot;
    window.latest_minute_ =
        std::max(window.latest_minute_, abs_slot * TimeGrid::kSlotMinutes);
    window.total_bytes_ += bin.bytes;
    ++window.observed_;
  }
  window.sumsq_ = state.sumsq;
  return window;
}

}  // namespace cellscope
