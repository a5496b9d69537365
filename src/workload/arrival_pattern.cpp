#include "workload/arrival_pattern.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace p2ps::workload {

std::string_view to_string(ArrivalPattern pattern) {
  switch (pattern) {
    case ArrivalPattern::kConstant: return "pattern-1-constant";
    case ArrivalPattern::kRampUpDown: return "pattern-2-ramp";
    case ArrivalPattern::kBurstThenConstant: return "pattern-3-burst";
    case ArrivalPattern::kPeriodicBursts: return "pattern-4-periodic";
  }
  return "pattern-?";
}

namespace {

std::vector<RatePiece> pieces_for(ArrivalPattern pattern, util::SimTime window) {
  const std::int64_t wms = window.as_millis();
  auto span = [&](double fraction) {
    return util::SimTime::millis(static_cast<std::int64_t>(
        std::llround(fraction * static_cast<double>(wms))));
  };

  std::vector<RatePiece> pieces;
  switch (pattern) {
    case ArrivalPattern::kConstant:
      pieces.push_back({window, 1.0});
      break;

    case ArrivalPattern::kRampUpDown: {
      // Twelve equal steps whose heights trace a triangle peaking mid-window
      // ("gradually increasing, then gradually decreasing arrivals").
      constexpr int kSteps = 12;
      for (int i = 0; i < kSteps; ++i) {
        const double height = static_cast<double>(i < kSteps / 2 ? i + 1 : kSteps - i);
        pieces.push_back({span(1.0 / kSteps), height});
      }
      break;
    }

    case ArrivalPattern::kBurstThenConstant:
      // 40% of all arrivals in the first 1/12 of the window (a flash crowd),
      // the remaining 60% at a low constant rate.
      pieces.push_back({span(1.0 / 12.0), 0.4});
      pieces.push_back({span(11.0 / 12.0), 0.6});
      break;

    case ArrivalPattern::kPeriodicBursts: {
      // Six 12-hour cycles (for a 72 h window): a 2-hour burst carrying 10%
      // of all arrivals, then a 10-hour low constant floor carrying ~6.7%.
      constexpr int kCycles = 6;
      for (int i = 0; i < kCycles; ++i) {
        pieces.push_back({span(1.0 / 36.0), 0.6 / kCycles});   // 2 h of a 72 h window
        pieces.push_back({span(5.0 / 36.0), 0.4 / kCycles});   // 10 h floor
      }
      break;
    }
  }

  // Rounding of spans can leave the final piece a few ms short; absorb the
  // remainder there so the pieces tile the window exactly.
  std::int64_t covered = 0;
  for (const auto& piece : pieces) covered += piece.duration.as_millis();
  P2PS_CHECK(!pieces.empty());
  pieces.back().duration += util::SimTime::millis(wms - covered);
  return pieces;
}

}  // namespace

ArrivalSchedule ArrivalSchedule::make_lazy(ArrivalPattern pattern,
                                           std::int64_t total,
                                           util::SimTime window) {
  P2PS_REQUIRE(total >= 0);
  P2PS_REQUIRE(window > util::SimTime::zero());
  return ArrivalSchedule(pieces_for(pattern, window), total);
}

ArrivalSchedule::ArrivalSchedule(std::vector<RatePiece> pieces, std::int64_t total)
    : pieces_(std::move(pieces)), total_(total) {
  double weight_sum = 0.0;
  for (const auto& piece : pieces_) {
    P2PS_REQUIRE(piece.duration > util::SimTime::zero());
    weight_sum += piece.weight;
    window_ += piece.duration;
  }
  for (auto& piece : pieces_) piece.weight /= weight_sum;
}

// Arrival i sits at the evenly spaced quantile q = (i+0.5)/total of the
// piecewise-linear CDF, inverted exactly within its piece: a pure function
// of the index, so nothing is materialised and the cumulative-arrival
// curve is exact.
util::SimTime ArrivalSchedule::arrival_at(std::int64_t index) const {
  P2PS_REQUIRE(index >= 0 && index < total());
  const double q =
      (static_cast<double>(index) + 0.5) / static_cast<double>(total_);
  double cdf_before = 0.0;
  util::SimTime piece_start = util::SimTime::zero();
  std::size_t piece_index = 0;
  while (piece_index + 1 < pieces_.size() &&
         cdf_before + pieces_[piece_index].weight <= q) {
    cdf_before += pieces_[piece_index].weight;
    piece_start += pieces_[piece_index].duration;
    ++piece_index;
  }
  const RatePiece& piece = pieces_[piece_index];
  const double within = piece.weight > 0.0 ? (q - cdf_before) / piece.weight : 0.0;
  const auto offset_ms = static_cast<std::int64_t>(
      std::floor(within * static_cast<double>(piece.duration.as_millis())));
  return piece_start + util::SimTime::millis(offset_ms);
}

std::optional<util::SimTime> ArrivalCursor::next_arrival() {
  if (consumed_ >= schedule_->total()) return std::nullopt;
  return schedule_->arrival_at(consumed_++);
}

}  // namespace p2ps::workload
