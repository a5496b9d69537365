#include "core/admission/requester.hpp"

#include "core/stable_order.hpp"
#include "util/assert.hpp"

namespace p2ps::core {

/// Saturating power: t_bkf * e_bkf^exp without overflow (caps at ~292 years
/// of simulated time, far beyond any run length).
util::SimTime scaled_backoff(util::SimTime t_bkf, std::int64_t e_bkf, std::int64_t exp) {
  constexpr std::int64_t kCapMs = std::int64_t{1} << 53;
  std::int64_t ms = t_bkf.as_millis();
  for (std::int64_t i = 0; i < exp; ++i) {
    if (ms > kCapMs / e_bkf) return util::SimTime::millis(kCapMs);
    ms *= e_bkf;
  }
  return util::SimTime::millis(ms);
}

RequesterBackoff::RequesterBackoff(util::SimTime t_bkf, std::int64_t e_bkf)
    : t_bkf_(t_bkf), e_bkf_(e_bkf) {
  P2PS_REQUIRE(t_bkf > util::SimTime::zero());
  P2PS_REQUIRE(e_bkf >= 1);
}

util::SimTime RequesterBackoff::on_rejected() {
  ++rejections_;
  const util::SimTime backoff = scaled_backoff(t_bkf_, e_bkf_, rejections_ - 1);
  total_waiting_ += backoff;
  return backoff;
}

util::SimTime RequesterBackoff::waiting_time_for(std::int64_t rejections,
                                                 util::SimTime t_bkf, std::int64_t e_bkf) {
  P2PS_REQUIRE(rejections >= 0);
  util::SimTime total = util::SimTime::zero();
  for (std::int64_t r = 1; r <= rejections; ++r) {
    total += scaled_backoff(t_bkf, e_bkf, r - 1);
  }
  return total;
}

void reminder_set_into(std::vector<std::size_t>& omega,
                       std::span<const BusyCandidate> busy_candidates,
                       Bandwidth shortfall) {
  P2PS_REQUIRE(shortfall >= Bandwidth::zero());
  omega.clear();

  // Walk the busy candidates stably sorted by class, highest (class 1)
  // first, keeping favoring candidates until the shortfall is covered.
  with_stable_order(
      busy_candidates.size(),
      [&](std::size_t prior, std::size_t i) {
        return busy_candidates[prior].cls > busy_candidates[i].cls;
      },
      [&](std::span<const std::size_t> order) {
        Bandwidth need = shortfall;
        for (std::size_t i : order) {
          if (need == Bandwidth::zero()) break;
          const BusyCandidate& candidate = busy_candidates[i];
          if (!candidate.favors_requester) continue;
          const Bandwidth offer = Bandwidth::class_offer(candidate.cls);
          if (offer <= need) {
            omega.push_back(candidate.index);
            need -= offer;
          }
        }
      });
}

}  // namespace p2ps::core
