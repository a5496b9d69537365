#include "core/admission/probability_vector.hpp"

#include "util/assert.hpp"

namespace p2ps::core {

AdmissionProbabilityVector::AdmissionProbabilityVector(PeerClass num_classes,
                                                       PeerClass own_class)
    : num_classes_(static_cast<std::uint8_t>(num_classes)),
      level_(static_cast<std::uint8_t>(own_class)) {
  require_valid_class(own_class, num_classes);
}

AdmissionProbabilityVector AdmissionProbabilityVector::all_ones(PeerClass num_classes) {
  P2PS_REQUIRE(num_classes >= 1 && num_classes <= kMaxSupportedClasses);
  return AdmissionProbabilityVector(num_classes, num_classes);
}

void AdmissionProbabilityVector::elevate() {
  if (level_ < num_classes_) ++level_;
}

void AdmissionProbabilityVector::tighten_to(PeerClass k_hat) {
  require_valid_class(k_hat, num_classes());
  level_ = static_cast<std::uint8_t>(k_hat);
}

}  // namespace p2ps::core
