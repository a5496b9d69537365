#include "core/admission/probability_vector.hpp"

#include <ostream>

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

std::ostream& operator<<(std::ostream& os, const AdmissionProbabilityVector& v) {
  os << '[';
  for (PeerClass c = 1; c <= v.num_classes(); ++c) {
    if (c > 1) os << ", ";
    os << v.probability(c);
  }
  return os << ']';
}

}  // namespace p2ps::core
