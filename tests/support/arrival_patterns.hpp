// The paper's four arrival patterns as one gtest parameter list, shared by
// the suites that run a check under every pattern.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "workload/arrival_pattern.hpp"

namespace p2ps::workload {

inline const auto kEveryArrivalPattern = ::testing::Values(
    ArrivalPattern::kConstant, ArrivalPattern::kRampUpDown,
    ArrivalPattern::kBurstThenConstant, ArrivalPattern::kPeriodicBursts);

/// Test-name suffix of a pattern parameter: "pattern1" .. "pattern4".
inline std::string arrival_pattern_name(
    const ::testing::TestParamInfo<ArrivalPattern>& info) {
  return "pattern" + std::to_string(static_cast<int>(info.param));
}

}  // namespace p2ps::workload
