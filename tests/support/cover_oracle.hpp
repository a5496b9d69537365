// Exhaustive exact-cover oracles for the selection tests.
//
// Brute force over every subset of a candidate list: the reference that the
// greedy selection (core/selection.hpp) and every selection policy are
// checked against. Exponential — small inputs only.
#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "core/bandwidth.hpp"
#include "core/peer_class.hpp"

namespace p2ps::core {

/// Does any subset of `classes` sum to exactly `target`? Requires at most
/// 24 candidates.
[[nodiscard]] bool subset_sum_exists(std::span<const PeerClass> classes, Bandwidth target);

/// The minimum subset size achieving the target exactly, or nullopt if
/// impossible. Requires at most 24 candidates.
[[nodiscard]] std::optional<std::size_t> min_exact_cover_size(
    std::span<const PeerClass> classes, Bandwidth target);

}  // namespace p2ps::core
