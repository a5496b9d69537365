// A media library served peer-to-peer: the paper's session engine run
// once per file.
//
// The paper's evaluation serves a single popular video. Its natural
// generalization is a library of F files whose request popularity follows
// a Zipf law, served by per-file supplier swarms — how deployed P2P
// video-on-demand systems serve a library.
//
// Why one StreamingSystem per file is exact: every peer holds exactly one
// file. A requester probes only the suppliers of the file it wants, and
// once its session ends it supplies that file alone. No probe, session,
// reminder or supplier vector ever involves two files, so the files are
// independent systems. They share nothing but the master seed (file f runs
// on its own substream of it) and the merged result below.
//
// Capacity is per file. A session draws its playback rate R0 from one
// file's suppliers, so the leftover bandwidth of two different files never
// adds up to a session. The library's capacity — every hourly sample,
// final_capacity and max_capacity — is therefore the sum of the per-file
// capacities, never the capacity of the bandwidth pooled across files.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/config.hpp"
#include "engine/result.hpp"

namespace p2ps::engine {

struct CatalogConfig {
  /// Every file runs with this configuration. population.seeds is the
  /// seed count *per file*; population.requesters is the library total,
  /// split over the files by popularity.
  SimulationConfig base;
  /// Catalog size.
  std::int64_t files = 10;
  /// Zipf exponent of file popularity (0 = uniform).
  double zipf_skew = 0.8;
};

struct CatalogResult {
  /// The library as a whole: counters, per-class totals and hourly samples
  /// summed over files in file order; peak event lists are the per-file
  /// maximum. `favored` stays empty — its per-class averages carry no
  /// counts to merge by; each per_file entry keeps its own.
  SimulationResult overall;
  /// One result per file, indexed by file id (popularity rank).
  std::vector<SimulationResult> per_file;
};

/// The configuration file `file` runs with, given its share of requesters
/// — the single place a per-file configuration is derived. The file's seed
/// is drawn from the master seed's ("file", file) substream.
[[nodiscard]] SimulationConfig catalog_file_config(const CatalogConfig& config,
                                                   std::int64_t file,
                                                   std::int64_t requesters);

/// Draws each requester's file from the Zipf popularity law (the master
/// seed's "files" substream), then runs one StreamingSystem per file, in
/// file order. Requires base.telemetry == nullptr and
/// base.trace_capacity == 0: sequential runs would interleave one sink.
[[nodiscard]] CatalogResult run_catalog(const CatalogConfig& config);

}  // namespace p2ps::engine
