// Catalog — a media *library* served peer-to-peer (extension of the
// paper's single popular video): 12 files with Zipf-distributed demand,
// one DAC_p2p swarm per file.
//
//   ./examples/catalog [--files N] [--skew S] [--requesters N] [--seed N]
#include <iostream>
#include <string>

#include "engine/catalog.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using p2ps::util::SimTime;
  const p2ps::util::Flags flags(argc, argv);

  p2ps::engine::CatalogConfig config;
  config.files = flags.get_int("files", 12);
  config.zipf_skew = flags.get_double("skew", 1.0);
  config.base.population.seeds = 3;  // seeds per file
  config.base.population.requesters = flags.get_int("requesters", 4000);
  config.base.pattern = p2ps::workload::ArrivalPattern::kRampUpDown;
  config.base.arrival_window = SimTime::hours(24);
  config.base.horizon = SimTime::hours(48);
  config.base.seed = static_cast<std::uint64_t>(flags.get_int("seed", 17));

  std::cout << "A " << config.files << "-file library, "
            << config.base.population.requesters
            << " requesting peers, demand ~ Zipf(" << config.zipf_skew << ").\n"
            << "Each served requester becomes a supplier of the file it "
               "watched.\n\n";

  const auto result = p2ps::engine::run_catalog(config);

  p2ps::util::TextTable table({"file (rank)", "requests", "admitted", "suppliers",
                               "capacity", "demand share"});
  for (std::size_t f = 0; f < result.per_file.size(); ++f) {
    const auto& file = result.per_file[f];
    table.new_row()
        .add_cell(static_cast<long long>(f))
        .add_cell(static_cast<long long>(file.overall.first_requests))
        .add_cell(static_cast<long long>(file.overall.admissions))
        .add_cell(static_cast<long long>(file.suppliers_at_end))
        .add_cell(static_cast<long long>(file.final_capacity))
        .add_cell(p2ps::util::format_double(
                      100.0 * static_cast<double>(file.overall.first_requests) /
                          static_cast<double>(config.base.population.requesters),
                      1) +
                  "%");
  }
  table.print(std::cout);

  std::cout << "\nSupply follows demand: the popular head of the catalog "
               "amplifies its own\nswarm while the tail keeps only its seeds — "
               "no central provisioning anywhere.\n"
            << "Total capacity " << result.overall.final_capacity << " (max "
            << result.overall.max_capacity << "), sessions completed "
            << result.overall.sessions_completed << ".\n";
  return 0;
}
