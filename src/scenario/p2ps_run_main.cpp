// p2ps_run — the unified scenario runner.
//
//   p2ps_run --list                      enumerate registered scenarios
//   p2ps_run <scenario> [--seed N]       run one scenario, JSON to stdout
//            [--scale D]                 population divisor (1 = paper scale)
//            [--event-list heap|calendar] simulator event-list backend
//            [--timers wheel|lazy|events] timer-subsystem strategy
//            [--latency fixed|uniform|twoclass|lognormal] latency model
//            [--loss P]                  message drop probability [0, 1]
//            [--policy NAME]             supplier-selection policy
//            [--shards N]                shard count for sharded_* scenarios
//            [--shard-threads N]         sharded worker threads (wall-clock only)
//            [--fusion N]                sharded window-fusion factor
//                                        (1 = unfused unit-lookahead mode)
//            [--mechanics]               emit run mechanics (per-shard event
//                                        counts, windows, peak RSS)
//            [--telemetry FILE]          periodic JSONL runtime snapshots
//            [--telemetry-interval MS]   wall-clock ms between snapshots
//                                        (default 1000; 0 = every poll)
//            [--watchdog warn|abort|off] anomaly watchdog action (abort
//                                        maps a tripped rule to exit 3)
//            [--out FILE]                also write the JSON to FILE
//            [--compact]                 single-line JSON (default: pretty)
//   p2ps_run --strip-mechanics           filter: zero the event-core
//                                        mechanics counters in JSON read
//                                        from stdin (scripts/ci.sh parity)
//   p2ps_run --sweep <scenario...>       parameter study: run the cross
//            [--scenarios a,b]           product of scenarios × seeds ×
//            [--seeds 1,2] [--scales D,E] scales × backends × latencies ×
//            [--event-lists heap,calendar] losses on a thread pool, merged
//            [--latencies fixed,twoclass] into one JSON report in
//            [--losses 0,0.02] [--threads N] deterministic point order
//            [--policies a,b]            selection policies as a sweep axis
//            [--timers wheel|lazy|events] timer strategy for every point
//
// Determinism contract: the same (scenario, seed, scale) always emits
// byte-identical JSON, so diffs against a stored BENCH_*.json are
// meaningful. A sweep report is additionally byte-identical for any
// --threads value: points merge in spec order, never completion order.
#include <algorithm>
#include <charconv>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/selection_policy.hpp"
#include "net/latency.hpp"
#include "obs/telemetry.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"
#include "sim/event_list.hpp"
#include "sim/timer_service.hpp"
#include "util/assert.hpp"
#include "util/flags.hpp"

namespace {

int list_scenarios() {
  p2ps::scenario::register_all_scenarios();
  const auto scenarios = p2ps::scenario::Registry::instance().list();
  // One scenario per line (name column padded, description alongside), in
  // sorted order: the discoverable inventory for composing --sweep specs.
  std::size_t width = 0;
  for (const auto* scenario : scenarios) {
    width = std::max(width, scenario->name.size());
  }
  for (const auto* scenario : scenarios) {
    std::cout << std::left << std::setw(static_cast<int>(width + 2))
              << scenario->name << scenario->description << '\n';
  }
  return 0;
}

int usage(const std::string& program) {
  std::cerr << "usage: " << program
            << " <scenario> [--seed N] [--scale D] [--event-list heap|calendar]"
               " [--timers wheel|lazy|events]"
               " [--latency fixed|uniform|twoclass|lognormal] [--loss P]"
               " [--policy NAME]"
               " [--shards N] [--shard-threads N] [--fusion N] [--mechanics]"
               " [--telemetry FILE] [--telemetry-interval MS]"
               " [--watchdog warn|abort|off]"
               " [--out FILE] [--compact]\n"
            << "       " << program
            << " --sweep <scenario...> [--scenarios a,b] [--seeds N,M]"
               " [--scales D,E] [--event-lists heap,calendar]"
               " [--latencies fixed,twoclass] [--losses 0,0.02]"
               " [--policies a,b] [--timers wheel|lazy|events] [--threads N]"
               " [--out FILE] [--compact]\n"
            << "       " << program << " --strip-mechanics < payload.json\n"
            << "       " << program << " --list\n"
            << "policies: " << p2ps::core::selection_policy_names() << '\n';
  return 2;
}

/// Parses one event-list token or dies with a CLI error message.
std::optional<p2ps::sim::EventListKind> parse_backend(const std::string& token) {
  const auto kind = p2ps::sim::parse_event_list_kind(token);
  if (!kind) {
    std::cerr << "error: event-list backend must be 'heap' or 'calendar', got '"
              << token << "'\n";
  }
  return kind;
}

/// Parses one latency-model token or dies with a CLI error message.
std::optional<p2ps::net::LatencyModelKind> parse_latency(const std::string& token) {
  const auto kind = p2ps::net::parse_latency_model_kind(token);
  if (!kind) {
    std::cerr << "error: latency model must be 'fixed', 'uniform',"
                 " 'twoclass' or 'lognormal', got '"
              << token << "'\n";
  }
  return kind;
}

/// Parses one selection-policy token of --policy/--policies against the
/// policy registry or dies with a CLI error listing the valid names.
const p2ps::core::SelectionPolicy* parse_policy(const std::string& token) {
  const auto* policy = p2ps::core::find_selection_policy(token);
  if (policy == nullptr) {
    std::cerr << "error: selection policy must be one of "
              << p2ps::core::selection_policy_names() << ", got '" << token
              << "'\n";
  }
  return policy;
}

/// Parses one timer-strategy token or dies with a CLI error message.
std::optional<p2ps::sim::TimerStrategy> parse_timers(const std::string& token) {
  const auto strategy = p2ps::sim::parse_timer_strategy(token);
  if (!strategy) {
    std::cerr << "error: timer strategy must be 'wheel', 'lazy' or"
                 " 'events', got '"
              << token << "'\n";
  }
  return strategy;
}

/// Parses one probability token of --loss/--losses; reports a descriptive
/// CLI error on junk or out-of-range input.
std::optional<double> parse_loss(std::string_view flag, const std::string& token) {
  std::size_t consumed = 0;
  double out = 0.0;
  bool ok = !token.empty();
  if (ok) {
    try {
      out = std::stod(token, &consumed);
    } catch (const std::exception&) {
      ok = false;
    }
  }
  if (!ok || consumed != token.size() || !(out >= 0.0 && out <= 1.0)) {
    std::cerr << "error: --" << flag
              << " needs probabilities in [0, 1], got '" << token << "'\n";
    return std::nullopt;
  }
  return out;
}

/// Parses one positive integer token of --shards/--shard-threads; reports
/// a descriptive CLI error on junk, zero or negative input.
std::optional<int> parse_positive_int(std::string_view flag,
                                      const std::string& token) {
  std::int64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), out);
  if (ec != std::errc{} || ptr != token.data() + token.size() || out < 1 ||
      out > 1'000'000) {
    std::cerr << "error: --" << flag << " needs a positive integer, got '"
              << token << "'\n";
    return std::nullopt;
  }
  return static_cast<int>(out);
}

/// Parses one non-negative integer token of a CSV axis flag; reports a
/// descriptive CLI error (matching the binary's other flag diagnostics)
/// on junk or negative input instead of dying on a raw stoll.
std::optional<std::int64_t> parse_axis_int(std::string_view axis,
                                           const std::string& token) {
  std::int64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), out);
  if (ec != std::errc{} || ptr != token.data() + token.size() || out < 0) {
    std::cerr << "error: --" << axis
              << " needs comma-separated non-negative integers, got '"
              << token << "'\n";
    return std::nullopt;
  }
  return out;
}

/// The flags this binary treats as boolean. util::Flags itself parses
/// `--flag token` as token being the flag's value, so a boolean flag
/// placed before a scenario name would swallow it ("p2ps_run --compact
/// fig1", "p2ps_run --sweep fig5 fig8").
constexpr std::string_view kBooleanFlags[] = {
    "list", "help", "compact", "sweep", "mechanics", "strip-mechanics"};

bool is_boolean_flag(std::string_view name) {
  for (const std::string_view flag : kBooleanFlags) {
    if (name == flag) return true;
  }
  return false;
}

bool is_boolean_token(std::string_view token) {
  return token == "true" || token == "1" || token == "yes" ||
         token == "false" || token == "0" || token == "no";
}

/// Positionals in their command-line order, reclaiming tokens that a
/// boolean flag swallowed as its "value" (unless the token really is a
/// boolean literal). Mirrors util::Flags' consumption rules exactly, so
/// `--sweep fig5 fig8` keeps fig5 before fig8 — point order in a sweep
/// report follows the command line.
std::vector<std::string> ordered_positionals(int argc, char** argv) {
  std::vector<std::string> out;
  for (int i = 1; i < argc; ++i) {
    const std::string_view token = argv[i];
    if (token.rfind("--", 0) == 0) {
      const std::string_view body = token.substr(2);
      if (body.find('=') != std::string_view::npos) continue;  // --k=v
      const bool next_is_value =
          i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0;
      if (!next_is_value) continue;
      if (!is_boolean_flag(body) || is_boolean_token(argv[i + 1])) {
        ++i;  // genuinely this flag's value: skip it
      }
      continue;
    }
    out.emplace_back(token);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const p2ps::util::Flags flags(argc, argv);

    // Swallowed-token reclamation happens in ordered_positionals (which
    // preserves command-line order); bool_flag only interprets the value.
    const std::vector<std::string> positionals = ordered_positionals(argc, argv);
    const auto bool_flag = [&](std::string_view flag_name) {
      const auto value = flags.value(flag_name);
      if (!value) return false;
      return !(*value == "false" || *value == "0" || *value == "no");
    };
    const bool list = bool_flag("list");
    const bool help = bool_flag("help");
    const bool compact = bool_flag("compact");
    const bool sweep = bool_flag("sweep");
    const bool strip_mechanics = bool_flag("strip-mechanics");
    if (list) return list_scenarios();
    if (help) return usage(flags.program());

    if (strip_mechanics) {
      // Filter mode: normalize stdin's payload by zeroing the event-core
      // mechanics counters (the shared obs/mechanics_schema.hpp key set)
      // and echo it — the parity normalizer scripts/ci.sh pipes through.
      for (const auto& unknown : flags.unused()) {
        std::cerr << "error: unknown flag --" << unknown << '\n';
        return 2;
      }
      std::ostringstream buffer;
      buffer << std::cin.rdbuf();
      std::cout << p2ps::scenario::strip_event_mechanics(buffer.str());
      return 0;
    }

    // Reject unwritable --out paths before the run — a paper-scale run (or
    // an 8-point sweep) is too expensive to discard on a typoed path — but
    // only after flag validation, so a typoed flag never truncates an
    // existing output file.
    const std::string out_file = flags.get_string("out", "");
    std::ofstream out_stream;
    const auto open_out = [&] {
      if (out_file.empty()) return true;
      out_stream.open(out_file);
      if (!out_stream) {
        std::cerr << "error: cannot open --out file: " << out_file << '\n';
        return false;
      }
      return true;
    };
    p2ps::scenario::Json result;

    if (sweep) {
      // ---- sweep mode: cross product of the axis flags + positionals ----
      p2ps::scenario::SweepSpec spec;
      spec.scenarios =
          p2ps::scenario::split_csv(flags.get_string("scenarios", ""));
      for (const auto& positional : positionals) {
        for (auto& name : p2ps::scenario::split_csv(positional)) {
          spec.scenarios.push_back(std::move(name));
        }
      }
      if (spec.scenarios.empty()) {
        std::cerr << "error: --sweep needs scenario names (positional or"
                     " --scenarios a,b)\n";
        return 2;
      }
      if (const auto seeds = flags.value("seeds")) {
        spec.seeds.clear();
        for (const auto& token : p2ps::scenario::split_csv(*seeds)) {
          const auto seed = parse_axis_int("seeds", token);
          if (!seed) return 2;
          spec.seeds.push_back(static_cast<std::uint64_t>(*seed));
        }
      }
      if (const auto scales = flags.value("scales")) {
        spec.scales.clear();
        for (const auto& token : p2ps::scenario::split_csv(*scales)) {
          const auto scale = parse_axis_int("scales", token);
          if (!scale) return 2;
          spec.scales.push_back(*scale);
        }
      }
      if (const auto backends = flags.value("event-lists")) {
        spec.event_lists.clear();
        for (const auto& token : p2ps::scenario::split_csv(*backends)) {
          const auto kind = parse_backend(token);
          if (!kind) return 2;
          spec.event_lists.push_back(*kind);
        }
      }
      if (const auto latencies = flags.value("latencies")) {
        spec.latencies.clear();
        for (const auto& token : p2ps::scenario::split_csv(*latencies)) {
          const auto kind = parse_latency(token);
          if (!kind) return 2;
          spec.latencies.push_back(*kind);
        }
      }
      if (const auto losses = flags.value("losses")) {
        spec.losses.clear();
        for (const auto& token : p2ps::scenario::split_csv(*losses)) {
          const auto loss = parse_loss("losses", token);
          if (!loss) return 2;
          spec.losses.push_back(*loss);
        }
      }
      if (const auto policies = flags.value("policies")) {
        spec.policies.clear();
        for (const auto& token : p2ps::scenario::split_csv(*policies)) {
          const auto* policy = parse_policy(token);
          if (policy == nullptr) return 2;
          spec.policies.push_back(policy);
        }
      }
      // The timer strategy is event-core mechanics (byte-identical output),
      // so it is a shared setting rather than a sweep axis.
      const std::string sweep_timers = flags.get_string("timers", "");
      if (!sweep_timers.empty()) {
        const auto strategy = parse_timers(sweep_timers);
        if (!strategy) return 2;
        spec.timers = *strategy;
      }
      const auto hardware =
          static_cast<std::int64_t>(std::thread::hardware_concurrency());
      const std::int64_t threads =
          flags.get_int("threads", hardware > 0 ? hardware : 1);
      if (threads < 1) {
        std::cerr << "error: --threads must be >= 1\n";
        return 2;
      }
      for (const auto& unknown : flags.unused()) {
        std::cerr << "error: unknown flag --" << unknown << '\n';
        return 2;
      }
      if (!open_out()) return 1;
      result = p2ps::scenario::run_sweep(spec, static_cast<int>(threads));
    } else {
      // ---- single-run mode ----
      if (positionals.size() != 1) return usage(flags.program());
      const std::string name = positionals.front();

      p2ps::scenario::ScenarioOptions options;
      options.seed = static_cast<std::uint64_t>(flags.get_int("seed", 2002));
      options.scale = flags.get_int("scale", 1);
      if (options.scale < 1) {
        std::cerr << "error: --scale must be >= 1\n";
        return 2;
      }
      const std::string backend = flags.get_string("event-list", "heap");
      const auto kind = parse_backend(backend);
      if (!kind) return 2;
      options.event_list = *kind;

      const std::string timers = flags.get_string("timers", "");
      if (!timers.empty()) {
        const auto strategy = parse_timers(timers);
        if (!strategy) return 2;
        options.timers = *strategy;
      }

      // Message-level knobs; session-level scenarios simply ignore them.
      const std::string latency = flags.get_string("latency", "");
      if (!latency.empty()) {
        const auto model = parse_latency(latency);
        if (!model) return 2;
        options.latency = *model;
      }
      const std::string loss = flags.get_string("loss", "");
      if (!loss.empty()) {
        const auto value = parse_loss("loss", loss);
        if (!value) return 2;
        options.loss = *value;
      }
      const std::string policy_name = flags.get_string("policy", "");
      if (!policy_name.empty()) {
        const auto* policy = parse_policy(policy_name);
        if (policy == nullptr) return 2;
        options.policy = policy;
      }

      // Sharded-engine knobs; non-sharded scenarios simply ignore them.
      const std::string shards = flags.get_string("shards", "");
      if (!shards.empty()) {
        const auto value = parse_positive_int("shards", shards);
        if (!value) return 2;
        options.shards = *value;
      }
      const std::string shard_threads = flags.get_string("shard-threads", "");
      if (!shard_threads.empty()) {
        const auto value = parse_positive_int("shard-threads", shard_threads);
        if (!value) return 2;
        options.shard_threads = *value;
      }
      const std::string fusion = flags.get_string("fusion", "");
      if (!fusion.empty()) {
        const auto value = parse_positive_int("fusion", fusion);
        if (!value) return 2;
        options.fusion = *value;
      }
      options.mechanics = bool_flag("mechanics");

      // Telemetry export (docs/observability.md). Out-of-band by contract:
      // the scenario payload is byte-identical with or without it.
      p2ps::obs::TelemetryOptions telemetry_options;
      telemetry_options.path = flags.get_string("telemetry", "");
      const std::string interval = flags.get_string("telemetry-interval", "");
      if (!interval.empty()) {
        if (telemetry_options.path.empty()) {
          std::cerr << "error: --telemetry-interval needs --telemetry FILE\n";
          return 2;
        }
        std::int64_t ms = 0;
        const auto [ptr, ec] = std::from_chars(
            interval.data(), interval.data() + interval.size(), ms);
        if (ec != std::errc{} || ptr != interval.data() + interval.size() ||
            ms < 0) {
          std::cerr << "error: --telemetry-interval needs a non-negative"
                       " integer (milliseconds), got '"
                    << interval << "'\n";
          return 2;
        }
        telemetry_options.interval_ms = ms;
      }
      const std::string watchdog = flags.get_string("watchdog", "");
      if (!watchdog.empty()) {
        if (telemetry_options.path.empty()) {
          std::cerr << "error: --watchdog needs --telemetry FILE (watchdogs"
                       " evaluate on telemetry snapshots)\n";
          return 2;
        }
        const auto action = p2ps::obs::parse_watchdog_action(watchdog);
        if (!action) {
          std::cerr << "error: --watchdog must be 'warn', 'abort' or 'off',"
                       " got '"
                    << watchdog << "'\n";
          return 2;
        }
        telemetry_options.watchdog.action = *action;
      }

      // Reject typos before the run — a paper-scale simulation is too
      // expensive to discard on one.
      for (const auto& unknown : flags.unused()) {
        std::cerr << "error: unknown flag --" << unknown << '\n';
        return 2;
      }
      if (!open_out()) return 1;

      p2ps::obs::Telemetry telemetry(std::move(telemetry_options));
      if (!telemetry.ok()) {
        std::cerr << "error: cannot open --telemetry file\n";
        return 1;
      }
      if (telemetry.enabled()) options.telemetry = &telemetry;
      result = p2ps::scenario::run_scenario(name, options);
      telemetry.finish();
    }

    const std::string text = compact ? result.dump() : result.dump_pretty();
    std::cout << text << '\n';
    if (out_stream.is_open()) out_stream << text << '\n';
    return 0;
  } catch (const p2ps::obs::WatchdogAbort& e) {
    // The tripped rule already wrote its snapshot line (evidence outlives
    // the abort) and the Telemetry destructor emitted the summary during
    // unwinding; exit 3 distinguishes "the run went bad" from flag/contract
    // errors for soak harnesses.
    std::cerr << "watchdog abort: " << e.what() << '\n';
    return 3;
  } catch (const p2ps::util::ContractViolation& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "fatal: " << e.what() << '\n';
    return 1;
  }
}
