#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

/// @file workloads.hpp
/// The four workloads. Each drives the simulator only through its public API
/// (engine, sweeps, net), times the work, checks the outputs through the gate,
/// and, on the traced pass, records spans around its calls plus the counters
/// and probes of every layer.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gate.hpp"
#include "spans.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Ctx {
  std::uint64_t seed = 1;
  double seconds = 10.0;      ///< wall-time budget of the timed phase
  unsigned threads = 1;       ///< worker threads / connections (≤ nproc)
  std::string work_dir;       ///< run files (socket, measured trace)
  SpanLog* spans = nullptr;   ///< enabled on the traced pass only
  double rss0_kb = 0.0;       ///< resident set at process start
  double first_peak_kb = 0.0; ///< peak after the first timed unit (0 = not yet)
  /// Simulation digests every run must reproduce (one per grid replication,
  /// one per crowd run); empty = the first timed unit establishes them, so a
  /// second pass with the same Ctx checks against the first.
  std::vector<std::optional<std::uint64_t>> reference;

  bool traced() const { return spans != nullptr && spans->enabled(); }
};

struct Result {
  Tally tally;
  /// The end-to-end metrics of BENCHMARK.json, same names for every workload.
  std::vector<Metric> e2e;
  /// Every metric this workload reports, by the names its documentation uses
  /// (printed, and recorded in the result file).
  std::vector<Metric> report;
  /// Per-layer metrics (traced pass only).
  std::vector<Metric> layer;
  /// Every timed sample behind the setup_s / run_s medians.
  std::vector<double> setup_samples, run_samples;
};

/// Workload names: BENCHMARK.json's, in its order, then serve, which runs
/// on request but is not listed there (see README.md).
const std::vector<std::string>& workload_names();

/// Run one workload; throws std::invalid_argument on an unknown name.
Result run_workload(const std::string& name, Ctx& ctx);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP
