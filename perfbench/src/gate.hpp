#ifndef PERFBENCH_GATE_HPP
#define PERFBENCH_GATE_HPP

/// @file gate.hpp
/// The correctness gate. Every check counts into a Tally (attempted/failed, so
/// fail_frac = failed / attempted) instead of aborting, and the first few
/// failure reasons are kept for the report.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/metrics.hpp"
#include "net/load_driver.hpp"
#include "net/serve_app.hpp"

namespace perfbench {

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;  ///< capped at a handful

  void record(std::uint64_t ops, std::uint64_t bad, const std::string& why);
  double fail_frac() const {
    return attempted ? static_cast<double>(failed) /
                           static_cast<double>(attempted)
                     : 0.0;
  }
};

/// One simulation run (a grid replication, or a whole crowd run): zero stale
/// serves, at least one answer, no more answers than queries, and the same
/// digest as every other run of the same scenario — repeats and the traced
/// run included. An empty `reference` takes this run's digest. Counts one
/// attempt; `what` labels a failure.
void gate_sim_run(Tally& t, const wdc::Metrics& m,
                  std::optional<std::uint64_t>& reference,
                  const std::string& what);

/// The serve run, reconciled across the process boundary: load-side counters
/// summed over every load phase (warm-up and measured) against the daemon's.
/// Ops sent must equal ops the daemon saw, the daemon may not claim more
/// answers than the load side received, and nothing may be shed, dropped,
/// undecodable or timed out. Counts every sent op; unanswered ops fail
/// individually, and any mismatch fails the whole run.
///
/// Answers need not be equal: a broadcast item answers every pending request
/// for it on a connection, including one the daemon has not read yet, and the
/// daemon releases such a request uncounted when the connection closes in
/// order. answers_withdrawn() reports that difference.
void gate_serve(Tally& t, const std::vector<wdc::net::LoadReport>& phases,
                const wdc::net::ServeStats& daemon);

/// Load-side answers minus daemon answers: requests a coalesced broadcast
/// answered before the daemon read them, released at orderly close.
std::uint64_t answers_withdrawn(const std::vector<wdc::net::LoadReport>& phases,
                                const wdc::net::ServeStats& daemon);

/// Feed the gate known-bad inputs (a stale serve, a digest mismatch, an
/// unanswered op, a load/daemon mismatch) and check fail_frac rises each
/// time. False + reason when the gate fails to bite.
bool gate_selftest(std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_GATE_HPP
