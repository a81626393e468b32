#include "gate.hpp"

#include "engine/digest.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kMaxReasons = 8;

}  // namespace

void Tally::record(std::uint64_t ops, std::uint64_t bad,
                   const std::string& why) {
  attempted += ops;
  failed += bad;
  if (bad > 0 && reasons.size() < kMaxReasons) reasons.push_back(why);
}

void gate_sim_run(Tally& t, const wdc::Metrics& m,
                  std::optional<std::uint64_t>& reference,
                  const std::string& what) {
  const std::uint64_t digest = wdc::metrics_digest(m);
  if (!reference) reference = digest;
  std::string why;
  if (digest != *reference)
    why = "digest differs from the reference run";
  else if (m.stale_serves != 0)
    why = "stale_serves=" + std::to_string(m.stale_serves);
  else if (m.answered == 0)
    why = "no query answered";
  else if (m.answered > m.queries)
    why = "answered " + std::to_string(m.answered) + " > queries " +
          std::to_string(m.queries);
  t.record(1, why.empty() ? 0 : 1, what + ": " + why);
}

void gate_serve(Tally& t, const std::vector<wdc::net::LoadReport>& phases,
                const wdc::net::ServeStats& daemon) {
  wdc::net::LoadReport sum;
  std::uint64_t unanswered = 0;
  for (const auto& r : phases) {
    sum.hellos_acked += r.hellos_acked;
    sum.requests_sent += r.requests_sent;
    sum.polls_sent += r.polls_sent;
    sum.answers += r.answers;
    sum.poll_acks += r.poll_acks;
    sum.sheds_rx += r.sheds_rx;
    sum.decode_errors += r.decode_errors;
    sum.conn_failures += r.conn_failures;
    unanswered += r.dropped();
  }
  const std::uint64_t sent = sum.ops_sent();
  const auto counts = [&] {
    return " (load: sent " + std::to_string(sent) + ", answered " +
           std::to_string(sum.ops_answered()) + "; daemon: requests " +
           std::to_string(daemon.requests + daemon.polls) + ", answers " +
           std::to_string(daemon.answers) + ", dropped_answers " +
           std::to_string(daemon.dropped_answers) + ")";
  };
  std::string why;
  if (sum.requests_sent != daemon.requests || sum.polls_sent != daemon.polls)
    why = "ops sent and ops the daemon saw differ" + counts();
  else if (daemon.answers > sum.ops_answered())
    why = "daemon answered more ops than the load side received" + counts();
  else if (sum.hellos_acked != daemon.hellos)
    why = "hello count mismatch";
  else if (sum.conn_failures || sum.sheds_rx || sum.decode_errors ||
           daemon.dropped_answers || daemon.shed_frames ||
           daemon.shed_connections || daemon.decode_errors ||
           daemon.write_timeouts || daemon.read_timeouts)
    why = "connection failures, sheds, drops, decode errors or timeouts" +
          counts();
  if (!why.empty()) {
    t.record(sent, sent, "serve: " + why);
    return;
  }
  t.record(sent, unanswered,
           "serve: " + std::to_string(unanswered) + " ops unanswered" +
               counts());
}

std::uint64_t answers_withdrawn(const std::vector<wdc::net::LoadReport>& phases,
                                const wdc::net::ServeStats& daemon) {
  std::uint64_t answered = 0;
  for (const auto& r : phases) answered += r.ops_answered();
  return answered > daemon.answers ? answered - daemon.answers : 0;
}

bool gate_selftest(std::string* why) {
  // Clean inputs: the baseline every perturbation must rise above.
  wdc::Metrics clean;
  clean.queries = 100;
  clean.answered = 90;
  wdc::net::LoadReport load;
  load.hellos_acked = 1;
  load.requests_sent = 10;
  load.answers = 10;
  wdc::net::ServeStats daemon;
  daemon.hellos = 1;
  daemon.requests = 10;
  daemon.answers = 10;

  const auto sim_frac = [](const wdc::Metrics& m,
                           std::optional<std::uint64_t> reference) {
    Tally t;
    gate_sim_run(t, m, reference, "selftest");
    return t.fail_frac();
  };
  const auto serve_frac = [](const wdc::net::LoadReport& r,
                             const wdc::net::ServeStats& s) {
    Tally t;
    gate_serve(t, {r}, s);
    return t.fail_frac();
  };

  const double sim_base = sim_frac(clean, std::nullopt);
  const double serve_base = serve_frac(load, daemon);
  if (sim_base != 0.0 || serve_base != 0.0) {
    *why = "gate rejects clean inputs";
    return false;
  }
  wdc::Metrics stale = clean;
  stale.stale_serves = 1;
  if (!(sim_frac(stale, std::nullopt) > sim_base)) {
    *why = "stale_serves=1 did not raise fail_frac";
    return false;
  }
  if (!(sim_frac(clean, wdc::metrics_digest(clean) ^ 1u) > sim_base)) {
    *why = "a digest mismatch did not raise fail_frac";
    return false;
  }
  wdc::net::LoadReport unanswered = load;
  unanswered.requests_sent += 1;
  wdc::net::ServeStats seen = daemon;
  seen.requests += 1;  // the daemon saw it too; only the answer is missing
  if (!(serve_frac(unanswered, seen) > serve_base)) {
    *why = "an unanswered op did not raise fail_frac";
    return false;
  }
  wdc::net::ServeStats unseen = daemon;
  unseen.requests -= 1;  // an op the load side sent never reached the daemon
  wdc::net::ServeStats overclaim = daemon;
  overclaim.answers += 1;  // the daemon claims an answer nobody received
  if (!(serve_frac(load, unseen) > serve_base) ||
      !(serve_frac(load, overclaim) > serve_base)) {
    *why = "a load/daemon counter mismatch did not raise fail_frac";
    return false;
  }
  return true;
}

}  // namespace perfbench
