#include "workloads.hpp"

#include <pthread.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "engine/sharded.hpp"
#include "engine/simulation.hpp"
#include "engine/sweep.hpp"
#include "host.hpp"
#include "net/load_driver.hpp"
#include "net/serve_app.hpp"
#include "probes.hpp"
#include "sweeps/sweeps.hpp"
#include "trace/trace_event.hpp"
#include "trace/trace_io.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using wdc::Metrics;
using wdc::Scenario;

/// Wall time each layer probe runs for (traced pass only).
constexpr double kProbeS = 0.25;

// --- operating points -----------------------------------------------------

/// The grid's replications per cell. One keeps a sweep short enough to repeat
/// several times per run, so run_s is a median, not a single sample.
constexpr unsigned kGridReps = 1;
/// Set-up samples taken after each timed sweep (all 25 cells built once per
/// sample). The host's speed drifts over seconds, so samples spread over the
/// whole run give a steadier median than one batch.
constexpr int kGridSetupSamplesPerSweep = 20;

/// The ROADMAP large-run point: 10^5 clients, 500 items, sleep ratio 0.1,
/// 10 kb/s downlink traffic, with IR every simulated second so queries
/// complete inside the horizon.
constexpr std::uint32_t kCrowdClients = 100000;
constexpr double kCrowdSimS = 3.0;
constexpr double kCrowdWarmupS = 1.0;

constexpr std::uint32_t kShardCells = 8;

/// Serve: closed-loop fleet over a Unix-domain socket. Each connection keeps
/// 16 ops in flight; the daemon runs 10^4 simulated seconds per wall second
/// (bound by the program, not by simulated airtime — see README.md).
constexpr std::size_t kServeInFlight = 16;
constexpr double kServeTimeScale = 1e4;
constexpr std::uint64_t kServeWarmupOpsPerConn = 12500;
constexpr std::uint64_t kServePhaseOpsPerConn = 25000;
constexpr int kServeSetupSamples = 100;
/// Pending-event depth of the daemon's kernel for the kernel probe: it holds
/// only the server's timers, the update and traffic processes and the MAC's
/// in-flight frame (its counters are not exposed).
constexpr std::size_t kServeKernelHeap = 64;

Scenario crowd_scenario(std::uint64_t seed) {
  Scenario s;
  s.protocol = wdc::ProtocolKind::kTs;
  s.seed = seed;
  s.num_clients = kCrowdClients;
  s.db.num_items = 500;
  s.sleep.sleep_ratio = 0.1;
  s.traffic.offered_bps = 10e3;
  s.proto.ir_interval_s = 1.0;
  s.sim_time_s = kCrowdSimS;
  s.warmup_s = kCrowdWarmupS;
  return s;
}

Scenario sharded_scenario(std::uint64_t seed, unsigned threads) {
  Scenario s = crowd_scenario(seed);
  s.shard_cells = kShardCells;
  s.shards = kShardCells;
  s.shard_threads = threads;
  return s;
}

// --- metric helpers -------------------------------------------------------

void put(std::vector<Metric>& v, const std::string& name, double value,
         const std::string& unit) {
  v.push_back(Metric{name, value, unit});
}

/// The end-to-end set every workload reports (BENCHMARK.json end_to_end).
/// `peak_kb` is ru_maxrss right after the first timed unit: later repeats
/// only add allocator fragmentation, and their count varies with speed.
void put_e2e(Result& r, const std::vector<double>& setup,
             const std::vector<double>& runs, double ops, double peak_kb) {
  r.setup_samples = setup;
  r.run_samples = runs;
  const double run_s = median(runs);
  put(r.e2e, "setup_s", median(setup), "s");
  put(r.e2e, "run_s", run_s, "s");
  put(r.e2e, "ops_per_s", ops / run_s, "1/s");
  put(r.e2e, "peak_rss_mb", peak_kb / 1024.0, "MB");
}

/// Layer counters summed over simulation runs.
struct SimCounters {
  double fired = 0, cancelled = 0, heap_peak = 0;
  double frames = 0, frames_report = 0, frames_item = 0;
  double hits = 0, misses = 0, digests_applied = 0, uplink_requests = 0,
         coalesced = 0;
  double listener_frames = 0;  ///< Σ frames × clients of each run

  void add(const Metrics& m, double clients) {
    fired += static_cast<double>(m.kernel.fired);
    cancelled += static_cast<double>(m.kernel.cancelled);
    heap_peak = std::max(heap_peak, static_cast<double>(m.kernel.heap_peak));
    const double f = static_cast<double>(
        m.kernel.scheduled_by_prio[static_cast<std::size_t>(
            wdc::EventPriority::kTxDone)]);
    frames += f;
    frames_report += static_cast<double>(m.reports_sent + m.minis_sent);
    frames_item += static_cast<double>(m.item_broadcasts);
    hits += static_cast<double>(m.hits);
    misses += static_cast<double>(m.misses);
    digests_applied += static_cast<double>(m.digests_applied);
    uplink_requests += static_cast<double>(m.uplink_requests);
    coalesced += static_cast<double>(m.coalesced_requests);
    listener_frames += f * clients;
  }
};

/// Every per-layer metric, zero until a workload fills it: each traced run
/// reports the full BENCHMARK.json set, and a layer the workload does not
/// exercise reads 0. The net.* set only serve fills, and only serve emits.
struct Layers {
  double sweep_busy_frac = 0, sweep_cell_s_p50 = 0, sweep_cell_s_max = 0;
  double setup_us_per_client = 0, rss_kb_per_client = 0;
  double epoch_s_p50 = 0, epoch_s_max = 0, sharded_cpu_util = 0;
  SimCounters sim;
  double run_wall_s = 0;  ///< wall time the sim counters were gathered over
  double ns_per_event = 0, snr_db_ns = 0, fanout_ns = 0, revalidate_ns = 0;
  double report_mb_s = 0, serve_mb_s = 0;
  double items_per_op = 0, reports_per_op = 0, data_per_op = 0;
  double daemon_cpu_us = 0, load_cpu_us = 0, ctx_per_op = 0;
  double shed_frames = 0, write_timeouts = 0, dropped_answers = 0;
  double answers_withdrawn = 0;
  double uplink_ms = 0, serve_ms = 0, queue_ms = 0, residual_ms = 0;
  double latency_p50_ms = 0, latency_p99_ms = 0;

  void emit(std::vector<Metric>& v) const {
    put(v, "engine.sweep_busy_frac", sweep_busy_frac, "ratio");
    put(v, "engine.sweep_cell_s_p50", sweep_cell_s_p50, "s");
    put(v, "engine.sweep_cell_s_max", sweep_cell_s_max, "s");
    put(v, "engine.setup_us_per_client", setup_us_per_client, "us");
    put(v, "engine.rss_kb_per_client", rss_kb_per_client, "KB");
    put(v, "engine.epoch_s_p50", epoch_s_p50, "s");
    put(v, "engine.epoch_s_max", epoch_s_max, "s");
    put(v, "engine.sharded_cpu_util", sharded_cpu_util, "ratio");
    put(v, "sim.events_fired", sim.fired, "count");
    put(v, "sim.events_cancelled", sim.cancelled, "count");
    put(v, "sim.heap_peak", sim.heap_peak, "count");
    put(v, "sim.ns_per_event", ns_per_event, "ns");
    put(v, "channel.snr_db_ns", snr_db_ns, "ns");
    put(v, "mac.frames", sim.frames, "count");
    put(v, "mac.frames_report", sim.frames_report, "count");
    put(v, "mac.frames_item", sim.frames_item, "count");
    put(v, "mac.ns_per_listener_frame",
        sim.listener_frames > 0 ? run_wall_s * 1e9 / sim.listener_frames : 0.0,
        "ns");
    put(v, "mac.fanout_ns_per_listener", fanout_ns, "ns");
    put(v, "cache.hits", sim.hits, "count");
    put(v, "cache.misses", sim.misses, "count");
    put(v, "cache.revalidate_all_ns", revalidate_ns, "ns");
    put(v, "proto.digests_applied", sim.digests_applied, "count");
    put(v, "proto.uplink_requests", sim.uplink_requests, "count");
    put(v, "proto.coalesced_requests", sim.coalesced, "count");
    put(v, "proto.report_codec_mb_s", report_mb_s, "MB/s");
    put(v, "proto.serve_codec_mb_s", serve_mb_s, "MB/s");
  }

  void emit_net(std::vector<Metric>& v) const {
    put(v, "net.items_rx_per_op", items_per_op, "ratio");
    put(v, "net.reports_rx_per_op", reports_per_op, "ratio");
    put(v, "net.data_rx_per_op", data_per_op, "ratio");
    put(v, "net.daemon_cpu_us_per_op", daemon_cpu_us, "us");
    put(v, "net.load_cpu_us_per_op", load_cpu_us, "us");
    put(v, "net.ctx_switches_per_op", ctx_per_op, "ratio");
    put(v, "net.shed_frames", shed_frames, "count");
    put(v, "net.write_timeouts", write_timeouts, "count");
    put(v, "net.dropped_answers", dropped_answers, "count");
    put(v, "net.answers_withdrawn", answers_withdrawn, "count");
    put(v, "net.uplink_ms_p50", uplink_ms, "ms");
    put(v, "net.serve_ms_p50", serve_ms, "ms");
    put(v, "net.queue_ms_p50", queue_ms, "ms");
    put(v, "net.residual_ms_p50", residual_ms, "ms");
    put(v, "net.latency_p50_ms", latency_p50_ms, "ms");
    put(v, "net.latency_p99_ms", latency_p99_ms, "ms");
  }
};

/// Run the layer probes shaped from `sc` (traced pass only).
void run_probes(Ctx& ctx, const Scenario& sc, std::size_t heap,
                std::size_t links, std::size_t ports, Layers& L) {
  SpanLog& spans = *ctx.spans;
  {
    SpanLog::Scope s(spans, "probe.kernel");
    L.ns_per_event = probe_kernel_ns_per_event(heap, kProbeS);
  }
  {
    SpanLog::Scope s(spans, "probe.snr_db");
    L.snr_db_ns = probe_snr_db_ns(sc, links, kProbeS);
  }
  {
    SpanLog::Scope s(spans, "probe.mac_fanout");
    L.fanout_ns = probe_mac_fanout_ns(sc, ports, kProbeS);
  }
  {
    SpanLog::Scope s(spans, "probe.revalidate_all");
    L.revalidate_ns = probe_revalidate_all_ns(sc, kProbeS);
  }
  {
    SpanLog::Scope s(spans, "probe.report_codec");
    L.report_mb_s = probe_report_codec_mb_s(sc, kProbeS);
  }
  {
    SpanLog::Scope s(spans, "probe.serve_codec");
    L.serve_mb_s = probe_serve_codec_mb_s(sc, kProbeS);
  }
}

/// Peak resident set right after the process's first timed unit; a traced
/// pass reuses the untraced pass's reading.
double first_unit_peak_kb(Ctx& ctx) {
  if (ctx.first_peak_kb == 0.0) ctx.first_peak_kb = peak_rss_kb();
  return ctx.first_peak_kb;
}

std::optional<std::uint64_t>& reference_slot(Ctx& ctx, std::size_t i) {
  if (ctx.reference.size() <= i) ctx.reference.resize(i + 1);
  return ctx.reference[i];
}

// --- grid -----------------------------------------------------------------

Result run_grid(Ctx& ctx) {
  Result r;
  SpanLog& spans = *ctx.spans;
  const wdc::SweepSpec* spec = wdc::sweeps::find("fig1");
  if (spec == nullptr) throw std::runtime_error("fig1 sweep not registered");
  wdc::SweepOptions opts;
  opts.reps = kGridReps;
  opts.threads = ctx.threads;
  opts.base = wdc::sweeps::default_scenario();
  opts.base.seed = ctx.seed;
  if (spec->adjust_base) spec->adjust_base(opts.base);
  const std::size_t np = spec->axis.values.size();
  const std::size_t ncells = spec->variants.size() * np;

  // Warm-up: a short sweep on the same pool shape, discarded.
  {
    SpanLog::Scope s(spans, "warmup.run_sweep");
    wdc::SweepOptions warm = opts;
    warm.base.sim_time_s = 400.0;
    warm.base.warmup_s = 100.0;
    wdc::run_sweep(*spec, warm);
  }

  // Set-up: build every cell's simulation (its first replication), as the
  // pool does before running it.
  std::vector<double> setup;
  const auto setup_batch = [&] {
    for (int k = 0; k < kGridSetupSamplesPerSweep; ++k) {
      SpanLog::Scope s(spans, "setup.cells");
      const double t0 = now_s();
      for (std::size_t c = 0; c < ncells; ++c) {
        Scenario sc = opts.base;
        if (spec->variants[c / np].apply) spec->variants[c / np].apply(sc);
        if (spec->axis.apply) spec->axis.apply(sc, spec->axis.values[c % np]);
        sc.seed = wdc::SplitMix64(sc.seed).next();
        SpanLog::Scope cs(spans, "Simulation::Simulation");
        wdc::Simulation sim(sc);
      }
      setup.push_back(now_s() - t0);
    }
  };

  std::vector<double> walls, cell_walls;
  double queries = 0, busy = 0, peak_kb = 0;
  SimCounters counters;
  const double t_start = now_s();
  do {
    wdc::SweepGrid grid;
    {
      SpanLog::Scope s(spans, "run_sweep");
      const int parent = s.id();
      grid = wdc::run_sweep(
          *spec, opts, [&spans, parent](const wdc::SweepProgress& p) {
            const double end = now_s();
            spans.add("sweep.cell", end - p.cell->wall_s, end, parent);
          });
    }
    walls.push_back(grid.wall_s);
    if (walls.size() == 1) peak_kb = first_unit_peak_kb(ctx);
    setup_batch();
    queries = 0;
    double cell_sum = 0;
    std::size_t rep = 0;
    for (const wdc::SweepCell& cell : grid.cells) {
      cell_walls.push_back(cell.wall_s);
      cell_sum += cell.wall_s;
      for (const Metrics& m : cell.reps) {
        gate_sim_run(r.tally, m, reference_slot(ctx, rep++),
                     "grid " + grid.variant_names[cell.variant] +
                         " L=" + std::to_string(cell.x));
        queries += static_cast<double>(m.queries);
        if (walls.size() == 1) counters.add(m, opts.base.num_clients);
      }
    }
    busy += cell_sum / (static_cast<double>(grid.threads_used) * grid.wall_s);
  } while (now_s() - t_start < ctx.seconds || walls.size() < 2);

  const double setup_s = median(setup);
  put_e2e(r, setup, walls, queries, peak_kb);
  r.report = r.e2e;
  put(r.report, "fail_frac", r.tally.fail_frac(), "ratio");

  if (ctx.traced()) {
    Layers L;
    L.sweep_busy_frac = busy / static_cast<double>(walls.size());
    L.sweep_cell_s_p50 = median(cell_walls);
    L.sweep_cell_s_max =
        *std::max_element(cell_walls.begin(), cell_walls.end());
    L.setup_us_per_client =
        setup_s * 1e6 /
        (static_cast<double>(ncells) * opts.base.num_clients);
    L.sim = counters;
    L.run_wall_s = 0;
    for (std::size_t i = 0; i < ncells; ++i) L.run_wall_s += cell_walls[i];
    run_probes(ctx, opts.base, static_cast<std::size_t>(counters.heap_peak),
               opts.base.num_clients, opts.base.num_clients, L);
    L.emit(r.layer);
  }
  return r;
}

// --- crowd ----------------------------------------------------------------

Result run_crowd(Ctx& ctx) {
  Result r;
  SpanLog& spans = *ctx.spans;
  // Each repeat runs its own scenario seed, drawn from the workload seed: a
  // 3-sim-s run holds only ~20 frames, so one seed's frame count would move
  // run_s by ±10%; the median over several seeds does not.
  wdc::SplitMix64 seeds(ctx.seed);
  Scenario sc = crowd_scenario(seeds.next());
  const double L_s = sc.proto.ir_interval_s;
  const std::size_t known = ctx.reference.size();

  std::vector<double> setup, walls, epochs, queries;
  double peak_kb = 0;
  Metrics first;
  const double t_start = now_s();
  do {
    if (!walls.empty()) sc.seed = seeds.next();
    SpanLog::Scope repeat(spans, "crowd.repeat");
    double t0 = now_s();
    auto sim = [&] {
      SpanLog::Scope s(spans, "Simulation::Simulation");
      return std::make_unique<wdc::Simulation>(sc);
    }();
    setup.push_back(now_s() - t0);

    Metrics m;
    t0 = now_s();
    if (ctx.traced()) {
      // Slice the run at every IR tick: the epochs the sharded core steps.
      for (double t = L_s; t < sc.sim_time_s + 1e-9; t += L_s) {
        SpanLog::Scope s(spans, "Simulation::run_until");
        const double e0 = now_s();
        sim->run_until(std::min(t, sc.sim_time_s));
        epochs.push_back(now_s() - e0);
      }
      sim->simulator().trace().finalize();
      SpanLog::Scope s(spans, "Simulation::collect");
      m = sim->collect();
    } else {
      m = sim->run();
    }
    walls.push_back(now_s() - t0);
    gate_sim_run(r.tally, m, reference_slot(ctx, walls.size() - 1),
                 "crowd seed " + std::to_string(sc.seed));
    queries.push_back(static_cast<double>(m.queries));
    if (walls.size() == 1) {
      first = m;
      peak_kb = first_unit_peak_kb(ctx);
    }
    SpanLog::Scope s(spans, "Simulation::~Simulation");
    sim.reset();
    // The traced pass stops where the untraced one did, so every traced run
    // has a reference digest.
  } while ((now_s() - t_start < ctx.seconds || walls.size() < 2) &&
           (known == 0 || walls.size() < known));

  const double setup_s = median(setup);
  const double rss_kb_per_client = (peak_kb - ctx.rss0_kb) / sc.num_clients;
  put_e2e(r, setup, walls, median(queries), peak_kb);
  r.report = r.e2e;
  put(r.report, "rss_kb_per_client", rss_kb_per_client, "KB");
  put(r.report, "fail_frac", r.tally.fail_frac(), "ratio");

  if (ctx.traced()) {
    Layers L;
    L.setup_us_per_client = setup_s * 1e6 / sc.num_clients;
    L.rss_kb_per_client = rss_kb_per_client;
    L.epoch_s_p50 = median(epochs);
    L.epoch_s_max = *std::max_element(epochs.begin(), epochs.end());
    L.sim.add(first, sc.num_clients);
    L.run_wall_s = walls.front();
    run_probes(ctx, sc, static_cast<std::size_t>(L.sim.heap_peak),
               sc.num_clients, sc.num_clients, L);
    L.emit(r.layer);
  }
  return r;
}

// --- crowd_sharded --------------------------------------------------------

/// Build every cell of a sharded run through the public cell constructor, on
/// the same cell → thread map ShardedSimulation::run uses, and drop them.
double build_cells(const Scenario& sc) {
  const std::uint32_t threads = std::max<std::uint32_t>(sc.shard_threads, 1);
  std::vector<std::unique_ptr<wdc::Simulation>> cells(sc.shard_cells);
  const double t0 = now_s();
  std::vector<std::thread> pool;
  for (std::uint32_t t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      for (std::uint32_t c = 0; c < sc.shard_cells; ++c) {
        if ((c % sc.shards) % threads != t) continue;
        cells[c] = std::make_unique<wdc::Simulation>(
            sc, wdc::ShardedSimulation::cell_span(c, sc.shard_cells,
                                                  sc.num_clients));
      }
    });
  for (auto& th : pool) th.join();
  return now_s() - t0;
}

Result run_crowd_sharded(Ctx& ctx) {
  Result r;
  SpanLog& spans = *ctx.spans;
  // Each repeat runs its own scenario seed, drawn from the workload seed, as
  // crowd's repeats do.
  wdc::SplitMix64 seeds(ctx.seed);
  Scenario sc = sharded_scenario(seeds.next(), ctx.threads);
  const std::size_t known = ctx.reference.size();

  // Warm-up: one full run on the same thread layout, discarded (a shorter
  // one leaves the first timed run ~1.5x slower). It runs the first repeat's
  // seed, so that repeat must reproduce its digest.
  {
    SpanLog::Scope s(spans, "warmup.ShardedSimulation::run");
    gate_sim_run(r.tally, wdc::ShardedSimulation(sc).run(),
                 reference_slot(ctx, 0),
                 "crowd_sharded warm-up seed " + std::to_string(sc.seed));
  }

  std::vector<double> setup, walls, queries;
  double cpu = 0, peak_kb = 0;
  Metrics first;
  const double t_start = now_s();
  do {
    if (!walls.empty()) sc.seed = seeds.next();
    const double c0 = process_cpu_s();
    const double t0 = now_s();
    Metrics m;
    std::unique_ptr<wdc::ShardedSimulation> sharded;
    {
      SpanLog::Scope s(spans, "ShardedSimulation::run");
      sharded = std::make_unique<wdc::ShardedSimulation>(sc);
      m = sharded->run();
    }
    walls.push_back(now_s() - t0);
    cpu += process_cpu_s() - c0;
    sharded.reset();
    gate_sim_run(r.tally, m, reference_slot(ctx, walls.size() - 1),
                 "crowd_sharded seed " + std::to_string(sc.seed));
    queries.push_back(static_cast<double>(m.queries));
    if (walls.size() == 1) {
      first = m;
      peak_kb = first_unit_peak_kb(ctx);
    }
    // Set-up: the cells run() builds internally, built alone, once after
    // every timed run (after the first, so they cannot raise the peak it
    // reports), so the median spans the run as run_s's does.
    SpanLog::Scope s(spans, "setup.cells");
    setup.push_back(build_cells(sc));
    // The traced pass stops where the untraced one did, so every traced run
    // has a reference digest.
  } while ((now_s() - t_start < ctx.seconds || walls.size() < 2) &&
           (known == 0 || walls.size() < known));

  const double setup_s = median(setup);
  const double rss_kb_per_client = (peak_kb - ctx.rss0_kb) / sc.num_clients;
  put_e2e(r, setup, walls, median(queries), peak_kb);
  r.report = r.e2e;
  put(r.report, "rss_kb_per_client", rss_kb_per_client, "KB");
  put(r.report, "fail_frac", r.tally.fail_frac(), "ratio");

  if (ctx.traced()) {
    Layers L;
    L.setup_us_per_client = setup_s * 1e6 / sc.num_clients;
    L.rss_kb_per_client = rss_kb_per_client;
    double wall_sum = 0;
    for (const double w : walls) wall_sum += w;
    L.sharded_cpu_util = cpu / (sc.shard_threads * wall_sum);
    L.sim.add(first, sc.num_clients / static_cast<double>(sc.shard_cells));
    L.run_wall_s = walls.front();
    const std::size_t per_cell = sc.num_clients / sc.shard_cells;
    run_probes(ctx, sc, static_cast<std::size_t>(L.sim.heap_peak),
               sc.num_clients, per_cell, L);
    L.emit(r.layer);
  }
  return r;
}

// --- serve ----------------------------------------------------------------

/// ServeApp::run on its own thread; the destructor stops and joins it, so the
/// thread never outlives the app on any path.
class DaemonThread {
 public:
  explicit DaemonThread(wdc::net::ServeApp& app) : app_(app) {
    thread_ = std::thread([this] {
      tid_ = static_cast<long>(::syscall(SYS_gettid));
      started_ = true;
      app_.run();
    });
    handle_ = thread_.native_handle();
    while (!started_) std::this_thread::yield();
  }
  ~DaemonThread() { stop(); }
  DaemonThread(const DaemonThread&) = delete;
  DaemonThread& operator=(const DaemonThread&) = delete;

  void stop() {
    if (!thread_.joinable()) return;
    app_.request_stop();
    thread_.join();
  }
  /// CPU time of the daemon thread; call only before stop().
  double cpu_s() const {
    clockid_t cid{};
    if (::pthread_getcpuclockid(handle_, &cid) != 0) return 0.0;
    timespec ts{};
    ::clock_gettime(cid, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
  }
  /// Voluntary + involuntary context switches, from /proc.
  std::uint64_t ctx_switches() const {
    std::ifstream status("/proc/self/task/" + std::to_string(tid_) +
                         "/status");
    std::uint64_t total = 0;
    for (std::string line; std::getline(status, line);) {
      if (line.find("ctxt_switches:") == std::string::npos) continue;
      total += std::stoull(line.substr(line.find(':') + 1));
    }
    return total;
  }

 private:
  wdc::net::ServeApp& app_;
  std::atomic<bool> started_{false};
  long tid_ = 0;
  pthread_t handle_{};
  std::thread thread_;
};

Result run_serve(Ctx& ctx) {
  Result r;
  SpanLog& spans = *ctx.spans;
  wdc::net::ServeConfig cfg;
  cfg.unix_path = ctx.work_dir + "/serve.sock";
  cfg.time_scale = kServeTimeScale;
  cfg.scenario.protocol = wdc::ProtocolKind::kUir;
  cfg.scenario.seed = ctx.seed;
  const std::size_t conns = ctx.threads;

  // Set-up: construct and start the daemon (listener + protocol world).
  std::vector<double> setup;
  for (int k = 0; k < kServeSetupSamples; ++k) {
    SpanLog::Scope s(spans, "ServeApp::start");
    std::string error;
    const double t0 = now_s();
    wdc::net::ServeApp app(cfg);
    if (!app.start(&error)) throw std::runtime_error("serve start: " + error);
    setup.push_back(now_s() - t0);
  }

  if (ctx.traced()) cfg.trace_path = ctx.work_dir + "/serve.wdct";
  auto app = std::make_unique<wdc::net::ServeApp>(cfg);
  {
    SpanLog::Scope s(spans, "ServeApp::start");
    std::string error;
    if (!app->start(&error)) throw std::runtime_error("serve start: " + error);
  }

  std::vector<wdc::net::LoadReport> phases;
  std::vector<double> walls, latencies;
  double measured_ops = 0, items = 0, reports = 0, data = 0;
  double daemon_cpu = 0, load_cpu = 0, ctx_sw = 0, measure_t0 = 0;
  double peak_kb = 0;
  bool load_ok = true;
  wdc::SplitMix64 load_seeds(ctx.seed);
  {
    DaemonThread daemon(*app);
    const auto phase = [&](std::uint64_t per_conn, const char* name) {
      wdc::net::LoadConfig lc;
      lc.unix_path = cfg.unix_path;
      lc.connections = conns;
      lc.max_in_flight = kServeInFlight;
      lc.requests_per_conn = per_conn;
      lc.seed = load_seeds.next();
      wdc::net::LoadDriver fleet(lc);
      SpanLog::Scope s(spans, name);
      std::string error;
      const double t0 = now_s();
      if (!fleet.run(&error)) {
        load_ok = false;
        r.tally.reasons.push_back("serve: load fleet: " + error);
      }
      walls.push_back(now_s() - t0);
      phases.push_back(fleet.report());
    };
    phase(kServeWarmupOpsPerConn, "warmup.LoadDriver::run");
    walls.clear();

    const double d_cpu0 = daemon.cpu_s();
    const double l_cpu0 = thread_cpu_s();
    const double ctx0 = static_cast<double>(daemon.ctx_switches() +
                                            thread_ctx_switches());
    measure_t0 = now_s();
    do {
      phase(kServePhaseOpsPerConn, "LoadDriver::run");
      if (walls.size() == 1) peak_kb = first_unit_peak_kb(ctx);
      const auto& rep = phases.back();
      measured_ops += static_cast<double>(rep.ops_answered());
      items += static_cast<double>(rep.items_rx);
      reports += static_cast<double>(rep.reports_rx);
      data += static_cast<double>(rep.data_rx);
      latencies.insert(latencies.end(), rep.latencies.begin(),
                       rep.latencies.end());
    } while (load_ok && (now_s() - measure_t0 < ctx.seconds ||
                         walls.size() < 3));
    daemon_cpu = daemon.cpu_s() - d_cpu0;
    load_cpu = thread_cpu_s() - l_cpu0;
    ctx_sw = static_cast<double>(daemon.ctx_switches() +
                                 thread_ctx_switches()) -
             ctx0;
    SpanLog::Scope s(spans, "ServeApp::stop+join");
    daemon.stop();
  }
  // Destroying the daemon closes its .wdct, so the traced pass reads it whole.
  const wdc::net::ServeStats stats = app->stats();
  app.reset();
  ::unlink(cfg.unix_path.c_str());

  gate_serve(r.tally, phases, stats);
  const auto withdrawn =
      static_cast<double>(answers_withdrawn(phases, stats));
  if (!load_ok && r.tally.failed == 0) r.tally.failed = r.tally.attempted;

  const double ops_per_phase =
      static_cast<double>(kServePhaseOpsPerConn * conns);
  put_e2e(r, setup, walls, ops_per_phase, peak_kb);
  r.report = r.e2e;
  const double p50 = quantile(latencies, 0.5) * 1e3;
  const double p99 = quantile(latencies, 0.99) * 1e3;
  put(r.report, "latency_p50_ms", p50, "ms");
  put(r.report, "latency_p99_ms", p99, "ms");
  put(r.report, "latency_samples", static_cast<double>(latencies.size()),
      "count");
  put(r.report, "answers_withdrawn", withdrawn, "count");
  put(r.report, "fail_frac", r.tally.fail_frac(), "ratio");

  if (ctx.traced()) {
    Layers L;
    const double ops = std::max(measured_ops, 1.0);
    L.setup_us_per_client = median(setup) * 1e6 / cfg.scenario.num_clients;
    L.items_per_op = items / ops;
    L.reports_per_op = reports / ops;
    L.data_per_op = data / ops;
    L.daemon_cpu_us = daemon_cpu * 1e6 / ops;
    L.load_cpu_us = load_cpu * 1e6 / ops;
    L.ctx_per_op = ctx_sw / ops;
    L.shed_frames = static_cast<double>(stats.shed_frames);
    L.write_timeouts = static_cast<double>(stats.write_timeouts);
    L.dropped_answers = static_cast<double>(stats.dropped_answers);
    L.answers_withdrawn = withdrawn;
    L.latency_p50_ms = p50;
    L.latency_p99_ms = p99;
    // The daemon's own measured decomposition of each answer, from its
    // .wdct, over the measured phases only.
    wdc::TraceFile trace;
    std::string error;
    if (!wdc::read_trace_file(cfg.trace_path, &trace, &error))
      throw std::runtime_error("serve trace: " + error);
    std::vector<double> up, sv, qu, re;
    for (const wdc::TraceEvent& ev : trace.events) {
      if (ev.kind != static_cast<std::uint8_t>(wdc::TraceEventKind::kAnswer) ||
          ev.t < measure_t0)
        continue;
      sv.push_back(static_cast<double>(ev.a) * 1e3);
      up.push_back(static_cast<double>(ev.b) * 1e3);
      qu.push_back(static_cast<double>(ev.c) * 1e3);
      re.push_back(static_cast<double>(ev.d) * 1e3);
    }
    L.uplink_ms = median(up);
    L.serve_ms = median(sv);
    L.queue_ms = median(qu);
    L.residual_ms = median(re);
    // TCP replaces the fading channel: the daemon's links are fixed-SNR.
    Scenario probe = cfg.scenario;
    probe.fading.model = wdc::FadingModel::kNone;
    probe.mean_snr_db = cfg.link_snr_db;
    run_probes(ctx, probe, kServeKernelHeap, cfg.scenario.num_clients, conns,
               L);
    L.emit(r.layer);
    L.emit_net(r.layer);
    ::unlink(cfg.trace_path.c_str());
  }
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"grid", "crowd",
                                                 "crowd_sharded", "serve"};
  return names;
}

Result run_workload(const std::string& name, Ctx& ctx) {
  if (name == "grid") return run_grid(ctx);
  if (name == "crowd") return run_crowd(ctx);
  if (name == "crowd_sharded") return run_crowd_sharded(ctx);
  if (name == "serve") return run_serve(ctx);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
