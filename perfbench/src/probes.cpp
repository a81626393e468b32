#include "probes.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cache/lru_cache.hpp"
#include "channel/snr_process.hpp"
#include "host.hpp"
#include "mac/broadcast_mac.hpp"
#include "proto/report_codec.hpp"
#include "proto/reports.hpp"
#include "proto/serve_codec.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

/// Fixed probe seed: probes measure cost, and their inputs must not vary with
/// the workload seed.
constexpr std::uint64_t kProbeSeed = 0x5eed;

/// Self-rescheduling event: keeps the pending set at a constant depth, so
/// every fire is paired with exactly one schedule.
struct Ticker {
  wdc::Simulator* sim;
  std::uint64_t* fired;
  std::uint64_t* lcg;
  void operator()() const {
    ++*fired;
    *lcg = *lcg * 6364136223846793005ull + 1442695040888963407ull;
    const double gap = 1.0 + static_cast<double>(*lcg >> 40) * 0x1p-24;
    sim->schedule_in(gap, Ticker{*this});
  }
};

std::vector<std::unique_ptr<wdc::SnrProcess>> make_links(
    const wdc::Scenario& sc, std::size_t n) {
  wdc::Rng rng(kProbeSeed);
  std::vector<std::unique_ptr<wdc::SnrProcess>> links;
  links.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    wdc::Rng link_rng = rng.split();
    links.push_back(
        wdc::make_snr_process(sc.fading, sc.mean_snr_db, link_rng));
  }
  return links;
}

std::shared_ptr<wdc::FullReport> window_report(const wdc::Scenario& sc) {
  const double window = sc.proto.window_mult * sc.proto.ir_interval_s;
  const auto n = static_cast<std::size_t>(
      std::max(1.0, sc.db.update_rate * window));
  auto r = std::make_shared<wdc::FullReport>();
  r->stamp = 1000.0;
  r->window_start = r->stamp - window;
  const std::uint32_t items = std::max<std::uint32_t>(1, sc.db.num_items);
  const double step = window / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i)
    r->updates.emplace_back(
        static_cast<wdc::ItemId>(i % items),
        r->window_start + step * static_cast<double>(i + 1));
  return r;
}

}  // namespace

double probe_kernel_ns_per_event(std::size_t heap, double min_s) {
  wdc::Simulator sim;
  std::uint64_t fired = 0;
  std::uint64_t lcg = kProbeSeed;
  for (std::size_t i = 0; i < std::max<std::size_t>(heap, 1); ++i)
    sim.schedule_at(static_cast<double>(i % 1024) / 1024.0,
                    Ticker{&sim, &fired, &lcg});
  sim.run_until(2.0);  // settle: every initial event has fired once
  const std::uint64_t fired0 = fired;
  const double t0 = now_s();
  double horizon = 2.0;
  do {
    horizon += 1.0;
    sim.run_until(horizon);
  } while (now_s() - t0 < min_s);
  return (now_s() - t0) * 1e9 / static_cast<double>(fired - fired0);
}

double probe_snr_db_ns(const wdc::Scenario& sc, std::size_t links,
                       double min_s) {
  auto procs = make_links(sc, std::max<std::size_t>(links, 1));
  double sink = 0.0;
  std::uint64_t samples = 0;
  double t = 0.0;
  const double t0 = now_s();
  do {
    t += 1e-3;
    for (auto& p : procs) sink += p->snr_db(t);
    samples += procs.size();
  } while (now_s() - t0 < min_s);
  const double ns = (now_s() - t0) * 1e9 / static_cast<double>(samples);
  if (sink == 0.0) throw std::runtime_error("snr probe: no samples");
  return ns;
}

double probe_mac_fanout_ns(const wdc::Scenario& sc, std::size_t ports,
                           double min_s) {
  ports = std::max<std::size_t>(ports, 1);
  auto links = make_links(sc, ports);
  wdc::Simulator sim;
  const wdc::McsTable table = sc.make_mcs_table();
  wdc::BroadcastMac mac(sim, table, sc.mac, wdc::Rng(kProbeSeed));
  std::uint64_t offered = 0;
  for (auto& link : links)
    mac.register_client(wdc::ClientPort{
        link.get(), [] { return true; },
        [&offered](const wdc::Reception&) { ++offered; }});
  // Enough frames per batch that one batch is ~10^6 listener offers.
  const std::size_t batch = std::max<std::size_t>(4, 1000000 / ports);
  std::uint64_t frames = 0;
  const double t0 = now_s();
  do {
    for (std::size_t i = 0; i < batch; ++i) {
      wdc::Message m;
      m.kind = wdc::MsgKind::kItemData;
      m.bits = sc.db.item_bits;
      m.item = static_cast<wdc::ItemId>(frames % sc.db.num_items);
      mac.enqueue(std::move(m));
      ++frames;
    }
    sim.run_all();
  } while (now_s() - t0 < min_s);
  const double wall = now_s() - t0;
  if (offered == 0) throw std::runtime_error("mac probe: nothing received");
  return wall * 1e9 /
         (static_cast<double>(frames) * static_cast<double>(ports));
}

double probe_revalidate_all_ns(const wdc::Scenario& sc, double min_s) {
  const std::size_t cap = std::max<std::size_t>(sc.proto.cache_capacity, 1);
  wdc::LruCache cache(cap);
  for (std::size_t i = 0; i < cap; ++i)
    cache.put(wdc::CacheEntry{static_cast<wdc::ItemId>(i), 1, 0.0, 0.0});
  std::uint64_t calls = 0;
  const double t0 = now_s();
  do {
    for (int i = 0; i < 1000; ++i)
      cache.revalidate_all(static_cast<double>(++calls));
  } while (now_s() - t0 < min_s);
  return (now_s() - t0) * 1e9 / static_cast<double>(calls);
}

double probe_report_codec_mb_s(const wdc::Scenario& sc, double min_s) {
  const auto report = window_report(sc);
  std::uint64_t bytes = 0;
  const double t0 = now_s();
  do {
    for (int i = 0; i < 64; ++i) {
      const auto wire = wdc::encode_report(*report);
      wdc::DecodedReport out;
      if (!wdc::decode_report(wire.data(), wire.size(), &out))
        throw std::runtime_error("report probe: decode failed");
      bytes += wire.size();
    }
  } while (now_s() - t0 < min_s);
  return static_cast<double>(bytes) / (now_s() - t0) / 1e6;
}

double probe_serve_codec_mb_s(const wdc::Scenario& sc, double min_s) {
  std::vector<wdc::ServeMessage> frames(3);
  frames[0].kind = wdc::ServeWireKind::kItem;
  frames[0].item = 7;
  frames[0].version = 3;
  frames[0].content_time = 123.5;
  frames[0].payload_bits = sc.db.item_bits;
  frames[1].kind = wdc::ServeWireKind::kReport;
  frames[1].report_frame = wdc::encode_report(*window_report(sc));
  frames[2].kind = wdc::ServeWireKind::kData;
  frames[2].payload_bits = sc.traffic.frame_bits;
  std::uint64_t bytes = 0;
  const double t0 = now_s();
  do {
    for (int i = 0; i < 64; ++i) {
      for (const auto& f : frames) {
        const auto wire = wdc::encode_serve(f);
        wdc::ServeMessage out;
        if (!wdc::decode_serve(wire, &out))
          throw std::runtime_error("serve codec probe: decode failed");
        bytes += wire.size();
      }
    }
  } while (now_s() - t0 < min_s);
  return static_cast<double>(bytes) / (now_s() - t0) / 1e6;
}

}  // namespace perfbench
