#ifndef PERFBENCH_PROBES_HPP
#define PERFBENCH_PROBES_HPP

/// @file probes.hpp
/// Layer probes: timed loops over one layer's public functions, shaped from a
/// workload's own scenario (its population, cache capacity, report window,
/// kernel heap depth). Each runs for at least `min_s` of wall time and
/// returns a per-operation cost.

#include <cstddef>
#include <cstdint>

#include "engine/scenario.hpp"

namespace perfbench {

/// Simulator schedule + fire, ns per event, with `heap` events pending.
double probe_kernel_ns_per_event(std::size_t heap, double min_s);

/// snr_db over `links` channel processes of the scenario's fading model,
/// round-robin with time advancing; ns per sample.
double probe_snr_db_ns(const wdc::Scenario& sc, std::size_t links,
                       double min_s);

/// BroadcastMac with `ports` always-listening ClientPorts over the scenario's
/// fading links: item broadcasts offered to every port; ns per
/// (frame × listener).
double probe_mac_fanout_ns(const wdc::Scenario& sc, std::size_t ports,
                           double min_s);

/// LruCache::revalidate_all on a full cache of the scenario's capacity; ns per
/// call.
double probe_revalidate_all_ns(const wdc::Scenario& sc, double min_s);

/// report_codec encode + decode of a full report listing the updates of one
/// coverage window at the scenario's update rate; MB/s of wire bytes.
double probe_report_codec_mb_s(const wdc::Scenario& sc, double min_s);

/// serve_codec encode + decode of the frames the daemon sends (an item answer,
/// a nested report, a data frame); MB/s of wire bytes.
double probe_serve_codec_mb_s(const wdc::Scenario& sc, double min_s);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_HPP
