#ifndef PERFBENCH_HOST_HPP
#define PERFBENCH_HOST_HPP

/// @file host.hpp
/// Clocks, resource usage and the host/build record every result carries.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, seconds.
double now_s();
/// CPU time of the whole process / of the calling thread, seconds.
double process_cpu_s();
double thread_cpu_s();
/// Voluntary + involuntary context switches of the calling thread.
std::uint64_t thread_ctx_switches();
/// Peak resident set of this process image (VmHWM), KiB.
double peak_rss_kb();
/// Current resident set, KiB.
double current_rss_kb();
/// CPU time the hypervisor took from this machine's CPUs (all of them) since
/// boot, seconds; 0 where /proc/stat has no steal column. On a shared VM it
/// explains wall-time noise the program did not cause.
double host_steal_s();

/// Median and linear-interpolated quantile (q in [0,1]) of a sample; 0 when
/// empty. Both sort a copy.
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

/// Host and build identity, recorded beside every result.
struct HostInfo {
  unsigned nproc = 0;
  std::string cpu_model;
  long l2_bytes = 0;
  long l3_bytes = 0;
  std::string kernel;
  std::string compiler;
  std::string build_type;
};
HostInfo host_info();

/// JSON string literal (quotes and escapes).
std::string json_str(const std::string& s);
/// Full-precision JSON number (non-finite values become null).
std::string json_num(double v);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_HPP
