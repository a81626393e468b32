#include "host.hpp"

#include <sys/resource.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  ::clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double now_s() { return clock_s(CLOCK_MONOTONIC); }
double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

std::uint64_t thread_ctx_switches() {
  rusage ru{};
  ::getrusage(RUSAGE_THREAD, &ru);
  return static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
}

double peak_rss_kb() {
  // VmHWM, not ru_maxrss: Linux carries ru_maxrss across execve, so a small
  // workload started from a larger parent would report the parent's peak.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  return 0.0;
}

double current_rss_kb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / 1024.0;
}

double host_steal_s() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field[8] = {};
  stat >> cpu;
  for (double& f : field) stat >> f;
  if (!stat || cpu != "cpu") return 0.0;
  return field[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

HostInfo host_info() {
  HostInfo h;
  h.nproc = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) h.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  h.l2_bytes = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
  h.l3_bytes = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  utsname u{};
  if (::uname(&u) == 0)
    h.kernel = std::string(u.sysname) + " " + u.release + " " + u.machine;
#if defined(__clang__)
  h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  h.compiler = std::string("g++ ") + __VERSION__;
#endif
  h.build_type = PERFBENCH_BUILD_TYPE;
  return h;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
