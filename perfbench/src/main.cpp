/// @file main.cpp
/// perfbench: run one workload, check its outputs, and print its metrics.
///
///   perfbench --workload <grid|crowd|crowd_sharded|serve> --seed <n>
///             --seconds <s> --trace <0|1> [--work-dir <dir>]
///             [--out <file.json>] [--commit <id>] [--source-digest <hex>]
///
/// --trace 0 times the workload untraced and prints the end-to-end metrics.
/// --trace 1 runs it twice, untraced then traced (each on half the time
/// budget), checks that both reproduce the same simulation digests, and
/// prints every per-layer metric plus trace_overhead_frac. The last stdout
/// line is the JSON result; --out also records the host, build, seeds,
/// every reported metric and (traced) the spans.

#include <algorithm>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "gate.hpp"
#include "host.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Worker threads and connections: every workload uses at most 4 and at
  /// most the hardware's thread count.
  unsigned threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::string work_dir = ".";
  std::string out;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--work-dir <dir>]"
               " [--out <file>] [--commit <id>] [--source-digest <hex>]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument " + key);
    kv[key.substr(2)] = argv[++i];
  }
  Args a;
  try {
    for (const auto& [k, v] : kv) {
      if (k == "workload") a.workload = v;
      else if (k == "seed") a.seed = std::stoull(v);
      else if (k == "seconds") a.seconds = std::stod(v);
      else if (k == "trace") a.trace = std::stoi(v) != 0;
      else if (k == "work-dir") a.work_dir = v;
      else if (k == "out") a.out = v;
      else if (k == "commit") a.commit = v;
      else if (k == "source-digest") a.source_digest = v;
      else usage("unknown option --" + k);
    }
  } catch (const std::exception&) {
    usage("malformed option value");
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end())
    usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < ms.size(); ++i)
    os << (i ? ", " : "") << json_str(ms[i].name) << ": {\"value\": "
       << json_num(ms[i].value) << ", \"unit\": " << json_str(ms[i].unit)
       << "}";
  os << "}";
  return os.str();
}

std::string json_list(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    s += (i ? ", " : "") + json_num(v[i]);
  return s + "]";
}

void print_metrics(const std::string& title, const std::vector<Metric>& ms) {
  std::cout << title << "\n";
  for (const Metric& m : ms) {
    std::ostringstream v;
    v.precision(6);
    v << m.value;
    const std::size_t pad = m.name.size() < 30 ? 30 - m.name.size() : 1;
    std::cout << "  " << m.name << std::string(pad, ' ') << v.str() << " "
              << m.unit << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const double rss0_kb = current_rss_kb();
  const Args args = parse(argc, argv);
  try {
    std::string selftest_why;
    const bool selftest_ok = gate_selftest(&selftest_why);
    const HostInfo host = host_info();
    std::cout << "perfbench " << args.workload << " seed=" << args.seed
              << " seconds=" << args.seconds << " trace=" << args.trace
              << " threads=" << args.threads << "\nhost: nproc=" << host.nproc
              << " cpu=\"" << host.cpu_model << "\" L2=" << host.l2_bytes
              << " L3=" << host.l3_bytes << " kernel=\"" << host.kernel
              << "\"\nbuild: " << host.build_type << ", " << host.compiler
              << ", commit " << args.commit << ", sources "
              << args.source_digest << "\n";
    if (!selftest_ok)
      std::cout << "gate self-test FAILED: " << selftest_why << "\n";

    SpanLog off(false);
    Ctx ctx;
    ctx.seed = args.seed;
    ctx.seconds = args.trace ? args.seconds / 2 : args.seconds;
    ctx.threads = args.threads;
    ctx.work_dir = args.work_dir;
    ctx.spans = &off;
    ctx.rss0_kb = rss0_kb;
    const double steal0 = host_steal_s();
    Result untraced = run_workload(args.workload, ctx);
    Tally tally = untraced.tally;

    SpanLog spans(args.trace);
    Result traced;
    if (args.trace) {
      ctx.spans = &spans;
      SpanLog::Scope root(spans, "perfbench " + args.workload);
      traced = run_workload(args.workload, ctx);
      tally.attempted += traced.tally.attempted;
      tally.failed += traced.tally.failed;
      for (const auto& why : traced.tally.reasons)
        tally.reasons.push_back(why);
      traced.layer.push_back(Metric{"trace_overhead_frac",
                                    median(traced.run_samples) /
                                            median(untraced.run_samples) -
                                        1.0,
                                    "ratio"});
    }

    const double steal_s = host_steal_s() - steal0;
    const bool correct = selftest_ok && tally.failed == 0;
    print_metrics("end-to-end (untraced):", untraced.report);
    if (args.trace) print_metrics("per-layer (traced):", traced.layer);
    std::cout << "host steal during the run: " << steal_s
              << " CPU-s\ngate: " << tally.failed << " of " << tally.attempted
              << " failed (fail_frac " << tally.fail_frac() << ")\n";
    for (const auto& why : tally.reasons) std::cout << "  " << why << "\n";

    const std::vector<Metric>& emitted =
        args.trace ? traced.layer : untraced.e2e;
    std::ostringstream result;
    result << "{\"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << tally.attempted
           << ", \"failed\": " << tally.failed
           << ", \"metrics\": " << metrics_json(emitted) << "}";

    if (!args.out.empty()) {
      std::ofstream out(args.out);
      out << "{\n\"workload\": " << json_str(args.workload)
          << ",\n\"seed\": " << args.seed << ",\n\"seconds\": "
          << json_num(args.seconds) << ",\n\"trace\": " << args.trace
          << ",\n\"threads\": " << args.threads << ",\n\"host\": {\"nproc\": "
          << host.nproc << ", \"cpu_model\": " << json_str(host.cpu_model)
          << ", \"l2_bytes\": " << host.l2_bytes
          << ", \"l3_bytes\": " << host.l3_bytes
          << ", \"kernel\": " << json_str(host.kernel)
          << ", \"steal_s\": " << json_num(steal_s) << "},\n\"build\": "
          << "{\"compiler\": " << json_str(host.compiler)
          << ", \"build_type\": " << json_str(host.build_type)
          << ", \"commit\": " << json_str(args.commit)
          << ", \"source_digest\": " << json_str(args.source_digest)
          << "},\n\"gate_selftest\": " << (selftest_ok ? "true" : "false")
          << ",\n\"fail_frac\": " << json_num(tally.fail_frac())
          << ",\n\"failures\": [";
      for (std::size_t i = 0; i < tally.reasons.size(); ++i)
        out << (i ? ", " : "") << json_str(tally.reasons[i]);
      out << "],\n\"samples\": {\"setup_s\": "
          << json_list(untraced.setup_samples)
          << ", \"run_s\": " << json_list(untraced.run_samples)
          << "},\n\"report\": " << metrics_json(untraced.report)
          << ",\n\"result\": " << result.str();
      if (args.trace) {
        out << ",\n\"spans\": ";
        spans.write_json(out);
      }
      out << "\n}\n";
      if (!out) {
        std::cerr << "perfbench: cannot write " << args.out << "\n";
        return 1;
      }
    }
    std::cout << result.str() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
}
