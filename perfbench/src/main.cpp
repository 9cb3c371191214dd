// scv_perfbench: runs one benchmark workload and prints every metric.
//
//   scv_perfbench --workload <mc_directory_p3|mc_hunt_msi_buggy|stream_mixed>
//                 --seed N --seconds S --trace 0|1
//                 [--small] [--wrong-expectation] [--scratch DIR]
//
// Output: a stamp line (host, compiler, build type, threads), one
// "metric <name> <value> <unit>" line per metric, and last a JSON object
// {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics (--trace 0) or the per-layer ones (--trace 1).  Exit status 0
// when every checked output was correct, 1 when one was not, 2 on a usage
// or configuration error.
#include <sys/resource.h>

#if defined(__linux__)
#include <sched.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common.hpp"
#include "metrics.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

std::size_t median_index(const std::vector<double>& v) {
  const double m = median(v);
  std::size_t best = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (std::fabs(v[i] - m) < std::fabs(v[best] - m)) best = i;
  }
  return best;
}

void release_free_memory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::size_t affinity_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
#endif
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? hc : 1;
}

std::string affinity_mask() {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unknown";
  std::string s;
  for (int cpu = 0; cpu < CPU_SETSIZE;) {
    if (!CPU_ISSET(cpu, &set)) {
      ++cpu;
      continue;
    }
    int last = cpu;
    while (last + 1 < CPU_SETSIZE && CPU_ISSET(last + 1, &set)) ++last;
    if (!s.empty()) s += ",";
    s += std::to_string(cpu);
    if (last > cpu) {
      s += '-';
      s += std::to_string(last);
    }
    cpu = last + 1;
  }
  return s;
#else
  return "unknown";
#endif
}

namespace {

struct WorkloadDef {
  std::string_view name;
  std::size_t threads;  ///< threads the workload keeps busy at once
  std::string_view thread_note;
  void (*run)(const RunConfig&, Outcome&);
};

constexpr WorkloadDef kWorkloads[] = {
    {"mc_directory_p3", 2, "2 model-checker workers",
     &run_mc_workload},
    {"mc_hunt_msi_buggy", 2, "2 model-checker workers",
     &run_mc_workload},
    {"stream_mixed", 3, "1 generator + 2 service workers",
     &run_stream_workload},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "scv_perfbench: %s\nusage: scv_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--small] "
               "[--wrong-expectation] [--scratch DIR]\n",
               why);
  std::exit(2);
}

RunConfig parse_args(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    if (a == "--workload") {
      cfg.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(value(), nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(value(), nullptr);
    } else if (a == "--trace") {
      cfg.trace = std::string_view(value()) != "0";
    } else if (a == "--small") {
      cfg.small = true;
    } else if (a == "--wrong-expectation") {
      cfg.wrong_expectation = true;
    } else if (a == "--scratch") {
      cfg.scratch_dir = value();
    } else {
      usage("unknown argument");
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(cfg.seconds > 0.0)) usage("--seconds must be positive");
  return cfg;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("GCC ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunConfig cfg = parse_args(argc, argv);
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (w.name == cfg.workload) def = &w;
  }
  if (def == nullptr) usage("unknown workload");

  const std::size_t cpus = affinity_cpus();
  std::printf(
      "stamp {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"small\": %d, \"affinity_cpus\": %zu, "
      "\"affinity_mask\": \"%s\", \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"threads\": %zu, \"threads_note\": \"%.*s\"}\n",
      cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
      cfg.seconds, cfg.trace ? 1 : 0, cfg.small ? 1 : 0, cpus,
      affinity_mask().c_str(), compiler().c_str(), SCV_PERFBENCH_BUILD_TYPE,
      def->threads, static_cast<int>(def->thread_note.size()),
      def->thread_note.data());
  if (def->threads > cpus) {
    std::fprintf(stderr,
                 "scv_perfbench: %s keeps %zu threads busy but only %zu "
                 "CPUs are in the affinity mask; refusing an oversubscribed "
                 "run\n",
                 cfg.workload.c_str(), def->threads, cpus);
    return 2;
  }

  Outcome out;
  def->run(cfg, out);
  out.values.emplace("peak_rss_mb", peak_rss_mb());
  for (const std::string& f : out.failures) {
    std::printf("failure %s\n", f.c_str());
  }

  // Untraced runs must produce every end-to-end metric.  Per-layer metrics
  // are printed by traced runs only; a layer the workload does not exercise
  // did no work and reads 0.
  const auto print_metrics = [&](const auto& defs, bool required,
                                 bool show) {
    bool ok = true;
    for (const MetricDef& m : defs) {
      const std::string name(m.name);
      const bool present = out.values.count(name) != 0;
      if (!present && required) {
        std::fprintf(stderr, "scv_perfbench: %s produced no %s\n",
                     cfg.workload.c_str(), name.c_str());
        ok = false;
        continue;
      }
      out.values.emplace(name, 0.0);
      if (!show || (!present && !cfg.trace)) continue;
      std::printf("metric %-34s %.6g %.*s\n", name.c_str(), out.values[name],
                  static_cast<int>(m.unit.size()), m.unit.data());
    }
    return ok;
  };
  const double error_rate =
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);
  const bool complete = print_metrics(kEndToEnd, !cfg.trace, true) &&
                        print_metrics(kPerLayer, false, cfg.trace);
  std::printf("metric %-34s %.6g ratio\n", "error_rate", error_rate);
  if (!complete) return 2;

  const bool correct = out.failed == 0 && out.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  const auto emit = [&](const auto& defs) {
    bool first = true;
    for (const MetricDef& m : defs) {
      char num[64];
      std::snprintf(num, sizeof(num), "%.17g", out.values[std::string(m.name)]);
      if (!first) json += ", ";
      first = false;
      json += '"';
      json += m.name;
      json += "\": {\"value\": ";
      json += num;
      json += ", \"unit\": \"";
      json += m.unit;
      json += "\"}";
    }
  };
  if (cfg.trace) {
    emit(kPerLayer);
  } else {
    emit(kEndToEnd);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
