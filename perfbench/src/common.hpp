// Shared plumbing of the benchmark binary: run configuration, the outcome
// a workload fills in (attempt/failure counts and named metrics), clocks,
// order statistics and host probes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced problem sizes and phases, for the benchmark's own test.
  bool small = false;
  /// Test hook: one expectation of the workload is deliberately wrong, so
  /// the correctness checks must report failed operations.
  bool wrong_expectation = false;
  /// Directory for the files a run writes (exported counterexamples).
  std::string scratch_dir = ".";
};

/// What one workload run produced.  Every operation whose output is checked
/// goes through check(); metrics are keyed by the names in metrics.hpp.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few, for the log
  std::map<std::string, double> values;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
  void set(const std::string& name, double value) { values[name] = value; }
};

[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median (mean of the middle pair for even sizes); 0 for an empty input.
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1]; 0 for an empty input.
[[nodiscard]] double percentile(std::vector<double> v, double q);
/// Index of the sample closest to the median.
[[nodiscard]] std::size_t median_index(const std::vector<double>& v);

/// Returns freed heap memory to the OS (malloc_trim), so the peak resident
/// set reflects the largest single operation rather than how many ran.
void release_free_memory();
/// Peak resident set of this process (VmHWM), in MB: since the process
/// started, or since the last reset_peak_rss().
[[nodiscard]] double peak_rss_mb();
/// Resets the peak to the current resident set (Linux /proc/self/clear_refs),
/// so peak_rss_mb() then measures one operation.
void reset_peak_rss();
[[nodiscard]] std::size_t affinity_cpus();
/// Affinity mask as a CPU list ("0-3").
[[nodiscard]] std::string affinity_mask();

void run_mc_workload(const RunConfig& cfg, Outcome& out);
void run_stream_workload(const RunConfig& cfg, Outcome& out);

}  // namespace perfbench
