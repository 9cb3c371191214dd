// Experiment GK-TEST — the runtime-testing scenario of Section 5: the
// observer and checker monitor long random runs of protocols whose product
// state spaces are far beyond exhaustive model checking.  Reports
// monitoring throughput and, for the buggy protocols, the latency (in
// steps) until the injected violation is caught.
#include <cstdio>

#include "mc/record.hpp"
#include "protocol/directory.hpp"
#include "protocol/lazy_caching.hpp"
#include "protocol/msi_bus.hpp"
#include "protocol/serial_memory.hpp"
#include "protocol/write_buffer.hpp"

namespace {

using namespace scv;

void throughput_row(const Protocol& proto, const char* params) {
  TraceTestOptions opt;
  opt.max_steps = 300000;
  opt.seed = 17;
  const TraceTestResult r = trace_test(proto, opt);
  std::printf("  %-14s %-16s | %-8s | %7.0fk steps/s | %9zu ops | "
              "%9zu symbols\n",
              proto.name().c_str(), params, to_string(r.verdict).c_str(),
              static_cast<double>(r.steps) / r.seconds / 1000.0,
              static_cast<std::size_t>(r.memory_ops),
              static_cast<std::size_t>(r.symbols));
  std::fflush(stdout);
}

void latency_row(const Protocol& proto, const char* params) {
  std::uint64_t total = 0;
  std::uint64_t found = 0;
  std::uint64_t worst = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    TraceTestOptions opt;
    opt.max_steps = 500000;
    opt.seed = seed;
    const TraceTestResult r = trace_test(proto, opt);
    if (r.verdict == TraceVerdict::Violation) {
      ++found;
      total += r.steps;
      worst = std::max(worst, r.steps);
    }
  }
  std::printf("  %-14s %-16s | caught %2zu/20 runs | mean %8.0f steps | "
              "worst %8zu steps\n",
              proto.name().c_str(), params, static_cast<std::size_t>(found),
              found ? static_cast<double>(total) / found : 0.0,
              static_cast<std::size_t>(worst));
  std::fflush(stdout);
}

void print_table() {
  std::printf("== GK-TEST: runtime monitoring at model-checking-infeasible "
              "parameters ==\n\n");
  throughput_row(SerialMemory(4, 4, 4), "p4 b4 v4");
  throughput_row(MsiBus(4, 3, 3), "p4 b3 v3");
  throughput_row(DirectoryProtocol(4, 3, 3), "p4 b3 v3");
  throughput_row(LazyCaching(4, 3, 3, 2, 4), "p4 b3 v3 q2/4");
  std::printf("\n  Violation-detection latency (random walks, 20 seeds)\n\n");
  latency_row(WriteBuffer(2, 2, 2, 1, false), "p2 b2 v2 d1");
  latency_row(WriteBuffer(2, 2, 2, 1, true), "p2 b2 v2 d1 fwd");
  latency_row(WriteBuffer(4, 4, 2, 2, true), "p4 b4 v2 d2 fwd");
  std::printf("\n");
}

}  // namespace

int main() {
  print_table();
  return 0;
}
