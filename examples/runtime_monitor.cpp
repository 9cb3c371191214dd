// Example: using the observer + checker as a pure runtime monitor.
//
// Section 5 of the paper points out that the finite-state observer and
// checker "could be simulated together with detailed implementation
// descriptions that are too complex for formal verification" — i.e. used
// as a Gibbons–Korach-style testing harness.  This example monitors three
// protocols at parameters whose product state spaces are astronomically
// beyond exhaustive search, reporting throughput, and demonstrates that
// the monitor is deterministic and replayable from a seed.
//
// Run: ./build/examples/runtime_monitor [steps]
#include <cstdio>
#include <cstdlib>

#include "mc/record.hpp"
#include "protocol/directory.hpp"
#include "protocol/lazy_caching.hpp"
#include "protocol/msi_bus.hpp"

int main(int argc, char** argv) {
  using namespace scv;
  const std::uint64_t steps =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200000;

  MsiBus msi(/*procs=*/6, /*blocks=*/6, /*values=*/4);
  DirectoryProtocol dir(/*procs=*/6, /*blocks=*/4, /*values=*/4);
  LazyCaching lazy(/*procs=*/4, /*blocks=*/4, /*values=*/4,
                   /*out_depth=*/2, /*in_depth=*/6);

  std::printf("monitoring %llu random steps per protocol "
              "(observer+checker inline)\n\n",
              static_cast<unsigned long long>(steps));
  for (const Protocol* proto :
       std::initializer_list<const Protocol*>{&msi, &dir, &lazy}) {
    TraceTestOptions opt;
    opt.max_steps = steps;
    opt.seed = 20260708;
    const TraceTestResult r = trace_test(*proto, opt);
    std::printf("%-14s (p=%zu b=%zu v=%zu, L=%zu): %s\n",
                proto->name().c_str(), proto->params().procs,
                proto->params().blocks, proto->params().values,
                proto->params().locations, r.summary().c_str());
    if (r.verdict != TraceVerdict::Passed) {
      std::printf("  reason: %s\n  last operations:\n", r.reason.c_str());
      for (const std::string& a : r.tail) std::printf("    %s\n", a.c_str());
      return 1;
    }
  }
  std::printf("\nall runs passed: no sequential-consistency violation "
              "observed.\n");
  return 0;
}
