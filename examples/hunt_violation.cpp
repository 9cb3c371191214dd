// Example: hunting a sequential-consistency bug.
//
// The per-processor store buffer (without ordering) is the canonical broken
// memory system: stores become visible to other processors late.  The
// verifier finds the shortest violating run automatically and explains it:
// the emitted constraint-graph descriptor contains the cycle predicted by
// Lemma 3.1.  We then show the same bug being caught by pure runtime
// monitoring (Section 5's testing scenario) on a much larger configuration.
//
// Run: ./build/examples/hunt_violation
#include <cstdio>

#include "mc/model_checker.hpp"
#include "mc/record.hpp"
#include "protocol/write_buffer.hpp"

int main() {
  using namespace scv;

  // ---------------------------------------------------------------------
  // 1. Model checking digs out the store-buffering litmus by itself.
  // ---------------------------------------------------------------------
  WriteBuffer proto(/*procs=*/2, /*blocks=*/2, /*values=*/1, /*depth=*/1,
                    /*forwarding=*/true);
  std::printf("--- model checking %s ---\n", proto.name().c_str());
  const McResult r = model_check(proto);
  std::printf("%s\n\n", r.summary().c_str());
  if (r.verdict != McVerdict::Violation) return 1;

  std::printf("shortest counterexample run (with observer output):\n");
  for (const CounterexampleStep& step : r.counterexample) {
    std::printf("  %-16s |", step.action.c_str());
    for (const Symbol& s : step.emitted) {
      std::printf(" %s;", to_string(s).c_str());
    }
    std::printf("\n");
  }
  std::printf("\nthe cycle (Lemma 3.1's witness of non-SC-ness):\n  ");
  for (const std::string& n : r.cycle) std::printf("%s -> ", n.c_str());
  std::printf("(back to start)\n");
  std::printf("\nreading the graph: each processor's buffered store is\n"
              "program-order-before its load of the other block, and each\n"
              "bottom-load is forced-before the other processor's store\n"
              "(constraint 5b) — a cycle, so no serial reordering exists.\n"
              "This is exactly the store-buffering litmus of Figure 1's\n"
              "discussion, rediscovered by the checker.\n\n");

  // ---------------------------------------------------------------------
  // 2. The same bug at scale, caught by runtime monitoring.
  // ---------------------------------------------------------------------
  WriteBuffer big(/*procs=*/4, /*blocks=*/4, /*values=*/2, /*depth=*/2,
                  /*forwarding=*/true);
  std::printf("--- runtime monitoring %s (p=4,b=4,v=2: far beyond "
              "exhaustive search) ---\n",
              big.name().c_str());
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    TraceTestOptions opt;
    opt.max_steps = 500000;
    opt.seed = seed;
    const TraceTestResult t = trace_test(big, opt);
    std::printf("  seed %2zu: %s\n", static_cast<std::size_t>(seed),
                t.summary().c_str());
    if (t.verdict == TraceVerdict::Violation) {
      std::printf("  last operations before detection:\n");
      const std::size_t start = t.tail.size() > 8 ? t.tail.size() - 8 : 0;
      for (std::size_t i = start; i < t.tail.size(); ++i) {
        std::printf("    %s\n", t.tail[i].c_str());
      }
      return 0;
    }
  }
  std::printf("runtime monitoring did not trigger in this budget\n");
  return 0;
}
