// Experiment THM41 — end-to-end verification of every implemented protocol
// (Theorem 4.1 + Theorem 3.1): verdict, product state count, transitions,
// BFS depth, wall time.  Sequentially consistent protocols must verify;
// the store-buffer variants and the stale-view toy must yield
// counterexamples.
#include <cstdio>

#include "mc/model_checker.hpp"
#include "protocol/directory.hpp"
#include "protocol/get_shared_toy.hpp"
#include "protocol/lazy_caching.hpp"
#include "protocol/msi_bus.hpp"
#include "protocol/serial_memory.hpp"
#include "protocol/write_buffer.hpp"

namespace {

using namespace scv;

void row(const Protocol& proto, const char* params, const char* expected) {
  McOptions opt;
  opt.max_states = 5'000'000;
  const McResult r = model_check(proto, opt);
  std::printf("  %-14s %-16s -> %-18s %9zu states %10zu trans  depth %3zu"
              "  %6.2fs  %5.1f B/state  (expect %s)\n",
              proto.name().c_str(), params, to_string(r.verdict).c_str(),
              r.states, r.transitions, r.depth, r.seconds,
              r.bytes_per_state(), expected);
  if (r.verdict == McVerdict::Violation && r.counterexample.size() <= 8) {
    std::printf("      counterexample:");
    for (const auto& s : r.counterexample) {
      std::printf("  %s", s.action.c_str());
    }
    std::printf("\n      cycle:");
    for (const auto& n : r.cycle) std::printf("  %s ->", n.c_str());
    std::printf(" (start)\n");
  }
  std::fflush(stdout);
}

void print_table() {
  std::printf("== THM41: verification verdicts for all protocols ==\n\n");
  row(SerialMemory(2, 2, 1), "p2 b2 v1", "Verified");
  row(SerialMemory(2, 2, 2), "p2 b2 v2", "Verified");
  row(MsiBus(2, 1, 1), "p2 b1 v1", "Verified");
  row(MsiBus(2, 1, 2), "p2 b1 v2", "Verified");
  row(DirectoryProtocol(2, 1, 1), "p2 b1 v1", "Verified");
  // Exceeded the 5M budget before processor-symmetry reduction; the orbit
  // quotient brings the full product under 3M states.
  row(DirectoryProtocol(2, 1, 2), "p2 b1 v2", "Verified");
  row(LazyCaching(2, 1, 1, 1, 2), "p2 b1 v1 q1/2", "Verified");
  row(LazyCaching(2, 1, 2, 1, 2), "p2 b1 v2 q1/2", "Verified");
  row(WriteBuffer(2, 2, 1, 1, false), "p2 b2 v1 d1", "Violation");
  row(WriteBuffer(2, 2, 1, 1, true), "p2 b2 v1 d1 fwd", "Violation");
  row(WriteBuffer(1, 2, 1, 2, true), "p1 b2 v1 d2 fwd", "Verified");
  row(MsiBus(2, 1, 1, /*lost_invalidation=*/true), "p2 b1 v1 bug",
      "Violation");
  row(GetSharedToy(2, 1, 2, 2), "p2 b1 v2 s2", "Violation");
  std::printf("\nSC protocols verify; the store-buffer variants fail with\n"
              "the stale-own-read / store-buffering litmus; the Figure 4\n"
              "toy fails because stale views make its witness graphs\n"
              "cyclic (it lies outside the class Gamma).\n\n");
}

}  // namespace

int main() {
  print_table();
  return 0;
}
