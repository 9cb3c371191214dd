// Experiment FIG3 — reproduces Figure 3 and the two descriptor strings of
// Section 3.2: the constraint graph of the 5-operation example trace, its
// naive descriptor (IDs = node numbers) and its 3-bandwidth-bounded
// descriptor with ID recycling, both verified by the finite-state cycle
// checker (Lemma 3.3).
#include <cstdio>

#include "checker/cycle_checker.hpp"
#include "descriptor/descriptor.hpp"
#include "graph/constraint_graph.hpp"
#include "util/rng.hpp"

namespace {

using namespace scv;

void print_figure3() {
  std::printf("== FIG3: the constraint graph of Figure 3 ==\n");
  const Fig3Example ex = figure3_example();
  std::printf("%s", ex.graph.to_string().c_str());
  std::printf("valid constraint graph: %s\n",
              ex.graph.validate() ? "NO" : "yes");
  std::printf("acyclic:                %s\n", ex.graph.acyclic() ? "yes" : "NO");
  std::printf("node bandwidth:         %zu (paper: 3)\n\n",
              ex.graph.node_bandwidth());

  std::vector<std::optional<Operation>> labels;
  for (const Operation& op : ex.trace) labels.emplace_back(op);
  std::vector<std::vector<std::uint8_t>> annos(5);
  for (std::uint32_t u = 0; u < 5; ++u) {
    for (std::uint32_t v : ex.graph.digraph().successors(u)) {
      annos[u].push_back(ex.graph.annotation(u, v));
    }
  }

  const Descriptor naive =
      naive_descriptor(ex.graph.digraph(), &labels, &annos);
  std::printf("naive descriptor (k=%zu):\n  %s\n\n", naive.k,
              naive.to_string().c_str());

  const Descriptor recycled =
      descriptor_for_graph(ex.graph.digraph(), 3, &labels, &annos);
  std::printf("3-bandwidth descriptor with ID recycling (k=3):\n  %s\n\n",
              recycled.to_string().c_str());

  for (const Descriptor* d : {&naive, &recycled}) {
    CycleChecker checker(d->k);
    bool ok = true;
    for (const Symbol& s : d->symbols) {
      ok = ok && checker.feed(s) == CycleChecker::Status::Ok;
    }
    std::printf("cycle checker (k=%zu) accepts: %s\n", d->k,
                ok ? "yes" : "NO");
  }

  const auto serial = ex.graph.extract_serial_reordering();
  std::printf("extracted serial reordering (1-based): ");
  for (std::uint32_t i : serial) std::printf("%u ", i + 1);
  std::printf("\n\n");
}

}  // namespace

int main() {
  print_figure3();
  return 0;
}
