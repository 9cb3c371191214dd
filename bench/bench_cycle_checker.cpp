// Experiment THM31 — the finite-state cycle checker of Lemma 3.3: symbol
// throughput and active-graph population as a function of the bandwidth
// bound k, plus a correctness-rate table against explicit expansion.
#include <chrono>
#include <cstdio>

#include "checker/cycle_checker.hpp"
#include "descriptor/descriptor.hpp"
#include "util/rng.hpp"

namespace {

using namespace scv;

/// A long random valid descriptor stream over IDs 1..k+1 that never closes
/// a cycle (forward edges only): exercises the checker's steady state.
std::vector<Symbol> acyclic_stream(std::size_t k, std::size_t length,
                                   Xoshiro256& rng) {
  std::vector<Symbol> symbols;
  symbols.reserve(length);
  // Maintain the "age" of each ID: edges go old -> new, which can never
  // close a cycle.
  std::vector<std::uint64_t> age(k + 2, 0);
  std::uint64_t now = 0;
  for (GraphId id = 1; id <= static_cast<GraphId>(k + 1); ++id) {
    symbols.push_back(NodeDesc{id});
    age[id] = ++now;
  }
  while (symbols.size() < length) {
    if (rng.chance(1, 3)) {
      const auto id = static_cast<GraphId>(rng.between(1, k + 1));
      symbols.push_back(NodeDesc{id});
      age[id] = ++now;
    } else {
      const auto a = static_cast<GraphId>(rng.between(1, k + 1));
      const auto b = static_cast<GraphId>(rng.between(1, k + 1));
      if (a == b) continue;
      const GraphId from = age[a] < age[b] ? a : b;
      const GraphId to = age[a] < age[b] ? b : a;
      symbols.push_back(EdgeDesc{from, to});
    }
  }
  return symbols;
}

void print_table() {
  std::printf("== THM31: cycle checker throughput and state vs k ==\n\n");
  Xoshiro256 rng(7);
  std::printf("  %4s | %12s | %10s | %s\n", "k", "symbols/s", "peak nodes",
              "verdict agreement with explicit expansion");
  for (const std::size_t k : {2, 4, 8, 16, 32, 62}) {
    const auto stream = acyclic_stream(k, 200000, rng);
    CycleChecker checker(k);
    std::size_t peak = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (const Symbol& s : stream) {
      if (checker.feed(s) == CycleChecker::Status::Reject) break;
      peak = std::max(peak, checker.active_nodes());
    }
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    // Verdict agreement on 300 short random (possibly cyclic) descriptors.
    std::size_t agree = 0, total = 0, cyclic = 0;
    for (int iter = 0; iter < 300; ++iter) {
      Descriptor d;
      d.k = k;
      // Short streams with random (old/new agnostic) edges — often cyclic.
      std::vector<GraphId> live;
      for (int i = 0; i < 16; ++i) {
        if (rng.chance(2, 5) || live.size() < 2) {
          const auto id = static_cast<GraphId>(rng.between(1, k + 1));
          d.symbols.push_back(NodeDesc{id});
          live.push_back(id);
        } else {
          d.symbols.push_back(EdgeDesc{live[rng.below(live.size())],
                                       live[rng.below(live.size())]});
        }
      }
      CycleChecker c(k);
      std::size_t consumed = 0;
      bool rejected = false;
      for (const Symbol& s : d.symbols) {
        ++consumed;
        if (c.feed(s) == CycleChecker::Status::Reject) {
          rejected = true;
          break;
        }
      }
      Descriptor prefix;
      prefix.k = k;
      prefix.symbols.assign(d.symbols.begin(),
                            d.symbols.begin() + consumed);
      const auto r = expand(prefix);
      if (r.graph.has_value()) {
        ++total;
        cyclic += r.graph->graph.has_cycle() ? 1 : 0;
        agree += (rejected == r.graph->graph.has_cycle()) ? 1 : 0;
      }
    }
    std::printf("  %4zu | %12.0f | %10zu | %zu/%zu agree (%zu cyclic)\n", k,
                stream.size() / secs, peak, agree, total, cyclic);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  print_table();
  return 0;
}
