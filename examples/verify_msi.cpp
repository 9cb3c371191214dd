// Example: verifying a realistic cache-coherence protocol.
//
// This walks through the full method of Condon & Hu on the snooping MSI
// protocol: what the observer emits for a short scripted run, what the
// checker tracks, and then the exhaustive verification with statistics —
// including the state-space overhead relative to the bare protocol, the
// practical cost Section 4.4 of the paper discusses.
//
// Run: ./build/examples/verify_msi
#include <cstdio>

#include "checker/sc_checker.hpp"
#include "mc/model_checker.hpp"
#include "observer/observer.hpp"
#include "protocol/msi_bus.hpp"
#include "util/rng.hpp"

int main() {
  using namespace scv;
  MsiBus proto(/*procs=*/2, /*blocks=*/1, /*values=*/2);

  // ---------------------------------------------------------------------
  // 1. Watch the observer annotate a short random run.
  // ---------------------------------------------------------------------
  std::printf("--- observer output on a short run of %s ---\n",
              proto.name().c_str());
  Observer obs(proto, {});
  ScChecker chk(ScCheckerConfig{obs.bandwidth(), 2, 1, 2});
  Xoshiro256 rng(2);
  std::vector<std::uint8_t> state(proto.state_size());
  proto.initial_state(state);
  std::vector<Transition> enabled;
  std::vector<Symbol> symbols;
  for (int step = 0; step < 14; ++step) {
    enabled.clear();
    proto.enumerate(state, enabled);
    const Transition t = enabled[rng.below(enabled.size())];
    proto.apply(state, t);
    symbols.clear();
    if (obs.step(t, state, symbols) != ObserverStatus::Ok) {
      std::printf("observer error: %s\n", obs.error().c_str());
      return 1;
    }
    std::printf("%-18s |", proto.action_name(t.action).c_str());
    for (const Symbol& s : symbols) {
      std::printf(" %s;", to_string(s).c_str());
      if (chk.feed(s) == ScChecker::Status::Reject) {
        std::printf("\nchecker rejected: %s\n", chk.reject_reason().c_str());
        return 1;
      }
    }
    std::printf("\n");
  }
  std::printf("(active graph: %zu observer nodes, %zu checker nodes)\n\n",
              obs.live_nodes(), chk.active_nodes());

  // ---------------------------------------------------------------------
  // 2. Exhaustive verification: protocol x observer x checker product.
  // ---------------------------------------------------------------------
  std::printf("--- exhaustive verification ---\n");
  McOptions bare;
  bare.protocol_only = true;
  const McResult rb = model_check(proto, bare);
  const McResult rf = model_check(proto);
  std::printf("bare protocol : %s\n", rb.summary().c_str());
  std::printf("full product  : %s\n", rf.summary().c_str());
  std::printf("observer size : bound %zu bits (Sec. 4.4), product state %zu "
              "bytes\n",
              observer_size_bound_bits(2, 1, 2, proto.params().locations),
              rf.state_bytes);
  if (rf.verdict == McVerdict::Verified) {
    std::printf("\nMsiBus(p=2,b=1,v=2) is sequentially consistent: every "
                "reachable run\nof the observer describes an acyclic "
                "constraint graph.\n");
  }
  return rf.verdict == McVerdict::Verified ? 0 : 1;
}
