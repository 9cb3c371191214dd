// Example: Lazy Caching and the nontrivial ST order generator.
//
// Afek, Brown & Merritt's Lazy Caching protocol is the paper's star
// witness for Section 4.2: it is sequentially consistent, but the serial
// order of stores is the order of *memory-write* events, not the order the
// ST operations execute — so the trivial "real-time" ST order generator
// does not apply.  This tour scripts a run where two stores serialize in
// the opposite order from their issue order, shows the STo edges the
// deferred generator emits, and then verifies the protocol exhaustively.
//
// Run: ./build/examples/lazy_caching_tour
#include <cstdio>
#include <functional>

#include "checker/sc_checker.hpp"
#include "mc/model_checker.hpp"
#include "observer/observer.hpp"
#include "protocol/lazy_caching.hpp"

namespace {

using namespace scv;

Transition pick(const Protocol& proto, std::span<const std::uint8_t> state,
                const std::function<bool(const Transition&)>& pred) {
  std::vector<Transition> ts;
  proto.enumerate(state, ts);
  for (const Transition& t : ts) {
    if (pred(t)) return t;
  }
  std::fprintf(stderr, "script out of sync with the protocol\n");
  std::abort();
}

}  // namespace

int main() {
  using namespace scv;
  LazyCaching proto(/*procs=*/2, /*blocks=*/1, /*values=*/2,
                    /*out_depth=*/1, /*in_depth=*/2);
  Observer obs(proto, {});
  ScChecker chk(ScCheckerConfig{obs.bandwidth(), 2, 1, 2});
  std::vector<std::uint8_t> state(proto.state_size());
  proto.initial_state(state);

  std::printf("--- issue order vs serialization order ---\n");
  std::vector<Symbol> symbols;
  const auto drive = [&](const Transition& t) {
    proto.apply(state, t);
    symbols.clear();
    if (obs.step(t, state, symbols) != ObserverStatus::Ok) {
      std::printf("observer error: %s\n", obs.error().c_str());
      std::exit(1);
    }
    std::printf("%-16s |", proto.action_name(t.action).c_str());
    for (const Symbol& s : symbols) {
      std::printf(" %s;", to_string(s).c_str());
      if (chk.feed(s) == ScChecker::Status::Reject) {
        std::printf("\nchecker rejected: %s\n", chk.reject_reason().c_str());
        std::exit(1);
      }
    }
    std::printf("\n");
  };

  // P1 issues ST(B1,1) first, P2 issues ST(B1,2) second — but P2's
  // memory-write runs first, so the ST order is  ST(P2) -> ST(P1).
  drive(pick(proto, state, [](const Transition& t) {
    return t.action.kind == Action::Kind::Store && t.action.op.proc == 0 &&
           t.action.op.value == 1;
  }));
  drive(pick(proto, state, [](const Transition& t) {
    return t.action.kind == Action::Kind::Store && t.action.op.proc == 1 &&
           t.action.op.value == 2;
  }));
  drive(pick(proto, state, [](const Transition& t) {
    return t.action.kind == Action::Kind::Internal &&
           t.action.internal_id == LazyCaching::kMemWrite &&
           t.action.arg0 == 1;  // P2 serializes first!
  }));
  drive(pick(proto, state, [](const Transition& t) {
    return t.action.kind == Action::Kind::Internal &&
           t.action.internal_id == LazyCaching::kMemWrite &&
           t.action.arg0 == 0;  // P1 serializes second
  }));
  std::printf("\nNote the STo edge emitted at the *second* MemWrite: it\n"
              "orders ST(P2,B1,2) before ST(P1,B1,1) — the reverse of the\n"
              "issue order.  With the trivial real-time generator this run\n"
              "would be mis-ordered; the deferred generator of Section 4.2\n"
              "gets it right.\n\n");

  // Drain the update queues and let both processors read: they agree on
  // memory order (cache = memory = P1's value, serialized last).
  for (int i = 0; i < 8; ++i) {
    std::vector<Transition> ts;
    proto.enumerate(state, ts);
    const Transition* cu = nullptr;
    for (const Transition& t : ts) {
      if (t.action.kind == Action::Kind::Internal &&
          t.action.internal_id == LazyCaching::kCacheUpdate) {
        cu = &t;
        break;
      }
    }
    if (cu == nullptr) break;
    drive(*cu);
  }
  drive(pick(proto, state, [](const Transition& t) {
    return t.action.kind == Action::Kind::Load && t.action.op.proc == 0;
  }));
  drive(pick(proto, state, [](const Transition& t) {
    return t.action.kind == Action::Kind::Load && t.action.op.proc == 1;
  }));

  std::printf("\n--- exhaustive verification ---\n");
  const McResult r = model_check(proto);
  std::printf("%s\n", r.summary().c_str());
  return r.verdict == McVerdict::Verified ? 0 : 1;
}
