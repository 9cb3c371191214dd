// Experiment FIG4 — reproduces Figure 4: the 4-action run of the toy
// Get-Shared protocol, the tracking labels of every transition, the state
// after each action, and the final ST-index of every location.
#include <cstdio>
#include <functional>
#include <span>
#include <vector>

#include "protocol/get_shared_toy.hpp"
#include "protocol/st_index.hpp"

namespace {

using namespace scv;

Transition pick(const Protocol& proto, std::span<const std::uint8_t> state,
                const std::function<bool(const Transition&)>& pred) {
  std::vector<Transition> ts;
  proto.enumerate(state, ts);
  for (const Transition& t : ts) {
    if (pred(t)) return t;
  }
  std::fprintf(stderr, "figure 4 drive script out of sync\n");
  std::abort();
}

void print_state(const GetSharedToy& proto,
                 std::span<const std::uint8_t> s) {
  for (std::size_t p = 0; p < 2; ++p) {
    std::printf("    P%zu:", p + 1);
    for (std::size_t slot = 0; slot < 2; ++slot) {
      const LocId loc = proto.slot_loc(p, slot);
      const int blk = proto.slot_block(s, loc);
      if (blk < 0) {
        std::printf("  loc%u: _|_", loc + 1);
      } else {
        std::printf("  loc%u: B%d:%d", loc + 1, blk + 1,
                    proto.slot_value(s, loc));
      }
    }
    std::printf("\n");
  }
}

void print_figure4() {
  std::printf("== FIG4: tracking labels and ST indexes ==\n");
  std::printf("Run R = ST(P1,B1,1), ST(P2,B2,2), Get-Shared(P2,B1), "
              "ST(P1,B3,3)\n\n");
  GetSharedToy proto(2, 3, 3, 2);
  std::vector<std::uint8_t> s(proto.state_size());
  proto.initial_state(s);
  StIndexTracker tracker(proto.params().locations);
  std::size_t trace_ops = 0;

  const auto step = [&](const Transition& t) {
    proto.apply(s, t);
    if (t.action.kind == Action::Kind::Store) {
      ++trace_ops;
      tracker.on_store(t.loc, static_cast<std::uint32_t>(trace_ops));
      std::printf("  %-22s tracking label: %u\n",
                  proto.action_name(t.action).c_str(), t.loc + 1);
    } else {
      std::printf("  %-22s copy labels:", proto.action_name(t.action).c_str());
      for (const CopyEntry& c : t.copies) {
        std::printf(" c_%u=%u", c.dst + 1,
                    c.src == kClearSrc ? 0 : c.src + 1);
      }
      std::printf("\n");
    }
    if (!t.copies.empty()) {
      tracker.on_copies({t.copies.begin(), t.copies.size()});
    }
    print_state(proto, s);
  };

  step(pick(proto, s, [](const Transition& t) {
    return t.action.kind == Action::Kind::Store && t.action.op.proc == 0 &&
           t.action.op.block == 0 && t.action.op.value == 1 && t.loc == 0;
  }));
  step(pick(proto, s, [](const Transition& t) {
    return t.action.kind == Action::Kind::Store && t.action.op.proc == 1 &&
           t.action.op.block == 1 && t.action.op.value == 2 && t.loc == 3;
  }));
  step(pick(proto, s, [](const Transition& t) {
    return t.action.kind == Action::Kind::Internal && t.action.arg0 == 1 &&
           t.copies.size() == 1 && t.copies[0].src == 0 &&
           t.copies[0].dst == 2;
  }));
  step(pick(proto, s, [](const Transition& t) {
    return t.action.kind == Action::Kind::Store && t.action.op.proc == 0 &&
           t.action.op.block == 2 && t.action.op.value == 3 && t.loc == 0;
  }));

  std::printf("\n  final ST indexes (paper Figure 4(c): 3, 0, 1, 2):\n");
  for (LocId l = 0; l < 4; ++l) {
    std::printf("    ST-index(R,%u) = %u\n", l + 1, tracker.at(l));
  }
  std::printf("\n");
}

}  // namespace

int main() {
  print_figure4();
  return 0;
}
