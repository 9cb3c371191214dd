// Tests for the witness observer (Theorem 4.1): non-interference, validity
// of the emitted constraint-graph descriptor (checked against the offline
// unbounded-state validator), bandwidth bounds (Section 4.4), the
// location-mirrored emission mode, and canonical state serialization.
#include <gtest/gtest.h>

#include "checker/sc_checker.hpp"
#include "descriptor/descriptor.hpp"
#include "graph/constraint_graph.hpp"
#include "observer/observer.hpp"
#include "protocol/directory.hpp"
#include "protocol/lazy_caching.hpp"
#include "protocol/msi_bus.hpp"
#include "protocol/serial_memory.hpp"
#include "walker.hpp"

namespace scv {
namespace {

using testing::random_walk;

struct ObservedRun {
  Trace trace;
  std::vector<Symbol> symbols;
  ObserverStatus status = ObserverStatus::Ok;
  std::size_t peak_live = 0;
  std::size_t bandwidth = 0;
  std::string error;
};

/// Replays a random walk through an observer, collecting all symbols.
ObservedRun observe_walk(const Protocol& proto, std::size_t steps,
                         std::uint64_t seed, ObserverConfig cfg = {}) {
  const auto walk = random_walk(proto, steps, seed);
  ObservedRun run;
  run.trace = walk.trace;
  Observer obs(proto, cfg);
  std::vector<std::uint8_t> state(proto.state_size());
  proto.initial_state(state);
  for (const Transition& t : walk.transitions) {
    proto.apply(state, t);
    run.status = obs.step(t, state, run.symbols);
    if (run.status != ObserverStatus::Ok) {
      run.error = obs.error();
      break;
    }
  }
  run.peak_live = obs.peak_live_nodes();
  run.bandwidth = obs.bandwidth();
  return run;
}

/// Expands observer output and validates it as a constraint graph of the
/// trace (offline reference validator).
void expect_valid_constraint_graph(const ObservedRun& run,
                                   bool expect_acyclic) {
  Descriptor d;
  d.k = kMaxBandwidth;
  d.symbols = run.symbols;
  const auto r = expand(d);
  ASSERT_TRUE(r.graph.has_value()) << r.error;
  ASSERT_EQ(r.graph->graph.node_count(), run.trace.size());
  ConstraintGraph g(run.trace);
  for (std::uint32_t u = 0; u < r.graph->graph.node_count(); ++u) {
    ASSERT_TRUE(r.graph->node_labels[u].has_value());
    EXPECT_EQ(*r.graph->node_labels[u], run.trace[u])
        << "observer relabeled operation " << u;
    for (std::uint32_t v : r.graph->graph.successors(u)) {
      g.add_edge(u, v, r.graph->annotation(u, v));
    }
  }
  EXPECT_EQ(g.validate(), std::nullopt);
  if (expect_acyclic) {
    EXPECT_TRUE(g.acyclic());
  }
}

TEST(Observer, SerialMemoryRunsYieldValidAcyclicGraphs) {
  SerialMemory proto(2, 2, 2);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto run = observe_walk(proto, 200, seed);
    ASSERT_EQ(run.status, ObserverStatus::Ok) << run.error;
    expect_valid_constraint_graph(run, true);
  }
}

TEST(Observer, MsiRunsYieldValidAcyclicGraphs) {
  MsiBus proto(2, 2, 2);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto run = observe_walk(proto, 300, seed);
    ASSERT_EQ(run.status, ObserverStatus::Ok) << run.error;
    expect_valid_constraint_graph(run, true);
  }
}

TEST(Observer, DirectoryRunsYieldValidAcyclicGraphs) {
  DirectoryProtocol proto(2, 2, 2);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto run = observe_walk(proto, 300, seed);
    ASSERT_EQ(run.status, ObserverStatus::Ok) << run.error;
    expect_valid_constraint_graph(run, true);
  }
}

TEST(Observer, NonInterferenceTraceEquality) {
  // The labeled node descriptors of the observer's output are exactly the
  // protocol trace, in order — property (i) of Definition 3.1, by
  // construction.
  MsiBus proto(2, 1, 2);
  const auto run = observe_walk(proto, 300, 42);
  ASSERT_EQ(run.status, ObserverStatus::Ok);
  Trace emitted;
  for (const Symbol& s : run.symbols) {
    if (const auto* nd = std::get_if<NodeDesc>(&s)) {
      ASSERT_TRUE(nd->label.has_value());
      emitted.push_back(*nd->label);
    }
  }
  EXPECT_EQ(emitted, run.trace);
}

TEST(Observer, PeakLiveNodesBoundedByPaperAccounting) {
  // Section 4.4: bandwidth is bounded by a function of L, p, b — never by
  // the run length.  Run long walks and compare against L + pb + p + 2b.
  struct Case {
    const Protocol& proto;
    std::size_t steps;
  };
  SerialMemory sm(2, 2, 2);
  MsiBus msi(2, 2, 2);
  DirectoryProtocol dir(2, 2, 2);
  for (const Protocol* proto :
       std::initializer_list<const Protocol*>{&sm, &msi, &dir}) {
    std::size_t peak = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const auto run = observe_walk(*proto, 600, seed);
      ASSERT_EQ(run.status, ObserverStatus::Ok)
          << proto->name() << ": " << run.error;
      peak = std::max(peak, run.peak_live);
    }
    const auto& pr = proto->params();
    EXPECT_LE(peak,
              pr.locations + pr.procs * pr.blocks + pr.procs + 2 * pr.blocks)
        << proto->name();
  }
}

TEST(Observer, LazyCachingRunsAreAcceptedByChecker) {
  LazyCaching proto(2, 2, 2, 1, 2);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto run = observe_walk(proto, 300, seed);
    ASSERT_EQ(run.status, ObserverStatus::Ok) << run.error;
    // The checker's k must match the stream's bandwidth: the observer's
    // null-ID releases land on its own k+1, and any other unbound add-ID
    // source is rejected as dangling.
    ScChecker chk(ScCheckerConfig{run.bandwidth, 2, 2, 2});
    for (const Symbol& s : run.symbols) {
      ASSERT_EQ(chk.feed(s), ScChecker::Status::Ok)
          << chk.reject_reason() << " seed " << seed;
    }
  }
}

TEST(Observer, MirroredModeEmitsSameGraphAsCompact) {
  MsiBus proto(2, 1, 2);
  const auto walk = random_walk(proto, 250, 7);
  ObserverConfig compact;
  ObserverConfig mirrored;
  mirrored.location_mirrored = true;
  mirrored.pool_size = 24;
  Observer obs_c(proto, compact);
  Observer obs_m(proto, mirrored);
  std::vector<Symbol> sym_c, sym_m;
  std::vector<std::uint8_t> state(proto.state_size());
  proto.initial_state(state);
  for (const Transition& t : walk.transitions) {
    proto.apply(state, t);
    ASSERT_EQ(obs_c.step(t, state, sym_c), ObserverStatus::Ok)
        << obs_c.error();
    ASSERT_EQ(obs_m.step(t, state, sym_m), ObserverStatus::Ok)
        << obs_m.error();
  }
  // The mirrored stream is longer (add-ID traffic) but must denote the
  // same labeled graph.
  EXPECT_GT(sym_m.size(), sym_c.size());
  Descriptor dc{kMaxBandwidth, sym_c}, dm{kMaxBandwidth, sym_m};
  const auto rc = expand(dc);
  const auto rm = expand(dm);
  ASSERT_TRUE(rc.graph.has_value()) << rc.error;
  ASSERT_TRUE(rm.graph.has_value()) << rm.error;
  EXPECT_TRUE(rc.graph->graph.same_edges(rm.graph->graph));
  for (std::uint32_t u = 0; u < rc.graph->graph.node_count(); ++u) {
    EXPECT_EQ(rc.graph->node_labels[u], rm.graph->node_labels[u]);
    for (std::uint32_t v : rc.graph->graph.successors(u)) {
      EXPECT_EQ(rc.graph->annotation(u, v), rm.graph->annotation(u, v));
    }
  }
}

TEST(Observer, MirroredModeAcceptedByChecker) {
  MsiBus proto(2, 1, 2);
  const auto walk = random_walk(proto, 250, 11);
  ObserverConfig mirrored;
  mirrored.location_mirrored = true;
  mirrored.pool_size = 24;
  Observer obs(proto, mirrored);
  ScChecker chk(ScCheckerConfig{obs.bandwidth(), 2, 1, 2});
  std::vector<std::uint8_t> state(proto.state_size());
  proto.initial_state(state);
  std::vector<Symbol> symbols;
  for (const Transition& t : walk.transitions) {
    proto.apply(state, t);
    symbols.clear();
    ASSERT_EQ(obs.step(t, state, symbols), ObserverStatus::Ok)
        << obs.error();
    for (const Symbol& s : symbols) {
      ASSERT_EQ(chk.feed(s), ScChecker::Status::Ok) << chk.reject_reason();
    }
  }
}

TEST(Observer, TinyPoolReportsBandwidthExceeded) {
  MsiBus proto(2, 2, 2);
  ObserverConfig cfg;
  cfg.pool_size = 3;  // far below the protocol's needs
  bool exceeded = false;
  for (std::uint64_t seed = 1; seed <= 5 && !exceeded; ++seed) {
    const auto run = observe_walk(proto, 300, seed, cfg);
    exceeded = run.status == ObserverStatus::BandwidthExceeded;
  }
  EXPECT_TRUE(exceeded);
}

TEST(Observer, CanonicalSerializationErasesHistoryNaming) {
  // Two different interleavings reaching the same logical configuration
  // must serialize identically.  Protocol: serial memory, 2 procs; the
  // configuration "P1 stored 1 to B1, then P2 stored 1 to B1" vs the
  // reverse reach different logical states (different tails), so instead
  // drive two runs that demonstrably converge: store/load symmetric noise
  // followed by a common quiescing suffix is protocol-specific; here we
  // simply check that repeating the same run twice serializes equally and
  // that serialization is insensitive to pool naming after churn.
  SerialMemory proto(2, 1, 2);
  const auto drive = [&](std::uint64_t seed, std::size_t steps) {
    Observer obs(proto, {});
    std::vector<std::uint8_t> state(proto.state_size());
    proto.initial_state(state);
    const auto walk = random_walk(proto, steps, seed);
    std::vector<Symbol> symbols;
    for (const Transition& t : walk.transitions) {
      proto.apply(state, t);
      (void)obs.step(t, state, symbols);
    }
    return obs;
  };
  // Same seed, same length: identical states.
  {
    const Observer a = drive(3, 50);
    const Observer b = drive(3, 50);
    ByteWriter wa, wb;
    a.serialize(wa);
    b.serialize(wb);
    EXPECT_EQ(wa.data(), wb.data());
  }
  // Different histories, same logical tail: drive different-length walks,
  // then append the same canonicalizing suffix (every proc stores 1 then
  // loads) and compare.
  {
    Observer a = drive(4, 51);
    Observer b = drive(5, 52);
    std::vector<std::uint8_t> sa(proto.state_size());
    std::vector<std::uint8_t> sb(proto.state_size());
    // Reconstruct the protocol states by replaying (random_walk is
    // deterministic per seed).
    proto.initial_state(sa);
    for (const Transition& t : random_walk(proto, 51, 4).transitions) {
      proto.apply(sa, t);
    }
    proto.initial_state(sb);
    for (const Transition& t : random_walk(proto, 52, 5).transitions) {
      proto.apply(sb, t);
    }
    std::vector<Symbol> sink;
    for (std::size_t p = 0; p < 2; ++p) {
      Transition st;
      st.action = store_action(static_cast<ProcId>(p), 0, 1);
      st.loc = 0;
      proto.apply(sa, st);
      proto.apply(sb, st);
      ASSERT_EQ(a.step(st, sa, sink), ObserverStatus::Ok);
      ASSERT_EQ(b.step(st, sb, sink), ObserverStatus::Ok);
      Transition ld;
      ld.action = load_action(static_cast<ProcId>(p), 0, 1);
      ld.loc = 0;
      proto.apply(sa, ld);
      proto.apply(sb, ld);
      ASSERT_EQ(a.step(ld, sa, sink), ObserverStatus::Ok);
      ASSERT_EQ(b.step(ld, sb, sink), ObserverStatus::Ok);
    }
    ByteWriter wa, wb;
    a.serialize(wa);
    b.serialize(wb);
    EXPECT_EQ(wa.data(), wb.data())
        << "canonical serialization must collapse isomorphic states";
  }
}

// Section 4.4's size bound, (L + pb)(lg p + lg b + lg v + 1) + L lg L bits,
// on hand-computed points.
TEST(Observer, SizeBoundMatchesHandComputedCases) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
  // (4 + 2)·(1 + 0 + 1 + 1) + 4·2
  EXPECT_EQ(observer_size_bound_bits(2, 1, 2, 4), 26u);
  // (0 + 6)·(2 + 1 + 2 + 1), and L = 0 adds nothing
  EXPECT_EQ(observer_size_bound_bits(3, 2, 3, 0), 36u);
}

TEST(Observer, DefaultPoolSizeWithinCheckerLimits) {
  SerialMemory small(1, 1, 1);
  MsiBus big(4, 4, 2);
  EXPECT_GE(Observer::default_pool_size(small), 4u);
  EXPECT_LE(Observer::default_pool_size(big), kMaxBandwidth - 1);
  Observer obs(big);
  EXPECT_LE(obs.bandwidth(), kMaxBandwidth);
}

// ------------------------------------------------ raw snapshot / restore
//
// The model checker's compact frontier serializes observers with
// snapshot() and rebuilds them with restore(); unlike the canonical
// serialization, the pair must be bit-faithful (pool IDs, handle naming,
// free mask and all).

TEST(Observer, SnapshotRestoreRoundtrip) {
  MsiBus proto(2, 2, 1);
  const auto walk = random_walk(proto, 120, 42);
  Observer obs(proto, {});
  std::vector<std::uint8_t> state(proto.state_size());
  proto.initial_state(state);
  std::vector<Symbol> out;
  std::size_t step = 0;
  for (const Transition& t : walk.transitions) {
    proto.apply(state, t);
    out.clear();
    ASSERT_EQ(obs.step(t, state, out), ObserverStatus::Ok) << obs.error();
    ByteWriter snap;
    obs.snapshot(snap);
    Observer copy(proto, {});
    ByteReader r(snap.data());
    copy.restore(r);
    ASSERT_TRUE(r.done()) << "step " << step;
    // Bit-faithful: identical raw re-snapshot and identical canonical
    // serialization.
    ByteWriter resnap;
    copy.snapshot(resnap);
    ASSERT_EQ(resnap.data(), snap.data()) << "step " << step;
    ByteWriter ca, cb;
    obs.serialize(ca);
    copy.serialize(cb);
    ASSERT_EQ(cb.data(), ca.data()) << "step " << step;
    ++step;
  }
}

// Over every registry protocol × model: restore() of a snapshot followed by
// snapshot() reproduces the bytes (live-node mask and records included), and
// the restored observer serializes like the original.  One observer per walk
// takes every state in turn, as a model-checker worker does, so each restore
// starts from the previous state's live set.
TEST(Observer, SnapshotsRoundTripOverRegistryWalks) {
  std::size_t states = 0;
  std::optional<Observer> copy;
  testing::for_each_registry_walk_state(
      200, 7,
      [&](const RegisteredProtocol& entry, const NamedModel& nm,
          const Product& p, std::size_t step) {
        ++states;
        if (step == 1) copy.emplace(p.protocol(), p.observer().config());
        ByteWriter snap;
        p.observer().snapshot(snap);
        ByteReader r(snap.data());
        copy->restore(r);
        EXPECT_TRUE(r.done());
        ByteWriter again;
        copy->snapshot(again);
        EXPECT_EQ(again.data(), snap.data())
            << entry.id << " × " << nm.name << " step " << step;
        ByteWriter ca, cb;
        p.observer().serialize(ca);
        copy->serialize(cb);
        EXPECT_EQ(cb.data(), ca.data())
            << entry.id << " × " << nm.name << " step " << step;
      });
  EXPECT_GT(states, 27u * 20);
}

// The change certificate: over registry × model walks, every successor of
// every walk state whose step is Ok and reports changed() == false
// serializes to the pre-step observer's bytes and id_canon — the guarantee
// the canonicalizer's key-part reuse stands on.  Such steps must occur, or
// the test proves nothing.
TEST(Observer, UnchangedStepsKeepSerializedBytes) {
  std::size_t unchanged = 0;
  std::vector<Transition> enabled;
  std::vector<Symbol> symbols;
  for (const RegisteredProtocol& entry : protocol_registry()) {
    const std::unique_ptr<Protocol> proto = entry.make();
    for (const NamedModel& nm : memory_model_axis()) {
      ObserverConfig cfg;
      cfg.model = nm.model;
      Product cur(*proto, cfg, /*with_observer=*/true);
      Product succ(*proto, cfg, /*with_observer=*/true);
      Xoshiro256 rng(11);
      for (std::size_t i = 0; i < 120; ++i) {
        ByteWriter before;
        std::vector<GraphId> before_ids;
        cur.observer().serialize(before, &before_ids);
        enabled.clear();
        cur.enumerate(enabled);
        if (enabled.empty()) break;
        for (const Transition& t : enabled) {
          succ.assign_from(cur);
          if (succ.step(t, symbols) != StepOutcome::Ok ||
              succ.observer().changed()) {
            continue;
          }
          ++unchanged;
          ByteWriter after;
          std::vector<GraphId> after_ids;
          succ.observer().serialize(after, &after_ids);
          EXPECT_EQ(after.data(), before.data())
              << entry.id << " × " << nm.name << " step " << i << ": "
              << proto->action_name(t.action);
          EXPECT_EQ(after_ids, before_ids)
              << entry.id << " × " << nm.name << " step " << i;
        }
        const Transition t = enabled[rng.below(enabled.size())];
        if (cur.step(t, symbols) != StepOutcome::Ok) break;
      }
    }
  }
  EXPECT_GT(unchanged, 1000u);
}

TEST(Observer, RestoredObserverContinuesIdentically) {
  LazyCaching proto(2, 1, 1, 1, 2);
  const auto walk = random_walk(proto, 160, 7);
  Observer obs(proto, {});
  std::vector<std::uint8_t> state(proto.state_size());
  proto.initial_state(state);
  std::vector<Symbol> sym_a, sym_b;
  const std::size_t half = walk.transitions.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    proto.apply(state, walk.transitions[i]);
    ASSERT_EQ(obs.step(walk.transitions[i], state, sym_a),
              ObserverStatus::Ok);
  }
  ByteWriter snap;
  obs.snapshot(snap);
  Observer copy(proto, {});
  ByteReader r(snap.data());
  copy.restore(r);
  for (std::size_t i = half; i < walk.transitions.size(); ++i) {
    proto.apply(state, walk.transitions[i]);
    sym_a.clear();
    sym_b.clear();
    ASSERT_EQ(obs.step(walk.transitions[i], state, sym_a),
              ObserverStatus::Ok);
    ASSERT_EQ(copy.step(walk.transitions[i], state, sym_b),
              ObserverStatus::Ok);
    ASSERT_EQ(sym_a, sym_b) << "step " << i;
  }
  EXPECT_EQ(copy.peak_live_nodes(), obs.peak_live_nodes());
  EXPECT_EQ(copy.live_nodes(), obs.live_nodes());
}

}  // namespace
}  // namespace scv
