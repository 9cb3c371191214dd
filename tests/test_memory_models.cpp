// Tests for the memory-model extension (paper §5, "extending these
// techniques to other memory models"): verifying *coherence* (per-location
// SC) by restricting program order edges to (processor, block) chains, the
// drain-order (deferred) ST serialization option of the write buffer, the
// TSO instantiation of the model axis, and the bounded-preemption
// exploration mode.
#include <gtest/gtest.h>

#include "checker/memory_model.hpp"
#include "checker/sc_checker.hpp"
#include "mc/model_checker.hpp"
#include "observer/observer.hpp"
#include "protocol/lazy_caching.hpp"
#include "protocol/msi_bus.hpp"
#include "protocol/registry.hpp"
#include "protocol/serial_memory.hpp"
#include "protocol/write_buffer.hpp"

namespace scv {
namespace {

McResult verify_coherence(const Protocol& proto) {
  McOptions opt;
  opt.observer.model = MemoryModel::coherence();
  return model_check(proto, opt);
}

McResult verify_model(const Protocol& proto, const MemoryModel& model,
                      std::size_t max_states = 0) {
  McOptions opt;
  opt.observer.model = model;
  if (max_states != 0) opt.max_states = max_states;
  return model_check(proto, opt);
}

// --------------------------------------------------------- the headline

TEST(Coherence, ForwardingWriteBufferIsCoherentButNotSc) {
  // TSO in miniature: under drain-order serialization the forwarding
  // buffer is per-location SC (coherent) yet fails full SC on the
  // store-buffering litmus.
  WriteBuffer proto(2, 2, 1, 1, /*forwarding=*/true, /*drain_order=*/true);
  EXPECT_EQ(model_check(proto).verdict, McVerdict::Violation);
  EXPECT_EQ(verify_coherence(proto).verdict, McVerdict::Verified);
}

TEST(Coherence, NonForwardingBufferIsNotEvenCoherent) {
  // Missing your own buffered store is a same-block violation.
  WriteBuffer proto(2, 2, 1, 1, /*forwarding=*/false, /*drain_order=*/true);
  const McResult r = verify_coherence(proto);
  ASSERT_EQ(r.verdict, McVerdict::Violation) << r.summary();
  // Counterexample stays within one block: ST, stale LD, Drain.
  EXPECT_LE(r.counterexample.size(), 3u);
}

TEST(Coherence, ScProtocolsAreCoherent) {
  // SC implies coherence, and the restricted witness graphs are smaller.
  MsiBus msi(2, 1, 1);
  const McResult sc = model_check(msi);
  const McResult coh = verify_coherence(msi);
  EXPECT_EQ(sc.verdict, McVerdict::Verified);
  EXPECT_EQ(coh.verdict, McVerdict::Verified);

  LazyCaching lazy(2, 1, 1, 1, 2);
  const McResult lc = verify_coherence(lazy);
  EXPECT_EQ(lc.verdict, McVerdict::Verified);
  // With a single block the chains coincide, so the products are equal.
  EXPECT_EQ(lc.states, model_check(lazy).states);
}

TEST(Coherence, MultiBlockCoherenceProductIsSmaller) {
  // With b >= 2, dropping cross-block program order shrinks the witness
  // graphs and hence the product.
  SerialMemory proto(2, 2, 1);
  const McResult sc = model_check(proto);
  const McResult coh = verify_coherence(proto);
  ASSERT_EQ(sc.verdict, McVerdict::Verified);
  ASSERT_EQ(coh.verdict, McVerdict::Verified);
  EXPECT_LT(coh.states, sc.states);
}

TEST(Coherence, SerialMemoryCoherent) {
  SerialMemory proto(2, 2, 2);
  EXPECT_EQ(verify_coherence(proto).verdict, McVerdict::Verified);
}

// ----------------------------------------------------- drain-order option

TEST(DrainOrder, SbViolationStillFoundUnderDeferredSerialization) {
  WriteBuffer proto(2, 2, 1, 1, true, true);
  const McResult r = model_check(proto);
  ASSERT_EQ(r.verdict, McVerdict::Violation);
  // The cycle closes only when the forced edges are emitted at the drains,
  // so the counterexample includes them.
  bool has_drain = false;
  for (const auto& step : r.counterexample) {
    has_drain = has_drain || step.action.find("Drain") != std::string::npos;
  }
  EXPECT_TRUE(has_drain);
}

TEST(DrainOrder, RealTimeAndDrainOrderAgreeOnVerdicts) {
  for (const bool fwd : {false, true}) {
    WriteBuffer rt(2, 2, 1, 1, fwd, false);
    WriteBuffer dr(2, 2, 1, 1, fwd, true);
    EXPECT_EQ(model_check(rt).verdict, model_check(dr).verdict) << fwd;
  }
}

TEST(DrainOrder, ReportsDeferredGeneratorFlag) {
  WriteBuffer rt(2, 1, 1, 1, true, false);
  WriteBuffer dr(2, 1, 1, 1, true, true);
  EXPECT_TRUE(rt.real_time_st_order());
  EXPECT_FALSE(dr.real_time_st_order());
}

// ------------------------------------------------- checker-level checks

TEST(CoherencePo, CrossBlockPoEdgeRejected) {
  ScCheckerConfig cfg{8, 2, 2, 1, MemoryModel::coherence()};
  ScChecker c(cfg);
  ASSERT_EQ(c.feed(NodeDesc{1, make_store(0, 0, 1)}), ScChecker::Status::Ok);
  ASSERT_EQ(c.feed(NodeDesc{2, make_store(0, 1, 1)}), ScChecker::Status::Ok);
  // Same processor, different blocks: not a chain edge in coherence mode.
  EXPECT_EQ(c.feed(EdgeDesc{1, 2, kAnnoPo}), ScChecker::Status::Reject);
  EXPECT_NE(c.reject_reason().find("chain"), std::string::npos);
}

TEST(CoherencePo, SameBlockChainAccepted) {
  ScCheckerConfig cfg{8, 2, 2, 1, MemoryModel::coherence()};
  ScChecker c(cfg);
  ASSERT_EQ(c.feed(NodeDesc{1, make_store(0, 0, 1)}), ScChecker::Status::Ok);
  // An interleaved op on another block opens its own chain with no edge
  // owed between them.
  ASSERT_EQ(c.feed(NodeDesc{2, make_store(0, 1, 1)}), ScChecker::Status::Ok);
  ASSERT_EQ(c.feed(EdgeDesc{1, 2, kAnnoSto}), ScChecker::Status::Reject)
      << "cross-block STo must still be rejected";
}

TEST(CoherencePo, ObserverEmitsPerChainEdges) {
  SerialMemory proto(1, 2, 1);
  ObserverConfig cfg;
  cfg.model = MemoryModel::coherence();
  Observer obs(proto, cfg);
  std::vector<std::uint8_t> state(proto.state_size());
  proto.initial_state(state);
  std::vector<Symbol> symbols;
  const auto drive = [&](BlockId b) {
    Transition st;
    st.action = store_action(0, b, 1);
    st.loc = b;
    proto.apply(state, st);
    ASSERT_EQ(obs.step(st, state, symbols), ObserverStatus::Ok);
  };
  drive(0);
  drive(1);  // different block: no po edge between the two stores
  drive(0);  // same block as the first: po edge to it
  std::size_t po_edges = 0;
  for (const Symbol& s : symbols) {
    if (const auto* e = std::get_if<EdgeDesc>(&s)) {
      po_edges += (e->anno & kAnnoPo) ? 1 : 0;
    }
  }
  EXPECT_EQ(po_edges, 1u);
}

// ------------------------------------------------------ the TSO headline

TEST(Tso, WriteBufferVerifiesUnderTsoButViolatesSc) {
  // The point of the model axis: the machine the paper's write buffer
  // actually implements.  Relaxing ST→LD order and threading the
  // per-processor store chain turns the SC counterexample into a verified
  // protocol — the buffer is a correct TSO implementation.
  WriteBuffer proto(1, 1, 1, 1, /*forwarding=*/false);
  EXPECT_EQ(model_check(proto).verdict, McVerdict::Violation);
  const McResult tso = verify_model(proto, MemoryModel::tso());
  EXPECT_EQ(tso.verdict, McVerdict::Verified) << tso.summary();

  WriteBuffer two(2, 1, 1, 1, /*forwarding=*/false);
  EXPECT_EQ(model_check(two).verdict, McVerdict::Violation);
  EXPECT_EQ(verify_model(two, MemoryModel::tso()).verdict,
            McVerdict::Verified);
}

TEST(Tso, ForwardingBufferStillViolatesTso) {
  // Our TSO is the non-forwarding buffer: a forwarded load returns its own
  // processor's buffered store early, and the inheritance edge pins that
  // store before the load in the witness order, so the store-buffering
  // cycle (two blocks, both processors forward-reading their own store and
  // cross-reading the initial value) survives the ST→LD relaxation.
  WriteBuffer fwd(2, 2, 1, 1, /*forwarding=*/true);
  const McResult r = verify_model(fwd, MemoryModel::tso());
  EXPECT_EQ(r.verdict, McVerdict::Violation) << r.summary();
  // With one block there is nothing to buffer past: forwarding reads are
  // the freshest value and the machine is TSO-correct.
  WriteBuffer one(2, 1, 1, 1, /*forwarding=*/true);
  EXPECT_EQ(verify_model(one, MemoryModel::tso()).verdict,
            McVerdict::Verified);
}

TEST(Tso, ChainTailsWidenTheDefaultPool) {
  // R3/R4 and the observer must agree on the pool a run under each model
  // uses: the TSO store chain keeps one extra tail per processor alive, and
  // coherence's per-(processor, block) chains keep p·b tails instead of p.
  const WriteBuffer proto(2, 2, 2, 1, false);
  const auto& pr = proto.params();
  const std::size_t sc_pool = Observer::default_pool_size(proto);
  EXPECT_EQ(Observer::default_pool_size(proto, MemoryModel::tso()),
            sc_pool + pr.procs);
  EXPECT_EQ(Observer::default_pool_size(proto, MemoryModel::coherence()),
            sc_pool + pr.procs * (pr.blocks - 1));
  EXPECT_EQ(Observer::default_pool_size(proto, MemoryModel{}), sc_pool);
  for (const NamedModel& nm : memory_model_axis()) {
    EXPECT_EQ(Observer::default_pool_size(proto, nm.model),
              Observer::active_node_bound(proto, nm.model))
        << nm.name << ": the bound fits, so the pool is not clamped";
  }
}

// ------------------------------------------------ registry × model matrix

TEST(Tso, RegistryVerdictsMatchTheRecordedMatrix) {
  // Differential check of every bundled protocol against the registry's
  // per-model violation flags.  Expected violations run uncapped — BFS
  // stops at the first counterexample (worst cell: write_buffer_fwd under
  // tso at ~705k states).  Expected-clean runs get a state cap instead: a
  // clean verdict within the cap is Verified or StateLimit, and finding a
  // counterexample anywhere would flip the verdict to Violation.
  constexpr std::size_t kCleanCap = 150'000;
  for (const RegisteredProtocol& entry : protocol_registry()) {
    const auto proto = entry.make();
    for (const NamedModel& nm : memory_model_axis()) {
      if (entry.violating_under(nm.model)) {
        const McResult r = verify_model(*proto, nm.model);
        EXPECT_EQ(r.verdict, McVerdict::Violation)
            << entry.id << " under " << nm.name << ": " << r.summary();
      } else {
        const McResult r = verify_model(*proto, nm.model, kCleanCap);
        EXPECT_TRUE(r.verdict == McVerdict::Verified ||
                    r.verdict == McVerdict::StateLimit)
            << entry.id << " under " << nm.name << ": " << r.summary();
        EXPECT_TRUE(r.counterexample.empty()) << entry.id;
      }
    }
  }
}

TEST(Tso, ScVerifiedImpliesRelaxedVerifiedOnSmallInstances) {
  // For a fixed witness, every model only removes po edges relative to SC,
  // so SC-verified implies verified under tso and coherence.  Exhaustible
  // instances let us check the implication with full verdicts.
  const SerialMemory serial(2, 1, 1);
  const MsiBus msi(2, 1, 1);
  const LazyCaching lazy(2, 1, 1, 1, 2);
  for (const Protocol* proto :
       {static_cast<const Protocol*>(&serial),
        static_cast<const Protocol*>(&msi),
        static_cast<const Protocol*>(&lazy)}) {
    ASSERT_EQ(model_check(*proto).verdict, McVerdict::Verified)
        << proto->name();
    for (const NamedModel& nm : memory_model_axis()) {
      EXPECT_EQ(verify_model(*proto, nm.model).verdict, McVerdict::Verified)
          << proto->name() << " under " << nm.name;
    }
  }
}

// ----------------------------------------------------- bounded preemption

TEST(Preemption, BoundsExplorationWithoutChangingTheVerdict) {
  // Depth-limited exploration with a zero preemption budget walks only the
  // non-preemptive interleavings: strictly fewer states, same verdict.
  const SerialMemory proto(2, 2, 2);
  McOptions full;
  full.max_depth = 8;
  full.threads = 1;
  const McResult f = model_check(proto, full);
  McOptions bounded = full;
  bounded.observer.model = MemoryModel::bounded_sc(0);
  const McResult b = model_check(proto, bounded);
  EXPECT_EQ(b.verdict, f.verdict);
  EXPECT_LT(b.states, f.states);
  EXPECT_GT(b.preemption_pruned, 0u);
}

TEST(Preemption, ViolationsStillFoundWithinTheBudget) {
  // The write buffer's SC counterexample needs only one context switch, so
  // a budget of one still finds it (under-approximation stays useful).
  WriteBuffer proto(2, 1, 1, 1, false);
  const McResult r = verify_model(proto, MemoryModel::bounded_sc(1));
  EXPECT_EQ(r.verdict, McVerdict::Violation) << r.summary();
}

}  // namespace
}  // namespace scv
