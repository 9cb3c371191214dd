// Tests for the full SC checker (Theorem 3.1): cycle detection plus all
// five edge-annotation constraint families, under the prompt-descriptor
// discipline the observer emits.
#include <gtest/gtest.h>

#include "checker/sc_checker.hpp"
#include "util/rng.hpp"
#include "walker.hpp"

namespace scv {
namespace {

using Status = ScChecker::Status;

ScChecker make_checker(std::size_t k = 8, std::size_t procs = 2,
                       std::size_t blocks = 2, std::size_t values = 2) {
  return ScChecker(ScCheckerConfig{k, procs, blocks, values});
}

Status feed_all(ScChecker& c, const std::vector<Symbol>& symbols) {
  Status st = Status::Ok;
  for (const Symbol& s : symbols) {
    st = c.feed(s);
    if (st == Status::Reject) return st;
  }
  return st;
}

// The Figure 3 stream, emitted the way the observer would (node, po edge,
// inh/STo/forced edges immediately).
std::vector<Symbol> fig3_stream() {
  return {
      NodeDesc{1, make_store(0, 0, 1)},
      NodeDesc{2, make_load(1, 0, 1)},
      EdgeDesc{1, 2, kAnnoInh},
      NodeDesc{3, make_store(0, 0, 2)},
      EdgeDesc{1, 3, static_cast<std::uint8_t>(kAnnoPo | kAnnoSto)},
      EdgeDesc{2, 3, kAnnoForced},  // last P2 load inheriting node 1
      NodeDesc{4, make_load(1, 0, 1)},
      EdgeDesc{2, 4, kAnnoPo},
      EdgeDesc{1, 4, kAnnoInh},
      EdgeDesc{4, 3, kAnnoForced},
      NodeDesc{5, make_load(1, 0, 2)},
      EdgeDesc{4, 5, kAnnoPo},
      EdgeDesc{3, 5, kAnnoInh},
  };
}

TEST(ScChecker, AcceptsFig3Stream) {
  auto c = make_checker();
  EXPECT_EQ(feed_all(c, fig3_stream()), Status::Ok) << c.reject_reason();
}

TEST(ScChecker, NodeWithoutLabelRejected) {
  auto c = make_checker();
  EXPECT_EQ(c.feed(NodeDesc{1}), Status::Reject);
  EXPECT_NE(c.reject_reason().find("label"), std::string::npos);
}

TEST(ScChecker, LabelOutOfRangeRejected) {
  auto c = make_checker(8, /*procs=*/2, /*blocks=*/2, /*values=*/2);
  EXPECT_EQ(c.feed(NodeDesc{1, make_store(3, 0, 1)}), Status::Reject);
  auto c2 = make_checker();
  EXPECT_EQ(c2.feed(NodeDesc{1, make_store(0, 0, 3)}), Status::Reject);
}

// ------------------------------------------------------- program order

TEST(ScChecker, ProgramOrderEdgeRequiredBeforeNextOp) {
  auto c = make_checker();
  EXPECT_EQ(c.feed(NodeDesc{1, make_store(0, 0, 1)}), Status::Ok);
  // Second op of P1 without the po edge for the first pair pending?  The
  // first op had no predecessor, so no edge is owed yet; the second op
  // creates the obligation.
  EXPECT_EQ(c.feed(NodeDesc{2, make_store(0, 0, 2)}), Status::Ok);
  // A third P1 op before the (1,2) po edge violates promptness.
  EXPECT_EQ(c.feed(NodeDesc{3, make_store(0, 0, 1)}), Status::Reject);
  EXPECT_NE(c.reject_reason().find("program order"), std::string::npos);
}

TEST(ScChecker, WrongDirectionPoEdgeRejected) {
  auto c = make_checker();
  (void)c.feed(NodeDesc{1, make_store(0, 0, 1)});
  (void)c.feed(NodeDesc{2, make_store(0, 0, 2)});
  EXPECT_EQ(c.feed(EdgeDesc{2, 1, kAnnoPo}), Status::Reject);
}

TEST(ScChecker, CrossProcessorPoEdgeRejected) {
  auto c = make_checker();
  (void)c.feed(NodeDesc{1, make_store(0, 0, 1)});
  (void)c.feed(NodeDesc{2, make_store(1, 0, 2)});
  EXPECT_EQ(c.feed(EdgeDesc{1, 2, kAnnoPo}), Status::Reject);
  EXPECT_NE(c.reject_reason().find("different processors"),
            std::string::npos);
}

TEST(ScChecker, PredecessorRetiredBeforeEdgeRejected) {
  auto c = make_checker(3, 2, 1, 1);
  (void)c.feed(NodeDesc{1, make_store(0, 0, 1)});
  // Recycle ID 1: retires the store (it is P1's latest op — allowed when
  // it could be the last op, but a successor then has no edge source).
  // Retiring the STo root with no pending obligations is fine; the store
  // is also the only store, so constraint 3 is satisfied vacuously.
  (void)c.feed(NodeDesc{1, make_store(1, 0, 1)});
  EXPECT_EQ(c.feed(NodeDesc{2, make_store(0, 0, 1)}), Status::Reject)
      << "new P1 op after its predecessor retired";
}

// ---------------------------------------------------------- ST order

TEST(ScChecker, DuplicateStoOutRejected) {
  auto c = make_checker(8, 2, 1, 2);
  (void)c.feed(NodeDesc{1, make_store(0, 0, 1)});
  (void)c.feed(NodeDesc{2, make_store(1, 0, 1)});
  (void)c.feed(NodeDesc{3, make_store(1, 0, 2)});
  ASSERT_EQ(c.feed(EdgeDesc{2, 3, kAnnoPo}), Status::Ok);
  ASSERT_EQ(c.feed(EdgeDesc{1, 2, kAnnoSto}), Status::Ok);
  EXPECT_EQ(c.feed(EdgeDesc{1, 3, kAnnoSto}), Status::Reject);
  EXPECT_NE(c.reject_reason().find("ST order"), std::string::npos);
}

TEST(ScChecker, StoAcrossBlocksRejected) {
  auto c = make_checker();
  (void)c.feed(NodeDesc{1, make_store(0, 0, 1)});
  (void)c.feed(NodeDesc{2, make_store(1, 1, 1)});
  EXPECT_EQ(c.feed(EdgeDesc{1, 2, kAnnoSto}), Status::Reject);
}

TEST(ScChecker, StoFromLoadRejected) {
  auto c = make_checker();
  (void)c.feed(NodeDesc{1, make_load(0, 0, kBottom)});
  (void)c.feed(NodeDesc{2, make_store(1, 0, 1)});
  EXPECT_EQ(c.feed(EdgeDesc{1, 2, kAnnoSto}), Status::Reject);
}

TEST(ScChecker, TwoRetiredStoRootsRejected) {
  auto c = make_checker(2, 2, 1, 2);
  (void)c.feed(NodeDesc{1, make_store(0, 0, 1)});
  // Recycle ID 1: the store retires with no STo-in — candidate first store.
  ASSERT_EQ(c.feed(NodeDesc{1, make_store(1, 0, 2)}), Status::Ok);
  // Recycle again: a second store retires with no STo-in — impossible in
  // any single total ST order.
  EXPECT_EQ(c.feed(NodeDesc{1, make_store(1, 0, 1)}), Status::Reject);
  EXPECT_NE(c.reject_reason().find("constraint 3"), std::string::npos);
}

// --------------------------------------------------------- inheritance

TEST(ScChecker, InheritanceValueMismatchRejected) {
  auto c = make_checker();
  (void)c.feed(NodeDesc{1, make_store(0, 0, 1)});
  (void)c.feed(NodeDesc{2, make_load(1, 0, 2)});
  EXPECT_EQ(c.feed(EdgeDesc{1, 2, kAnnoInh}), Status::Reject);
  EXPECT_NE(c.reject_reason().find("value"), std::string::npos);
}

TEST(ScChecker, InheritanceBlockMismatchRejected) {
  auto c = make_checker();
  (void)c.feed(NodeDesc{1, make_store(0, 0, 1)});
  (void)c.feed(NodeDesc{2, make_load(1, 1, 1)});
  EXPECT_EQ(c.feed(EdgeDesc{1, 2, kAnnoInh}), Status::Reject);
}

TEST(ScChecker, InheritanceIntoBottomLoadRejected) {
  auto c = make_checker();
  (void)c.feed(NodeDesc{1, make_store(0, 0, 1)});
  (void)c.feed(NodeDesc{2, make_load(1, 0, kBottom)});
  EXPECT_EQ(c.feed(EdgeDesc{1, 2, kAnnoInh}), Status::Reject);
}

TEST(ScChecker, DoubleInheritanceRejected) {
  auto c = make_checker();
  (void)c.feed(NodeDesc{1, make_store(0, 0, 1)});
  (void)c.feed(NodeDesc{2, make_load(1, 0, 1)});
  ASSERT_EQ(c.feed(EdgeDesc{1, 2, kAnnoInh}), Status::Ok);
  EXPECT_EQ(c.feed(EdgeDesc{1, 2, kAnnoInh}), Status::Reject);
}

TEST(ScChecker, LoadRetiredWithoutInheritanceRejected) {
  auto c = make_checker(2, 2, 1, 1);
  (void)c.feed(NodeDesc{1, make_load(0, 0, 1)});
  EXPECT_EQ(c.feed(NodeDesc{1, make_load(1, 0, kBottom)}), Status::Reject);
  EXPECT_NE(c.reject_reason().find("inheritance"), std::string::npos);
}

// --------------------------------------------------------- forced edges

TEST(ScChecker, PendingLoadRetiredWithoutForcedEdgeRejected) {
  auto c = make_checker(8, 2, 1, 2);
  (void)c.feed(NodeDesc{1, make_store(0, 0, 1)});
  (void)c.feed(NodeDesc{2, make_load(1, 0, 1)});
  ASSERT_EQ(c.feed(EdgeDesc{1, 2, kAnnoInh}), Status::Ok);
  // The load is the last of P2 inheriting from node 1; retiring it while
  // the store is still live strands constraint 5(a).
  EXPECT_EQ(c.feed(NodeDesc{2, make_store(0, 0, 2)}), Status::Reject);
  EXPECT_NE(c.reject_reason().find("5a"), std::string::npos);
}

TEST(ScChecker, ForcedObligationDischargedByLaterLoad) {
  auto c = make_checker(8, 2, 1, 2);
  (void)c.feed(NodeDesc{1, make_store(0, 0, 1)});
  (void)c.feed(NodeDesc{2, make_load(1, 0, 1)});
  ASSERT_EQ(c.feed(EdgeDesc{1, 2, kAnnoInh}), Status::Ok);
  // A later load of the same processor inheriting the same store takes
  // over (condition (ii)); the first load may then retire.
  (void)c.feed(NodeDesc{3, make_load(1, 0, 1)});
  ASSERT_EQ(c.feed(EdgeDesc{2, 3, kAnnoPo}), Status::Ok);
  ASSERT_EQ(c.feed(EdgeDesc{1, 3, kAnnoInh}), Status::Ok);
  EXPECT_EQ(c.feed(NodeDesc{2, make_store(0, 0, 2)}), Status::Ok)
      << c.reject_reason();
}

TEST(ScChecker, ForcedEdgeMustLandOnStoSuccessor) {
  auto c = make_checker(8, 2, 1, 2);
  (void)c.feed(NodeDesc{1, make_store(0, 0, 1)});
  (void)c.feed(NodeDesc{2, make_load(1, 0, 1)});
  ASSERT_EQ(c.feed(EdgeDesc{1, 2, kAnnoInh}), Status::Ok);
  (void)c.feed(NodeDesc{3, make_store(0, 0, 2)});
  ASSERT_EQ(c.feed(EdgeDesc{1, 3, kAnnoPo}), Status::Ok);
  ASSERT_EQ(c.feed(EdgeDesc{1, 3, kAnnoSto}), Status::Ok);
  // Obligation now concrete: load 2 owes a forced edge to node 3.  The
  // correct edge discharges it.
  ASSERT_EQ(c.feed(EdgeDesc{2, 3, kAnnoForced}), Status::Ok);
  // The discharged load can now retire — both by ID reuse (a new P1
  // operation) and by the null-ID idiom.
  EXPECT_EQ(c.feed(NodeDesc{2, make_store(0, 0, 1)}), Status::Ok)
      << c.reject_reason();
  auto c2 = make_checker(8, 2, 1, 2);
  (void)c2.feed(NodeDesc{1, make_store(0, 0, 1)});
  (void)c2.feed(NodeDesc{2, make_load(1, 0, 1)});
  ASSERT_EQ(c2.feed(EdgeDesc{1, 2, kAnnoInh}), Status::Ok);
  (void)c2.feed(NodeDesc{3, make_store(0, 0, 2)});
  ASSERT_EQ(c2.feed(EdgeDesc{1, 3, kAnnoPo}), Status::Ok);
  ASSERT_EQ(c2.feed(EdgeDesc{1, 3, kAnnoSto}), Status::Ok);
  ASSERT_EQ(c2.feed(EdgeDesc{2, 3, kAnnoForced}), Status::Ok);
  EXPECT_EQ(c2.feed(AddId{9, 2}), Status::Ok) << c2.reject_reason();
}

TEST(ScChecker, DanglingAddIdRejected) {
  // add-ID whose `existing` is neither bound nor the reserved null ID
  // (k+1) is a malformed descriptor: the alias source is dangling.
  auto c = make_checker(4, 2, 1, 1);  // null ID = 5
  (void)c.feed(NodeDesc{1, make_store(0, 0, 1)});
  EXPECT_EQ(c.feed(AddId{3, 1}), Status::Reject);
  EXPECT_NE(c.reject_reason().find("not bound"), std::string::npos);
}

TEST(ScChecker, ForcedEdgeFromStoreRejected) {
  auto c = make_checker();
  (void)c.feed(NodeDesc{1, make_store(0, 0, 1)});
  (void)c.feed(NodeDesc{2, make_store(1, 0, 2)});
  EXPECT_EQ(c.feed(EdgeDesc{1, 2, kAnnoForced}), Status::Reject);
}

TEST(ScChecker, CycleThroughForcedEdgeRejected) {
  // Figure 3's cycle-prevention in action: the forced edge (4,3) plus an
  // (illegal) inheritance ordering would close a cycle.
  auto c = make_checker(8, 2, 1, 2);
  (void)c.feed(NodeDesc{1, make_store(0, 0, 1)});
  (void)c.feed(NodeDesc{2, make_store(0, 0, 2)});
  ASSERT_EQ(
      c.feed(EdgeDesc{1, 2, static_cast<std::uint8_t>(kAnnoPo | kAnnoSto)}),
      Status::Ok);
  (void)c.feed(NodeDesc{3, make_load(1, 0, 1)});
  ASSERT_EQ(c.feed(EdgeDesc{1, 3, kAnnoInh}), Status::Ok);
  ASSERT_EQ(c.feed(EdgeDesc{3, 2, kAnnoForced}), Status::Ok);
  (void)c.feed(NodeDesc{4, make_load(1, 0, 2)});
  ASSERT_EQ(c.feed(EdgeDesc{3, 4, kAnnoPo}), Status::Ok);
  ASSERT_EQ(c.feed(EdgeDesc{2, 4, kAnnoInh}), Status::Ok);
  // Now a (bogus) STo edge 2 -> 1 would close 1 -> 2 -> 1; the checker
  // sees the duplicate STo-out / cycle immediately.
  EXPECT_EQ(c.feed(EdgeDesc{2, 1, kAnnoSto}), Status::Reject);
}

// ----------------------------------------------------------- ⊥ loads

TEST(ScChecker, BottomLoadForcedToFirstStoreAccepted) {
  auto c = make_checker(8, 2, 1, 1);
  (void)c.feed(NodeDesc{1, make_load(1, 0, kBottom)});
  (void)c.feed(NodeDesc{2, make_store(0, 0, 1)});
  EXPECT_EQ(c.feed(EdgeDesc{1, 2, kAnnoForced}), Status::Ok)
      << c.reject_reason();
}

TEST(ScChecker, BottomLoadRetiredPendingRejected) {
  auto c = make_checker(2, 2, 1, 1);
  (void)c.feed(NodeDesc{1, make_load(1, 0, kBottom)});
  EXPECT_EQ(c.feed(NodeDesc{1, make_load(0, 0, kBottom)}), Status::Reject);
  EXPECT_NE(c.reject_reason().find("5b"), std::string::npos);
}

TEST(ScChecker, BottomObligationDischargedByLaterBottomLoad) {
  auto c = make_checker(8, 2, 1, 1);
  (void)c.feed(NodeDesc{1, make_load(1, 0, kBottom)});
  (void)c.feed(NodeDesc{2, make_load(1, 0, kBottom)});
  ASSERT_EQ(c.feed(EdgeDesc{1, 2, kAnnoPo}), Status::Ok);
  // The earlier ⊥-load may now retire; the later one carries the duty.
  EXPECT_EQ(c.feed(NodeDesc{1, make_store(0, 0, 1)}), Status::Ok)
      << c.reject_reason();
  // And the later one discharges it with the forced edge to that store.
  EXPECT_EQ(c.feed(EdgeDesc{2, 1, kAnnoForced}), Status::Ok)
      << c.reject_reason();
}

TEST(ScChecker, BottomForcedEdgeToNonRootRejected) {
  auto c = make_checker(8, 2, 1, 2);
  (void)c.feed(NodeDesc{1, make_store(0, 0, 1)});
  (void)c.feed(NodeDesc{2, make_store(0, 0, 2)});
  ASSERT_EQ(
      c.feed(EdgeDesc{1, 2, static_cast<std::uint8_t>(kAnnoPo | kAnnoSto)}),
      Status::Ok);
  (void)c.feed(NodeDesc{3, make_load(1, 0, kBottom)});
  // Node 2 has an incoming STo edge: it cannot be the first store.
  EXPECT_EQ(c.feed(EdgeDesc{3, 2, kAnnoForced}), Status::Reject);
  EXPECT_NE(c.reject_reason().find("first"), std::string::npos);
}

TEST(ScChecker, TwoDifferentClaimedRootsRejected) {
  auto c = make_checker(8, 2, 1, 2);
  (void)c.feed(NodeDesc{1, make_store(0, 0, 1)});
  (void)c.feed(NodeDesc{2, make_load(1, 0, kBottom)});
  ASSERT_EQ(c.feed(EdgeDesc{2, 1, kAnnoForced}), Status::Ok);
  (void)c.feed(NodeDesc{3, make_store(0, 0, 2)});
  ASSERT_EQ(c.feed(EdgeDesc{1, 3, kAnnoPo}), Status::Ok);
  (void)c.feed(NodeDesc{4, make_load(1, 0, kBottom)});
  ASSERT_EQ(c.feed(EdgeDesc{2, 4, kAnnoPo}), Status::Ok);
  // Claiming node 3 as the first store contradicts the earlier claim of
  // node 1.
  EXPECT_EQ(c.feed(EdgeDesc{4, 3, kAnnoForced}), Status::Reject);
}

TEST(ScChecker, PinnedRootGainingPredecessorRejected) {
  auto c = make_checker(8, 2, 1, 2);
  (void)c.feed(NodeDesc{1, make_load(1, 0, kBottom)});
  (void)c.feed(NodeDesc{2, make_store(0, 0, 1)});
  ASSERT_EQ(c.feed(EdgeDesc{1, 2, kAnnoForced}), Status::Ok);
  (void)c.feed(NodeDesc{3, make_store(0, 0, 2)});
  ASSERT_EQ(c.feed(EdgeDesc{2, 3, kAnnoPo}), Status::Ok);
  // An STo edge *into* the pinned root contradicts constraint 5(b).
  EXPECT_EQ(c.feed(EdgeDesc{3, 2, kAnnoSto}), Status::Reject);
}

// ------------------------------------------------- cycles & bookkeeping

TEST(ScChecker, StoreBufferingCycleRejected) {
  // The WriteBuffer counterexample shape, as the observer emits it.
  auto c = make_checker(8, 2, 2, 1);
  (void)c.feed(NodeDesc{1, make_store(0, 0, 1)});    // P1: ST B1
  (void)c.feed(NodeDesc{2, make_load(0, 1, kBottom)});  // P1: LD B2 = ⊥
  ASSERT_EQ(c.feed(EdgeDesc{1, 2, kAnnoPo}), Status::Ok);
  (void)c.feed(NodeDesc{3, make_store(1, 1, 1)});    // P2: ST B2
  ASSERT_EQ(c.feed(EdgeDesc{2, 3, kAnnoForced}), Status::Ok);  // ⊥ -> root
  (void)c.feed(NodeDesc{4, make_load(1, 0, kBottom)});  // P2: LD B1 = ⊥
  ASSERT_EQ(c.feed(EdgeDesc{3, 4, kAnnoPo}), Status::Ok);
  EXPECT_EQ(c.feed(EdgeDesc{4, 1, kAnnoForced}), Status::Reject);
  EXPECT_NE(c.reject_reason().find("cycle"), std::string::npos);
}

TEST(ScChecker, UnannotatedEdgeRejected) {
  auto c = make_checker();
  (void)c.feed(NodeDesc{1, make_store(0, 0, 1)});
  (void)c.feed(NodeDesc{2, make_load(1, 0, 1)});
  EXPECT_EQ(c.feed(EdgeDesc{1, 2, 0}), Status::Reject);
}

TEST(ScChecker, NullIdRetirementRunsObligationChecks) {
  auto c = make_checker(4, 2, 1, 1);
  (void)c.feed(NodeDesc{1, make_load(0, 0, 1)});
  // add-ID(5,1) with ID 5 unbound unbinds ID 1: the load retires without
  // an inheritance edge -> reject.
  EXPECT_EQ(c.feed(AddId{5, 1}), Status::Reject);
  EXPECT_NE(c.reject_reason().find("inheritance"), std::string::npos);
}

TEST(ScChecker, SerializationCanonicalizesIdNaming) {
  // Two histories producing the same logical state under different IDs
  // must serialize identically through the canonical map.
  auto c1 = make_checker(8, 2, 1, 2);
  (void)c1.feed(NodeDesc{1, make_store(0, 0, 1)});
  auto c2 = make_checker(8, 2, 1, 2);
  (void)c2.feed(NodeDesc{5, make_store(0, 0, 1)});
  std::vector<GraphId> map1(10, 0), map2(10, 0);
  map1[1] = 1;
  map2[5] = 1;
  ByteWriter w1, w2;
  c1.serialize_canonical(w1, map1);
  c2.serialize_canonical(w2, map2);
  EXPECT_EQ(w1.data(), w2.data());
}

TEST(ScChecker, SnapshotRestoreRoundtrip) {
  // The model checker's compact frontier rebuilds checkers from
  // snapshot()/restore(); the pair must be bit-faithful at every prefix of
  // a stream, and a restored checker must judge further input identically.
  ScChecker a = make_checker();
  for (const Symbol& s : fig3_stream()) {
    ASSERT_EQ(a.feed(s), Status::Ok) << a.reject_reason();
    ByteWriter snap;
    a.snapshot(snap);
    ScChecker b = make_checker();
    ByteReader r(snap.data());
    b.restore(r);
    ASSERT_TRUE(r.done());
    ByteWriter resnap;
    b.snapshot(resnap);
    ASSERT_EQ(resnap.data(), snap.data());
  }
  // Behavioral parity after restore: a wrong-direction cross-processor
  // program order edge must be rejected by original and copy alike.
  ByteWriter snap;
  a.snapshot(snap);
  ScChecker b = make_checker();
  ByteReader r(snap.data());
  b.restore(r);
  const Symbol bad = EdgeDesc{5, 1, kAnnoPo};
  EXPECT_EQ(a.feed(bad), Status::Reject);
  EXPECT_EQ(b.feed(bad), Status::Reject);
  EXPECT_TRUE(b.rejected());
}

// The live-slot layout over every snapshot shape the engines produce: a
// restored checker reserializes to the same bytes, and the validating
// restore accepts it.
TEST(ScChecker, SnapshotsRoundTripOverRegistryWalks) {
  std::size_t states = 0;
  testing::for_each_registry_walk_state(
      200, 7,
      [&](const RegisteredProtocol& entry, const NamedModel& nm,
          const Product& p, std::size_t step) {
        ++states;
        ByteWriter snap;
        p.checker().snapshot(snap);
        ScChecker copy(p.checker().config());
        ByteReader r(snap.data());
        copy.restore(r);
        EXPECT_TRUE(r.done());
        ByteWriter again;
        copy.serialize(again);
        EXPECT_EQ(again.data(), snap.data())
            << entry.id << " × " << nm.name << " step " << step;
        ScChecker checked(p.checker().config());
        std::string error;
        EXPECT_TRUE(checked.try_restore(snap.data(), error))
            << entry.id << " × " << nm.name << " step " << step << ": "
            << error;
      });
  EXPECT_GT(states, 27u * 20);
}

// The live-slot copy assignment over every checker state the registry
// walks reach: one checker, last holding some other state (another cell's,
// under another config, at first the Figure 3 stream's), is assigned each
// walk state's checker.  It serializes like its source, raw and canonical,
// and judges the state's next step like a copy constructed from it.
TEST(ScChecker, CopyAssignmentOverRegistryWalksMatchesSource) {
  ScChecker held = make_checker();
  ASSERT_EQ(feed_all(held, fig3_stream()), Status::Ok);
  std::vector<Transition> enabled;
  std::vector<Symbol> symbols;
  std::vector<GraphId> ids;
  std::size_t fed = 0;
  testing::for_each_registry_walk_state(
      200, 7,
      [&](const RegisteredProtocol& entry, const NamedModel& nm,
          const Product& p, std::size_t step) {
        const std::string where = entry.id + " × " + std::string(nm.name) +
                                  " step " + std::to_string(step);
        const ScChecker& src = p.checker();
        held = src;
        ByteWriter want;
        ByteWriter got;
        src.serialize(want);
        held.serialize(got);
        EXPECT_EQ(got.data(), want.data()) << where;
        ByteWriter obs;
        p.observer().serialize(obs, &ids);
        want.clear();
        got.clear();
        src.serialize_canonical(want, ids);
        held.serialize_canonical(got, ids);
        EXPECT_EQ(got.data(), want.data()) << where;
        // The next step: the state's first enabled transition, stepped in a
        // scratch product for its symbols.
        Product next(p.protocol(), p.observer().config(), true);
        next.assign_from(p);
        enabled.clear();
        next.enumerate(enabled);
        if (enabled.empty()) return;
        (void)next.step(enabled.front(), symbols);
        ScChecker copy = src;
        EXPECT_EQ(held.feed_batch(symbols), copy.feed_batch(symbols)) << where;
        want.clear();
        got.clear();
        copy.serialize(want);
        held.serialize(got);
        EXPECT_EQ(got.data(), want.data()) << where;
        ++fed;
      });
  EXPECT_GT(fed, 27u * 20);
}

// Seeded mutation of the validating restore: bit flips, byte sets,
// truncations and extensions of real snapshots.  Every mutant either gets
// a diagnostic (and leaves the checker untouched) or restores to a checker
// whose serialize() reproduces the mutant byte for byte — so an excerpt
// base that parses cannot reserialize to different bytes.
TEST(ScChecker, TryRestoreMutantsFailOrReserializeExactly) {
  struct Seed {
    ScCheckerConfig cfg;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<Seed> seeds;
  testing::for_each_registry_walk_state(
      60, 11,
      [&](const RegisteredProtocol&, const NamedModel&, const Product& p,
          std::size_t step) {
        if (step % 10 != 0) return;
        ByteWriter snap;
        p.checker().snapshot(snap);
        seeds.push_back({p.checker().config(), snap.data()});
      });
  ASSERT_GT(seeds.size(), 27u);

  Xoshiro256 rng(2024);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const Seed& seed : seeds) {
    ByteWriter fresh;
    ScChecker(seed.cfg).serialize(fresh);
    for (int m = 0; m < 100; ++m) {
      std::vector<std::uint8_t> mutant = seed.bytes;
      switch (rng.below(4)) {
        case 0:  // one to three bit flips
          for (std::uint64_t f = 0, n = 1 + rng.below(3); f < n; ++f) {
            mutant[rng.below(mutant.size())] ^=
                static_cast<std::uint8_t>(1u << rng.below(8));
          }
          break;
        case 1:  // one byte set to an arbitrary value
          mutant[rng.below(mutant.size())] =
              static_cast<std::uint8_t>(rng.below(256));
          break;
        case 2:  // truncation
          mutant.resize(rng.below(mutant.size()));
          break;
        default:  // extension by one to eight bytes
          for (std::uint64_t e = 0, n = 1 + rng.below(8); e < n; ++e) {
            mutant.push_back(static_cast<std::uint8_t>(rng.below(256)));
          }
          break;
      }
      ScChecker c(seed.cfg);
      std::string error;
      ByteWriter out;
      if (c.try_restore(mutant, error)) {
        ++accepted;
        c.serialize(out);
        ASSERT_EQ(out.data(), mutant) << "accepted mutant reserializes "
                                         "differently";
      } else {
        ++rejected;
        ASSERT_FALSE(error.empty());
        c.serialize(out);
        ASSERT_EQ(out.data(), fresh.data()) << "a rejected restore mutated "
                                               "the checker: "
                                            << error;
      }
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace scv
