// Tests for the model checker: verdicts on every protocol (the paper's
// method end to end), counterexample validity, sequential/parallel
// agreement, and resource-limit handling.
#include <gtest/gtest.h>

#include "mc/model_checker.hpp"
#include "protocol/directory.hpp"
#include "protocol/get_shared_toy.hpp"
#include "protocol/lazy_caching.hpp"
#include "protocol/msi_bus.hpp"
#include "protocol/serial_memory.hpp"
#include "protocol/write_buffer.hpp"
#include "trace/sc_oracle.hpp"
#include "util/page_alloc.hpp"

namespace scv {
namespace {

// --------------------------------------------------------- SC verdicts

TEST(Verify, SerialMemoryIsSc) {
  SerialMemory proto(2, 2, 1);
  const McResult r = model_check(proto);
  EXPECT_EQ(r.verdict, McVerdict::Verified) << r.summary();
  EXPECT_TRUE(r.counterexample.empty());
}

TEST(Verify, MsiIsSc) {
  MsiBus proto(2, 1, 1);
  const McResult r = model_check(proto);
  EXPECT_EQ(r.verdict, McVerdict::Verified) << r.summary();
}

TEST(Verify, DirectoryIsSc) {
  DirectoryProtocol proto(2, 1, 1);
  const McResult r = model_check(proto);
  EXPECT_EQ(r.verdict, McVerdict::Verified) << r.summary();
}

TEST(Verify, LazyCachingIsSc) {
  LazyCaching proto(2, 1, 1, 1, 2);
  const McResult r = model_check(proto);
  EXPECT_EQ(r.verdict, McVerdict::Verified) << r.summary();
}

TEST(Verify, SingleProcessorWriteBufferIsSc) {
  // With one processor the (no-forwarding) write buffer still violates SC
  // — the processor can read ⊥ from memory after its own buffered store —
  // while the *forwarding* buffer is SC for p=1.
  WriteBuffer broken(1, 1, 1, 1, false);
  EXPECT_EQ(model_check(broken).verdict, McVerdict::Violation);
  WriteBuffer fwd(1, 2, 1, 2, true);
  EXPECT_EQ(model_check(fwd).verdict, McVerdict::Verified);
}

// ------------------------------------------------------- SC violations

TEST(Verify, WriteBufferShortestCounterexampleIsOwnStaleRead) {
  // Without forwarding, the shortest violation is a processor missing its
  // *own* buffered store: ST(P,B,1) then LD(P,B,⊥) — two operations.
  WriteBuffer proto(2, 2, 1, 1, false);
  const McResult r = model_check(proto);
  ASSERT_EQ(r.verdict, McVerdict::Violation) << r.summary();
  ASSERT_EQ(r.counterexample.size(), 2u);
  EXPECT_NE(r.reason.find("cycle"), std::string::npos);
}

TEST(Verify, ForwardingBufferFailsWithStoreBufferingLitmus) {
  // Forwarding fixes same-block stale reads, so BFS must dig out the
  // classic 4-operation store-buffering interleaving instead.
  WriteBuffer proto(2, 2, 1, 1, true);
  const McResult r = model_check(proto);
  ASSERT_EQ(r.verdict, McVerdict::Violation) << r.summary();
  EXPECT_EQ(r.counterexample.size(), 4u);
}

TEST(Verify, GetSharedToyIsRejected) {
  // Stale views make the toy's witness graphs cyclic: with multiple
  // values the protocol genuinely violates SC.
  GetSharedToy proto(2, 1, 2, 2);
  const McResult r = model_check(proto);
  EXPECT_EQ(r.verdict, McVerdict::Violation) << r.summary();
}

TEST(Verify, CounterexampleTraceFailsTheOracle) {
  WriteBuffer proto(2, 2, 2, 1, false);
  const McResult r = model_check(proto);
  ASSERT_EQ(r.verdict, McVerdict::Violation);
  // Rebuild the trace from the counterexample action names?  No — use the
  // structure: every emitted NodeDesc label is a trace operation.
  Trace trace;
  for (const CounterexampleStep& step : r.counterexample) {
    for (const Symbol& s : step.emitted) {
      if (const auto* nd = std::get_if<NodeDesc>(&s)) {
        ASSERT_TRUE(nd->label.has_value());
        trace.push_back(*nd->label);
      }
    }
  }
  ASSERT_FALSE(trace.empty());
  ScOracle oracle;
  EXPECT_FALSE(oracle.has_serial_reordering(trace)) << to_string(trace);
}

// ------------------------------------------------------------- limits

TEST(Verify, StateLimitIsRespected) {
  MsiBus proto(2, 2, 2);
  McOptions opt;
  opt.max_states = 1000;
  const McResult r = model_check(proto, opt);
  EXPECT_EQ(r.verdict, McVerdict::StateLimit);
  EXPECT_GE(r.states, 1000u);
  EXPECT_LT(r.states, 5000u);
}

TEST(Verify, DepthLimitIsRespected) {
  SerialMemory proto(2, 1, 2);
  McOptions opt;
  opt.max_depth = 2;
  const McResult r = model_check(proto, opt);
  EXPECT_EQ(r.verdict, McVerdict::StateLimit);
  EXPECT_LE(r.depth, 2u);
}

TEST(Verify, TinyObserverPoolReportsBandwidthExceeded) {
  MsiBus proto(2, 2, 2);
  McOptions opt;
  opt.observer.pool_size = 3;
  const McResult r = model_check(proto, opt);
  EXPECT_EQ(r.verdict, McVerdict::BandwidthExceeded) << r.summary();
  EXPECT_FALSE(r.counterexample.empty());
}

// ------------------------------------------------- protocol-only mode

TEST(Verify, ProtocolOnlyModeCountsBareStates) {
  SerialMemory proto(2, 2, 2);
  McOptions opt;
  opt.protocol_only = true;
  const McResult r = model_check(proto, opt);
  EXPECT_EQ(r.verdict, McVerdict::Verified);
  EXPECT_EQ(r.states, 9u);  // {⊥,1,2}^2
}

TEST(Verify, ObserverOverheadIsFiniteMultiplier) {
  SerialMemory proto(2, 1, 1);
  McOptions bare;
  bare.protocol_only = true;
  const McResult rb = model_check(proto, bare);
  const McResult rf = model_check(proto, {});
  EXPECT_EQ(rb.verdict, McVerdict::Verified);
  EXPECT_EQ(rf.verdict, McVerdict::Verified);
  EXPECT_GT(rf.states, rb.states);
}

// --------------------------------------------------------- parallel BFS

TEST(Parallel, AgreesWithSequentialOnVerifiedProtocol) {
  MsiBus proto(2, 1, 1);
  McOptions seq;
  const McResult rs = model_check(proto, seq);
  McOptions par;
  par.threads = 3;
  const McResult rp = model_check(proto, par);
  EXPECT_EQ(rs.verdict, rp.verdict);
  EXPECT_EQ(rs.states, rp.states);
  EXPECT_EQ(rs.depth, rp.depth);
}

TEST(Parallel, FindsViolations) {
  WriteBuffer proto(2, 2, 1, 1, true);
  McOptions par;
  par.threads = 2;
  const McResult r = model_check(proto, par);
  ASSERT_EQ(r.verdict, McVerdict::Violation);
  // Parallel exploration is level-synchronized, so the counterexample is
  // still depth-minimal: the 4-operation store-buffering litmus.
  EXPECT_EQ(r.counterexample.size(), 4u);
}

TEST(Parallel, ProtocolOnlyCountsMatch) {
  SerialMemory proto(2, 2, 2);
  McOptions opt;
  opt.protocol_only = true;
  opt.threads = 4;
  const McResult r = model_check(proto, opt);
  EXPECT_EQ(r.states, 9u);
}

TEST(Parallel, SequentialParityUnderTightStateLimit) {
  // Sequential and parallel runs must report the same verdict and state
  // count when the state budget bites: both enforce max_states per
  // insertion (the parallel path used to check only between BFS levels).
  const auto parity = [](const Protocol& proto, std::size_t max_states) {
    McOptions seq;
    seq.max_states = max_states;
    McOptions par = seq;
    par.threads = 3;
    const McResult rs = model_check(proto, seq);
    const McResult rp = model_check(proto, par);
    EXPECT_EQ(rs.verdict, rp.verdict)
        << proto.name() << ": " << rs.summary() << " vs " << rp.summary();
    EXPECT_EQ(rs.states, rp.states) << proto.name();
    EXPECT_EQ(rs.depth, rp.depth) << proto.name();
    // Regression for the parallel StateLimit path dropping stats.
    EXPECT_GT(rp.peak_live_nodes, 0u) << proto.name();
    EXPECT_GT(rp.transitions, 0u) << proto.name();
  };
  {
    MsiBus proto(2, 1, 1);
    parity(proto, 400);
  }
  {
    LazyCaching proto(2, 1, 1, 1, 2);
    parity(proto, 400);
  }
}

TEST(Parallel, ViolationParityOnBuggyMsi) {
  // The seeded lost-invalidation MSI bug (the same family the stream
  // mutation study in tests/test_mutation.cpp perturbs) violates SC at
  // BFS depth 6 with a 7-step counterexample.  The rewritten parallel
  // engine stays level-synchronized, so it must report the same verdict,
  // the same depth, and an equally *short* counterexample — at every
  // thread count, and in the exact_states differential mode too.
  MsiBus proto(2, 1, 1, /*lost_invalidation=*/true);
  const McResult rs = model_check(proto, {});
  ASSERT_EQ(rs.verdict, McVerdict::Violation) << rs.summary();
  EXPECT_EQ(rs.depth, 6u);
  EXPECT_EQ(rs.counterexample.size(), 7u);
  EXPECT_FALSE(rs.cycle.empty());
  for (const std::size_t threads : {2u, 4u}) {
    for (const bool exact : {false, true}) {
      McOptions par;
      par.threads = threads;
      par.exact_states = exact;
      const McResult rp = model_check(proto, par);
      EXPECT_EQ(rp.verdict, rs.verdict)
          << threads << " threads, exact=" << exact << ": " << rp.summary();
      EXPECT_EQ(rp.depth, rs.depth) << threads << " threads";
      EXPECT_EQ(rp.counterexample.size(), rs.counterexample.size())
          << threads << " threads";
      EXPECT_FALSE(rp.cycle.empty()) << threads << " threads";
    }
  }
}

TEST(Parallel, GrowthUnderPressureMatchesSequential) {
  // The default budget leaves the concurrent fingerprint table at its
  // 1k-slot minimum, so it goes through many abort-grow-resume cycles
  // mid-level (MsiBus(2,1,1) reaches ~39k states).  Full-exploration
  // results must be identical to the organically grown sequential store.
  MsiBus proto(2, 1, 1);
  McOptions seq;
  const McResult rs = model_check(proto, seq);
  ASSERT_EQ(rs.verdict, McVerdict::Verified) << rs.summary();
  McOptions par;
  par.threads = 3;
  const McResult rp = model_check(proto, par);
  EXPECT_EQ(rp.verdict, rs.verdict) << rp.summary();
  EXPECT_EQ(rp.states, rs.states);
  EXPECT_EQ(rp.depth, rs.depth);
  EXPECT_EQ(rp.transitions, rs.transitions);
  EXPECT_EQ(rp.peak_frontier, rs.peak_frontier);
  EXPECT_EQ(rp.peak_live_nodes, rs.peak_live_nodes);
}

TEST(Parallel, ReportsLevelStatsAndFrontierBytes) {
  MsiBus proto(2, 1, 1);
  McOptions par;
  par.threads = 2;
  const McResult r = model_check(proto, par);
  ASSERT_EQ(r.verdict, McVerdict::Verified) << r.summary();
  ASSERT_EQ(r.level_stats.size(), r.depth);
  EXPECT_EQ(r.level_stats.front().frontier, 1u);  // the initial state
  // Every distinct state is discovered fresh at exactly one level.
  std::size_t fresh = 1;
  for (const McLevelStat& ls : r.level_stats) fresh += ls.fresh;
  EXPECT_EQ(fresh, r.states);
  EXPECT_GT(r.frontier_bytes, 0u);
}

TEST(Parallel, LevelBuffersAreUnmappedOnReturn) {
  // The engine's frontier batches, rank logs and level tables are
  // page-mapped (util/page_alloc.hpp) so that a finished call leaves
  // nothing resident: every mapping is gone once model_check returns,
  // whatever the verdict and the thread count.
  for (const std::size_t threads : {1u, 2u}) {
    SCOPED_TRACE(threads);
    {
      DirectoryProtocol proto(3, 1, 1);
      McOptions opt;
      opt.threads = threads;
      opt.max_states = 30'000;
      const std::size_t total = page_mapped_total();
      const McResult r = model_check(proto, opt);
      EXPECT_EQ(r.verdict, McVerdict::StateLimit) << r.summary();
      EXPECT_EQ(page_mapped_bytes(), 0u);
      // Two workers log ranks and build level tables past the threshold.
      if (kPageMapping && threads == 2) {
        EXPECT_GT(page_mapped_total(), total);
      }
    }
    {
      MsiBus proto(2, 2, 2, /*lost_invalidation=*/true);
      McOptions opt;
      opt.threads = threads;
      opt.record_counterexample = true;
      const McResult r = model_check(proto, opt);
      EXPECT_EQ(r.verdict, McVerdict::Violation) << r.summary();
      EXPECT_FALSE(r.counterexample.empty());
      EXPECT_EQ(page_mapped_bytes(), 0u);
    }
    {
      // The default budget leaves the store at its minimum, so levels
      // abort, regrow it and resume (see GrowthUnderPressure above).
      MsiBus proto(2, 1, 1);
      McOptions opt;
      opt.threads = threads;
      const McResult r = model_check(proto, opt);
      EXPECT_EQ(r.verdict, McVerdict::Verified) << r.summary();
      EXPECT_EQ(page_mapped_bytes(), 0u);
    }
  }
}

// ------------------------------------------- fingerprint vs exact store

TEST(Verify, ExactStoreMatchesFingerprintStore) {
  // McOptions::exact_states keeps full serialized keys; verdicts and state
  // counts must match the default fingerprint store on every bundled
  // protocol family (a mismatch would expose a fingerprint collision or a
  // store bug), while the fingerprint store stays far smaller.
  const auto check = [](const Protocol& proto) {
    McOptions fp;
    McOptions exact;
    exact.exact_states = true;
    const McResult rf = model_check(proto, fp);
    const McResult re = model_check(proto, exact);
    EXPECT_EQ(rf.verdict, re.verdict)
        << proto.name() << ": " << rf.summary() << " vs " << re.summary();
    EXPECT_EQ(rf.states, re.states) << proto.name();
    EXPECT_EQ(rf.depth, re.depth) << proto.name();
    EXPECT_GT(rf.store_bytes, 0u);
    // The flat fingerprint table starts at a fixed minimum capacity, so
    // only compare footprints once the state count dwarfs it.
    if (rf.states > 1000) {
      EXPECT_GT(re.store_bytes, rf.store_bytes) << proto.name();
    }
  };
  check(SerialMemory(2, 2, 1));
  check(MsiBus(2, 1, 1));
  check(LazyCaching(2, 1, 1, 1, 2));
  check(WriteBuffer(2, 2, 1, 1, false));
}

TEST(Parallel, ExactStoreMatchesFingerprintStore) {
  MsiBus proto(2, 1, 1);
  McOptions fp;
  fp.threads = 2;
  McOptions exact = fp;
  exact.exact_states = true;
  const McResult rf = model_check(proto, fp);
  const McResult re = model_check(proto, exact);
  EXPECT_EQ(rf.verdict, re.verdict);
  EXPECT_EQ(rf.states, re.states);
  EXPECT_EQ(rf.depth, re.depth);
}

TEST(Verify, StoreStatsAreReported) {
  MsiBus proto(2, 1, 1);
  const McResult r = model_check(proto);
  EXPECT_GT(r.state_bytes, 0u);
  EXPECT_GT(r.store_bytes, 0u);
  EXPECT_GT(r.store_load_factor, 0.0);
  EXPECT_LE(r.store_load_factor, 1.0);
  EXPECT_GT(r.bytes_per_state(), 0.0);
}

// ---------------------------------------------------------- reporting

TEST(Verify, SummaryMentionsVerdictAndCounts) {
  SerialMemory proto(1, 1, 1);
  const McResult r = model_check(proto);
  const std::string s = r.summary();
  EXPECT_NE(s.find("Verified"), std::string::npos);
  EXPECT_NE(s.find("states"), std::string::npos);
}

TEST(Verify, VerdictNames) {
  EXPECT_EQ(to_string(McVerdict::Verified), "Verified");
  EXPECT_EQ(to_string(McVerdict::Violation), "Violation");
  EXPECT_EQ(to_string(McVerdict::BandwidthExceeded), "BandwidthExceeded");
  EXPECT_EQ(to_string(McVerdict::TrackingInconsistent),
            "TrackingInconsistent");
  EXPECT_EQ(to_string(McVerdict::StateLimit), "StateLimit");
}

}  // namespace
}  // namespace scv
