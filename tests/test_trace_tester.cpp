// Tests for the runtime-testing mode (Section 5's Gibbons–Korach testing
// scenario): the observer + checker monitoring long random runs, at
// parameters far beyond what the model checker explores.
#include <gtest/gtest.h>

#include <algorithm>

#include "checker/memory_model.hpp"
#include "mc/record.hpp"
#include "protocol/directory.hpp"
#include "protocol/lazy_caching.hpp"
#include "protocol/msi_bus.hpp"
#include "protocol/registry.hpp"
#include "protocol/serial_memory.hpp"
#include "protocol/write_buffer.hpp"

namespace scv {
namespace {

TEST(TraceTester, ScProtocolsPassLongRuns) {
  SerialMemory sm(3, 3, 3);
  MsiBus msi(3, 2, 2);
  DirectoryProtocol dir(3, 2, 2);
  LazyCaching lazy(3, 2, 2, 2, 3);
  for (const Protocol* proto :
       std::initializer_list<const Protocol*>{&sm, &msi, &dir, &lazy}) {
    TraceTestOptions opt;
    opt.max_steps = 20000;
    opt.seed = 7;
    const TraceTestResult r = trace_test(*proto, opt);
    EXPECT_EQ(r.verdict, TraceVerdict::Passed)
        << proto->name() << ": " << r.summary();
    EXPECT_EQ(r.steps, 20000u);
    EXPECT_GT(r.memory_ops, 0u);
    EXPECT_GT(r.symbols, r.memory_ops);  // edges come with the ops
  }
}

RunVerdict as_run_verdict(TraceVerdict v) {
  switch (v) {
    case TraceVerdict::Passed: return RunVerdict::Accepted;
    case TraceVerdict::Violation: return RunVerdict::Violation;
    case TraceVerdict::BandwidthExceeded: return RunVerdict::BandwidthExceeded;
    case TraceVerdict::TrackingInconsistent:
      return RunVerdict::TrackingInconsistent;
  }
  return RunVerdict::Accepted;
}

// The checker must run the observer's memory model: a tso or coherence
// observer emits a relaxed program order that an SC checker rejects.  And
// trace_test takes the run record_walk records for the same seed, length and
// model: same verdict and reason on every cell, and as many steps, less the
// failing one when an observer failure ends the walk (record_walk keeps
// complete steps only).
TEST(TraceTester, NoViolationOnCleanCellsOfTheModelAxis) {
  for (const RegisteredProtocol& entry : protocol_registry()) {
    const std::unique_ptr<Protocol> proto = entry.make();
    for (const NamedModel& nm : memory_model_axis()) {
      TraceTestOptions opt;
      opt.max_steps = 20000;
      opt.seed = 3;
      opt.observer.model = nm.model;
      const TraceTestResult r = trace_test(*proto, opt);
      const std::string cell = entry.id + " × " + nm.name + ": " + r.summary();
      if (!entry.violating_under(nm.model)) {
        EXPECT_NE(r.verdict, TraceVerdict::Violation) << cell;
      }

      RecordWalkOptions walk;
      walk.steps = opt.max_steps;
      walk.seed = opt.seed;
      walk.observer = opt.observer;
      const RunTrace trace = record_walk(*proto, walk);
      EXPECT_EQ(trace.verdict, as_run_verdict(r.verdict)) << cell;
      EXPECT_EQ(trace.reason, r.reason) << cell;
      const bool observer_failed =
          r.verdict == TraceVerdict::BandwidthExceeded ||
          r.verdict == TraceVerdict::TrackingInconsistent;
      EXPECT_EQ(trace.steps.size() + (observer_failed ? 1 : 0), r.steps)
          << cell;
    }
  }
}

TEST(TraceTester, FindsWriteBufferViolationQuickly) {
  WriteBuffer proto(2, 2, 1, 1, false);
  TraceTestOptions opt;
  opt.max_steps = 50000;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 5 && !found; ++seed) {
    opt.seed = seed;
    const TraceTestResult r = trace_test(proto, opt);
    if (r.verdict == TraceVerdict::Violation) {
      found = true;
      EXPECT_NE(r.reason.find("cycle"), std::string::npos);
      EXPECT_FALSE(r.tail.empty());
    }
  }
  EXPECT_TRUE(found) << "random testing should stumble on the stale read";
}

TEST(TraceTester, FindsForwardingViolationToo) {
  // The forwarding buffer needs the genuine 4-op interleaving; random
  // walks still find it within a modest budget.
  WriteBuffer proto(2, 2, 1, 1, true);
  TraceTestOptions opt;
  opt.max_steps = 200000;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 8 && !found; ++seed) {
    opt.seed = seed;
    found = trace_test(proto, opt).verdict == TraceVerdict::Violation;
  }
  EXPECT_TRUE(found);
}

TEST(TraceTester, ScalesToParametersBeyondTheModelChecker) {
  // p=4, b=3, v=3 MSI: the product state space is astronomically large,
  // but runtime monitoring strolls through half a million steps.
  MsiBus proto(4, 3, 3);
  TraceTestOptions opt;
  opt.max_steps = 100000;
  const TraceTestResult r = trace_test(proto, opt);
  EXPECT_EQ(r.verdict, TraceVerdict::Passed) << r.summary();
}

TEST(TraceTester, DeterministicGivenSeed) {
  MsiBus proto(2, 2, 2);
  TraceTestOptions opt;
  opt.max_steps = 5000;
  opt.seed = 99;
  const TraceTestResult a = trace_test(proto, opt);
  const TraceTestResult b = trace_test(proto, opt);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.memory_ops, b.memory_ops);
  EXPECT_EQ(a.symbols, b.symbols);
}

TEST(TraceTester, TinyPoolReportsBandwidthExceeded) {
  MsiBus proto(3, 3, 2);
  TraceTestOptions opt;
  opt.max_steps = 50000;
  opt.observer.pool_size = 3;
  const TraceTestResult r = trace_test(proto, opt);
  EXPECT_EQ(r.verdict, TraceVerdict::BandwidthExceeded) << r.summary();
}

TEST(TraceTester, TailIsBounded) {
  // A failing run reports its last kTraceTailLength actions, or all of them
  // when it is shorter: on these seeds the write buffer fails within 22
  // steps, the lost invalidation after 54 or more.
  const WriteBuffer write_buffer(2, 2, 1, 1, false);
  const MsiBus lost_invalidation(2, 2, 2, /*lost_invalidation=*/true);
  TraceTestOptions opt;
  opt.max_steps = 50000;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    opt.seed = seed;
    for (const Protocol* proto : {static_cast<const Protocol*>(&write_buffer),
                                  static_cast<const Protocol*>(
                                      &lost_invalidation)}) {
      const TraceTestResult r = trace_test(*proto, opt);
      ASSERT_NE(r.verdict, TraceVerdict::Passed) << r.summary();
      EXPECT_EQ(r.tail.size(),
                std::min<std::uint64_t>(r.steps, kTraceTailLength))
          << proto->name() << ", seed " << seed;
    }
  }
}

TEST(TraceTester, SummaryIsHumanReadable) {
  SerialMemory proto(2, 1, 1);
  TraceTestOptions opt;
  opt.max_steps = 100;
  const TraceTestResult r = trace_test(proto, opt);
  EXPECT_NE(r.summary().find("Passed"), std::string::npos);
  EXPECT_NE(r.summary().find("steps"), std::string::npos);
}

}  // namespace
}  // namespace scv
