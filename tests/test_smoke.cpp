// End-to-end smoke tests: one pass through every layer of the pipeline.
// The per-module suites exercise each layer in depth; this file exists so
// that a fundamental breakage anywhere surfaces as a small, readable
// failure here first.
#include <gtest/gtest.h>

#include "checker/cycle_checker.hpp"
#include "checker/sc_checker.hpp"
#include "descriptor/descriptor.hpp"
#include "graph/constraint_graph.hpp"
#include "litmus/litmus.hpp"
#include "mc/model_checker.hpp"
#include "mc/record.hpp"
#include "protocol/serial_memory.hpp"
#include "protocol/write_buffer.hpp"
#include "trace/sc_oracle.hpp"

namespace scv {
namespace {

TEST(Smoke, Figure3GraphIsValidAcyclicBandwidth3) {
  const Fig3Example ex = figure3_example();
  EXPECT_EQ(ex.graph.validate(), std::nullopt);
  EXPECT_TRUE(ex.graph.acyclic());
  EXPECT_EQ(ex.graph.node_bandwidth(), 3u);
}

TEST(Smoke, Figure3DescriptorRoundTripsAndPassesCycleChecker) {
  const Fig3Example ex = figure3_example();
  std::vector<std::optional<Operation>> labels;
  for (const Operation& op : ex.trace) labels.emplace_back(op);

  const Descriptor desc =
      descriptor_for_graph(ex.graph.digraph(), 3, &labels);
  const ExpansionResult expansion = expand(desc);
  ASSERT_TRUE(expansion.graph.has_value()) << expansion.error;
  EXPECT_TRUE(expansion.graph->graph.same_edges(ex.graph.digraph()));

  CycleChecker checker(3);
  for (const Symbol& sym : desc.symbols) {
    ASSERT_EQ(checker.feed(sym), CycleChecker::Status::Ok)
        << checker.reject_reason();
  }
}

TEST(Smoke, OracleAcceptsScTraceRejectsCyclicTrace) {
  ScOracle oracle;
  // The Figure 3 trace is SC.
  const Fig3Example ex = figure3_example();
  EXPECT_TRUE(oracle.has_serial_reordering(ex.trace));
  // Store-buffering shape: not SC.
  const Trace sb{
      make_store(0, 0, 1), make_load(0, 1, kBottom),
      make_store(1, 1, 1), make_load(1, 0, kBottom),
  };
  EXPECT_FALSE(oracle.has_serial_reordering(sb));
}

TEST(Smoke, VerifierProvesSerialMemory) {
  SerialMemory proto(2, 1, 1);
  const McResult result = model_check(proto);
  EXPECT_EQ(result.verdict, McVerdict::Verified) << result.summary();
  EXPECT_GT(result.states, 1u);
}

TEST(Smoke, VerifierFindsWriteBufferViolation) {
  WriteBuffer proto(2, 2, 1, /*depth=*/1, /*forwarding=*/false);
  const McResult result = model_check(proto);
  EXPECT_EQ(result.verdict, McVerdict::Violation) << result.summary();
  EXPECT_FALSE(result.counterexample.empty());
}

TEST(Smoke, TraceTesterPassesSerialMemory) {
  SerialMemory proto(2, 2, 2);
  TraceTestOptions opt;
  opt.max_steps = 2000;
  const TraceTestResult result = trace_test(proto, opt);
  EXPECT_EQ(result.verdict, TraceVerdict::Passed) << result.summary();
}

TEST(Smoke, Figure1Outcomes) {
  const LitmusProgram prog = figure1_program();
  const LitmusOutcome serial = serial_outcome(prog);
  EXPECT_EQ(serial, (LitmusOutcome{1, 2}));  // r1 = 1, r2 = 2

  const auto sc = sc_outcomes(prog);
  EXPECT_TRUE(sc.contains(LitmusOutcome{1, 2}));
  EXPECT_TRUE(sc.contains(LitmusOutcome{0, 0}));
  EXPECT_TRUE(sc.contains(LitmusOutcome{1, 0}));
  EXPECT_FALSE(sc.contains(LitmusOutcome{0, 2}));

  RelaxFlags rmo;
  rmo.load_load = true;
  const auto relaxed = relaxed_outcomes(prog, rmo);
  EXPECT_TRUE(relaxed.contains(LitmusOutcome{0, 2}));
}

}  // namespace
}  // namespace scv
