// Parameterized property sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P):
// the library's core invariants, swept across parameter grids —
//
//   * SC verdicts for every SC protocol over (p, b, v);
//   * round-trip and checker-agreement properties of the descriptor layer
//     over bandwidths and graph sizes;
//   * oracle/generator properties over trace-shape grids;
//   * observer bandwidth accounting across protocol families.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "checker/cycle_checker.hpp"
#include "descriptor/descriptor.hpp"
#include "graph/constraint_graph.hpp"
#include "mc/model_checker.hpp"
#include "mc/record.hpp"
#include "observer/observer.hpp"
#include "protocol/directory.hpp"
#include "protocol/lazy_caching.hpp"
#include "protocol/msi_bus.hpp"
#include "protocol/serial_memory.hpp"
#include "protocol/write_buffer.hpp"
#include "trace/generators.hpp"
#include "trace/sc_oracle.hpp"
#include "walker.hpp"

namespace scv {
namespace {

// ------------------------------------------------ SC verdict sweep

struct VerdictCase {
  const char* family;
  std::size_t procs, blocks, values;
  McVerdict expected;
};

std::unique_ptr<Protocol> make_protocol(const VerdictCase& c) {
  const std::string f = c.family;
  if (f == "serial") {
    return std::make_unique<SerialMemory>(c.procs, c.blocks, c.values);
  }
  if (f == "msi") {
    return std::make_unique<MsiBus>(c.procs, c.blocks, c.values);
  }
  if (f == "msi-buggy") {
    return std::make_unique<MsiBus>(c.procs, c.blocks, c.values, true);
  }
  if (f == "directory") {
    return std::make_unique<DirectoryProtocol>(c.procs, c.blocks, c.values);
  }
  if (f == "lazy") {
    return std::make_unique<LazyCaching>(c.procs, c.blocks, c.values, 1, 2);
  }
  if (f == "wb") {
    return std::make_unique<WriteBuffer>(c.procs, c.blocks, c.values, 1,
                                         false);
  }
  if (f == "wb-fwd") {
    return std::make_unique<WriteBuffer>(c.procs, c.blocks, c.values, 1,
                                         true);
  }
  SCV_UNREACHABLE("unknown protocol family");
}

class VerdictSweep : public ::testing::TestWithParam<VerdictCase> {};

TEST_P(VerdictSweep, VerifierMatchesExpectedVerdict) {
  const VerdictCase& c = GetParam();
  const auto proto = make_protocol(c);
  McOptions opt;
  opt.max_states = 2'000'000;
  const McResult r = model_check(*proto, opt);
  EXPECT_EQ(r.verdict, c.expected)
      << proto->name() << " p" << c.procs << " b" << c.blocks << " v"
      << c.values << ": " << r.summary();
  if (c.expected == McVerdict::Violation) {
    EXPECT_FALSE(r.counterexample.empty());
    EXPECT_FALSE(r.cycle.empty()) << "violations must explain their cycle";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, VerdictSweep,
    ::testing::Values(
        VerdictCase{"serial", 1, 1, 1, McVerdict::Verified},
        VerdictCase{"serial", 1, 2, 2, McVerdict::Verified},
        VerdictCase{"serial", 2, 1, 1, McVerdict::Verified},
        VerdictCase{"serial", 2, 1, 2, McVerdict::Verified},
        VerdictCase{"serial", 2, 2, 1, McVerdict::Verified},
        VerdictCase{"serial", 3, 1, 1, McVerdict::Verified},
        VerdictCase{"msi", 1, 1, 2, McVerdict::Verified},
        VerdictCase{"msi", 2, 1, 1, McVerdict::Verified},
        VerdictCase{"msi-buggy", 2, 1, 1, McVerdict::Violation},
        VerdictCase{"msi-buggy", 2, 2, 1, McVerdict::Violation},
        VerdictCase{"directory", 2, 1, 1, McVerdict::Verified},
        VerdictCase{"directory", 1, 1, 2, McVerdict::Verified},
        VerdictCase{"lazy", 2, 1, 1, McVerdict::Verified},
        VerdictCase{"lazy", 1, 2, 2, McVerdict::Verified},
        VerdictCase{"wb", 1, 1, 1, McVerdict::Violation},
        VerdictCase{"wb", 2, 2, 1, McVerdict::Violation},
        VerdictCase{"wb-fwd", 2, 2, 1, McVerdict::Violation}),
    [](const ::testing::TestParamInfo<VerdictCase>& info) {
      std::string name = info.param.family;
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + "_p" + std::to_string(info.param.procs) + "b" +
             std::to_string(info.param.blocks) + "v" +
             std::to_string(info.param.values);
    });

// -------------------------------------- descriptor round-trip sweep

class DescriptorSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DescriptorSweep, RoundTripAndCheckerAgreement) {
  const auto [span, nodes] = GetParam();
  Xoshiro256 rng(1000 + span * 100 + nodes);
  for (int iter = 0; iter < 20; ++iter) {
    DiGraph g(nodes);
    for (std::uint32_t u = 0; u < static_cast<std::uint32_t>(nodes); ++u) {
      for (int d = 1; d <= span; ++d) {
        const std::uint32_t v = u + d;
        if (v < static_cast<std::uint32_t>(nodes) && rng.chance(1, 2)) {
          g.add_edge(u, v);
        }
      }
    }
    const std::size_t k = std::max<std::size_t>(g.node_bandwidth(), 1);
    const Descriptor d = descriptor_for_graph(g, k);
    const auto r = expand(d);
    ASSERT_TRUE(r.graph.has_value()) << r.error;
    EXPECT_TRUE(r.graph->graph.same_edges(g));
    CycleChecker checker(k);
    for (const Symbol& s : d.symbols) {
      ASSERT_EQ(checker.feed(s), CycleChecker::Status::Ok)
          << checker.reject_reason();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SpanByNodes, DescriptorSweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(4, 12, 32, 64)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "span" + std::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

// ------------------------------------------------ oracle/trace sweep

class TraceSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TraceSweep, ScTracesVerifyAndGraphsValidate) {
  const auto [procs, blocks, length] = GetParam();
  Xoshiro256 rng(2000 + procs * 100 + blocks * 10 + length);
  TraceGenParams params;
  params.processors = procs;
  params.blocks = blocks;
  params.values = 2;
  params.length = length;
  ScOracle oracle;
  for (int iter = 0; iter < 10; ++iter) {
    const auto sc = random_sc_trace(params, rng);
    EXPECT_TRUE(oracle.has_serial_reordering(sc.trace));
    const ConstraintGraph g = build_constraint_graph(sc.trace, sc.witness);
    EXPECT_EQ(g.validate(), std::nullopt);
    EXPECT_TRUE(g.acyclic());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TraceSweep,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(1, 3),
                       ::testing::Values(6, 14)),
    [](const ::testing::TestParamInfo<std::tuple<int, int, int>>& info) {
      return "p" + std::to_string(std::get<0>(info.param)) + "_b" +
             std::to_string(std::get<1>(info.param)) + "_len" +
             std::to_string(std::get<2>(info.param));
    });

// ------------------------------------- observer bandwidth sweep

struct BandwidthCase {
  const char* family;
  std::size_t procs, blocks;
};

class BandwidthSweep : public ::testing::TestWithParam<BandwidthCase> {};

TEST_P(BandwidthSweep, PeakNodesBoundedByPaperFormula) {
  const BandwidthCase& c = GetParam();
  std::unique_ptr<Protocol> proto;
  const std::string f = c.family;
  if (f == "serial") {
    proto = std::make_unique<SerialMemory>(c.procs, c.blocks, 2);
  } else if (f == "msi") {
    proto = std::make_unique<MsiBus>(c.procs, c.blocks, 2);
  } else {
    proto = std::make_unique<DirectoryProtocol>(c.procs, c.blocks, 2);
  }
  Observer obs(*proto, {});
  std::vector<std::uint8_t> state(proto->state_size());
  proto->initial_state(state);
  Xoshiro256 rng(9);
  std::vector<Transition> ts;
  std::vector<Symbol> sink;
  for (int step = 0; step < 800; ++step) {
    ts.clear();
    proto->enumerate(state, ts);
    const Transition t = ts[rng.below(ts.size())];
    proto->apply(state, t);
    ASSERT_EQ(obs.step(t, state, sink), ObserverStatus::Ok) << obs.error();
    sink.clear();
  }
  const auto& pr = proto->params();
  EXPECT_LE(obs.peak_live_nodes(),
            pr.locations + pr.procs * pr.blocks + pr.procs + 2 * pr.blocks);
}

INSTANTIATE_TEST_SUITE_P(
    Families, BandwidthSweep,
    ::testing::Values(BandwidthCase{"serial", 2, 2},
                      BandwidthCase{"serial", 4, 4},
                      BandwidthCase{"msi", 2, 2}, BandwidthCase{"msi", 3, 3},
                      BandwidthCase{"msi", 4, 2},
                      BandwidthCase{"directory", 2, 2},
                      BandwidthCase{"directory", 3, 2}),
    [](const ::testing::TestParamInfo<BandwidthCase>& info) {
      return std::string(info.param.family) + "_p" +
             std::to_string(info.param.procs) + "b" +
             std::to_string(info.param.blocks);
    });

// ----------------------------------------- trace-tester seed sweep

class SeedSweep : public ::testing::TestWithParam<int> {};

TEST_P(SeedSweep, MonitorNeverFlagsScProtocols) {
  const int seed = GetParam();
  MsiBus msi(3, 2, 2);
  TraceTestOptions opt;
  opt.max_steps = 4000;
  opt.seed = static_cast<std::uint64_t>(seed);
  EXPECT_EQ(trace_test(msi, opt).verdict, TraceVerdict::Passed);
  LazyCaching lazy(2, 2, 2, 1, 3);
  EXPECT_EQ(trace_test(lazy, opt).verdict, TraceVerdict::Passed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Range(1, 11));

}  // namespace
}  // namespace scv
