// Tests for the run-trace subsystem: the versioned binary format (total
// parsing of untrusted bytes included), the symbol-sink pipeline, offline
// re-verification of recorded streams, deterministic recording across
// engines, and the checker-config validation the trace header relies on.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "mc/model_checker.hpp"
#include "mc/record.hpp"
#include "protocol/msi_bus.hpp"
#include "protocol/serial_memory.hpp"
#include "protocol/write_buffer.hpp"
#include "runlog/replay.hpp"
#include "runlog/run_trace.hpp"
#include "runlog/sinks.hpp"

namespace scv {
namespace {

RunTrace sample_trace() {
  RunTrace t;
  t.protocol = "SampleProto";
  t.checker = ScCheckerConfig{8, 2, 2, 2};
  t.verdict = RunVerdict::Violation;
  t.reason = "edge closes a cycle";
  RunStep s1;
  s1.action = "ST(P1,B1,1)";
  s1.symbols.push_back(NodeDesc{1, make_store(0, 0, 1)});
  RunStep s2;
  s2.action = "LD(P2,B1,1)";
  s2.symbols.push_back(NodeDesc{2, make_load(1, 0, 1)});
  s2.symbols.push_back(EdgeDesc{1, 2, kAnnoInh});
  s2.symbols.push_back(AddId{2, 9});
  t.steps = {s1, s2};
  return t;
}

// ------------------------------------------------------- format roundtrip

TEST(RunTraceFormat, RoundTripsThroughBytes) {
  const RunTrace original = sample_trace();
  ByteWriter w;
  serialize_run_trace(original, w);

  RunTrace parsed;
  std::string error;
  ASSERT_TRUE(parse_run_trace(w.data(), parsed, error)) << error;
  EXPECT_EQ(parsed, original);
  EXPECT_EQ(parsed.symbol_count(), 4u);
}

TEST(RunTraceFormat, RoundTripsThroughFile) {
  const RunTrace original = sample_trace();
  const std::string path = ::testing::TempDir() + "runlog_roundtrip.trace";
  std::string error;
  ASSERT_TRUE(write_run_trace(path, original, error)) << error;
  RunTrace read;
  ASSERT_TRUE(read_run_trace(path, read, error)) << error;
  EXPECT_EQ(read, original);
  std::remove(path.c_str());
}

TEST(RunTraceFormat, VerdictNames) {
  EXPECT_EQ(to_string(RunVerdict::Accepted), "Accepted");
  EXPECT_EQ(to_string(RunVerdict::Violation), "Violation");
  EXPECT_EQ(to_string(RunVerdict::BandwidthExceeded), "BandwidthExceeded");
  EXPECT_EQ(to_string(RunVerdict::TrackingInconsistent),
            "TrackingInconsistent");
}

// Untrusted input: every structural corruption must come back as an error
// string, never an abort or a garbage trace.
TEST(RunTraceFormat, ParsingIsTotalOnCorruptInput) {
  ByteWriter w;
  serialize_run_trace(sample_trace(), w);
  const std::vector<std::uint8_t> good = w.data();

  RunTrace out;
  std::string error;

  // Empty buffer and bad magic.
  EXPECT_FALSE(parse_run_trace({}, out, error));
  std::vector<std::uint8_t> bad = good;
  bad[0] = 'X';
  EXPECT_FALSE(parse_run_trace(bad, out, error));
  EXPECT_NE(error.find("magic"), std::string::npos);

  // Unsupported version.
  bad = good;
  bad[4] = 0xff;
  EXPECT_FALSE(parse_run_trace(bad, out, error));
  EXPECT_NE(error.find("version"), std::string::npos);

  // Truncation at every prefix length must fail cleanly (the full buffer
  // parses, so any strict prefix is structurally incomplete).
  for (std::size_t n = 0; n < good.size(); ++n) {
    EXPECT_FALSE(parse_run_trace(std::span(good.data(), n), out, error))
        << "prefix of " << n << " bytes parsed";
  }

  // Trailing garbage after a well-formed trace.
  bad = good;
  bad.push_back(0);
  EXPECT_FALSE(parse_run_trace(bad, out, error));
  EXPECT_NE(error.find("trailing"), std::string::npos);

  // Every single-byte corruption either parses or errors — never crashes.
  for (std::size_t i = 0; i < good.size(); ++i) {
    bad = good;
    bad[i] ^= 0x5a;
    (void)parse_run_trace(bad, out, error);
  }
}

TEST(RunTraceFormat, RejectsAbsurdCounts) {
  // A step count larger than the remaining buffer must be rejected before
  // any reservation happens (no multi-GB allocations from an 8-byte file).
  ByteWriter w;
  w.bytes(std::array<std::uint8_t, 4>{'S', 'C', 'V', 'R'});
  w.u16(RunTrace::kVersion);
  w.uvar(0);  // protocol ""
  w.uvar(8);  // k
  w.u8(2);
  w.u8(2);
  w.u8(2);
  w.u8(0);   // coherence
  w.uvar(2); // model tag "sc"
  w.u8('s');
  w.u8('c');
  w.u8(0);              // verdict
  w.uvar(0);            // reason ""
  w.uvar(0xffffffffu);  // absurd step count
  RunTrace out;
  std::string error;
  EXPECT_FALSE(parse_run_trace(w.data(), out, error));
  EXPECT_NE(error.find("count"), std::string::npos);
}

// ------------------------------------------------- version compatibility

// Version 1 predates the model axis: its header stops at the coherence
// byte and there is no model tag on the wire.  Parsing stays total over
// the old format, with the model defaulting to SC — or coherence when the
// legacy coherence byte is set, v1's only model knob.
TEST(RunTraceFormat, ParsesVersion1FilesWithoutModelTag) {
  ByteWriter w;
  w.bytes(std::array<std::uint8_t, 4>{'S', 'C', 'V', 'R'});
  w.u16(1);  // version 1
  const std::string proto = "LegacyProto";
  w.uvar(proto.size());
  w.bytes({reinterpret_cast<const std::uint8_t*>(proto.data()),
           proto.size()});
  w.uvar(8);  // k
  w.u8(2);    // procs
  w.u8(1);    // blocks
  w.u8(1);    // values
  w.u8(1);    // legacy coherence byte set
  w.u8(0);    // verdict: Accepted
  w.uvar(0);  // reason ""
  w.uvar(0);  // no steps
  RunTrace parsed;
  std::string error;
  ASSERT_TRUE(parse_run_trace(w.data(), parsed, error)) << error;
  EXPECT_EQ(parsed.protocol, proto);
  EXPECT_EQ(parsed.checker.model, MemoryModel::coherence());
  EXPECT_EQ(parsed.verdict, RunVerdict::Accepted);

  // Truncating the v1 stream anywhere still fails cleanly.
  const std::vector<std::uint8_t> good = w.data();
  RunTrace out;
  for (std::size_t n = 0; n < good.size(); ++n) {
    EXPECT_FALSE(parse_run_trace(std::span(good.data(), n), out, error))
        << "v1 prefix of " << n << " bytes parsed";
  }
}

TEST(RunTraceFormat, ModelTagRoundTripsInVersion2) {
  for (const MemoryModel model :
       {MemoryModel::tso(), MemoryModel::coherence(),
        MemoryModel::bounded_sc(3)}) {
    RunTrace t = sample_trace();
    t.checker.model = model;
    ByteWriter w;
    serialize_run_trace(t, w);
    RunTrace parsed;
    std::string error;
    ASSERT_TRUE(parse_run_trace(w.data(), parsed, error)) << error;
    EXPECT_EQ(parsed.checker.model, model) << to_string(model);
    EXPECT_EQ(parsed, t);
  }
}

TEST(RunTraceFormat, RejectsUnknownModelTag) {
  ByteWriter w;
  w.bytes(std::array<std::uint8_t, 4>{'S', 'C', 'V', 'R'});
  w.u16(RunTrace::kVersion);
  w.uvar(0);  // protocol ""
  w.uvar(8);  // k
  w.u8(2);
  w.u8(1);
  w.u8(1);
  w.u8(0);    // coherence
  w.uvar(2);  // model tag "zz" — not a model
  w.u8('z');
  w.u8('z');
  w.u8(0);
  w.uvar(0);
  w.uvar(0);
  RunTrace out;
  std::string error;
  EXPECT_FALSE(parse_run_trace(w.data(), out, error));
  EXPECT_NE(error.find("memory-model"), std::string::npos);
}

// ------------------------------------------------ legacy coherence byte
//
// Writers that predate the model tag's coherence value asked for
// per-location SC through a header byte.  The parser folds a set byte into
// MemoryModel::coherence() — on top of plain sc or a redundant coherence
// tag — and nothing past the header ever sees it.

/// `t` serialized the way an old writer did: legacy coherence byte set,
/// plus the model tag `tag` from version 2 on.
std::vector<std::uint8_t> legacy_trace_bytes(const RunTrace& t,
                                             std::uint16_t version,
                                             const std::string& tag) {
  ByteWriter w;
  const auto str = [&](const std::string& s) {
    w.uvar(s.size());
    w.bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  };
  w.bytes(std::array<std::uint8_t, 4>{'S', 'C', 'V', 'R'});
  w.u16(version);
  str(t.protocol);
  w.uvar(t.checker.k);
  w.u8(static_cast<std::uint8_t>(t.checker.procs));
  w.u8(static_cast<std::uint8_t>(t.checker.blocks));
  w.u8(static_cast<std::uint8_t>(t.checker.values));
  w.u8(1);  // legacy coherence byte
  if (version >= 2) str(tag);
  w.u8(static_cast<std::uint8_t>(t.verdict));
  str(t.reason);
  w.uvar(t.steps.size());
  for (const RunStep& s : t.steps) write_trace_step(s, w);
  return w.data();
}

TEST(RunTraceFormat, LegacyCoherenceByteParsesAsCoherence) {
  const RunTrace t = sample_trace();
  const std::pair<std::uint16_t, std::string> headers[] = {
      {1, ""}, {2, "sc"}, {2, "coherence"}};
  for (const auto& [version, tag] : headers) {
    RunTrace parsed;
    std::string error;
    ASSERT_TRUE(parse_run_trace(legacy_trace_bytes(t, version, tag), parsed,
                                error))
        << "v" << version << " '" << tag << "': " << error;
    EXPECT_EQ(parsed.checker.model, MemoryModel::coherence())
        << "v" << version << " '" << tag << "'";
    EXPECT_EQ(parsed.steps, t.steps);
  }
}

TEST(RunTraceFormat, LegacyCoherenceByteConflictsWithTsoAndPreemption) {
  const RunTrace t = sample_trace();
  for (const std::string tag : {"tso", "sc+bp3"}) {
    RunTrace parsed;
    std::string error;
    EXPECT_FALSE(parse_run_trace(legacy_trace_bytes(t, 2, tag), parsed, error))
        << tag;
    EXPECT_NE(error.find("legacy coherence byte conflicts"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("'" + tag + "'"), std::string::npos) << error;
  }
}

TEST(RunTraceFormat, ReserializedLegacyTraceCarriesTheModelTag) {
  // A coherence walk over two blocks: its stream owes no cross-block
  // program-order edges, so it re-checks clean only under coherence — the
  // legacy byte must survive parsing for the verdict to hold.
  const SerialMemory proto(2, 2, 2);
  RecordWalkOptions ropt;
  ropt.observer.model = MemoryModel::coherence();
  const RunTrace recorded = record_walk(proto, ropt);
  ASSERT_EQ(recorded.verdict, RunVerdict::Accepted);
  RunTrace as_sc = recorded;
  as_sc.checker.model = MemoryModel::sc();
  ASSERT_FALSE(check_trace(as_sc).accepted);

  RunTrace legacy;
  std::string error;
  ASSERT_TRUE(
      parse_run_trace(legacy_trace_bytes(recorded, 1, ""), legacy, error))
      << error;
  const TraceCheckResult legacy_check = check_trace(legacy);
  ASSERT_TRUE(legacy_check.ok) << legacy_check.error;
  EXPECT_TRUE(legacy_check.accepted) << legacy_check.reject_reason;

  // Reserializing writes byte 0 and the coherence tag: exactly the bytes
  // a current writer produces for the same run.
  ByteWriter again;
  serialize_run_trace(legacy, again);
  ByteWriter current;
  serialize_run_trace(recorded, current);
  EXPECT_EQ(again.data(), current.data());
  RunTrace reparsed;
  ASSERT_TRUE(parse_run_trace(again.data(), reparsed, error)) << error;
  EXPECT_EQ(reparsed, legacy);
  EXPECT_EQ(check_trace(reparsed).accepted, legacy_check.accepted);
}

// ---------------------------------------------------------------- sinks

TEST(Sinks, RecorderGroupsSymbolsByStep) {
  RunRecorder rec;
  rec.begin_step("a");
  rec.on_symbol(NodeDesc{1, make_store(0, 0, 1)});
  rec.end_step();
  rec.begin_step("b");
  rec.on_symbol(EdgeDesc{1, 2, kAnnoPo});
  rec.on_symbol(AddId{1, 2});
  rec.end_step();

  const auto steps = rec.take();
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0].action, "a");
  EXPECT_EQ(steps[0].symbols.size(), 1u);
  EXPECT_EQ(steps[1].action, "b");
  EXPECT_EQ(steps[1].symbols.size(), 2u);
}

TEST(Sinks, StatsSinkCountsKindsAndTracksBoundIds) {
  SymbolStatsSink sink(/*null_id=*/9);
  sink.begin_step("s1");
  sink.on_symbol(NodeDesc{1, make_store(0, 0, 1)});
  sink.on_symbol(NodeDesc{2, make_load(1, 0, 1)});
  sink.on_symbol(EdgeDesc{1, 2, kAnnoInh});
  sink.on_symbol(EdgeDesc{1, 2, kAnnoPo});
  sink.on_symbol(EdgeDesc{1, 2, kAnnoSto});
  sink.on_symbol(EdgeDesc{1, 2, kAnnoForced});
  sink.end_step();
  sink.begin_step("s2");
  sink.on_symbol(AddId{2, 3});   // bind 3
  sink.on_symbol(AddId{1, 9});   // retire node holding 1 (9 is the null ID)
  sink.end_step();

  const SymbolStats& s = sink.stats();
  EXPECT_EQ(s.steps, 2u);
  EXPECT_EQ(s.node_descs, 2u);
  EXPECT_EQ(s.add_ids, 2u);
  EXPECT_EQ(s.po_edges, 1u);
  EXPECT_EQ(s.sto_edges, 1u);
  EXPECT_EQ(s.inh_edges, 1u);
  EXPECT_EQ(s.forced_edges, 1u);
  EXPECT_EQ(s.edges(), 4u);
  EXPECT_EQ(s.symbols(), 8u);
  EXPECT_EQ(s.peak_bound_ids, 3u);  // {1,2,3} before the retirement
  EXPECT_NE(s.summary().find("steps=2"), std::string::npos);
}

TEST(Sinks, StatsMergeAddsCountersAndMaxesPeaks) {
  SymbolStats a;
  a.steps = 3;
  a.po_edges = 2;
  a.peak_bound_ids = 4;
  SymbolStats b;
  b.steps = 5;
  b.po_edges = 1;
  b.peak_bound_ids = 7;
  a.merge(b);
  EXPECT_EQ(a.steps, 8u);
  EXPECT_EQ(a.po_edges, 3u);
  EXPECT_EQ(a.peak_bound_ids, 7u);
}

// -------------------------------------------------- offline re-checking

TEST(TraceCheck, RecordedWalkReplaysClean) {
  MsiBus proto(2, 2, 1);
  RecordWalkOptions opt;
  opt.steps = 250;
  opt.seed = 42;
  const RunTrace trace = record_walk(proto, opt);
  EXPECT_EQ(trace.verdict, RunVerdict::Accepted);
  EXPECT_EQ(trace.protocol, proto.name());
  EXPECT_GT(trace.steps.size(), 0u);

  const TraceCheckResult r = check_trace(trace);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.accepted) << r.reject_reason;
  EXPECT_TRUE(r.matches_recorded(trace.verdict));
  EXPECT_EQ(r.steps_fed, trace.steps.size());
  EXPECT_EQ(r.symbols_fed, trace.symbol_count());
  EXPECT_GT(r.stats.peak_bound_ids, 0u);
}

TEST(TraceCheck, RecordedWalkIsDeterministic) {
  MsiBus proto(2, 1, 1);
  RecordWalkOptions opt;
  opt.steps = 120;
  opt.seed = 9;
  const RunTrace a = record_walk(proto, opt);
  const RunTrace b = record_walk(proto, opt);
  EXPECT_EQ(a, b);
  ByteWriter wa;
  ByteWriter wb;
  serialize_run_trace(a, wa);
  serialize_run_trace(b, wb);
  EXPECT_EQ(wa.data(), wb.data());

  opt.seed = 10;
  const RunTrace c = record_walk(proto, opt);
  EXPECT_FALSE(c == a);  // different seed, different walk
}

TEST(TraceCheck, ExportedViolationReplaysToReject) {
  WriteBuffer proto(2, 2, 1, 1, false);
  McOptions opt;
  opt.record_counterexample = true;
  const McResult r = model_check(proto, opt);
  ASSERT_EQ(r.verdict, McVerdict::Violation) << r.summary();
  ASSERT_TRUE(r.counterexample_trace.has_value());
  const RunTrace& trace = *r.counterexample_trace;
  EXPECT_EQ(trace.verdict, RunVerdict::Violation);
  EXPECT_EQ(trace.steps.size(), r.counterexample.size());
  EXPECT_EQ(trace.reason, r.reason);

  const TraceCheckResult chk = check_trace(trace);
  ASSERT_TRUE(chk.ok) << chk.error;
  EXPECT_FALSE(chk.accepted);
  EXPECT_EQ(chk.reject_reason, r.reason);
  EXPECT_TRUE(chk.matches_recorded(trace.verdict));
}

TEST(TraceCheck, VerifiedRunRecordsNoCounterexample) {
  SerialMemory proto(2, 1, 1);
  McOptions opt;
  opt.record_counterexample = true;
  const McResult r = model_check(proto, opt);
  EXPECT_EQ(r.verdict, McVerdict::Verified);
  EXPECT_FALSE(r.counterexample_trace.has_value());
}

TEST(TraceCheck, BadHeaderConfigIsRecoverableError) {
  RunTrace trace = sample_trace();
  trace.checker.procs = kMaxProcs + 3;
  const TraceCheckResult r = check_trace(trace);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("procs"), std::string::npos);
  EXPECT_FALSE(r.matches_recorded(trace.verdict));
}

// ------------------------------------- deterministic cross-engine export

TEST(TraceCheck, SeqAndParCounterexampleRecordingsAreByteIdentical) {
  // The acceptance bar for recorded evidence: the parallel engine's
  // exported violation trace must equal the sequential engine's, byte for
  // byte (the multi-worker run reproduces one worker's rank order and
  // reports the minimum-rank failure; DESIGN.md §11).
  MsiBus proto(2, 1, 1, /*lost_invalidation=*/true);
  McOptions seq;
  seq.record_counterexample = true;
  McOptions par = seq;
  par.threads = 3;
  const McResult rs = model_check(proto, seq);
  const McResult rp = model_check(proto, par);
  ASSERT_EQ(rs.verdict, McVerdict::Violation) << rs.summary();
  ASSERT_EQ(rp.verdict, McVerdict::Violation) << rp.summary();
  ASSERT_TRUE(rs.counterexample_trace.has_value());
  ASSERT_TRUE(rp.counterexample_trace.has_value());
  EXPECT_EQ(*rs.counterexample_trace, *rp.counterexample_trace);

  ByteWriter ws;
  ByteWriter wp;
  serialize_run_trace(*rs.counterexample_trace, ws);
  serialize_run_trace(*rp.counterexample_trace, wp);
  EXPECT_EQ(ws.data(), wp.data());
}

// ------------------------------------------------- exploration statistics

TEST(SymbolStatsOption, ModelCheckAggregatesStreamCounts) {
  MsiBus proto(2, 1, 1);
  McOptions opt;
  opt.symbol_stats = true;
  // Presize the visited store: a mid-level growth aborts and re-executes
  // the in-flight entry, and those re-stepped transitions are (correctly)
  // counted again by the stream stats.  With no growth the counts are an
  // exact function of the explored graph, identical across engines.
  opt.visited_size_hint = 1u << 18;
  const McResult r = model_check(proto, opt);
  ASSERT_EQ(r.verdict, McVerdict::Verified) << r.summary();
  EXPECT_EQ(r.symbol_stats.steps, r.transitions);
  EXPECT_GT(r.symbol_stats.node_descs, 0u);
  EXPECT_GT(r.symbol_stats.po_edges, 0u);

  // The counters describe the exploration stream, which is identical work
  // across thread counts on a full exploration.
  McOptions par = opt;
  par.threads = 3;
  const McResult rp = model_check(proto, par);
  EXPECT_EQ(rp.symbol_stats.steps, r.symbol_stats.steps);
  EXPECT_EQ(rp.symbol_stats.node_descs, r.symbol_stats.node_descs);
  EXPECT_EQ(rp.symbol_stats.edges(), r.symbol_stats.edges());
}

// ------------------------------------------- checker config validation

TEST(CheckerConfig, InvalidReasonPinpointsTheField) {
  EXPECT_TRUE(ScCheckerConfig{}.invalid_reason().empty());
  EXPECT_TRUE(
      (ScCheckerConfig{kMaxBandwidth, kMaxProcs, kMaxBlocks, 255,
                       MemoryModel::coherence()})
          .invalid_reason()
          .empty());

  ScCheckerConfig c;
  c.k = 0;
  EXPECT_NE(c.invalid_reason().find("k = 0"), std::string::npos);
  c = ScCheckerConfig{};
  c.k = kMaxBandwidth + 1;
  EXPECT_NE(c.invalid_reason().find("kMaxBandwidth"), std::string::npos);
  c = ScCheckerConfig{};
  c.procs = kMaxProcs + 1;
  EXPECT_NE(c.invalid_reason().find("procs = 7"), std::string::npos);
  c = ScCheckerConfig{};
  c.blocks = kMaxBlocks + 2;
  EXPECT_NE(c.invalid_reason().find("kMaxBlocks"), std::string::npos);
  c = ScCheckerConfig{};
  c.values = 0;
  EXPECT_NE(c.invalid_reason().find("values"), std::string::npos);
  c = ScCheckerConfig{};
  c.values = 256;
  EXPECT_NE(c.invalid_reason().find("values"), std::string::npos);
}

TEST(CheckerConfig, InvalidReasonRejectsInconsistentModelCombinations) {
  // Valid model configurations first: each axis model alone, and a
  // preemption budget on sc.
  ScCheckerConfig c;
  c.model = MemoryModel::tso();
  EXPECT_TRUE(c.invalid_reason().empty());
  c.model = MemoryModel::coherence();
  EXPECT_TRUE(c.invalid_reason().empty());
  c.model = MemoryModel::bounded_sc(2);
  EXPECT_TRUE(c.invalid_reason().empty());

  // Bounded preemption under-approximates; it is sc-only.
  c = ScCheckerConfig{};
  c.model = MemoryModel::tso();
  c.model.preemption_bound = 1;
  EXPECT_NE(c.invalid_reason().find("preemption"), std::string::npos);
  c.model = MemoryModel::coherence();
  c.model.preemption_bound = 0;
  EXPECT_NE(c.invalid_reason().find("preemption"), std::string::npos);
}

using CheckerConfigDeathTest = ::testing::Test;

TEST(CheckerConfigDeathTest, ConstructorAbortsOnOutOfRangeConfig) {
  EXPECT_DEATH(ScChecker(ScCheckerConfig{0, 2, 1, 1}),
               "invalid ScCheckerConfig");
  EXPECT_DEATH(ScChecker(ScCheckerConfig{8, kMaxProcs + 1, 1, 1}),
               "invalid ScCheckerConfig");
  EXPECT_DEATH(ScChecker(ScCheckerConfig{8, 2, kMaxBlocks + 1, 1}),
               "invalid ScCheckerConfig");
  EXPECT_DEATH(ScChecker(ScCheckerConfig{8, 2, 1, 0}),
               "invalid ScCheckerConfig");
}

TEST(CheckerConfigDeathTest, ConstructorAbortsOnInconsistentModelCombo) {
  ScCheckerConfig tso_bp{};
  tso_bp.model = MemoryModel::tso();
  tso_bp.model.preemption_bound = 1;
  EXPECT_DEATH(ScChecker{tso_bp}, "invalid ScCheckerConfig");
}

}  // namespace
}  // namespace scv
