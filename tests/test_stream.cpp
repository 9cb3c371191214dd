// Tests for the streaming verification service (src/stream/): the SPSC
// ring, packed wire events, the service's verdict/quarantine machinery,
// the differential guarantee (service verdict == offline check_trace,
// byte-identical reasons, across the whole protocol registry and worker
// counts), excerpt replayability (v4 base snapshots), the zero-allocation
// steady state, and malformed-SCVR diagnostics through both the streaming
// reader and service ingest.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "checker/sc_checker.hpp"
#include "mc/model_checker.hpp"
#include "mc/record.hpp"
#include "protocol/registry.hpp"
#include "runlog/replay.hpp"
#include "runlog/run_trace.hpp"
#include "runlog/trace_stream.hpp"
#include "stream/ingest.hpp"
#include "stream/service.hpp"
#include "stream/spsc_ring.hpp"
#include "stream/stream_event.hpp"
#include "util/rng.hpp"

// ------------------------------------------------ allocation accounting
//
// Global new/delete overrides counting every heap allocation in the test
// binary.  The zero-allocation assertions read the counter around a
// steady-state window; everything else ignores it.

namespace {
std::atomic<std::size_t> g_alloc_count{0};

void* counted_alloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace scv {
namespace {

using Status = ScChecker::Status;

// ------------------------------------------------------------ SPSC ring

TEST(SpscRing, PushDrainOrderSingleThread) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99)) << "ring full";
  int out[8];
  ASSERT_EQ(ring.drain(out, 8), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[i], i);
  EXPECT_EQ(ring.drain(out, 8), 0u) << "ring empty";
}

TEST(SpscRing, WrapsAroundWithPartialDrains) {
  SpscRing<int> ring(4);
  int out[4];
  int next_pushed = 0;
  int next_expected = 0;
  for (int round = 0; round < 100; ++round) {
    while (ring.try_push(next_pushed)) ++next_pushed;
    const std::size_t n = ring.drain(out, (round % 3) + 1);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], next_expected++);
  }
}

TEST(SpscRing, CrossThreadSequenceIntact) {
  SpscRing<std::uint64_t> ring(256);
  constexpr std::uint64_t kCount = 1 << 18;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kCount; ++i) {
      while (!ring.try_push(i)) std::this_thread::yield();
    }
  });
  std::uint64_t expected = 0;
  std::uint64_t buf[64];
  while (expected < kCount) {
    const std::size_t n = ring.drain(buf, 64);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(buf[i], expected) << "reordered or lost element";
      ++expected;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

// ------------------------------------------------------- packed events

TEST(StreamEvent, SymbolRoundTripsAllVariants) {
  const Symbol cases[] = {
      NodeDesc{5, std::nullopt},
      NodeDesc{3, make_store(1, 0, 2)},
      NodeDesc{7, make_load(0, 1, 1)},
      EdgeDesc{2, 9, static_cast<std::uint8_t>(kAnnoPo | kAnnoSto)},
      AddId{4, 6},
  };
  for (const Symbol& sym : cases) {
    EXPECT_EQ(unpack_symbol(pack_symbol(sym)), sym);
  }
}

TEST(StreamEvent, ConfigRoundTripsAcrossModels) {
  for (const MemoryModel& m :
       {MemoryModel::sc(), MemoryModel::tso(), MemoryModel::coherence()}) {
    ScCheckerConfig cfg{8, 2, 2, 2};
    cfg.model = m;
    const ScCheckerConfig back = unpack_config(pack_config(cfg));
    EXPECT_EQ(back.k, cfg.k);
    EXPECT_EQ(back.model.kind, m.kind);
    EXPECT_TRUE(back.invalid_reason().empty());
  }
}

TEST(StreamEvent, CorruptModelKindYieldsInvalidConfig) {
  PackedConfig p = pack_config(ScCheckerConfig{8, 2, 2, 2});
  p.model_kind = 250;  // not a ModelKind
  EXPECT_FALSE(unpack_config(p).invalid_reason().empty());
}

// -------------------------------------------------------- crafted loads
//
// A hand-built descriptor load on the default 2-proc config: processor 0
// issues a serialized store per step, IDs 1/2 recycled alternately, so
// the stream runs forever in bounded state.  The violating suffix closes
// a program-order cycle, which the checker rejects deterministically.

ScCheckerConfig small_config() { return ScCheckerConfig{8, 2, 2, 2}; }

std::vector<RunStep> clean_store_chain(std::size_t steps,
                                       std::size_t start = 0) {
  std::vector<RunStep> out;
  out.reserve(steps);
  for (std::size_t j = start; j < start + steps; ++j) {
    const GraphId cur = static_cast<GraphId>(1 + (j % 2));
    const GraphId prev = static_cast<GraphId>(1 + ((j + 1) % 2));
    RunStep step;
    step.symbols.push_back(
        NodeDesc{cur, make_store(0, 0, static_cast<Value>(1 + (j % 2)))});
    if (j > 0) {
      step.symbols.push_back(EdgeDesc{
          prev, cur, static_cast<std::uint8_t>(kAnnoPo | kAnnoSto)});
    }
    out.push_back(std::move(step));
  }
  return out;
}

RunStep violating_step(std::size_t after_steps) {
  // Reversed program-order edge between the two live stores.
  const GraphId cur = static_cast<GraphId>(1 + ((after_steps - 1) % 2));
  const GraphId prev = static_cast<GraphId>(1 + (after_steps % 2));
  RunStep step;
  step.symbols.push_back(EdgeDesc{cur, prev, kAnnoPo});
  return step;
}

TEST(CraftedLoad, ChainIsCleanAndSuffixRejects) {
  ScChecker c(small_config());
  for (const RunStep& s : clean_store_chain(40)) {
    ASSERT_EQ(c.feed_batch(s.symbols), Status::Ok) << c.reject_reason();
  }
  EXPECT_EQ(c.feed_batch(violating_step(40).symbols), Status::Reject);
  EXPECT_FALSE(c.reject_reason().empty());
}

// ------------------------------------------------------ service basics

void feed_steps(StreamService::Producer p, std::uint32_t id,
                const std::vector<RunStep>& steps) {
  for (const RunStep& s : steps) {
    for (const Symbol& sym : s.symbols) p.symbol(id, sym);
    p.step_end(id);
  }
}

TEST(StreamService, CleanStreamClosesAccepted) {
  StreamService svc(StreamServiceOptions{});
  StreamService::Producer p = svc.producer(0);
  p.open(1, small_config());
  feed_steps(p, 1, clean_store_chain(20));
  EXPECT_FALSE(svc.report(1).has_value()) << "no verdict before close";
  p.close(1);
  svc.stop();
  const auto rep = svc.report(1);
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->state, StreamState::Closed);
  EXPECT_EQ(rep->verdict, RunVerdict::Accepted);
  EXPECT_EQ(rep->steps, 20u);
}

TEST(StreamService, InvalidConfigQuarantinesOnOpen) {
  StreamService svc(StreamServiceOptions{});
  StreamService::Producer p = svc.producer(0);
  ScCheckerConfig bad = small_config();
  bad.k = 0;
  p.open(1, bad);
  svc.stop();
  const auto rep = svc.report(1);
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->state, StreamState::Quarantined);
  EXPECT_EQ(rep->verdict, RunVerdict::TrackingInconsistent);
  EXPECT_NE(rep->reason.find("invalid checker config"), std::string::npos);
}

TEST(StreamService, ReopenBeforeCloseQuarantines) {
  StreamService svc(StreamServiceOptions{});
  StreamService::Producer p = svc.producer(0);
  p.open(1, small_config());
  p.open(1, small_config());
  svc.stop();
  const auto rep = svc.report(1);
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->state, StreamState::Quarantined);
  EXPECT_NE(rep->reason.find("reopened"), std::string::npos);
}

TEST(StreamService, UnknownStreamEventsDiscarded) {
  StreamService svc(StreamServiceOptions{});
  StreamService::Producer p = svc.producer(0);
  p.symbol(7, NodeDesc{1, make_store(0, 0, 1)});
  p.step_end(7);
  svc.stop();
  EXPECT_EQ(svc.stats().discarded_events, 2u);
  EXPECT_FALSE(svc.report(7).has_value());
}

TEST(StreamService, QuarantinedStreamDoesNotStopSiblings) {
  StreamService svc(StreamServiceOptions{});
  StreamService::Producer p = svc.producer(0);
  p.open(1, small_config());
  p.open(2, small_config());
  feed_steps(p, 1, clean_store_chain(10));
  feed_steps(p, 2, clean_store_chain(10));
  feed_steps(p, 1, {violating_step(10)});
  while (svc.poll() != 0) {
  }
  // Stream 1's verdict is already published while stream 2 is still live.
  const auto rep1 = svc.report(1);
  ASSERT_TRUE(rep1.has_value());
  EXPECT_EQ(rep1->state, StreamState::Quarantined);
  EXPECT_FALSE(svc.report(2).has_value());
  // Events for the quarantined stream are discarded, not applied.
  feed_steps(p, 1, clean_store_chain(3));
  // Stream 2 keeps verifying to a clean close (its chain continues where
  // it left off — step 10 owes the po edge from step 9's node).
  feed_steps(p, 2, clean_store_chain(5, /*start=*/10));
  p.close(2);
  svc.stop();
  const auto rep2 = svc.report(2);
  ASSERT_TRUE(rep2.has_value());
  EXPECT_EQ(rep2->state, StreamState::Closed);
  EXPECT_GT(svc.stats().discarded_events, 0u);
}

TEST(StreamService, ImplicitFinalStepOnClose) {
  StreamService svc(StreamServiceOptions{});
  StreamService::Producer p = svc.producer(0);
  p.open(1, small_config());
  p.symbol(1, NodeDesc{1, make_store(0, 0, 1)});
  p.close(1);  // no step_end: the trailing symbols form the final step
  svc.stop();
  const auto rep = svc.report(1);
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->state, StreamState::Closed);
  EXPECT_EQ(rep->steps, 1u);
  EXPECT_EQ(rep->symbols, 1u);
}

// -------------------------------------------------- excerpt replayability

TEST(StreamService, QuarantineExcerptReplaysToSameReject) {
  StreamServiceOptions opt;
  opt.excerpt_window = 4;
  StreamService svc(opt);
  StreamService::Producer p = svc.producer(0);
  p.open(1, small_config());
  constexpr std::size_t kClean = 20;  // forces several window rotations
  feed_steps(p, 1, clean_store_chain(kClean));
  feed_steps(p, 1, {violating_step(kClean)});
  svc.stop();

  const auto rep = svc.report(1);
  ASSERT_TRUE(rep.has_value());
  ASSERT_EQ(rep->state, StreamState::Quarantined);
  ASSERT_TRUE(rep->excerpt.has_value());
  const RunTrace& ex = *rep->excerpt;
  EXPECT_EQ(ex.verdict, RunVerdict::Violation);
  EXPECT_EQ(ex.reason, rep->reason);
  EXPECT_TRUE(ex.has_base()) << "rotations happened, base snapshot required";
  EXPECT_GT(ex.dropped_steps, 0u);
  EXPECT_LE(ex.steps.size(), 2 * opt.excerpt_window + 1);
  EXPECT_EQ(ex.dropped_steps + ex.steps.size(), kClean + 1);

  // The excerpt replays to the byte-identical reject, offline.
  const TraceCheckResult r = check_trace(ex);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.reject_reason, rep->reason);

  // And survives the v4 wire format round trip.
  ByteWriter w;
  serialize_run_trace(ex, w);
  ASSERT_GT(w.data().size(), 6u);
  EXPECT_EQ(w.data()[4], 4) << "base-carrying trace must be version 4";
  RunTrace back;
  std::string error;
  ASSERT_TRUE(parse_run_trace(w.data(), back, error)) << error;
  EXPECT_EQ(back, ex);
  const TraceCheckResult r2 = check_trace(back);
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(r2.reject_reason, rep->reason);
}

TEST(StreamService, EarlyViolationExcerptHasNoBaseAndStaysV2) {
  StreamService svc(StreamServiceOptions{});  // window 32, no rotation in 5
  StreamService::Producer p = svc.producer(0);
  p.open(1, small_config());
  feed_steps(p, 1, clean_store_chain(5));
  feed_steps(p, 1, {violating_step(5)});
  svc.stop();
  const auto rep = svc.report(1);
  ASSERT_TRUE(rep.has_value());
  ASSERT_TRUE(rep->excerpt.has_value());
  const RunTrace& ex = *rep->excerpt;
  EXPECT_FALSE(ex.has_base());
  EXPECT_EQ(ex.steps.size(), 6u) << "full history fits: every step kept";
  ByteWriter w;
  serialize_run_trace(ex, w);
  EXPECT_EQ(w.data()[4], 2) << "no base: byte-compatible version 2";
  const TraceCheckResult r = check_trace(ex);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.reject_reason, rep->reason);
}

// ----------------------------------------------- differential vs batch
//
// The acceptance bar: for every registry protocol, the service verdict on
// a recorded walk is byte-identical (verdict AND reason) to offline
// check_trace, at 1 and at 4 worker threads.

struct Differential {
  bool accepted = false;
  std::string reason;
};

Differential offline_verdict(const RunTrace& trace) {
  const TraceCheckResult r = check_trace(trace);
  EXPECT_TRUE(r.ok) << r.error;
  return {r.accepted, r.reject_reason};
}

Differential service_verdict(const RunTrace& trace, std::size_t producers,
                             std::size_t workers) {
  StreamServiceOptions opt;
  opt.producers = producers;
  opt.workers = workers;
  StreamService svc(opt);
  svc.start();
  StreamService::Producer p = svc.producer(0);
  p.open(1, trace.checker);
  feed_steps(p, 1, trace.steps);
  p.close(1);
  svc.stop();
  const auto rep = svc.report(1);
  EXPECT_TRUE(rep.has_value());
  if (!rep.has_value()) return {};
  return {rep->state == StreamState::Closed, rep->reason};
}

TEST(StreamDifferential, RegistryWalksMatchBatchCheckerAt1And4Workers) {
  for (const RegisteredProtocol& entry : protocol_registry()) {
    const std::unique_ptr<Protocol> proto = entry.make();
    RecordWalkOptions opt;
    opt.steps = 250;
    opt.seed = 11;
    const RunTrace walk = record_walk(*proto, opt);
    const Differential want = offline_verdict(walk);
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      const Differential got = service_verdict(walk, 4, workers);
      EXPECT_EQ(got.accepted, want.accepted)
          << entry.id << " @ " << workers << " workers";
      EXPECT_EQ(got.reason, want.reason)
          << entry.id << " @ " << workers << " workers";
    }
  }
}

TEST(StreamDifferential, CounterexampleQuarantinesWithBatchReason) {
  const std::unique_ptr<Protocol> proto =
      make_registered_protocol("write_buffer");
  ASSERT_NE(proto, nullptr);
  McOptions opt;
  opt.record_counterexample = true;
  const McResult r = model_check(*proto, opt);
  ASSERT_EQ(r.verdict, McVerdict::Violation) << r.summary();
  ASSERT_TRUE(r.counterexample_trace.has_value());
  const RunTrace& trace = *r.counterexample_trace;

  const Differential want = offline_verdict(trace);
  ASSERT_FALSE(want.accepted);
  for (const std::size_t workers : {std::size_t{0}, std::size_t{4}}) {
    const Differential got = service_verdict(trace, 4, workers);
    EXPECT_FALSE(got.accepted);
    EXPECT_EQ(got.reason, want.reason) << workers << " workers";
  }
}

TEST(StreamDifferential, ModelAxisMatchesBatchChecker) {
  const std::unique_ptr<Protocol> proto =
      make_registered_protocol("serial_memory");
  ASSERT_NE(proto, nullptr);
  for (const MemoryModel& m :
       {MemoryModel::sc(), MemoryModel::tso(), MemoryModel::coherence()}) {
    RecordWalkOptions opt;
    opt.steps = 200;
    opt.observer.model = m;
    const RunTrace walk = record_walk(*proto, opt);
    const Differential want = offline_verdict(walk);
    const Differential got = service_verdict(walk, 1, 0);
    EXPECT_EQ(got.accepted, want.accepted);
    EXPECT_EQ(got.reason, want.reason);
  }
}

// ------------------------------------ seeded multi-stream differential
//
// Many streams interleaved event by event over two rings of capacity 4, so
// steps cross the rings in pieces and pushes stall: registry walks on the
// whole model axis plus crafted hazards (a 50-symbol step, trailing
// symbols before close, a reopen before close, events for a stream never
// opened).  Every report must equal offline check_trace of the steps the
// service applied, every excerpt must follow the window rule, and the
// stats must count exactly what the test pushed.

struct PlanEvent {
  StreamEvent::Kind kind = StreamEvent::Kind::Symbol;
  Symbol sym;
};

struct PlannedStream {
  std::uint32_t id = 0;
  ScCheckerConfig cfg;
  std::vector<RunStep> steps;
  bool opened = true;         ///< false: events for a never-opened stream
  bool trailing = false;      ///< last step's symbols go out without step_end
  std::size_t reopen_at = 0;  ///< >0: a second open after this many steps
  std::vector<PlanEvent> events;

  // Expected outcome, from offline checking.
  StreamState state = StreamState::Closed;
  RunVerdict verdict = RunVerdict::Accepted;
  std::string reason;
  std::uint64_t applied_steps = 0;
  std::uint64_t applied_symbols = 0;
  std::uint64_t discarded = 0;
};

void plan_events(PlannedStream& s) {
  using Kind = StreamEvent::Kind;
  if (s.opened) s.events.push_back({Kind::Open, {}});
  for (std::size_t i = 0; i < s.steps.size(); ++i) {
    if (s.reopen_at != 0 && i == s.reopen_at) {
      s.events.push_back({Kind::Open, {}});
    }
    for (const Symbol& sym : s.steps[i].symbols) {
      s.events.push_back({Kind::Symbol, sym});
    }
    if (!(s.trailing && i + 1 == s.steps.size())) {
      s.events.push_back({Kind::StepEnd, {}});
    }
  }
  s.events.push_back({Kind::Close, {}});
}

RunTrace steps_trace(const PlannedStream& s, std::size_t n) {
  RunTrace t;
  t.protocol = "planned";
  t.checker = s.cfg;
  t.steps.assign(s.steps.begin(),
                 s.steps.begin() + static_cast<std::ptrdiff_t>(n));
  return t;
}

/// Fills the expected report fields: offline check_trace of the prefix the
/// service applies (everything for a clean stream, up to and including the
/// first rejecting step otherwise).
void expect_offline(PlannedStream& s) {
  const std::uint64_t total = s.events.size();
  if (!s.opened) {
    s.discarded = total;
    return;
  }
  if (s.reopen_at != 0) {
    const TraceCheckResult r = check_trace(steps_trace(s, s.reopen_at));
    ASSERT_TRUE(r.ok && r.accepted) << "reopen prefix must be clean";
    s.state = StreamState::Quarantined;
    s.verdict = RunVerdict::TrackingInconsistent;
    s.reason = "stream reopened before close";
    s.applied_steps = r.steps_fed;
    s.applied_symbols = r.symbols_fed;
    // Open, the applied steps with their StepEnds, and the reopen itself.
    s.discarded = total - (1 + r.symbols_fed + r.steps_fed + 1);
    return;
  }
  ScChecker c(s.cfg);
  std::size_t n = s.steps.size();
  for (std::size_t i = 0; i < s.steps.size(); ++i) {
    if (c.feed_batch(s.steps[i].symbols) == Status::Reject) {
      n = i + 1;
      break;
    }
  }
  const TraceCheckResult r = check_trace(steps_trace(s, n));
  ASSERT_TRUE(r.ok) << r.error;
  s.applied_steps = r.steps_fed;
  s.applied_symbols = r.symbols_fed;
  if (r.accepted) {
    ASSERT_EQ(n, s.steps.size());
    return;
  }
  s.state = StreamState::Quarantined;
  s.verdict = RunVerdict::Violation;
  s.reason = r.reject_reason;
  // Open plus each applied step's symbols and its StepEnd (or, for a
  // trailing step, the Close that ends it).
  s.discarded = total - (1 + r.symbols_fed + r.steps_fed);
}

/// The excerpt a quarantine at failing step f publishes with window W:
/// r = f / W; r == 0 keeps steps 0..f with no base, r >= 1 drops the first
/// (r-1)*W steps into a base snapshot and keeps steps (r-1)*W..f.
RunTrace expected_excerpt(const PlannedStream& s, std::size_t window) {
  const std::size_t f = s.applied_steps - 1;
  const std::size_t r = f / window;
  RunTrace ex;
  ex.protocol = "stream";
  ex.checker = s.cfg;
  ex.verdict = RunVerdict::Violation;
  ex.reason = s.reason;
  std::size_t first = 0;
  if (r >= 1) {
    first = (r - 1) * window;
    ScChecker c(s.cfg);
    for (std::size_t i = 0; i < first; ++i) {
      EXPECT_EQ(c.feed_batch(s.steps[i].symbols), Status::Ok);
    }
    ByteWriter base;
    c.snapshot(base);
    ex.base_state = base.data();
    ex.dropped_steps = first;
  }
  for (std::size_t i = first; i <= f; ++i) {
    RunStep step;
    step.symbols = s.steps[i].symbols;
    ex.steps.push_back(std::move(step));
  }
  return ex;
}

std::vector<PlannedStream> seeded_stream_plan() {
  std::vector<PlannedStream> plan;
  std::uint32_t next_id = 0;
  Xoshiro256 rng(0x5eed0019);
  for (const RegisteredProtocol& entry : protocol_registry()) {
    const std::unique_ptr<Protocol> proto = entry.make();
    for (const MemoryModel& m :
         {MemoryModel::sc(), MemoryModel::tso(), MemoryModel::coherence()}) {
      RecordWalkOptions opt;
      opt.steps = 90;
      opt.seed = rng();
      opt.observer.model = m;
      const RunTrace walk = record_walk(*proto, opt);
      PlannedStream s;
      s.id = next_id++;
      s.cfg = walk.checker;
      s.steps = walk.steps;
      plan.push_back(std::move(s));
    }
  }
  // Crafted hazards on the 2-proc store chain.
  const auto crafted = [&] {
    PlannedStream s;
    s.id = next_id++;
    s.cfg = small_config();
    return s;
  };
  // A 50-symbol step (chain steps 5..29 fused) inside a clean stream, and
  // the same step plus the violating edge as a stream's failing step.
  for (const bool violate : {false, true}) {
    PlannedStream s = crafted();
    const std::vector<RunStep> chain = clean_store_chain(40);
    s.steps.assign(chain.begin(), chain.begin() + 5);
    RunStep big;
    for (std::size_t j = 5; j < 30; ++j) {
      big.symbols.insert(big.symbols.end(), chain[j].symbols.begin(),
                         chain[j].symbols.end());
    }
    EXPECT_EQ(big.symbols.size(), 50u);
    if (violate) big.symbols.push_back(violating_step(30).symbols.front());
    s.steps.push_back(std::move(big));
    s.steps.insert(s.steps.end(), chain.begin() + 30, chain.end());
    plan.push_back(std::move(s));
  }
  // Trailing symbols before close: a clean final step, and one that
  // rejects at close after several window rotations.
  for (const std::size_t clean : {std::size_t{7}, std::size_t{70}}) {
    PlannedStream s = crafted();
    s.steps = clean_store_chain(clean);
    s.steps.push_back(clean == 70 ? violating_step(clean)
                                  : clean_store_chain(1, clean).front());
    s.trailing = true;
    plan.push_back(std::move(s));
  }
  // Long violating chains: the failing step lands on and beside window
  // boundaries for every window under test.
  for (const std::size_t clean : {std::size_t{31}, std::size_t{32},
                                  std::size_t{64}, std::size_t{65}}) {
    PlannedStream s = crafted();
    s.steps = clean_store_chain(clean);
    s.steps.push_back(violating_step(clean));
    s.steps.push_back(clean_store_chain(1, clean).front());  // discarded
    plan.push_back(std::move(s));
  }
  {  // Reopen before close: later events for the stream are discarded.
    PlannedStream s = crafted();
    s.steps = clean_store_chain(12);
    s.reopen_at = 9;
    plan.push_back(std::move(s));
  }
  {  // Events for a stream that was never opened.
    PlannedStream s = crafted();
    s.opened = false;
    s.steps = clean_store_chain(3);
    plan.push_back(std::move(s));
  }
  for (PlannedStream& s : plan) {
    plan_events(s);
    expect_offline(s);
  }
  return plan;
}

/// One producer's share of the plan, interleaved in seeded runs of 1-3
/// events per stream; per-stream order is kept.
std::vector<std::pair<std::uint32_t, const PlanEvent*>> interleave(
    const std::vector<PlannedStream>& plan, std::size_t producer,
    std::size_t producers, std::uint64_t seed) {
  std::vector<const PlannedStream*> mine;
  for (const PlannedStream& s : plan) {
    if (s.id % producers == producer) mine.push_back(&s);
  }
  std::vector<std::size_t> cursor(mine.size(), 0);
  std::vector<std::size_t> live(mine.size());
  for (std::size_t i = 0; i < live.size(); ++i) live[i] = i;
  Xoshiro256 rng(seed);
  std::vector<std::pair<std::uint32_t, const PlanEvent*>> out;
  while (!live.empty()) {
    const std::size_t li = rng.below(live.size());
    const std::size_t i = live[li];
    for (std::uint64_t run = 1 + rng.below(3);
         run > 0 && cursor[i] < mine[i]->events.size(); --run) {
      out.emplace_back(mine[i]->id, &mine[i]->events[cursor[i]++]);
    }
    if (cursor[i] == mine[i]->events.size()) {
      live[li] = live.back();
      live.pop_back();
    }
  }
  return out;
}

void push_planned(StreamService::Producer p, std::uint32_t id,
                  const PlanEvent& ev, const ScCheckerConfig& cfg) {
  switch (ev.kind) {
    case StreamEvent::Kind::Open: p.open(id, cfg); break;
    case StreamEvent::Kind::Symbol: p.symbol(id, ev.sym); break;
    case StreamEvent::Kind::StepEnd: p.step_end(id); break;
    case StreamEvent::Kind::Close: p.close(id); break;
  }
}

TEST(StreamDifferential, SeededStreamsMatchOfflineCheck) {
  const std::vector<PlannedStream> plan = seeded_stream_plan();
  ASSERT_FALSE(::testing::Test::HasFailure());
  constexpr std::size_t kProducers = 2;
  StreamServiceStats want;
  std::size_t violations = 0;
  for (const PlannedStream& s : plan) {
    want.events += s.events.size();
    want.symbols += s.applied_symbols;
    want.steps += s.applied_steps;
    want.streams_opened += s.opened ? 1 : 0;
    want.streams_closed += s.opened && s.state == StreamState::Closed;
    want.streams_quarantined += s.state == StreamState::Quarantined;
    want.discarded_events += s.discarded;
    violations += s.verdict == RunVerdict::Violation;
  }
  ASSERT_GE(violations, 8u) << "the plan must exercise quarantine";
  ASSERT_GT(want.streams_closed, 8u) << "and clean closes";

  for (const std::size_t window :
       {std::size_t{1}, std::size_t{4}, std::size_t{32}}) {
    for (const std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
      SCOPED_TRACE("window " + std::to_string(window) + ", " +
                   std::to_string(workers) + " workers");
      StreamServiceOptions opt;
      opt.producers = kProducers;
      opt.workers = workers;
      opt.ring_capacity = 4;
      opt.excerpt_window = window;
      StreamService svc(opt);
      svc.start();
      std::vector<std::vector<std::pair<std::uint32_t, const PlanEvent*>>>
          seqs;
      for (std::size_t p = 0; p < kProducers; ++p) {
        seqs.push_back(interleave(plan, p, kProducers, 7 * window + p));
      }
      const auto feed = [&](std::size_t p, std::size_t from, std::size_t to) {
        StreamService::Producer prod = svc.producer(p);
        for (std::size_t i = from; i < to && i < seqs[p].size(); ++i) {
          const auto& [id, ev] = seqs[p][i];
          push_planned(prod, id, *ev, plan[id].cfg);
        }
      };
      if (workers == 0) {
        // One thread alternates between the producers in chunks of 5.
        const std::size_t longest =
            std::max(seqs[0].size(), seqs[1].size());
        for (std::size_t i = 0; i < longest; i += 5) {
          feed(0, i, i + 5);
          feed(1, i, i + 5);
        }
      } else {
        std::vector<std::thread> feeders;
        for (std::size_t p = 0; p < kProducers; ++p) {
          feeders.emplace_back(feed, p, 0, seqs[p].size());
        }
        for (std::thread& t : feeders) t.join();
      }
      svc.stop();

      for (const PlannedStream& s : plan) {
        SCOPED_TRACE("stream " + std::to_string(s.id));
        const auto rep = svc.report(s.id);
        if (!s.opened) {
          EXPECT_FALSE(rep.has_value());
          continue;
        }
        ASSERT_TRUE(rep.has_value());
        EXPECT_EQ(rep->state, s.state);
        EXPECT_EQ(rep->verdict, s.verdict);
        EXPECT_EQ(rep->reason, s.reason);
        EXPECT_EQ(rep->steps, s.applied_steps);
        EXPECT_EQ(rep->symbols, s.applied_symbols);
        if (s.verdict != RunVerdict::Violation) {
          EXPECT_FALSE(rep->excerpt.has_value());
          continue;
        }
        ASSERT_TRUE(rep->excerpt.has_value());
        EXPECT_EQ(*rep->excerpt, expected_excerpt(s, window));
      }
      const StreamServiceStats got = svc.stats();
      EXPECT_EQ(got.events, want.events);
      EXPECT_EQ(got.symbols, want.symbols);
      EXPECT_EQ(got.steps, want.steps);
      EXPECT_EQ(got.streams_opened, want.streams_opened);
      EXPECT_EQ(got.streams_closed, want.streams_closed);
      EXPECT_EQ(got.streams_quarantined, want.streams_quarantined);
      EXPECT_EQ(got.discarded_events, want.discarded_events);
    }
  }
}

// ----------------------------------------------- zero-allocation paths

TEST(StreamAllocation, SteadyStateSymbolPathIsAllocationFree) {
  StreamService svc(StreamServiceOptions{});  // poll mode: single thread
  StreamService::Producer p = svc.producer(0);
  p.open(1, small_config());
  // Warm every buffer: past one full double-window rotation cycle, ring
  // slots touched, step vectors at capacity.
  const std::vector<RunStep> chain = clean_store_chain(400);
  for (std::size_t j = 0; j < 100; ++j) {
    for (const Symbol& sym : chain[j].symbols) p.symbol(1, sym);
    p.step_end(1);
    while (svc.poll() != 0) {
    }
  }
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (std::size_t j = 100; j < 400; ++j) {
    for (const Symbol& sym : chain[j].symbols) p.symbol(1, sym);
    p.step_end(1);
    while (svc.poll() != 0) {
    }
  }
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state ingest must not touch the heap";
  p.close(1);
  svc.stop();
  const auto rep = svc.report(1);
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->state, StreamState::Closed);
}

TEST(StreamAllocation, SnapshotRestoreCycleIsAllocationFree) {
  ScChecker checker(small_config());
  for (const RunStep& s : clean_store_chain(10)) {
    ASSERT_EQ(checker.feed_batch(s.symbols), Status::Ok);
  }
  ByteWriter w;
  checker.snapshot(w);  // warm the writer's capacity
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) {
    w.clear();
    checker.snapshot(w);
    ByteReader r(w.data());
    checker.restore(r);
  }
  const std::size_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "snapshot/restore with a reused writer must not allocate";
}

// ------------------------------------------- malformed SCVR diagnostics

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

void write_bytes(const std::string& path, const std::vector<std::uint8_t>& b,
                 std::size_t limit) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(b.data(), 1, std::min(limit, b.size()), f),
            std::min(limit, b.size()));
  std::fclose(f);
}

RunTrace crafted_trace(std::size_t steps) {
  RunTrace t;
  t.protocol = "crafted";
  t.checker = small_config();
  t.verdict = RunVerdict::Accepted;
  t.steps = clean_store_chain(steps);
  return t;
}

TEST(StreamIngestDiagnostics, TruncatedMidRecordReportsStepContext) {
  const RunTrace t = crafted_trace(30);
  ByteWriter w;
  serialize_run_trace(t, w);
  const std::string path = temp_path("truncated.scvr");
  write_bytes(path, w.data(), w.data().size() - 3);

  TraceStreamReader reader(path);
  ASSERT_TRUE(reader.ok()) << "header parses; the damage is mid-stream";
  RunStep step;
  std::size_t fed = 0;
  while (reader.next(step)) ++fed;
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("step"), std::string::npos)
      << reader.error();
  EXPECT_LT(fed, t.steps.size());

  // The same file through service ingest: diagnostic surfaced, the fed
  // prefix still gets a verdict.
  StreamService svc(StreamServiceOptions{});
  TraceStreamReader reader2(path);
  std::string error;
  EXPECT_FALSE(ingest_trace(reader2, svc.producer(0), 1, error));
  EXPECT_NE(error.find("step"), std::string::npos) << error;
  svc.stop();
  const auto rep = svc.report(1);
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->state, StreamState::Closed);
  EXPECT_EQ(rep->steps, fed);
}

TEST(StreamIngestDiagnostics, TornHeaderReportsCleanly) {
  const RunTrace t = crafted_trace(5);
  ByteWriter w;
  serialize_run_trace(t, w);
  const std::string path = temp_path("torn.scvr");
  write_bytes(path, w.data(), 7);  // magic + version + one header byte

  TraceStreamReader reader(path);
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("truncated"), std::string::npos)
      << reader.error();

  StreamService svc(StreamServiceOptions{});
  TraceStreamReader reader2(path);
  std::string error;
  EXPECT_FALSE(ingest_trace(reader2, svc.producer(0), 1, error));
  EXPECT_EQ(error, reader.error()) << "same diagnostic on both paths";
  svc.stop();
  EXPECT_FALSE(svc.report(1).has_value()) << "stream never opened";
}

TEST(StreamIngestDiagnostics, ZeroStepHeaderWithTrailingBytesIsRejected) {
  // A header that declares no steps ends the trace; junk after it must
  // fail the streaming reader (scv_check, scv_serve) exactly as it fails
  // parse_run_trace.
  ByteWriter w;
  serialize_run_trace(crafted_trace(0), w);
  std::vector<std::uint8_t> bytes = w.data();
  bytes.insert(bytes.end(), {0xde, 0xad, 0xbe, 0xef});
  const std::string path = temp_path("zero_step_junk.scvr");
  write_bytes(path, bytes, bytes.size());

  RunTrace parsed;
  std::string error;
  EXPECT_FALSE(parse_run_trace(bytes, parsed, error));
  EXPECT_EQ(error, "trailing bytes after the last step");

  TraceStreamReader reader(path);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.error(), error) << "same diagnostic as parse_run_trace";
  EXPECT_FALSE(reader.done());
  EXPECT_FALSE(check_trace_stream(reader).ok);

  StreamService svc(StreamServiceOptions{});
  TraceStreamReader reader2(path);
  std::string ingest_error;
  EXPECT_FALSE(ingest_trace(reader2, svc.producer(0), 1, ingest_error));
  EXPECT_EQ(ingest_error, error);
  svc.stop();

  // Without the junk the same header is a clean, empty trace.
  const std::string clean = temp_path("zero_step.scvr");
  write_bytes(clean, w.data(), w.data().size());
  TraceStreamReader ok_reader(clean);
  EXPECT_TRUE(ok_reader.ok()) << ok_reader.error();
  EXPECT_TRUE(ok_reader.done());
}

TEST(StreamIngestDiagnostics, ExcerptBaseTracesRefuseReingestion) {
  RunTrace t = crafted_trace(3);
  t.base_state = {1, 2, 3};  // any base marks it as an excerpt
  t.dropped_steps = 7;
  ByteWriter w;
  serialize_run_trace(t, w);
  const std::string path = temp_path("excerpt.scvr");
  write_bytes(path, w.data(), w.data().size());

  StreamService svc(StreamServiceOptions{});
  TraceStreamReader reader(path);
  ASSERT_TRUE(reader.ok()) << reader.error();
  std::string error;
  EXPECT_FALSE(ingest_trace(reader, svc.producer(0), 1, error));
  EXPECT_NE(error.find("excerpt base"), std::string::npos) << error;
  svc.stop();
}

// Chunked reading equals batch reading, byte for byte, on a trace larger
// than one refill chunk (TraceStreamReader::kChunkBytes = 64 KiB).

TEST(StreamIngestDiagnostics, ChunkedReaderMatchesBatchOnLargeTrace) {
  const std::unique_ptr<Protocol> proto =
      make_registered_protocol("msi_bus");
  ASSERT_NE(proto, nullptr);
  RecordWalkOptions opt;
  opt.steps = 20000;  // ~100+ KiB serialized: several refill cycles
  const RunTrace walk = record_walk(*proto, opt);
  const std::string path = temp_path("large.scvr");
  std::string error;
  ASSERT_TRUE(write_run_trace(path, walk, error)) << error;

  TraceStreamReader reader(path);
  ASSERT_TRUE(reader.ok()) << reader.error();
  const TraceCheckResult streamed = check_trace_stream(reader);
  ASSERT_TRUE(streamed.ok) << streamed.error;
  const TraceCheckResult batch = check_trace(walk);
  EXPECT_EQ(streamed.accepted, batch.accepted);
  EXPECT_EQ(streamed.reject_reason, batch.reject_reason);
  EXPECT_EQ(streamed.steps_fed, batch.steps_fed);
  EXPECT_EQ(streamed.symbols_fed, batch.symbols_fed);
}

}  // namespace
}  // namespace scv
