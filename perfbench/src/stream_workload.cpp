// The service workload, stream_mixed: a StreamService with 2 producer rings
// and 2 verifier workers, fed by one generator thread (the caller) that
// keeps a fixed set of streams open and interleaves their steps.
//
// Input: recorded walks (record_walk) of every registry protocol under sc,
// tso and coherence; walk seeds and stream order come from --seed.  The
// registry's verdict matrix makes roughly a third of the walks violate, so
// quarantine and excerpt export run alongside clean verification.  Every
// stream's report is compared with offline check_trace of its walk, and
// every quarantine excerpt must re-reject.
//
// The two phases alternate in five rounds over the run.
//
// Phase 1 (closed loop, saturation): batches of streams, each on a fresh
// service.  time_to_verdict_s is the median wall time from a batch's first
// event to its last verdict; symbols_per_s the median of batch symbols over
// that time; setup_s the median construction + start() time.
//
// Phase 2 (open loop): slices on a fresh service each, steps offered at the
// fixed rate kOfferedRate whatever the service does.  A stream's verdict latency runs
// from when its final event was due to when report() returns its verdict;
// stream_verdict_p50_ms is the median over the phase's clean streams.
//
// Traced run: phase 1 alternates plain and traced batches (the traced ones
// time a sample of Producer calls and every report() poll, and sample the
// backlog), one batch's input is replayed in poll mode and fed straight to
// ScChecker, and the excerpts are re-checked under a clock.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "checker/memory_model.hpp"
#include "checker/sc_checker.hpp"
#include "common.hpp"
#include "mc/record.hpp"
#include "protocol/registry.hpp"
#include "runlog/replay.hpp"
#include "runlog/run_trace.hpp"
#include "stream/service.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using scv::StreamService;

/// Phase 2's offered load, frozen so every commit is offered the same
/// rate: about a third of phase 1's saturated rate on a 4-CPU x86 host.
constexpr double kOfferedRate = 6.0e6;  // symbols/s
constexpr std::size_t kProducers = 2;
constexpr std::size_t kWorkers = 2;

struct Walk {
  scv::RunTrace trace;
  bool accepted = true;  ///< offline check_trace verdict
  std::size_t symbols = 0;
};

struct Sizes {
  std::size_t walks_per_pair;  ///< walks per (protocol, model)
  std::size_t walk_steps;
  std::size_t open_streams;    ///< streams interleaved at once
  double batch_symbols;        ///< symbols per phase-1 batch
};

Sizes sizes_for(const RunConfig& cfg) {
  if (cfg.small) return Sizes{1, 60, 16, 2e4};
  return Sizes{32, 300, 256, 2.5e6};
}

std::vector<Walk> make_walks(const RunConfig& cfg, const Sizes& sz,
                             Outcome& out) {
  const std::pair<const char*, scv::MemoryModel> models[] = {
      {"sc", scv::MemoryModel::sc()},
      {"tso", scv::MemoryModel::tso()},
      {"coherence", scv::MemoryModel::coherence()},
  };
  std::vector<Walk> walks;
  std::uint64_t n = 0;
  for (const scv::RegisteredProtocol& entry : scv::protocol_registry()) {
    const std::unique_ptr<scv::Protocol> proto = entry.make();
    for (const auto& [model_name, model] : models) {
      for (std::size_t i = 0; i < sz.walks_per_pair; ++i) {
        scv::RecordWalkOptions opt;
        opt.steps = sz.walk_steps;
        opt.seed = scv::mix64(cfg.seed * 0x9e3779b97f4a7c15ULL + ++n);
        opt.observer.model = model;
        Walk w;
        w.trace = scv::record_walk(*proto, opt);
        const scv::TraceCheckResult offline = scv::check_trace(w.trace);
        out.check(offline.ok, "offline check of " + entry.id + "/" +
                                  model_name + ": " + offline.error);
        w.accepted = offline.accepted;
        w.symbols = w.trace.symbol_count();
        walks.push_back(std::move(w));
      }
    }
  }
  // Test hook: expect the opposite verdict for the first walk.
  if (cfg.wrong_expectation) walks.front().accepted = !walks.front().accepted;
  return walks;
}

/// Keeps `open` streams in flight and hands out their events in a seeded
/// interleaving: each call picks a random open stream and returns its next
/// event (Open, one Step, or Close).  A closed stream's slot is refilled
/// with the next stream, whose walk is drawn at random, until admission
/// closes.
class Interleaver {
 public:
  enum class Kind : std::uint8_t { Open, Step, Close };
  struct Event {
    Kind kind = Kind::Open;
    std::uint32_t stream = 0;
    const Walk* walk = nullptr;
    std::size_t step = 0;  ///< Kind::Step: index into walk->trace.steps
  };

  /// Admits streams until the admitted walks hold `max_symbols` symbols.
  Interleaver(const std::vector<Walk>& walks, std::uint64_t seed,
              std::size_t open, double max_symbols)
      : walks_(walks), rng_(seed), max_symbols_(max_symbols) {
    while (slots_.size() < open && admit()) {
    }
  }

  /// Stops opening new streams; the open ones run to completion.
  void close_admission() { max_symbols_ = 0.0; }

  bool next(Event& ev) {
    if (slots_.empty()) return false;
    // A stream's Close follows its last step at once, so its final event
    // is due when its last step is.
    const std::size_t i =
        closing_ != kNone ? closing_ : rng_.below(slots_.size());
    Slot& s = slots_[i];
    ev.stream = s.stream;
    ev.walk = s.walk;
    const std::size_t steps = s.walk->trace.steps.size();
    if (closing_ == kNone && !s.opened) {
      s.opened = true;
      ev.kind = Kind::Open;
      if (steps == 0) closing_ = i;
    } else if (closing_ == kNone) {
      ev.kind = Kind::Step;
      ev.step = s.next_step++;
      if (s.next_step == steps) closing_ = i;
    } else {
      ev.kind = Kind::Close;
      closing_ = kNone;
      slots_[i] = slots_.back();
      slots_.pop_back();
      admit();
    }
    return true;
  }

 private:
  struct Slot {
    std::uint32_t stream = 0;
    const Walk* walk = nullptr;
    std::size_t next_step = 0;
    bool opened = false;
  };

  bool admit() {
    if (admitted_symbols_ >= max_symbols_) return false;
    Slot s;
    s.stream = static_cast<std::uint32_t>(admitted_++);
    s.walk = &walks_[rng_.below(walks_.size())];
    admitted_symbols_ += static_cast<double>(s.walk->symbols);
    slots_.push_back(s);
    return true;
  }

  static constexpr std::size_t kNone = ~std::size_t{0};
  const std::vector<Walk>& walks_;
  scv::Xoshiro256 rng_;
  double max_symbols_;
  double admitted_symbols_ = 0.0;
  std::size_t admitted_ = 0;
  std::size_t closing_ = kNone;  ///< slot whose Close is next
  std::vector<Slot> slots_;
};

/// Pushes one interleaver event into the service; returns events pushed.
std::size_t push_event(std::vector<StreamService::Producer>& producers,
                       const Interleaver::Event& ev) {
  StreamService::Producer& p = producers[ev.stream % producers.size()];
  switch (ev.kind) {
    case Interleaver::Kind::Open:
      p.open(ev.stream, ev.walk->trace.checker);
      return 1;
    case Interleaver::Kind::Step: {
      const scv::RunStep& step = ev.walk->trace.steps[ev.step];
      for (const scv::Symbol& sym : step.symbols) p.symbol(ev.stream, sym);
      p.step_end(ev.stream);
      return step.symbols.size() + 1;
    }
    case Interleaver::Kind::Close:
      p.close(ev.stream);
      return 1;
  }
  return 0;
}

std::size_t step_symbols(const Interleaver::Event& ev) {
  return ev.kind == Interleaver::Kind::Step
             ? ev.walk->trace.steps[ev.step].symbols.size()
             : 0;
}

/// Cost of one now_s() read, measured once.
double clock_read_s() {
  static const double cost = [] {
    constexpr int kReads = 100000;
    const double t0 = now_s();
    for (int i = 0; i < kReads; ++i) (void)now_s();
    return (now_s() - t0) / kReads;
  }();
  return cost;
}

struct ServiceHandle {
  std::unique_ptr<StreamService> svc;
  std::vector<StreamService::Producer> producers;
  double setup_s = 0.0;  ///< construction + start()
};

ServiceHandle make_service(std::size_t workers) {
  scv::StreamServiceOptions opt;
  opt.producers = kProducers;
  opt.workers = workers;
  ServiceHandle h;
  const double t0 = now_s();
  h.svc = std::make_unique<StreamService>(opt);
  h.svc->start();
  h.setup_s = now_s() - t0;
  for (std::size_t i = 0; i < kProducers; ++i) {
    h.producers.push_back(h.svc->producer(i));
  }
  return h;
}

/// Checks one finished stream against its offline verdict; quarantine
/// excerpts must re-reject through check_trace.
struct ReportChecker {
  Outcome& out;
  double recheck_s = 0.0;
  double excerpt_bytes = 0.0;

  void check(std::uint32_t id, const Walk& walk,
             const std::optional<scv::StreamReport>& rep) {
    if (!rep.has_value()) {
      out.check(false, "stream " + std::to_string(id) + ": no report");
      return;
    }
    const bool closed = rep->state == scv::StreamState::Closed;
    out.check(closed == walk.accepted,
              "stream " + std::to_string(id) + ": service " +
                  (closed ? "accepted" : "quarantined") + ", offline " +
                  (walk.accepted ? "accepted" : "rejected"));
    if (!rep->excerpt.has_value()) return;
    const double t0 = now_s();
    const scv::TraceCheckResult r = scv::check_trace(*rep->excerpt);
    recheck_s += now_s() - t0;
    scv::ByteWriter w;
    scv::serialize_run_trace(*rep->excerpt, w);
    excerpt_bytes += static_cast<double>(w.data().size());
    out.check(r.ok && !r.accepted,
              "stream " + std::to_string(id) + ": excerpt does not re-reject");
  }
};

struct BatchResult {
  double wall = 0.0;  ///< first event pushed -> last verdict returned
  double setup_s = 0.0;
  double symbols = 0.0;
  double push_s = 0.0;  ///< traced batches only
  double poll_s = 0.0;  ///< traced batches only
  double backlog_max = 0.0;
  double excerpt_recheck_s = 0.0;
  double excerpt_bytes = 0.0;
  scv::StreamServiceStats stats;
  [[nodiscard]] double rate() const { return symbols / wall; }
};

/// One closed-loop batch on a fresh service: push every event as fast as
/// the rings take them, then collect every verdict.
BatchResult run_batch(const std::vector<Walk>& walks, const Sizes& sz,
                      std::uint64_t seed, bool traced, Outcome& out) {
  BatchResult b;
  ServiceHandle h = make_service(kWorkers);
  b.setup_s = h.setup_s;
  Interleaver gen(walks, seed, sz.open_streams, sz.batch_symbols);
  std::vector<std::pair<std::uint32_t, const Walk*>> closed;
  std::vector<std::optional<scv::StreamReport>> reports;
  std::uint64_t pushed = 0;
  std::uint64_t pushes = 0;
  Interleaver::Event ev;

  const double t0 = now_s();
  // Traced batches time one push in kPushSample (two clock reads per push
  // would double the generator's cost) and scale by the events pushed.
  constexpr std::uint64_t kPushSample = 8;
  double sampled_s = 0.0;
  std::uint64_t sampled_events = 0;
  while (gen.next(ev)) {
    b.symbols += static_cast<double>(step_symbols(ev));
    if (traced && (++pushes % kPushSample) == 0) {
      const double p0 = now_s();
      const std::size_t n = push_event(h.producers, ev);
      sampled_s += now_s() - p0;
      sampled_events += n;
      pushed += n;
      if ((pushes % (32 * kPushSample)) == 0) {
        const std::uint64_t applied = h.svc->stats().events;
        b.backlog_max =
            std::max(b.backlog_max, static_cast<double>(pushed - applied));
      }
    } else {
      pushed += push_event(h.producers, ev);
    }
    if (ev.kind == Interleaver::Kind::Close) {
      closed.emplace_back(ev.stream, ev.walk);
    }
  }
  if (sampled_events != 0) {
    // Each sample also paid for one clock read; take it out before scaling.
    const double sampled_push_s =
        std::max(0.0, sampled_s - static_cast<double>(pushes / kPushSample) *
                                      clock_read_s());
    b.push_s = sampled_push_s * static_cast<double>(pushed) /
               static_cast<double>(sampled_events);
  }
  for (const auto& [id, walk] : closed) {
    std::optional<scv::StreamReport> rep;
    for (;;) {
      const double p0 = traced ? now_s() : 0.0;
      rep = h.svc->report(id);
      if (traced) b.poll_s += now_s() - p0;
      if (rep.has_value()) break;
      std::this_thread::yield();
    }
    reports.push_back(std::move(rep));
  }
  b.wall = now_s() - t0;

  h.svc->stop();
  b.stats = h.svc->stats();
  ReportChecker rc{out};
  for (std::size_t i = 0; i < closed.size(); ++i) {
    rc.check(closed[i].first, *closed[i].second, reports[i]);
  }
  b.excerpt_recheck_s = rc.recheck_s;
  b.excerpt_bytes = rc.excerpt_bytes;
  return b;
}

struct OpenLoopResult {
  /// Verdict latencies, split by verdict: a clean stream's verdict waits
  /// for its Close to be applied, a quarantined stream's for its failing
  /// step plus the excerpt build (and report() then copies the excerpt).
  std::vector<double> clean_latency_ms;
  std::vector<double> quarantine_latency_ms;
  std::vector<double> late_ms;  ///< how late each stream's close was pushed
  double backlog_max = 0.0;
};

/// One phase-2 slice on a fresh service: offer steps at kOfferedRate for
/// `seconds` of schedule, polling for verdicts between pushes, and append
/// to `res`.  Returns the service's set-up time.
double run_open_loop(const std::vector<Walk>& walks, const Sizes& sz,
                     std::uint64_t seed, double seconds, bool traced,
                     OpenLoopResult& res, Outcome& out) {
  ServiceHandle h = make_service(kWorkers);
  Interleaver gen(walks, seed, sz.open_streams, 1e300);
  const double budget = kOfferedRate * seconds;  // symbols to schedule

  struct Pending {
    std::uint32_t id;
    const Walk* walk;
    double due;
  };
  std::deque<Pending> pending;
  std::vector<std::pair<std::uint32_t, const Walk*>> finished;
  std::vector<std::optional<scv::StreamReport>> reports;
  double scheduled = 0.0;  // symbols whose due time has been assigned
  std::uint64_t pushed = 0;
  std::uint64_t pushes = 0;
  Interleaver::Event ev;
  bool have_event = gen.next(ev);

  const double t0 = now_s();
  while (have_event || !pending.empty()) {
    const double now = now_s();
    // Push every event that is due.  An event is due once its symbols, and
    // every symbol scheduled before it, have had their share of the offered
    // rate; a Close is therefore due together with the stream's last step.
    while (have_event) {
      const double symbols = static_cast<double>(step_symbols(ev));
      const double due = t0 + (scheduled + symbols) / kOfferedRate;
      if (due > now) break;
      scheduled += symbols;
      pushed += push_event(h.producers, ev);
      if (ev.kind == Interleaver::Kind::Close) {
        pending.push_back({ev.stream, ev.walk, due});
        res.late_ms.push_back(1e3 * (now_s() - due));
      }
      if (scheduled >= budget) gen.close_admission();
      have_event = gen.next(ev);
      if (traced && (++pushes & 255) == 0) {
        const std::uint64_t applied = h.svc->stats().events;
        res.backlog_max =
            std::max(res.backlog_max, static_cast<double>(pushed - applied));
      }
    }
    // Poll the oldest pending verdicts.
    std::size_t polled = 0;
    for (auto it = pending.begin(); it != pending.end() && polled < 64;
         ++polled) {
      std::optional<scv::StreamReport> rep = h.svc->report(it->id);
      if (!rep.has_value()) {
        ++it;
        continue;
      }
      const double latency_ms = 1e3 * (now_s() - it->due);
      (rep->state == scv::StreamState::Closed ? res.clean_latency_ms
                                              : res.quarantine_latency_ms)
          .push_back(latency_ms);
      finished.emplace_back(it->id, it->walk);
      reports.push_back(std::move(rep));
      it = pending.erase(it);
    }
  }
  h.svc->stop();
  ReportChecker rc{out};
  for (std::size_t i = 0; i < finished.size(); ++i) {
    rc.check(finished[i].first, *finished[i].second, reports[i]);
  }
  return h.setup_s;
}

/// The same batch replayed through a poll-mode service (no threads), timing
/// only the poll() drains.  Chunks stay well under the ring capacity, so
/// pushes never drain inline.
double poll_drain_s(const std::vector<Walk>& walks, const Sizes& sz,
                    std::uint64_t seed) {
  ServiceHandle h = make_service(0);
  Interleaver gen(walks, seed, sz.open_streams, sz.batch_symbols);
  constexpr std::size_t kChunkEvents = 4096;
  double drain = 0.0;
  std::size_t chunk = 0;
  Interleaver::Event ev;
  const auto drain_all = [&] {
    const double t0 = now_s();
    while (h.svc->poll() != 0) {
    }
    drain += now_s() - t0;
    chunk = 0;
  };
  while (gen.next(ev)) {
    chunk += push_event(h.producers, ev);
    if (chunk >= kChunkEvents) drain_all();
  }
  drain_all();
  return drain;
}

/// The same batch fed straight to ScChecker::feed_batch, one stream at a
/// time: the checker's share of the service's work.
double checker_feed_s(const std::vector<Walk>& walks, const Sizes& sz,
                      std::uint64_t seed) {
  Interleaver gen(walks, seed, sz.open_streams, sz.batch_symbols);
  std::vector<const Walk*> streams;
  Interleaver::Event ev;
  while (gen.next(ev)) {
    if (ev.kind == Interleaver::Kind::Open) streams.push_back(ev.walk);
  }
  double feed = 0.0;
  for (const Walk* w : streams) {
    scv::ScChecker checker(w->trace.checker);
    const double t0 = now_s();
    for (const scv::RunStep& step : w->trace.steps) {
      if (checker.feed_batch(step.symbols) == scv::ScChecker::Status::Reject)
        break;
    }
    feed += now_s() - t0;
  }
  return feed;
}

double batch_symbols(const std::vector<Walk>& walks, const Sizes& sz,
                     std::uint64_t seed) {
  Interleaver gen(walks, seed, sz.open_streams, sz.batch_symbols);
  double n = 0.0;
  Interleaver::Event ev;
  while (gen.next(ev)) n += static_cast<double>(step_symbols(ev));
  return n;
}

}  // namespace

void run_stream_workload(const RunConfig& cfg, Outcome& out) {
  const double start = now_s();
  const Sizes sz = sizes_for(cfg);
  const std::vector<Walk> walks = make_walks(cfg, sz, out);
  // The phases alternate in rounds, so that each phase's samples span the
  // whole run (host speed drifts over seconds).  Per round, phase 1 gets
  // half of the round's share of the run and phase 2 four tenths.
  const std::size_t rounds = cfg.small ? 1 : 5;
  const double round_s =
      std::max(0.0, cfg.seconds - (now_s() - start)) / static_cast<double>(rounds);
  const std::size_t min_batches = 2;  // plain batches per round
  scv::Xoshiro256 batch_seeds(scv::mix64(cfg.seed ^ 0xba7c4ULL));

  std::vector<BatchResult> plain;
  std::vector<BatchResult> traced;
  std::vector<double> setups;
  OpenLoopResult ol;
  std::size_t batch = 0;
  for (std::size_t round = 1; round <= rounds; ++round) {
    const double phase1_end = now_s() + 0.5 * round_s;
    while (plain.size() < round * min_batches || now_s() < phase1_end) {
      const bool trace_this = cfg.trace && (batch++ % 2 == 1);
      BatchResult b = run_batch(walks, sz, batch_seeds(), trace_this, out);
      setups.push_back(b.setup_s);
      (trace_this ? traced : plain).push_back(std::move(b));
    }
    setups.push_back(run_open_loop(walks, sz, batch_seeds(), 0.4 * round_s,
                                   cfg.trace, ol, out));
  }

  std::vector<double> plain_wall, plain_rate;
  for (const BatchResult& b : plain) {
    plain_wall.push_back(b.wall);
    plain_rate.push_back(b.rate());
  }
  const double ttv = median(plain_wall);
  const double rate = median(plain_rate);
  out.set("time_to_verdict_s", ttv);
  out.set("setup_s", median(setups));
  out.set("symbols_per_s", rate);
  // The p50 over all streams would fall between the two verdict classes'
  // latency modes (about 3 and 14 us here) and swing with their mix; the
  // end-to-end metric is the common case, the clean verdict.
  out.set("stream_verdict_p50_ms", percentile(ol.clean_latency_ms, 0.5));
  if (!cfg.trace) return;

  // --- Traced run -------------------------------------------------------
  std::vector<double> traced_wall, traced_rate;
  for (const BatchResult& b : traced) {
    traced_wall.push_back(b.wall);
    traced_rate.push_back(b.rate());
  }
  const BatchResult& tb = traced[median_index(traced_wall)];
  out.set("stream.traced_batch_s", tb.wall);
  out.set("stream.push_s", tb.push_s);
  out.set("stream.report_poll_s", tb.poll_s);
  out.set("stream.generator_wait_s", tb.wall - tb.push_s - tb.poll_s);
  out.set("stream.backpressure_stalls",
          static_cast<double>(tb.stats.backpressure_stalls));
  out.set("stream.backlog_events_max",
          std::max(tb.backlog_max, ol.backlog_max));
  out.set("stream.quarantined",
          static_cast<double>(tb.stats.streams_quarantined));
  out.set("stream.discarded_events",
          static_cast<double>(tb.stats.discarded_events));
  out.set("stream.generator_late_ms", percentile(ol.late_ms, 0.99));
  out.set("stream.quarantine_verdict_p50_ms",
          percentile(ol.quarantine_latency_ms, 0.5));
  std::vector<double> all_latency_ms = ol.clean_latency_ms;
  all_latency_ms.insert(all_latency_ms.end(), ol.quarantine_latency_ms.begin(),
                        ol.quarantine_latency_ms.end());
  out.set("stream.verdict_p99_ms", percentile(std::move(all_latency_ms), 0.99));
  out.set("runlog.excerpt_recheck_s", tb.excerpt_recheck_s);
  out.set("runlog.excerpt_bytes", tb.excerpt_bytes);

  // Poll-mode replay and the direct checker feed of one batch's input.
  const std::uint64_t replay_seed = scv::mix64(cfg.seed ^ 0x9011ULL);
  const double symbols = batch_symbols(walks, sz, replay_seed);
  std::vector<double> drains, feeds;
  for (int rep = 0; rep < 3; ++rep) {
    drains.push_back(poll_drain_s(walks, sz, replay_seed));
    feeds.push_back(checker_feed_s(walks, sz, replay_seed));
  }
  const double drain = median(drains);
  const double feed = median(feeds);
  out.set("stream.poll_drain_s", drain);
  out.set("checker.feed_batch_s", feed);
  out.set("checker.ns_per_symbol", 1e9 * feed / symbols);
  out.set("stream.transport_s", drain - feed);

  out.set("trace.overhead_time_to_verdict_s", median(traced_wall) - ttv);
  out.set("trace.overhead_symbols_per_s", median(traced_rate) - rate);
}

}  // namespace perfbench
