// The streaming verification service (ROADMAP: "long-lived verification
// service that ingests descriptor streams from thousands of concurrent
// clients").
//
// Topology: N producers, each owning one lock-free SPSC ring of packed
// StreamEvents, drained by a pool of verifier workers.  Ring r is drained
// by worker (r mod workers) only, so every queue stays strictly SPSC and
// all events of one stream are applied in order by one thread — a stream
// lives on the producer that opened it.  With workers == 0 the service runs
// in *poll mode*: no threads are spawned and the caller pumps poll(), which
// drains every ring on the calling thread (deterministic, allocation-
// countable — the mode the differential and zero-allocation tests drive).
//
// Per-stream state is arena-pooled: each ring owns a pool of StreamContext
// records (checker instance + step/excerpt scratch) that are recycled
// through a free list on close, so a long-lived service opening and closing
// millions of short streams reuses the same warmed-up buffers instead of
// allocating per stream.  The steady-state ingest path — Symbol events into
// the current step, StepEnd feeding ScChecker::feed_batch — performs no
// heap allocation once a stream's buffers have warmed (asserted by test).
//
// Verdicts: a violating stream is *quarantined* — its verdict, reason and a
// replayable SCVR excerpt (the last two step windows plus the checker
// snapshot from the window start, run_trace.hpp v4) are published, further
// events for it are discarded, and every other stream continues untouched.
// Clean streams publish Accepted on Close.  Reports cross threads through
// a mutex-guarded map written only on these cold transitions.
//
// Backpressure: rings are bounded; Producer::push spins (with yield) when
// full, so ingest stalls instead of dropping events or growing memory —
// and the stall count is reported in the service stats.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "checker/sc_checker.hpp"
#include "runlog/run_trace.hpp"
#include "stream/spsc_ring.hpp"
#include "stream/stream_event.hpp"
#include "util/byte_io.hpp"

namespace scv {

struct StreamServiceOptions {
  std::size_t producers = 1;
  /// Verifier worker threads; 0 = poll mode (caller pumps poll()).
  std::size_t workers = 0;
  /// Ring capacity per producer (power of two), in events.
  std::size_t ring_capacity = 1 << 14;
  /// Steps per excerpt window: a quarantine excerpt replays at most
  /// 2 * excerpt_window steps plus the failing one.  0 disables excerpt
  /// recording (quarantine still reports verdict + reason).
  std::size_t excerpt_window = 32;
};

enum class StreamState : std::uint8_t {
  Open,
  Closed,       ///< closed clean: verdict Accepted
  Quarantined,  ///< checker rejected (or the Open config was invalid)
};

/// Final report for a finished (closed or quarantined) stream.
struct StreamReport {
  StreamState state = StreamState::Open;
  RunVerdict verdict = RunVerdict::Accepted;
  std::string reason;            ///< checker reject reason / config error
  std::uint64_t steps = 0;       ///< steps applied to the checker
  std::uint64_t symbols = 0;     ///< symbols applied to the checker
  /// Replayable evidence for quarantined streams (empty otherwise): an
  /// SCVR trace whose replay (check_trace) reproduces the reject.  Carries
  /// a version-4 base snapshot when earlier windows were dropped.
  std::optional<RunTrace> excerpt;
};

/// Monotonic service-wide counters (relaxed atomics, exact after stop()).
struct StreamServiceStats {
  std::uint64_t events = 0;
  std::uint64_t symbols = 0;
  std::uint64_t steps = 0;
  std::uint64_t streams_opened = 0;
  std::uint64_t streams_closed = 0;
  std::uint64_t streams_quarantined = 0;
  std::uint64_t backpressure_stalls = 0;
  std::uint64_t discarded_events = 0;  ///< events for quarantined/unknown streams
};

class StreamService {
 public:
  explicit StreamService(const StreamServiceOptions& options);
  StreamService(const StreamService&) = delete;
  StreamService& operator=(const StreamService&) = delete;
  ~StreamService();

  /// Producer-side handle, bound to one ring.  NOT thread-safe: exactly one
  /// thread may use a given producer at a time (the SPSC contract).  Stream
  /// IDs are caller-chosen and service-global; a stream belongs to the
  /// producer that opened it.
  class Producer {
   public:
    void open(std::uint32_t stream, const ScCheckerConfig& cfg);
    void symbol(std::uint32_t stream, const Symbol& sym);
    void step_end(std::uint32_t stream);
    void close(std::uint32_t stream);

   private:
    friend class StreamService;
    Producer(StreamService& svc, std::size_t ring) : svc_(&svc), ring_(ring) {}
    void push(const StreamEvent& ev);
    StreamService* svc_;
    std::size_t ring_;
  };

  [[nodiscard]] Producer producer(std::size_t i);
  [[nodiscard]] std::size_t producer_count() const noexcept;

  /// Spawns the worker pool (no-op in poll mode).  Idempotent.
  void start();
  /// Drains every ring to empty, then joins the workers.  Producers must
  /// have stopped pushing first.  Idempotent; the destructor calls it.
  void stop();

  /// Poll mode: drains every ring once on the calling thread.  Returns the
  /// number of events applied (pump until 0 for a full drain).  Only valid
  /// with workers == 0.
  std::size_t poll();

  /// Report for a finished stream; nullopt while it is still open (or was
  /// never opened).  Safe to call while the service runs: reports publish
  /// on quarantine/close, so a quarantined stream's evidence is available
  /// while its siblings keep verifying.
  [[nodiscard]] std::optional<StreamReport> report(std::uint32_t stream) const;

  [[nodiscard]] StreamServiceStats stats() const;

 private:
  /// Per-stream verifier state, pooled per ring.  All vectors/writers keep
  /// their capacity across recycling — the arena's warm buffers are what
  /// makes reopening streams and the per-step path allocation-free.
  struct StreamContext {
    std::uint32_t stream = 0;
    StreamState state = StreamState::Open;
    ScCheckerConfig cfg;
    std::optional<ScChecker> checker;
    std::uint64_t steps = 0;
    std::uint64_t symbols = 0;

    // Current step accumulator (symbols between StepEnds).
    std::vector<Symbol> cur_step;

    // Excerpt double-window: prev/cur hold the last up-to-2*W applied
    // steps; snap_prev is the checker snapshot taken *before* prev[0], so
    // base+prev+cur+failing-step replays exactly.  Rotation shifts cur to
    // prev and re-snapshots, dropping the oldest window.
    std::vector<RunStep> prev_win, cur_win;
    std::size_t prev_fill = 0, cur_fill = 0;
    ByteWriter snap_prev, snap_cur;
    std::uint64_t dropped_before_prev = 0;
    bool rotated = false;  ///< any window was ever dropped into the base
  };

  struct RingState {
    std::unique_ptr<SpscRing<StreamEvent>> ring;
    // Stream directory + context arena, touched only by the one worker
    // draining this ring.
    std::unordered_map<std::uint32_t, std::uint32_t> index;
    std::vector<std::unique_ptr<StreamContext>> arena;
    std::vector<std::uint32_t> free_list;
  };

  void apply(RingState& rs, const StreamEvent& ev);
  void apply_open(RingState& rs, const StreamEvent& ev);
  void apply_step_end(RingState& rs, StreamContext& ctx);
  void finish_stream(RingState& rs, StreamContext& ctx, StreamState state);
  void quarantine(RingState& rs, StreamContext& ctx);
  void rotate_windows(StreamContext& ctx);
  void record_step(StreamContext& ctx);
  std::size_t drain_ring(RingState& rs);
  void worker_main(std::size_t w, std::size_t stride);

  StreamServiceOptions opt_;
  std::vector<RingState> rings_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  mutable std::mutex reports_mu_;
  std::unordered_map<std::uint32_t, StreamReport> reports_;

  // Service-wide counters (see StreamServiceStats).
  std::atomic<std::uint64_t> events_{0}, symbols_{0}, steps_{0};
  std::atomic<std::uint64_t> opened_{0}, closed_{0}, quarantined_{0};
  std::atomic<std::uint64_t> stalls_{0}, discarded_{0};
};

}  // namespace scv
