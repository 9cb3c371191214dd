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
// The unit of work is the descriptor step on both sides of the ring.  A
// producer stages a step's Symbol events and publishes them together with
// its StepEnd in one release store, so a symbol reaches the service at the
// next publishing call (step_end, close or open) on its producer.  The
// worker builds each step in place in a flat per-stream symbol log, feeds
// it to ScChecker::feed_batch as one span, and records it for the excerpt
// window by pushing its end offset.
//
// Per-stream state is arena-pooled: each ring owns a pool of StreamContext
// records (checker instance + symbol logs) that are recycled through a free
// list on close, so a long-lived service opening and closing millions of
// short streams reuses the same warmed-up buffers instead of allocating per
// stream.  The steady-state ingest path — Symbol events appended to the
// log, StepEnd feeding the checker — performs no heap allocation once a
// stream's buffers have warmed (asserted by test).
//
// Verdicts: a violating stream is *quarantined* — its verdict, reason and a
// replayable SCVR excerpt (the last two step windows plus the checker
// snapshot from the window start, run_trace.hpp v4) are published, further
// events for it are discarded, and every other stream continues untouched.
// Clean streams publish Accepted on Close.  Reports cross threads through
// a mutex-guarded map written only on these cold transitions.
//
// Backpressure: rings are bounded; a push that finds its ring full
// publishes what it staged and then spins (with yield) until the worker
// frees a slot, so ingest stalls instead of dropping events or growing
// memory — and the stall count is reported in the service stats.  Every
// counter lives with its ring and has a single writing thread; stats()
// sums them.
#pragma once

#include <atomic>
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

/// Monotonic service-wide counters, summed over the rings (exact after
/// stop()).
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
  struct RingState;

 public:
  explicit StreamService(const StreamServiceOptions& options);
  StreamService(const StreamService&) = delete;
  StreamService& operator=(const StreamService&) = delete;
  ~StreamService();

  /// Producer-side handle, bound to one ring.  NOT thread-safe: exactly one
  /// thread may use a given producer at a time (the SPSC contract).  Stream
  /// IDs are caller-chosen and service-global; a stream belongs to the
  /// producer that opened it.
  ///
  /// Visibility: symbol() only stages its event; step_end(), close() and
  /// open() publish everything staged on this producer, so a symbol reaches
  /// the service at the next publishing call on its producer.
  class Producer {
   public:
    void open(std::uint32_t stream, const ScCheckerConfig& cfg);
    void symbol(std::uint32_t stream, const Symbol& sym);
    void step_end(std::uint32_t stream);
    void close(std::uint32_t stream);

   private:
    friend class StreamService;
    Producer(StreamService& svc, std::size_t ring)
        : svc_(&svc), rs_(svc.rings_[ring].get()) {}
    /// Stages one event, written in place by `fill(StreamEvent&)`, and
    /// publishes everything staged when `publish` is set.
    template <typename Fill>
    void push(const Fill& fill, bool publish);
    StreamService* svc_;
    RingState* rs_;
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

    // Excerpt double-window as two flat symbol logs.  cur_syms holds the
    // current window's recorded steps followed by the pending step (the
    // symbols since the last StepEnd); cur_ends[i] is the end offset of
    // the window's step i.  prev_* hold the previous window, and snap_prev
    // is the checker snapshot taken *before* its first step, so
    // base+prev+cur+failing-step replays exactly.  Rotation moves cur to
    // prev and re-snapshots, dropping the oldest window.  With
    // excerpt_window == 0 the log holds only the pending step.
    std::vector<Symbol> prev_syms, cur_syms;
    std::vector<std::size_t> prev_ends, cur_ends;
    ByteWriter snap_prev, snap_cur;
    std::uint64_t dropped_before_prev = 0;
    bool rotated = false;  ///< any window was ever dropped into the base

    /// Offset of the pending step in cur_syms.
    [[nodiscard]] std::size_t pending_begin() const noexcept {
      return cur_ends.empty() ? 0 : cur_ends.back();
    }
  };

  /// A counter with one writing thread: a relaxed load and store instead
  /// of a locked read-modify-write.  stats() reads it from any thread.
  class OwnedCounter {
   public:
    void add(std::uint64_t n) noexcept {
      v_.store(v_.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t load() const noexcept {
      return v_.load(std::memory_order_relaxed);
    }

   private:
    std::atomic<std::uint64_t> v_{0};
  };

  struct RingState {
    explicit RingState(std::size_t capacity) : ring(capacity) {}
    SpscRing<StreamEvent> ring;

    // Stream directory, context arena and counters, touched only by the
    // one worker draining this ring.  `current` is the context of the last
    // event's stream (cleared when that context is released), so events
    // that follow one of their own stream skip the map lookup.
    alignas(64) StreamContext* current = nullptr;
    std::unordered_map<std::uint32_t, std::uint32_t> index;
    std::vector<std::unique_ptr<StreamContext>> arena;
    std::vector<std::uint32_t> free_list;
    OwnedCounter events, symbols, steps;
    OwnedCounter opened, closed, quarantined, discarded;

    // Written by the producer when it finds the ring full.
    alignas(64) OwnedCounter stalls;
  };

  void apply(RingState& rs, const StreamEvent& ev);
  void apply_open(RingState& rs, const StreamEvent& ev);
  void apply_step_end(RingState& rs, StreamContext& ctx);
  void finish_stream(RingState& rs, StreamContext& ctx);
  void quarantine(RingState& rs, StreamContext& ctx);
  void release(RingState& rs, StreamContext& ctx);
  void publish_report(std::uint32_t stream, StreamReport&& rep);
  void rotate_windows(StreamContext& ctx);
  std::size_t drain_ring(RingState& rs);
  void worker_main(std::size_t w, std::size_t stride);

  StreamServiceOptions opt_;
  std::vector<std::unique_ptr<RingState>> rings_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  mutable std::mutex reports_mu_;
  std::unordered_map<std::uint32_t, StreamReport> reports_;
};

}  // namespace scv
