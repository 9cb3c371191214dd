#include "stream/service.hpp"

#include <algorithm>
#include <span>

namespace scv {

StreamService::StreamService(const StreamServiceOptions& options)
    : opt_(options) {
  SCV_EXPECTS(opt_.producers >= 1);
  rings_.reserve(opt_.producers);
  for (std::size_t r = 0; r < opt_.producers; ++r) {
    rings_.push_back(std::make_unique<RingState>(opt_.ring_capacity));
  }
}

StreamService::~StreamService() { stop(); }

StreamService::Producer StreamService::producer(std::size_t i) {
  SCV_EXPECTS(i < rings_.size());
  return Producer(*this, i);
}

std::size_t StreamService::producer_count() const noexcept {
  return rings_.size();
}

void StreamService::start() {
  if (started_ || opt_.workers == 0) return;
  started_ = true;
  const std::size_t n = std::min(opt_.workers, rings_.size());
  threads_.reserve(n);
  for (std::size_t w = 0; w < n; ++w) {
    // The stride is fixed before any thread starts: workers must never
    // derive it from shared state start() is still mutating, or two of
    // them could transiently claim the same ring (an SPSC violation).
    threads_.emplace_back([this, w, n] { worker_main(w, n); });
  }
}

void StreamService::stop() {
  stop_.store(true, std::memory_order_release);
  if (!threads_.empty()) {
    for (std::thread& t : threads_) t.join();
    threads_.clear();
  } else {
    // Poll mode (or never started): drain on this thread.
    while (poll() != 0) {
    }
  }
}

std::size_t StreamService::poll() {
  std::size_t total = 0;
  for (const std::unique_ptr<RingState>& rs : rings_) {
    total += drain_ring(*rs);
  }
  return total;
}

void StreamService::worker_main(std::size_t w, std::size_t stride) {
  for (;;) {
    // Read the flag before draining: once it reads true, every event
    // published before stop() is visible to this pass, so an empty pass
    // means the rings are done.
    const bool stopping = stop_.load(std::memory_order_acquire);
    std::size_t total = 0;
    for (std::size_t r = w; r < rings_.size(); r += stride) {
      total += drain_ring(*rings_[r]);
    }
    if (total == 0) {
      if (stopping) return;
      std::this_thread::yield();
    }
  }
}

std::size_t StreamService::drain_ring(RingState& rs) {
  StreamEvent batch[256];
  const std::size_t n = rs.ring.drain(batch, std::size(batch));
  if (n == 0) return 0;
  rs.events.add(n);
  for (std::size_t i = 0; i < n; ++i) apply(rs, batch[i]);
  return n;
}

void StreamService::apply(RingState& rs, const StreamEvent& ev) {
  if (ev.kind == StreamEvent::Kind::Open) {
    apply_open(rs, ev);
    return;
  }
  StreamContext* ctx = rs.current;
  if (ctx == nullptr || ctx->stream != ev.stream) {
    const auto it = rs.index.find(ev.stream);
    if (it == rs.index.end()) {
      rs.discarded.add(1);
      return;
    }
    ctx = rs.arena[it->second].get();
    rs.current = ctx;
  }
  switch (ev.kind) {
    case StreamEvent::Kind::Symbol:
      // The steady-state hot path: one unpack appended to a capacity-warm
      // log.
      append_unpacked(ev.u.sym, ctx->cur_syms);
      break;
    case StreamEvent::Kind::StepEnd:
      apply_step_end(rs, *ctx);
      break;
    case StreamEvent::Kind::Close:
      // Trailing symbols without a StepEnd count as a final implicit step.
      if (ctx->cur_syms.size() > ctx->pending_begin()) {
        apply_step_end(rs, *ctx);
        if (ctx->state != StreamState::Open) break;  // quarantined just now
      }
      finish_stream(rs, *ctx);
      break;
    case StreamEvent::Kind::Open:
      break;  // handled above
  }
}

void StreamService::apply_open(RingState& rs, const StreamEvent& ev) {
  if (const auto it = rs.index.find(ev.stream); it != rs.index.end()) {
    // Re-opening a live stream is a client protocol error; the existing
    // stream is quarantined (its checker state is no longer trustworthy)
    // and the new open is dropped.
    StreamContext& ctx = *rs.arena[it->second];
    StreamReport rep;
    rep.state = StreamState::Quarantined;
    rep.verdict = RunVerdict::TrackingInconsistent;
    rep.reason = "stream reopened before close";
    rep.steps = ctx.steps;
    rep.symbols = ctx.symbols;
    publish_report(ev.stream, std::move(rep));
    rs.quarantined.add(1);
    ctx.state = StreamState::Quarantined;
    release(rs, ctx);
    return;
  }
  rs.opened.add(1);
  const ScCheckerConfig cfg = unpack_config(ev.u.cfg);
  if (const std::string reason = cfg.invalid_reason(); !reason.empty()) {
    StreamReport rep;
    rep.state = StreamState::Quarantined;
    rep.verdict = RunVerdict::TrackingInconsistent;
    rep.reason = "invalid checker config: " + reason;
    publish_report(ev.stream, std::move(rep));
    rs.quarantined.add(1);
    return;
  }

  std::uint32_t slot = 0;
  if (!rs.free_list.empty()) {
    slot = rs.free_list.back();
    rs.free_list.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(rs.arena.size());
    rs.arena.push_back(std::make_unique<StreamContext>());
  }
  StreamContext& ctx = *rs.arena[slot];
  ctx.stream = ev.stream;
  ctx.state = StreamState::Open;
  ctx.cfg = cfg;
  ctx.checker.emplace(cfg);
  ctx.steps = 0;
  ctx.symbols = 0;
  ctx.prev_syms.clear();
  ctx.cur_syms.clear();
  ctx.prev_ends.clear();
  ctx.cur_ends.clear();
  ctx.dropped_before_prev = 0;
  ctx.rotated = false;
  ctx.snap_prev.clear();
  ctx.snap_cur.clear();
  if (opt_.excerpt_window != 0) ctx.checker->snapshot(ctx.snap_cur);
  rs.index.emplace(ev.stream, slot);
}

void StreamService::apply_step_end(RingState& rs, StreamContext& ctx) {
  // Window rotation happens *before* the step is applied so snap_cur is
  // always the checker state preceding the current window's first step.
  if (opt_.excerpt_window != 0 && ctx.cur_ends.size() == opt_.excerpt_window) {
    rotate_windows(ctx);
  }
  const std::size_t begin = ctx.pending_begin();
  const std::span<const Symbol> step(ctx.cur_syms.data() + begin,
                                     ctx.cur_syms.size() - begin);
  const ScChecker::Status st = ctx.checker->feed_batch(step);
  ++ctx.steps;
  ctx.symbols += step.size();
  rs.steps.add(1);
  rs.symbols.add(step.size());
  if (st == ScChecker::Status::Reject) {
    quarantine(rs, ctx);
  } else if (opt_.excerpt_window == 0) {
    ctx.cur_syms.clear();
  } else {
    ctx.cur_ends.push_back(ctx.cur_syms.size());  // record the step
  }
}

void StreamService::rotate_windows(StreamContext& ctx) {
  ctx.dropped_before_prev += ctx.prev_ends.size();
  std::swap(ctx.prev_syms, ctx.cur_syms);
  std::swap(ctx.prev_ends, ctx.cur_ends);
  // The pending step's symbols (past the window's last step) move to the
  // front of the new current log; capacities are warm after the first
  // rotations, so this copies without allocating.
  const auto window_end =
      ctx.prev_syms.begin() + static_cast<std::ptrdiff_t>(ctx.prev_ends.back());
  ctx.cur_syms.assign(window_end, ctx.prev_syms.end());
  ctx.prev_syms.erase(window_end, ctx.prev_syms.end());
  ctx.cur_ends.clear();
  std::swap(ctx.snap_prev, ctx.snap_cur);
  ctx.snap_cur.clear();
  ctx.checker->snapshot(ctx.snap_cur);
  ctx.rotated = true;
}

namespace {

/// Appends the logged steps of one window to an excerpt.
void append_window(const std::vector<Symbol>& syms,
                   const std::vector<std::size_t>& ends,
                   std::vector<RunStep>& out) {
  std::size_t begin = 0;
  for (const std::size_t end : ends) {
    RunStep& step = out.emplace_back();
    step.symbols.assign(syms.begin() + static_cast<std::ptrdiff_t>(begin),
                        syms.begin() + static_cast<std::ptrdiff_t>(end));
    begin = end;
  }
}

}  // namespace

void StreamService::quarantine(RingState& rs, StreamContext& ctx) {
  StreamReport rep;
  rep.state = StreamState::Quarantined;
  rep.verdict = RunVerdict::Violation;
  rep.reason = ctx.checker->reject_reason();
  rep.steps = ctx.steps;
  rep.symbols = ctx.symbols;
  if (opt_.excerpt_window != 0) {
    RunTrace ex;
    ex.protocol = "stream";
    ex.checker = ctx.cfg;
    ex.verdict = RunVerdict::Violation;
    ex.reason = ctx.checker->reject_reason();
    if (ctx.rotated) {
      // Earlier windows were dropped: the excerpt replays from the
      // snapshot taken before the previous window's first step.
      ex.dropped_steps = ctx.dropped_before_prev;
      ex.base_state = ctx.snap_prev.data();
    }
    ex.steps.reserve(ctx.prev_ends.size() + ctx.cur_ends.size() + 1);
    append_window(ctx.prev_syms, ctx.prev_ends, ex.steps);
    append_window(ctx.cur_syms, ctx.cur_ends, ex.steps);
    // The failing step itself (feed_batch stopped inside it; replaying the
    // full step is equivalent — the reject is sticky and first-wins).
    RunStep& last = ex.steps.emplace_back();
    last.symbols.assign(
        ctx.cur_syms.begin() + static_cast<std::ptrdiff_t>(ctx.pending_begin()),
        ctx.cur_syms.end());
    rep.excerpt = std::move(ex);
  }
  publish_report(ctx.stream, std::move(rep));
  rs.quarantined.add(1);
  ctx.state = StreamState::Quarantined;
  release(rs, ctx);
}

void StreamService::finish_stream(RingState& rs, StreamContext& ctx) {
  StreamReport rep;
  rep.state = StreamState::Closed;
  rep.verdict = RunVerdict::Accepted;
  rep.steps = ctx.steps;
  rep.symbols = ctx.symbols;
  publish_report(ctx.stream, std::move(rep));
  rs.closed.add(1);
  ctx.state = StreamState::Closed;
  release(rs, ctx);
}

void StreamService::release(RingState& rs, StreamContext& ctx) {
  const auto it = rs.index.find(ctx.stream);
  rs.free_list.push_back(it->second);
  rs.index.erase(it);
  if (rs.current == &ctx) rs.current = nullptr;
}

void StreamService::publish_report(std::uint32_t stream, StreamReport&& rep) {
  const std::lock_guard<std::mutex> lock(reports_mu_);
  reports_[stream] = std::move(rep);
}

std::optional<StreamReport> StreamService::report(
    std::uint32_t stream) const {
  const std::lock_guard<std::mutex> lock(reports_mu_);
  const auto it = reports_.find(stream);
  if (it == reports_.end()) return std::nullopt;
  return it->second;
}

StreamServiceStats StreamService::stats() const {
  StreamServiceStats s;
  for (const std::unique_ptr<RingState>& rs : rings_) {
    s.events += rs->events.load();
    s.symbols += rs->symbols.load();
    s.steps += rs->steps.load();
    s.streams_opened += rs->opened.load();
    s.streams_closed += rs->closed.load();
    s.streams_quarantined += rs->quarantined.load();
    s.backpressure_stalls += rs->stalls.load();
    s.discarded_events += rs->discarded.load();
  }
  return s;
}

// --- Producer ------------------------------------------------------------

template <typename Fill>
void StreamService::Producer::push(const Fill& fill, bool publish) {
  SpscRing<StreamEvent>& ring = rs_->ring;
  if (!ring.try_stage_with(fill)) {
    // Full: publish what is staged first, so a step longer than the ring
    // drains instead of deadlocking.
    ring.publish();
    do {
      rs_->stalls.add(1);
      if (svc_->opt_.workers == 0 && svc_->threads_.empty()) {
        // Poll mode: producer and consumer share the caller's thread, so a
        // full ring must be drained inline or the push would spin forever.
        (void)svc_->drain_ring(*rs_);
      } else {
        std::this_thread::yield();  // backpressure: stall, never drop
      }
    } while (!ring.try_stage_with(fill));
  }
  if (publish) ring.publish();
}

void StreamService::Producer::open(std::uint32_t stream,
                                   const ScCheckerConfig& cfg) {
  push(
      [&](StreamEvent& ev) {
        ev.stream = stream;
        ev.kind = StreamEvent::Kind::Open;
        ev.u.cfg = pack_config(cfg);
      },
      /*publish=*/true);
}

void StreamService::Producer::symbol(std::uint32_t stream, const Symbol& sym) {
  push(
      [&](StreamEvent& ev) {
        ev.stream = stream;
        ev.kind = StreamEvent::Kind::Symbol;
        ev.u.sym = pack_symbol(sym);
      },
      /*publish=*/false);
}

void StreamService::Producer::step_end(std::uint32_t stream) {
  push(
      [&](StreamEvent& ev) {
        ev.stream = stream;
        ev.kind = StreamEvent::Kind::StepEnd;
        ev.u.sym = PackedSymbol{};
      },
      /*publish=*/true);
}

void StreamService::Producer::close(std::uint32_t stream) {
  push(
      [&](StreamEvent& ev) {
        ev.stream = stream;
        ev.kind = StreamEvent::Kind::Close;
        ev.u.sym = PackedSymbol{};
      },
      /*publish=*/true);
}

}  // namespace scv
