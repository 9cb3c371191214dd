// Standard SymbolSink implementations: the recorder (descriptor stream →
// RunTrace) and the statistics collector.
//
// Both are observation-only (see descriptor/sink.hpp): neither can alter the
// run it watches.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "descriptor/sink.hpp"
#include "runlog/run_trace.hpp"

namespace scv {

/// Records the stream into RunTrace steps.  The driver fills the trace
/// header (protocol, checker config, verdict); the recorder contributes the
/// body.
class RunRecorder final : public SymbolSink {
 public:
  void begin_step(std::string_view action) override {
    cur_.action.assign(action);
    cur_.symbols.clear();
  }
  void on_symbol(const Symbol& sym) override { cur_.symbols.push_back(sym); }
  void end_step() override {
    steps_.push_back(std::move(cur_));
    cur_ = RunStep{};
  }

  [[nodiscard]] const std::vector<RunStep>& steps() const noexcept {
    return steps_;
  }
  [[nodiscard]] std::vector<RunStep> take() noexcept {
    return std::move(steps_);
  }

 private:
  RunStep cur_;
  std::vector<RunStep> steps_;
};

/// Per-symbol-kind counters plus the bound-ID high-water mark.
struct SymbolStats {
  std::uint64_t steps = 0;
  std::uint64_t node_descs = 0;
  std::uint64_t add_ids = 0;
  std::uint64_t po_edges = 0;
  std::uint64_t sto_edges = 0;
  std::uint64_t inh_edges = 0;
  std::uint64_t forced_edges = 0;
  /// Peak number of simultaneously bound descriptor IDs — the live-node
  /// high-water mark of the stream (compact emission binds one ID per live
  /// node).  Meaningful for *linear* runs; when the model checker attaches
  /// stats sinks to its exploration workers, the stream interleaves
  /// unrelated branches and only the counters above are meaningful.
  std::size_t peak_bound_ids = 0;

  [[nodiscard]] std::uint64_t edges() const noexcept {
    return po_edges + sto_edges + inh_edges + forced_edges;
  }
  [[nodiscard]] std::uint64_t symbols() const noexcept {
    return node_descs + add_ids + edges();
  }

  /// Fold another collector's stats in: counters add, high-waters max.
  void merge(const SymbolStats& other) noexcept;

  [[nodiscard]] std::string summary() const;
};

/// Counts symbols by kind and tracks the bound-ID set (a bitmask — IDs are
/// 1..k+1 <= 63 by the kMaxBandwidth bound) to report its high-water mark.
class SymbolStatsSink final : public SymbolSink {
 public:
  /// `null_id` is the stream's reserved retirement ID (k+1): add-ID from it
  /// unbinds, and it never counts as bound itself.
  explicit SymbolStatsSink(GraphId null_id) : null_id_(null_id) {}

  void begin_step(std::string_view /*action*/) override { ++stats_.steps; }
  void on_symbol(const Symbol& sym) override;

  [[nodiscard]] const SymbolStats& stats() const noexcept { return stats_; }

 private:
  void bind(GraphId id) {
    // IDs past 63 cannot occur with kMaxBandwidth <= 62, but replayed traces
    // are untrusted; ignore rather than shift out of range.
    if (id == null_id_ || id == kNoId || id >= 64) return;
    bound_ |= 1ULL << id;
    stats_.peak_bound_ids = std::max(
        stats_.peak_bound_ids,
        static_cast<std::size_t>(std::popcount(bound_)));
  }

  GraphId null_id_;
  std::uint64_t bound_ = 0;
  SymbolStats stats_;
};

}  // namespace scv
