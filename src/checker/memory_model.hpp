// The memory-model axis (paper §5, "extending these techniques to other
// memory models").
//
// The observer–checker split of Theorem 3.1 is model-agnostic in principle:
// the constraint-graph rules — po totality, ST order, inheritance, forced
// edges — are merely the *SC instantiation* of a rule table.  A MemoryModel
// names one instantiation and carries the table entries every layer
// dispatches through:
//
//   * which program-order chains the observer threads and the checker
//     disciplines (per processor for SC/TSO, per (processor, block) for
//     coherence — the per-location SC of §5);
//   * which po edges contribute *structural* (cycle-forming) constraints
//     (TSO drops the store→load edges: a buffered store may serialize after
//     any number of program-order-later loads);
//   * whether an additional per-processor *store chain* is threaded (TSO
//     must keep ST→ST order even across the relaxed ST→LD gaps, so the
//     observer emits — and the checker disciplines — po edges along the
//     per-processor store subsequence as well).
//
// Monotonicity: every model here accepts a superset of the executions SC
// accepts.  Coherence keeps a subset of SC's po edges; TSO's structural
// relation is SC's minus the ST→LD po edges plus the ST→ST store-chain
// edges, and the latter are already implied transitively by SC's po chain —
// so any cycle under the weaker model is a cycle under SC.  For a *fixed*
// witness (ST-order choice) this makes verdicts monotone: Verified under SC
// implies Verified under TSO/coherence, and the registry × model
// differential tests assert exactly this.  The witness itself may be
// model-dependent (Protocol::real_time_st_order(model)); where a protocol
// picks different witnesses per model the per-model verdicts compare
// different serialization orders and only the per-witness implication
// holds.
//
// TSO here is the *non-forwarding* store-buffer model: ST→LD program order
// is relaxed for same-block pairs too, so a processor may load a stale value
// of a block whose store still sits in its own buffer (the WriteBuffer
// protocol without forwarding).  Forwarding buffers are *not* admitted: a
// forwarded load returns its own processor's buffered store before it
// reaches memory, and the inheritance edge pins that store before the load
// in the witness order — the store-buffering cycle with forwarding survives
// the relaxation, so WriteBufferFwd stays a violator under this model (the
// registry records this).
//
// Bounded preemption ("Verifying SC under Bounded Preemptions") is an
// *exploration* knob, not a rule-table change: the model checker tracks the
// last scheduled processor and a context-switch budget, pruning transitions
// once the budget is spent.  It under-approximates, so it is only valid on
// the Sc kind and is reported as a bounding option like max_depth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace scv {

enum class ModelKind : std::uint8_t {
  Sc = 0,         ///< sequential consistency (the paper's instantiation)
  Coherence = 1,  ///< per-location SC: po restricted to (proc, block) chains
  Tso = 2,        ///< store→load relaxed; per-proc store chain kept
};

inline constexpr std::size_t kNumModelKinds = 3;

/// Per-model rule table: how each layer instantiates the constraint-graph
/// construction.  One row per ModelKind, dispatched by value — the rows are
/// data, not virtuals, so the checker hot path stays branch-predictable.
struct ModelRules {
  /// Program-order chains run per (processor, block) instead of per
  /// processor; cross-block program order carries no constraint.
  bool per_block_chains = false;
  /// po edges from a store to a load carry no structural (cycle-forming)
  /// constraint: the store may serialize after the load.
  bool relax_store_load = false;
  /// The observer additionally threads each processor's store subsequence
  /// as its own chain of po edges (and the checker disciplines it), so
  /// ST→ST order survives the relaxed ST→LD gaps.
  bool store_chain = false;

  /// The number of program-order chains over `procs` processors and
  /// `blocks` blocks: p, or pb under per-block chains.
  [[nodiscard]] constexpr std::size_t chain_count(
      std::size_t procs, std::size_t blocks) const noexcept {
    return procs * chains_per_proc(blocks);
  }
  /// The chain an operation of processor `proc` on block `block` extends,
  /// numbered processor-major.
  [[nodiscard]] constexpr std::size_t chain_of(
      std::size_t proc, std::size_t block,
      std::size_t blocks) const noexcept {
    return per_block_chains ? proc * blocks + block : proc;
  }
  /// How many chains each processor has: its chains are chain_of(proc, i,
  /// blocks) for i below this count.
  [[nodiscard]] constexpr std::size_t chains_per_proc(
      std::size_t blocks) const noexcept {
    return per_block_chains ? blocks : 1;
  }
  /// The processor whose program order `chain` threads.
  [[nodiscard]] constexpr std::size_t proc_of_chain(
      std::size_t chain, std::size_t blocks) const noexcept {
    return per_block_chains ? chain / blocks : chain;
  }
  /// The chain `chain` becomes when every processor p is renamed to[p]
  /// (a ProcPerm's `to`): the same block's chain of the renamed processor.
  template <class Image>
  [[nodiscard]] constexpr std::size_t chain_image(
      std::size_t chain, const Image& to, std::size_t blocks) const noexcept {
    if (!per_block_chains) return to[chain];
    return static_cast<std::size_t>(to[chain / blocks]) * blocks +
           chain % blocks;
  }
};

inline constexpr ModelRules kModelRules[kNumModelKinds] = {
    /*Sc*/ {false, false, false},
    /*Coherence*/ {true, false, false},
    /*Tso*/ {false, true, true},
};

/// Sentinel: no context-switch budget (the default; full exploration).
inline constexpr std::uint32_t kUnboundedPreemptions = 0xffffffffu;

struct MemoryModel {
  ModelKind kind = ModelKind::Sc;
  /// Context-switch budget for bounded-preemption exploration.  Only
  /// meaningful (and only valid) on the Sc kind; kUnboundedPreemptions
  /// disables the bound.  Consumed by the model checker, not the checker
  /// automaton — two runs differing only here verify the same automaton
  /// over different explored subsets.
  std::uint32_t preemption_bound = kUnboundedPreemptions;

  [[nodiscard]] const ModelRules& rules() const {
    return kModelRules[static_cast<std::uint8_t>(kind)];
  }
  [[nodiscard]] bool bounded_preemption() const {
    return preemption_bound != kUnboundedPreemptions;
  }

  [[nodiscard]] static MemoryModel sc() { return {}; }
  [[nodiscard]] static MemoryModel coherence() {
    return {ModelKind::Coherence, kUnboundedPreemptions};
  }
  [[nodiscard]] static MemoryModel tso() {
    return {ModelKind::Tso, kUnboundedPreemptions};
  }
  [[nodiscard]] static MemoryModel bounded_sc(std::uint32_t switches) {
    return {ModelKind::Sc, switches};
  }

  friend bool operator==(const MemoryModel&, const MemoryModel&) = default;
};

[[nodiscard]] inline const char* to_string(ModelKind k) {
  switch (k) {
    case ModelKind::Sc: return "sc";
    case ModelKind::Coherence: return "coherence";
    case ModelKind::Tso: return "tso";
  }
  return "?";
}

[[nodiscard]] inline std::string to_string(const MemoryModel& m) {
  std::string s = to_string(m.kind);
  if (m.bounded_preemption()) {
    s += "+bp" + std::to_string(m.preemption_bound);
  }
  return s;
}

/// Parses a model name as the CLI tools accept it: "sc", "coherence",
/// "tso", optionally suffixed "+bpN" for a bounded-preemption budget of N
/// context switches (e.g. "sc+bp2").  Returns false on anything else.
[[nodiscard]] inline bool parse_memory_model(std::string_view text,
                                             MemoryModel& out) {
  out = MemoryModel{};
  std::string_view name = text;
  const std::size_t plus = text.find('+');
  if (plus != std::string_view::npos) {
    name = text.substr(0, plus);
    const std::string_view suffix = text.substr(plus + 1);
    if (suffix.size() < 3 || suffix.substr(0, 2) != "bp") return false;
    std::uint64_t n = 0;
    for (const char c : suffix.substr(2)) {
      if (c < '0' || c > '9') return false;
      n = n * 10 + static_cast<std::uint64_t>(c - '0');
      if (n >= kUnboundedPreemptions) return false;
    }
    out.preemption_bound = static_cast<std::uint32_t>(n);
  }
  if (name == "sc") {
    out.kind = ModelKind::Sc;
  } else if (name == "coherence") {
    out.kind = ModelKind::Coherence;
  } else if (name == "tso") {
    out.kind = ModelKind::Tso;
  } else {
    return false;
  }
  return true;
}

/// The registry's model axis: the concrete models differential tests,
/// `scv_lint --list`, and the bench matrix enumerate protocols under.
struct NamedModel {
  const char* name;
  MemoryModel model;
};

[[nodiscard]] inline std::span<const NamedModel> memory_model_axis() {
  static const NamedModel kAxis[] = {
      {"sc", MemoryModel::sc()},
      {"tso", MemoryModel::tso()},
      {"coherence", MemoryModel::coherence()},
  };
  return kAxis;
}

}  // namespace scv
