// Explicit-state model checking of the observer–checker product
// (Section 3.4 / Theorem 3.1 put to work).
//
// The product automaton runs the protocol, the observer (which annotates
// each transition with descriptor symbols), and the protocol-independent
// checker side by side.  Verification = "no reachable product state is a
// checker reject":
//
//   * checker reject        -> the emitted constraint graph is cyclic or
//                              malformed: counterexample run extracted;
//   * observer bound/track  -> the protocol (as annotated) falls outside
//                              the class Γ or the configured bandwidth;
//   * full exploration      -> every run's constraint graph is an acyclic
//                              constraint graph, hence the protocol is
//                              sequentially consistent (Lemma 3.1).
//
// States are canonical byte strings (protocol state + observer state +
// checker state), stored as 128-bit fingerprints in a concurrent hash set
// (full keys under McOptions::exact_states).  One level-synchronized BFS
// engine serves every thread count and gives shortest counterexamples: the
// LevelEngine of mc/level_engine.hpp, whose stages are restore, enumerate
// (with ample selection), step, canonicalize, claim, materialize and, at
// the level barrier, resolve, decide (C3), settle and commit.  model_check
// itself runs the lint precheck and the symmetry and POR self-checks,
// picks the POR oracle, and replays and exports the counterexample.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "observer/observer.hpp"
#include "protocol/protocol.hpp"
#include "runlog/run_trace.hpp"
#include "runlog/sinks.hpp"

namespace scv {

enum class McVerdict : std::uint8_t {
  /// Full exploration, no rejection: the protocol is sequentially
  /// consistent (and in Γ with the given annotations).
  Verified,
  /// The checker rejected: counterexample run attached.
  Violation,
  /// Observer ID pool exhausted: raise the bound or the protocol's witness
  /// graphs are not bandwidth bounded.
  BandwidthExceeded,
  /// Tracking labels inconsistent with protocol behaviour.
  TrackingInconsistent,
  /// Exploration hit the state or depth limit before finishing.
  StateLimit,
  /// The static lint precheck model_check runs before exploring found
  /// errors in the protocol's tracking metadata; exploration was not
  /// started.  Run lint_protocol() directly (or tools/scv_lint) for the
  /// full report.
  LintRejected,
};

[[nodiscard]] std::string to_string(McVerdict v);

struct McOptions {
  /// State budget.  A budget of at most 2^20 states also presizes the
  /// visited store for that many (DESIGN.md §9).
  std::size_t max_states = 50'000'000;
  std::size_t max_depth = ~std::size_t{0};
  /// BFS workers; 1 runs inline.  Verdict, counts and counterexample are
  /// the same at every count.
  std::size_t threads = 1;
  /// Observer configuration — including the memory model (ObserverConfig::
  /// model), which the whole stack reads from here: the product builds its
  /// checker from it, counterexample replay and the recorded trace keep it,
  /// and the level engine takes the bounded-preemption budget from its
  /// preemption_bound.  Under a bounded-preemption model the engine appends
  /// (last scheduled processor, remaining budget) to every state key and
  /// prunes cross-processor transitions once the budget is exhausted — an
  /// exploration-bounding knob, so Verified then means "no violation within
  /// the budget" (see McResult::preemption_bounded).  Symmetry and
  /// partial-order reduction are disabled under preemption bounding (orbit
  /// merging and ample deferral both reorder processor alternation, which
  /// the budget counts).
  ObserverConfig observer{};
  /// Explore the bare protocol without observer/checker (for measuring the
  /// observer's state-space overhead).
  bool protocol_only = false;
  /// Keep the full serialized key of every visited state instead of its
  /// 128-bit fingerprint.  An order of magnitude more memory per state;
  /// used for differential testing of the fingerprint store (fingerprint
  /// collisions could silently prune states — see DESIGN.md for the
  /// ~n^2/2^129 birthday bound).
  bool exact_states = false;
  /// On a failure verdict, export the counterexample run as a replayable
  /// run trace (McResult::counterexample_trace): the failing run's full
  /// descriptor stream plus the checker configuration needed to re-verify
  /// it offline (tools/scv_check).  Costs one extra counterexample replay;
  /// exploration itself is unaffected.
  bool record_counterexample = false;
  /// Collect per-symbol-kind counts over every expanded transition's
  /// emitted stream (McResult::symbol_stats).  Duplicate successors count
  /// too — the stats describe the exploration work, not the distinct state
  /// graph — and peak_bound_ids is not meaningful for the branch-interleaved
  /// exploration stream (see SymbolStats).  Adds one statistics sink per
  /// worker to the symbol pipeline.
  bool symbol_stats = false;
  /// Orbit canonicalization under processor permutation (DESIGN.md §12):
  /// the visited set stores one representative per S_p orbit, cutting the
  /// explored state count by up to p! on processor-symmetric protocols.
  /// Engages only when the protocol declares processor_symmetric() and
  /// procs >= 2; on asymmetric protocols it is a no-op.  Sound because
  /// processor permutations are bisimulations of the product, which
  /// model_check first sample-checks (check_processor_symmetry plus a
  /// product-level walk); a declaration failing the check falls back to
  /// identity canonicalization, with McResult::symmetry_note saying why.
  /// Opt out to compare against full exploration (the differential tests
  /// do).
  bool symmetry_reduction = true;
  /// Ample-set partial-order reduction (DESIGN.md §14): expand only a
  /// sound subset of each state's enabled transitions, built from the
  /// protocol's declared independence relation (Protocol::por_enabled /
  /// por_footprint / independent).  Composes with symmetry reduction —
  /// ample selection runs on canonical orbit representatives, so it is
  /// invariant under processor renaming.  Engages only when the protocol
  /// opts in; inert in protocol_only mode (visibility is defined against
  /// the observer/checker pipeline).  Before engaging, model_check sample-
  /// checks that independent pairs commute at the product level, and the
  /// engine keeps cross-validating ample sets against full expansion on
  /// sampled states; a relation failing either check falls back to full
  /// expansion, with McResult::por_note saying why.  Opt out to compare
  /// against full expansion (the differential tests do).
  bool partial_order_reduction = true;
  /// Run ample-set POR from the *inferred* footprints and independence
  /// relation (DESIGN.md §15) instead of the protocol's declarations: build
  /// the protocol's control skeleton, exhaustively verify invisibility and
  /// pairwise commutation, and feed the verified relation to the ample
  /// selector.  Gives sound reduction to protocols with no POR declarations
  /// at all (their Protocol::por_enabled() may stay false); falls back to
  /// full expansion — with McResult::por_note explaining why — when the
  /// inference is unusable (skeleton truncated, too many shapes, procs
  /// over the mask width).  All dynamic safeguards (pre-run product walk,
  /// in-run ample cross-validation, C3) still apply unchanged.
  bool inferred_footprints = false;
  /// Pin worker threads to distinct CPUs of the process affinity mask
  /// (Linux only; no-op elsewhere or when threads exceed the mask).  Keeps
  /// the level-synchronized BFS's per-thread caches warm across levels.
  bool pin_threads = false;
};

struct CounterexampleStep {
  std::string action;                ///< human-readable action
  std::vector<Symbol> emitted;       ///< observer symbols for this step
};

/// Per-BFS-level accounting, for profiling the exploration engine.
struct McLevelStat {
  std::size_t frontier = 0;  ///< states expanded at this level
  std::size_t fresh = 0;     ///< new states discovered at this level
  double seconds = 0.0;
};

/// Where exploration time goes, summed across workers (CPU-seconds, so the
/// phases can add up to more than McResult::seconds on multi-thread runs).
/// The split answers the perf question symmetry reduction raises: how much
/// of the per-transition budget the canonicalizer costs versus how much
/// successor generation and frontier serialization it saves.
struct McPhaseTimes {
  double expand = 0.0;        ///< restore + enumerate + copy + step
  double canonicalize = 0.0;  ///< orbit canonicalization (signatures + key)
  double dedup = 0.0;         ///< fingerprint + visited-store insert
  double materialize = 0.0;   ///< meta + frontier serialization (fresh only)
};

struct McResult {
  McVerdict verdict = McVerdict::StateLimit;
  std::size_t states = 0;       ///< distinct product states found
  std::size_t transitions = 0;  ///< transitions explored
  std::size_t depth = 0;        ///< BFS levels completed
  std::size_t peak_frontier = 0;
  std::size_t peak_live_nodes = 0;  ///< max observer active-graph size seen
  std::size_t state_bytes = 0;      ///< size of one serialized product state
  /// Resident-set estimate of the visited-state store: the fingerprint
  /// table's slot bytes in fingerprint mode, a string + node + bucket
  /// estimate of the key maps in exact mode.
  std::size_t store_bytes = 0;
  double store_load_factor = 0.0;  ///< occupancy of the visited-state store
  /// Peak bytes held by the serialized BFS frontier (both buffers of the
  /// compact frontier).
  std::size_t frontier_bytes = 0;
  /// Wall time of the whole exploration up to the verdict, including a POR
  /// redo or the one-worker re-run of a level where a failure and the state
  /// budget both tripped; excludes model_check's set-up self-checks and the
  /// counterexample replay.
  double seconds = 0.0;
  std::string reason;  ///< reject reason / error message
  std::vector<CounterexampleStep> counterexample;
  /// For Violation verdicts: one cycle of the counterexample run's
  /// constraint graph, as "op -> op -> ... -> op" node descriptions
  /// (1-based trace positions).  The cycle is the Lemma 3.1 witness that
  /// the trace has no serial reordering.
  std::vector<std::string> cycle;
  /// Per-level exploration timing/counts (index = BFS depth of the
  /// expanded frontier).
  std::vector<McLevelStat> level_stats;
  /// The counterexample as a replayable run trace, when
  /// McOptions::record_counterexample was set and the verdict is a failure.
  std::optional<RunTrace> counterexample_trace;
  /// Aggregated symbol-kind counts when McOptions::symbol_stats was set.
  SymbolStats symbol_stats;
  /// Whether orbit canonicalization actually engaged for this run (options
  /// asked for it, the protocol declared symmetry with procs >= 2, and the
  /// self-check did not veto it).
  bool symmetry_active = false;
  /// Mean orbit size over stored states: concrete states covered per state
  /// explored.  1.0 without symmetry reduction; up to p! with it.
  double orbit_reduction = 1.0;
  /// Set when the symmetry self-check vetoed a declared symmetry and the
  /// run fell back to identity canonicalization.
  std::string symmetry_note;
  /// Per-phase exploration timing (see McPhaseTimes).
  McPhaseTimes phase_times;
  /// Whether ample-set partial-order reduction actually engaged (options
  /// asked for it, the protocol opted in, and the self-check did not veto).
  bool por_active = false;
  /// Set when the POR self-check vetoed the declared independence relation
  /// (pre-run walk or in-engine cross-validation) and the run fell back to
  /// full expansion.
  std::string por_note;
  /// Where the engaged POR relation came from: "declared" (the protocol's
  /// own hooks) or "inferred" (McOptions::inferred_footprints).  Empty when
  /// POR is inactive.
  std::string por_provenance;
  /// POR accounting: states expanded through a proper ample set vs in full,
  /// full expansions forced by the cycle proviso, and enabled transitions
  /// pruned outright.  All zero when POR is inactive.
  std::uint64_t por_ample_states = 0;
  std::uint64_t por_full_states = 0;
  std::uint64_t por_proviso_fallbacks = 0;
  std::uint64_t por_deferred_transitions = 0;
  /// Per-worker duplicate-cache effectiveness: successor dedup probes that
  /// were answered by the worker-local cache without touching the shared
  /// visited store, over all probes.  The cache serves both store modes —
  /// fingerprint identity in fingerprint mode, byte-validated shard/slot
  /// references in exact mode.
  std::uint64_t dup_cache_hits = 0;
  std::uint64_t dup_cache_lookups = 0;
  /// Whether exploration ran under a bounded-preemption model.  A Verified
  /// verdict then certifies only the runs within the context-switch budget
  /// (an underapproximation of the full behaviour, Qadeer–Rehof style);
  /// violations found remain genuine violations.
  bool preemption_bounded = false;
  /// Transitions pruned because the preemption budget was exhausted (the
  /// states the bound saved the exploration from visiting start here).
  std::uint64_t preemption_pruned = 0;

  /// Visited-store resident bytes per distinct state — the headline memory
  /// metric tracked by bench_parallel_mc (BENCH_mc.json).
  [[nodiscard]] double bytes_per_state() const {
    return states == 0 ? 0.0
                       : static_cast<double>(store_bytes) /
                             static_cast<double>(states);
  }

  [[nodiscard]] std::string summary() const;
};

/// Verifies that `protocol` is sequentially consistent (or obeys the
/// memory model in McOptions::observer) by constructing its witness
/// observer (Theorem 4.1) and model checking the observer–checker product
/// (Theorem 3.1).  Outside protocol_only mode the protocol's tracking
/// metadata is statically linted first (DESIGN.md §10) and errors
/// short-circuit to LintRejected.
///
///   Verified             — every reachable run describes an acyclic
///                          constraint graph: the protocol is SC (obeys
///                          the model).
///   Violation            — counterexample run attached (shortest, by BFS).
///   BandwidthExceeded /
///   TrackingInconsistent — the protocol, as annotated, is outside the
///                          decidable class (or the bound is too small).
///   StateLimit           — the state or depth limit cut exploration short.
///   LintRejected         — malformed tracking metadata, caught statically
///                          before exploration (see lint_protocol()).
[[nodiscard]] McResult model_check(const Protocol& protocol,
                                   const McOptions& options = {});

}  // namespace scv
