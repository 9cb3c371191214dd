// The run-trace artifact: a recorded observer run as a first-class file.
//
// A run trace captures one linear protocol run as the observer annotated it
// — per step, the protocol action taken and the descriptor symbols emitted —
// together with everything the protocol-independent checker of Theorem 3.1
// needs to re-verify the stream offline (the ScCheckerConfig) and the
// verdict the run was recorded under.  That makes the descriptor stream,
// which previously existed only transiently inside a model-checking step, a
// durable artifact:
//
//   * violation counterexamples export as replayable evidence files;
//   * golden traces recorded once are re-checked after every checker change
//     (differential regression without re-exploring any state space);
//   * sequential and parallel engines can be compared recording-for-
//     recording (byte-identical for the same protocol/config).
//
// Binary format (version 2, little-endian via byte_io, length-prefixed):
//
//   "SCVR" magic | u16 version | header | u-var step count | steps...
//   header = str protocol | uvar k | u8 procs | u8 blocks | u8 values |
//            u8 legacy coherence | str model | u8 verdict | str reason
//   step   = str action | uvar symbol count | symbols...
//   symbol = u8 tag (0 node / 1 edge / 2 add-ID) | payload
//   str    = uvar length | bytes
//
// The model tag (version 2) records the memory model the run was checked
// under, in parse_memory_model syntax ("sc", "tso", "coherence", optional
// "+bpN" suffix).  Version 1 files — identical except for the missing model
// tag — still parse: their model defaults to SC, so every pre-model-axis
// trace re-checks exactly as it always did.  The legacy coherence byte is
// how older writers asked for per-location SC; the writer always emits 0,
// and the parser folds a set byte into MemoryModel::coherence() (an error
// next to a tso or +bpN tag), so nothing past the header ever sees it.
//
// Versions 3 and 4 add an *optional* excerpt base: when the recorded steps
// are a suffix of a longer run (the streaming service's quarantine excerpts
// keep only a bounded window), the header carries the checker snapshot
// taken at the window start plus the count of dropped earlier steps, so the
// excerpt replays to the same verdict a full recording would.  Extra header
// fields (after reason): uvar dropped_steps | uvar base length | raw
// checker-snapshot bytes.  Traces with no base (dropped_steps == 0, empty
// base_state) are still written as version 2, byte-identical to before.
//
// The two versions differ only in the base's layout.  Version 4 (written
// today) holds ScChecker::serialize's live-slot layout:
//
//   base   = u8 reject flag | chain records (3 bytes each) |
//            [store-chain records, 3 bytes per proc, tso only] |
//            block records (2 + procs bytes each) | uvar used-slot mask |
//            node record per set mask bit, ascending
//   node   = u8 kind | u8 proc | u8 block | u8 value | uvar id_set |
//            uvar out | u8 flags | u8 sto_succ | u8 inh_src |
//            u8 forced_target | u8 pending_for | u8 pending_ld × procs |
//            uvar forced_out
//
// Version 3 wrote an in-use byte for each of 64 slots in place of the mask,
// a node record after each set byte, and the three masks as fixed u64.
// parse_trace_header rewrites a version-3 base into the version-4 layout,
// as it folds the legacy coherence byte into the model, so nothing past the
// parser sees the old layout.
//
// Parsing is total: a malformed or truncated buffer yields an error string,
// never an abort — traces cross trust boundaries (files on disk, CI
// artifacts), unlike the in-memory snapshots the model checker round-trips.
// Parse then serialize reproduces the input bytes, with one exception: a
// version-3 trace reserializes as version 4, with the rewritten base.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "checker/sc_checker.hpp"
#include "descriptor/symbol.hpp"
#include "util/byte_io.hpp"

namespace scv {

/// The verdict a run was recorded under.  Accepted covers both completed
/// clean runs and prefixes of them; the three failure kinds mirror the
/// model checker's (minus the exploration-only StateLimit/LintRejected).
enum class RunVerdict : std::uint8_t {
  Accepted,
  Violation,
  BandwidthExceeded,
  TrackingInconsistent,
};

[[nodiscard]] std::string to_string(RunVerdict v);

/// One recorded step: a protocol transition and the descriptor symbols the
/// observer emitted for it.
struct RunStep {
  std::string action;           ///< human-readable protocol action
  std::vector<Symbol> symbols;  ///< emitted descriptor symbols, in order

  friend bool operator==(const RunStep&, const RunStep&) = default;
};

struct RunTrace {
  static constexpr std::uint16_t kVersion = 2;
  /// Oldest version parse_run_trace still accepts (see the format comment:
  /// version 1 lacks the model tag and re-checks as SC).
  static constexpr std::uint16_t kMinVersion = 1;
  /// Newest version: 4 carries the optional excerpt base in the live-slot
  /// layout (3 carried it in the all-slot layout and still parses).  Full
  /// recordings still serialize as kVersion (2); only traces with a base
  /// use 4.
  static constexpr std::uint16_t kMaxVersion = 4;

  // --- Header: provenance and the offline checker's configuration.
  std::string protocol;      ///< protocol name the run was recorded from
  ScCheckerConfig checker{}; ///< k, p, b, v, model — feed ScChecker
  RunVerdict verdict = RunVerdict::Accepted;  ///< verdict at capture time
  std::string reason;        ///< failure reason at capture ("" if accepted)

  // --- Excerpt base (versions 3 and 4; empty for full recordings).  When
  // non-empty, `base_state` is an ScChecker snapshot to restore *before*
  // feeding `steps`, and `dropped_steps` counts the earlier steps the
  // excerpt omitted.  Untrusted on read: replayers must go through
  // ScChecker::try_restore, never the aborting restore().
  std::vector<std::uint8_t> base_state;
  std::uint64_t dropped_steps = 0;

  // --- Body.
  std::vector<RunStep> steps;

  [[nodiscard]] bool has_base() const noexcept {
    return !base_state.empty() || dropped_steps != 0;
  }

  [[nodiscard]] std::size_t symbol_count() const noexcept;

  friend bool operator==(const RunTrace&, const RunTrace&) = default;
};

/// Serializes `trace` in the versioned binary format.
void serialize_run_trace(const RunTrace& trace, ByteWriter& w);

/// Parses a buffer produced by serialize_run_trace.  Returns false (and a
/// diagnostic in `error`) on any structural problem: bad magic, unknown
/// version, truncation, out-of-range tags or counts.
[[nodiscard]] bool parse_run_trace(std::span<const std::uint8_t> bytes,
                                   RunTrace& trace, std::string& error);

/// File convenience wrappers around serialize/parse.
[[nodiscard]] bool write_run_trace(const std::string& path,
                                   const RunTrace& trace, std::string& error);
[[nodiscard]] bool read_run_trace(const std::string& path, RunTrace& trace,
                                  std::string& error);

// --- Wire-codec pieces, shared with the streaming reader (trace_stream)
// and the service's incremental excerpt writer.  parse_run_trace is the
// composition header → steps × nsteps → done(); the pieces keep the same
// total-parsing contract (false + diagnostic, never an abort).

void write_symbol(ByteWriter& w, const Symbol& sym);
[[nodiscard]] bool read_symbol(TryReader& r, Symbol& sym);

void write_trace_header(const RunTrace& trace, std::size_t nsteps,
                        ByteWriter& w);
void write_trace_step(const RunStep& step, ByteWriter& w);

/// Parses magic, version, header fields (including the excerpt base, a
/// version-3 base rewritten into the live-slot layout) and the step count;
/// on success the cursor rests at the first step record.
[[nodiscard]] bool parse_trace_header(TryReader& r, RunTrace& header,
                                      std::uint64_t& nsteps,
                                      std::string& error);
[[nodiscard]] bool parse_trace_step(TryReader& r, RunStep& step,
                                    std::string& error);

}  // namespace scv
