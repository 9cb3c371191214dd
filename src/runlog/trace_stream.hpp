// Chunked (constant-memory) reader for run-trace files.
//
// read_run_trace slurps the whole file before parsing — fine for golden
// traces, wrong for the multi-GB recordings a long service run produces and
// for scv_check's offline re-verification of them.  TraceStreamReader keeps
// a sliding window of at most a few chunks: the header is parsed up front,
// then steps are handed out one at a time through the same shared wire
// codec (parse_trace_header / parse_trace_step), so memory is bounded by
// the largest single step, not the file.
//
// Error handling matches parse_run_trace's total-parsing contract: a
// truncated, torn or malformed file surfaces as ok() == false with a
// diagnostic naming the failing record — never an abort, never a silent
// short read that could pass as a clean shorter trace.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "runlog/run_trace.hpp"

namespace scv {

class TraceStreamReader {
 public:
  /// Refill granularity; also the compaction threshold for consumed bytes.
  static constexpr std::size_t kChunkBytes = 1 << 16;

  /// Opens `path` and parses the header (including the v3 excerpt base).
  /// Check ok() before using header().
  explicit TraceStreamReader(const std::string& path);
  TraceStreamReader(const TraceStreamReader&) = delete;
  TraceStreamReader& operator=(const TraceStreamReader&) = delete;
  ~TraceStreamReader();

  [[nodiscard]] bool ok() const noexcept { return error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  /// Header fields of the trace (steps stays empty — they stream through
  /// next()).  Mutable so a caller can override the checker config (e.g.
  /// scv_check --model) before replaying; the wire bytes are unaffected.
  [[nodiscard]] RunTrace& header() noexcept { return header_; }
  [[nodiscard]] const RunTrace& header() const noexcept { return header_; }

  [[nodiscard]] std::uint64_t declared_steps() const noexcept {
    return declared_steps_;
  }

  /// Reads the next step.  Returns false at the end of the trace or on
  /// error — distinguish via ok().  After the declared last step, verifies
  /// the file ends cleanly (trailing bytes are an error, matching
  /// parse_run_trace); the constructor does the same for a header that
  /// declares zero steps.
  [[nodiscard]] bool next(RunStep& step);

  /// True once every declared step was read and the file ended cleanly.
  [[nodiscard]] bool done() const noexcept {
    return ok() && steps_read_ == declared_steps_;
  }

 private:
  void fail(const std::string& what);
  /// Appends one chunk; flips eof_ at end of file.  False on read error.
  bool refill();
  /// After the declared last step (or a zero-step header): fails unless
  /// the file ends there.
  bool check_clean_end();
  /// Drops consumed bytes once they exceed a chunk, keeping the window
  /// bounded by the unconsumed suffix plus one chunk.
  void compact();

  std::FILE* file_ = nullptr;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  ///< consumed prefix of buf_
  bool eof_ = false;

  RunTrace header_;
  std::uint64_t declared_steps_ = 0;
  std::uint64_t steps_read_ = 0;
  std::string error_;
};

}  // namespace scv
