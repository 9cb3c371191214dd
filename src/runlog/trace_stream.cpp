#include "runlog/trace_stream.hpp"

namespace scv {

TraceStreamReader::TraceStreamReader(const std::string& path) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    fail("cannot open '" + path + "'");
    return;
  }
  // Parse-and-retry: attempt the header over the buffered window; a failure
  // with file bytes still unread just means the window is short, so refill
  // and try again.  Only a failure at EOF is a real diagnostic.
  for (;;) {
    TryReader r({buf_.data() + pos_, buf_.size() - pos_});
    std::string err;
    std::uint64_t nsteps = 0;
    if (parse_trace_header(r, header_, nsteps, err)) {
      pos_ += r.pos();
      declared_steps_ = nsteps;
      // Same impossible-count rejection parse_run_trace applies, against
      // the unread file size instead of a fully buffered trace.
      const long at = std::ftell(file_);
      if (std::fseek(file_, 0, SEEK_END) == 0) {
        const long end = std::ftell(file_);
        (void)std::fseek(file_, at, SEEK_SET);
        const auto available =
            static_cast<std::uint64_t>(end > at ? end - at : 0) +
            (buf_.size() - pos_);
        if (nsteps > available) fail("step count exceeds buffer");
      }
      // A zero-step trace ends at its header; next() never runs the
      // clean-end check for it, so run it here.
      if (nsteps == 0) check_clean_end();
      return;
    }
    if (eof_) {
      fail(err);
      return;
    }
    if (!refill()) return;
  }
}

TraceStreamReader::~TraceStreamReader() {
  if (file_ != nullptr) std::fclose(file_);
}

void TraceStreamReader::fail(const std::string& what) {
  if (error_.empty()) error_ = what;
}

bool TraceStreamReader::refill() {
  if (eof_) return true;
  const std::size_t at = buf_.size();
  buf_.resize(at + kChunkBytes);
  const std::size_t n = std::fread(buf_.data() + at, 1, kChunkBytes, file_);
  buf_.resize(at + n);
  if (n < kChunkBytes) {
    if (std::ferror(file_) != 0) {
      fail("read error");
      return false;
    }
    eof_ = true;
  }
  return true;
}

bool TraceStreamReader::check_clean_end() {
  // Mirrors parse_run_trace's done() guard: the buffered window and the
  // file must both be exhausted.
  if (pos_ == buf_.size() && !eof_) (void)refill();
  if (pos_ != buf_.size()) {
    fail("trailing bytes after the last step");
    return false;
  }
  return true;
}

void TraceStreamReader::compact() {
  if (pos_ >= kChunkBytes) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
}

bool TraceStreamReader::next(RunStep& step) {
  if (!ok() || steps_read_ == declared_steps_) return false;
  for (;;) {
    TryReader r({buf_.data() + pos_, buf_.size() - pos_});
    std::string err;
    if (parse_trace_step(r, step, err)) {
      pos_ += r.pos();
      compact();
      ++steps_read_;
      if (steps_read_ == declared_steps_ && !check_clean_end()) return false;
      return true;
    }
    // Short window or genuinely bad bytes?  More file decides; at EOF the
    // codec's diagnostic is the answer ("truncated step", "malformed
    // symbol", ...).
    if (eof_) {
      fail(err + " (step " + std::to_string(steps_read_ + 1) + " of " +
           std::to_string(declared_steps_) + ")");
      return false;
    }
    if (!refill()) return false;
  }
}

}  // namespace scv
