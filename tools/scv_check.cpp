// scv_check — offline run-trace checker CLI.
//
// Re-runs the protocol-independent checker of Theorem 3.1 over recorded
// descriptor streams (run-trace files written by scv_record or by the model
// checker's record_counterexample option).  No protocol code is loaded: the
// trace header carries everything the checker needs, so this is the
// differential-testing half of the run-trace format — golden traces
// recorded once are re-verified here after every checker change, and an
// exported counterexample re-rejects as independent evidence.
//
//   scv_check TRACE...             # verdict must match the recorded one
//   scv_check --expect=accept T    # override: the stream must be clean
//   scv_check --expect=reject T    # override: the checker must reject
//   scv_check --model tso TRACE    # re-check under another memory model
//   scv_check --stats TRACE        # also print per-symbol-kind statistics
//   scv_check --quiet TRACE...     # one line per trace only on mismatch
//
// --model overrides the model tag the trace was recorded under (the header
// keeps it; version-1 traces default to sc), so one recorded stream answers
// "is this run SC?" and "is it TSO?" without re-recording — an SC violation
// whose cycle only uses store→load program order re-checks clean under tso.
//
// Traces are read in fixed-size chunks and checked step by step, so memory
// use is constant in the trace length — arbitrarily long recorded streams
// check in a few hundred KB.
//
// Exit status: 0 when every trace checks out against the expectation, 1 on
// any verdict mismatch, 2 on unreadable/malformed files or usage errors.
#include <cstdio>
#include <string>
#include <vector>

#include "checker/memory_model.hpp"
#include "runlog/replay.hpp"
#include "runlog/run_trace.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: scv_check [--expect=accept|reject|recorded] "
               "[--model sc|tso|coherence] [--stats] [--quiet] "
               "trace-file...\n");
  return 2;
}

enum class Expect { Recorded, Accept, Reject };

}  // namespace

int main(int argc, char** argv) {
  Expect expect = Expect::Recorded;
  bool stats = false;
  bool quiet = false;
  bool model_override = false;
  scv::MemoryModel model;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--model") {
      const char* v = i + 1 < argc ? argv[++i] : nullptr;
      if (v == nullptr || !scv::parse_memory_model(v, model)) {
        std::fprintf(stderr, "scv_check: bad --model value\n");
        return usage();
      }
      model_override = true;
    } else if (arg == "--expect=accept") {
      expect = Expect::Accept;
    } else if (arg == "--expect=reject") {
      expect = Expect::Reject;
    } else if (arg == "--expect=recorded") {
      expect = Expect::Recorded;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) return usage();

  int mismatches = 0;
  for (const std::string& path : paths) {
    // Traces stream through in fixed-size chunks (TraceStreamReader), so
    // memory use is constant in the trace length: the header is parsed up
    // front, then steps are decoded and fed to the checker one at a time.
    scv::TraceStreamReader reader(path);
    if (!reader.ok()) {
      std::fprintf(stderr, "scv_check: %s: %s\n", path.c_str(),
                   reader.error().c_str());
      return 2;
    }
    scv::RunTrace& trace = reader.header();
    if (model_override) trace.checker.model = model;
    const scv::TraceCheckResult r = scv::check_trace_stream(reader);
    if (!r.ok) {
      std::fprintf(stderr, "scv_check: %s: %s\n", path.c_str(),
                   r.error.c_str());
      return 2;
    }
    const bool expect_reject =
        expect == Expect::Reject ||
        (expect == Expect::Recorded &&
         scv::TraceCheckResult::verdict_expects_reject(trace.verdict));
    const bool match = r.accepted != expect_reject;
    mismatches += match ? 0 : 1;
    if (!quiet || !match) {
      std::printf("%s: %s — protocol %s, recorded %s, checker %s%s%s%s\n",
                  path.c_str(), match ? "OK" : "MISMATCH",
                  trace.protocol.c_str(),
                  scv::to_string(trace.verdict).c_str(),
                  r.accepted ? "accepted" : "rejected",
                  r.accepted ? "" : " (",
                  r.accepted ? "" : r.reject_reason.c_str(),
                  r.accepted ? "" : ")");
    }
    if (stats) {
      std::printf("  %llu steps, %llu symbols: %s\n",
                  static_cast<unsigned long long>(r.steps_fed),
                  static_cast<unsigned long long>(r.symbols_fed),
                  r.stats.summary().c_str());
    }
  }
  return mismatches == 0 ? 0 : 1;
}
