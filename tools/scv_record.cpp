// scv_record — run-trace recorder CLI.
//
// Records descriptor-stream run traces from registered protocols, for
// offline re-verification with scv_check:
//
//   scv_record msi_bus -o msi.trace              # seeded deterministic walk
//   scv_record msi_bus --steps 500 --seed 7 -o msi.trace
//   scv_record write_buffer --violation -o wb.trace
//                        # model-check and export the shortest
//                        # counterexample's stream (verdict Violation)
//   scv_record write_buffer --model tso -o wb.trace
//                        # record under a memory model (the trace header
//                        # carries the tag; scv_check re-checks under it)
//   scv_record --list                            # registered protocol ids
//
// Walk recording is engine-independent and deterministic in (protocol,
// steps, seed): the same command always writes a byte-identical file —
// the property CI's golden-trace job relies on.  Violation recording runs
// the model checker with record_counterexample set; BFS plus deterministic
// failure selection make that trace stable too.
//
// --steps, --seed, --threads and --max-states take decimal digits only (no
// sign, no trailing characters, no overflow); --threads is at most 256, as
// scv_serve caps its worker threads.
//
// Exit status: 0 on success, 1 when --violation finds no violation (or a
// walk unexpectedly fails), 2 on usage/IO errors.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "checker/memory_model.hpp"
#include "mc/model_checker.hpp"
#include "mc/record.hpp"
#include "parse_count.hpp"
#include "protocol/registry.hpp"
#include "runlog/run_trace.hpp"

namespace {

using scv::cli::parse_count;

// Each model-checking worker is a thread, so an out-of-range count is a
// usage error rather than a resource failure.
constexpr std::size_t kMaxThreads = 256;

int usage() {
  std::fprintf(stderr,
               "usage: scv_record [--list] | PROTOCOL -o FILE "
               "[--walk|--violation] [--model sc|tso|coherence] [--steps N] "
               "[--seed N] [--threads N] [--max-states N]\n"
               "limits: N is decimal digits; --threads from 1 to %zu\n",
               kMaxThreads);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string id;
  std::string out;
  bool violation = false;
  std::size_t steps = 200;
  std::uint64_t seed = 1;
  std::size_t threads = 1;
  std::size_t max_states = 10'000'000;
  scv::MemoryModel model;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--list") {
      for (const scv::RegisteredProtocol& e : scv::protocol_registry()) {
        // Violating-model tag: the axis models whose checker rejects this
        // entry ("[violates: sc coherence]"), empty for clean protocols.
        std::string violates;
        for (const scv::NamedModel& nm : scv::memory_model_axis()) {
          if (!e.violating_under(nm.model)) continue;
          violates += violates.empty() ? " [violates:" : "";
          violates += ' ';
          violates += nm.name;
        }
        if (!violates.empty()) violates += ']';
        std::printf("%-24s %s%s\n", e.id.c_str(), e.description.c_str(),
                    violates.c_str());
      }
      return 0;
    } else if (arg == "--walk") {
      violation = false;
    } else if (arg == "--violation") {
      violation = true;
    } else if (arg == "-o") {
      const char* v = next();
      if (v == nullptr) return usage();
      out = v;
    } else if (arg == "--steps") {
      if (!parse_count(next(), steps)) return usage();
    } else if (arg == "--seed") {
      if (!parse_count(next(), seed)) return usage();
    } else if (arg == "--threads") {
      if (!parse_count(next(), threads) || threads > kMaxThreads) {
        return usage();
      }
    } else if (arg == "--max-states") {
      if (!parse_count(next(), max_states)) return usage();
    } else if (arg == "--model") {
      const char* v = next();
      if (v == nullptr || !scv::parse_memory_model(v, model)) {
        std::fprintf(stderr, "scv_record: bad --model value\n");
        return usage();
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (id.empty()) {
      id = arg;
    } else {
      return usage();
    }
  }
  if (id.empty() || out.empty() || steps == 0 || threads == 0) {
    return usage();
  }

  const std::unique_ptr<scv::Protocol> proto =
      scv::make_registered_protocol(id);
  if (proto == nullptr) {
    std::fprintf(stderr, "scv_record: unknown protocol id '%s'\n",
                 id.c_str());
    return 2;
  }

  scv::RunTrace trace;
  if (violation) {
    scv::McOptions opt;
    opt.threads = threads;
    opt.max_states = max_states;
    opt.record_counterexample = true;
    opt.observer.model = model;
    const scv::McResult r = scv::model_check(*proto, opt);
    if (!r.counterexample_trace.has_value()) {
      std::fprintf(stderr,
                   "scv_record: no violation found on '%s' (%s)\n",
                   id.c_str(), r.summary().c_str());
      return 1;
    }
    trace = *r.counterexample_trace;
  } else {
    scv::RecordWalkOptions opt;
    opt.steps = steps;
    opt.seed = seed;
    opt.observer.model = model;
    trace = scv::record_walk(*proto, opt);
  }

  std::string error;
  if (!scv::write_run_trace(out, trace, error)) {
    std::fprintf(stderr, "scv_record: %s\n", error.c_str());
    return 2;
  }
  std::printf("%s: %s, %zu steps, %zu symbols -> %s\n", id.c_str(),
              scv::to_string(trace.verdict).c_str(), trace.steps.size(),
              trace.symbol_count(), out.c_str());
  return 0;
}
