// scv_serve — streaming verification service CLI.
//
// Front end for the StreamService (src/stream/): many descriptor streams
// verified concurrently, each by its own O(1)-per-symbol checker, with
// violating streams quarantined (verdict + replayable SCVR excerpt) while
// the rest keep going.
//
// Two load sources:
//
//   scv_serve TRACE...                    # each SCVR file becomes a stream
//   scv_serve --generate N [--protocol P] # N streams of recorded walk load
//
// Ingest mode re-feeds recorded run traces through the online path — the
// service verdict for each file matches what scv_check says offline (the
// differential test in tests/test_stream.cpp holds the two byte-identical).
// Generate mode records one seeded observer walk over a registry protocol
// and replays it as N concurrent streams: a quick self-contained way to
// load the service without trace files on hand.
//
//   --workers N            verifier threads (default 1; 0 = poll mode;
//                          at most 256)
//   --producers N          ingest rings, files/streams round-robin (default 1;
//                          at most 256)
//   --ring-capacity N      events per ring, power of two (default 16384;
//                          at most 2^24)
//   --window N             excerpt window in steps (default 32; 0 = off)
//   --model sc|tso|coherence   model for --generate walks (default sc)
//   --steps N              steps per generated stream (default 200)
//   --seed N               walk seed for --generate (default 1)
//   --export-quarantine DIR    write DIR/stream-<id>.scvr per quarantine
//   --stats                print service-wide counters at the end
//   --quiet                only report quarantined streams
//
// Every N takes decimal digits only (no sign, no leading space, no
// trailing characters, no overflow).
//
// Exit status: 0 when every stream closed clean, 1 when any stream was
// quarantined, 2 on unreadable files or usage errors.
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checker/memory_model.hpp"
#include "mc/record.hpp"
#include "parse_count.hpp"
#include "protocol/registry.hpp"
#include "runlog/run_trace.hpp"
#include "runlog/trace_stream.hpp"
#include "stream/ingest.hpp"
#include "stream/service.hpp"

namespace {

using scv::cli::parse_count;

// Each producer is a ring allocated up front (and, with workers, a feeder
// thread) and each worker is a thread, so out-of-range sizes are usage
// errors rather than allocation failures.
constexpr std::size_t kMaxRingCapacity = std::size_t{1} << 24;  // events
constexpr std::size_t kMaxThreads = 256;  // each of --workers, --producers

int usage() {
  std::fprintf(
      stderr,
      "usage: scv_serve [--workers N] [--producers N] [--ring-capacity N]\n"
      "                 [--window N] [--export-quarantine DIR] [--stats]\n"
      "                 [--quiet] trace-file...\n"
      "       scv_serve --generate N [--protocol ID] [--model M] [--steps N]\n"
      "                 [--seed N] [common options]\n"
      "limits: N is decimal digits; --workers and --producers at most %zu\n"
      "        each; --ring-capacity a power of two from 2 to %zu (2^24)\n"
      "        events\n",
      kMaxThreads, kMaxRingCapacity);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  scv::StreamServiceOptions opt;
  opt.workers = 1;
  std::size_t generate = 0;
  std::string protocol_id = "serial_memory";
  scv::MemoryModel model;
  std::size_t stream_steps = 200;
  std::size_t seed = 1;
  std::string export_dir;
  bool stats = false;
  bool quiet = false;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--workers") {
      if (!parse_count(next, opt.workers) || opt.workers > kMaxThreads) {
        return usage();
      }
      ++i;
    } else if (arg == "--producers") {
      if (!parse_count(next, opt.producers) || opt.producers == 0 ||
          opt.producers > kMaxThreads) {
        return usage();
      }
      ++i;
    } else if (arg == "--ring-capacity") {
      if (!parse_count(next, opt.ring_capacity) ||
          opt.ring_capacity > kMaxRingCapacity) {
        return usage();
      }
      ++i;
    } else if (arg == "--window") {
      if (!parse_count(next, opt.excerpt_window)) return usage();
      ++i;
    } else if (arg == "--generate") {
      if (!parse_count(next, generate) || generate == 0) return usage();
      ++i;
    } else if (arg == "--protocol") {
      if (next == nullptr) return usage();
      protocol_id = next;
      ++i;
    } else if (arg == "--model") {
      if (next == nullptr || !scv::parse_memory_model(next, model)) {
        std::fprintf(stderr, "scv_serve: bad --model value\n");
        return usage();
      }
      ++i;
    } else if (arg == "--steps") {
      if (!parse_count(next, stream_steps)) return usage();
      ++i;
    } else if (arg == "--seed") {
      if (!parse_count(next, seed)) return usage();
      ++i;
    } else if (arg == "--export-quarantine") {
      if (next == nullptr) return usage();
      export_dir = next;
      ++i;
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
  if ((generate == 0) == paths.empty()) return usage();  // exactly one source
  if (opt.ring_capacity < 2 ||
      (opt.ring_capacity & (opt.ring_capacity - 1)) != 0) {
    std::fprintf(stderr, "scv_serve: --ring-capacity must be a power of two\n");
    return 2;
  }

  // Generate mode: one recorded walk is the template every stream replays.
  scv::RunTrace walk;
  if (generate != 0) {
    const std::unique_ptr<scv::Protocol> proto =
        scv::make_registered_protocol(protocol_id);
    if (proto == nullptr) {
      std::fprintf(stderr, "scv_serve: unknown protocol '%s'\n",
                   protocol_id.c_str());
      return 2;
    }
    scv::RecordWalkOptions walk_opt;
    walk_opt.steps = stream_steps;
    walk_opt.seed = seed;
    walk_opt.observer.model = model;
    walk = scv::record_walk(*proto, walk_opt);
  }

  scv::StreamService service(opt);
  service.start();

  const std::size_t nstreams = generate != 0 ? generate : paths.size();
  std::vector<std::string> ingest_errors(nstreams);

  // One feeder thread per producer ring (the SPSC contract); streams are
  // assigned round-robin.  Poll mode runs the same loop inline — pushes
  // into a full ring drain it on the spot.
  const auto feed = [&](std::size_t p) {
    scv::StreamService::Producer producer = service.producer(p);
    for (std::size_t s = p; s < nstreams; s += service.producer_count()) {
      const auto id = static_cast<std::uint32_t>(s);
      if (generate != 0) {
        producer.open(id, walk.checker);
        for (const scv::RunStep& step : walk.steps) {
          for (const scv::Symbol& sym : step.symbols) {
            producer.symbol(id, sym);
          }
          producer.step_end(id);
        }
        producer.close(id);
      } else {
        scv::TraceStreamReader reader(paths[s]);
        if (!scv::ingest_trace(reader, producer, id, ingest_errors[s])) {
          continue;  // reported after the drain
        }
      }
    }
  };
  if (opt.workers == 0 || opt.producers == 1) {
    for (std::size_t p = 0; p < opt.producers; ++p) feed(p);
  } else {
    std::vector<std::thread> feeders;
    feeders.reserve(opt.producers);
    for (std::size_t p = 0; p < opt.producers; ++p) {
      feeders.emplace_back(feed, p);
    }
    for (std::thread& t : feeders) t.join();
  }
  service.stop();

  int file_errors = 0;
  std::size_t quarantined = 0;
  for (std::size_t s = 0; s < nstreams; ++s) {
    const std::string label =
        generate != 0 ? "generated" : paths[s].c_str();
    if (!ingest_errors[s].empty()) {
      std::fprintf(stderr, "scv_serve: %s: %s\n", label.c_str(),
                   ingest_errors[s].c_str());
      ++file_errors;
    }
    const auto rep = service.report(static_cast<std::uint32_t>(s));
    if (!rep.has_value()) {
      if (ingest_errors[s].empty()) {
        std::fprintf(stderr, "scv_serve: %s: stream %zu never finished\n",
                     label.c_str(), s);
        ++file_errors;
      }
      continue;
    }
    const bool bad = rep->state == scv::StreamState::Quarantined;
    quarantined += bad ? 1 : 0;
    if (!quiet || bad) {
      std::printf("stream %zu (%s): %s — %llu steps, %llu symbols%s%s%s\n", s,
                  label.c_str(), bad ? "QUARANTINED" : "closed clean",
                  static_cast<unsigned long long>(rep->steps),
                  static_cast<unsigned long long>(rep->symbols),
                  bad ? " (" : "", bad ? rep->reason.c_str() : "",
                  bad ? ")" : "");
    }
    if (bad && !export_dir.empty() && rep->excerpt.has_value()) {
      const std::string out_path =
          export_dir + "/stream-" + std::to_string(s) + ".scvr";
      std::string error;
      if (!scv::write_run_trace(out_path, *rep->excerpt, error)) {
        std::fprintf(stderr, "scv_serve: %s: %s\n", out_path.c_str(),
                     error.c_str());
        ++file_errors;
      } else if (!quiet) {
        std::printf("  excerpt: %s (%zu steps; replay with scv_check)\n",
                    out_path.c_str(), rep->excerpt->steps.size());
      }
    }
  }
  if (stats) {
    const scv::StreamServiceStats st = service.stats();
    std::printf(
        "events %llu, symbols %llu, steps %llu; streams %llu opened / "
        "%llu closed / %llu quarantined; %llu backpressure stalls, "
        "%llu discarded events\n",
        static_cast<unsigned long long>(st.events),
        static_cast<unsigned long long>(st.symbols),
        static_cast<unsigned long long>(st.steps),
        static_cast<unsigned long long>(st.streams_opened),
        static_cast<unsigned long long>(st.streams_closed),
        static_cast<unsigned long long>(st.streams_quarantined),
        static_cast<unsigned long long>(st.backpressure_stalls),
        static_cast<unsigned long long>(st.discarded_events));
  }
  if (file_errors != 0) return 2;
  return quarantined == 0 ? 0 : 1;
}
