// Streaming verification throughput: the checker hot path and the
// multi-stream service (DESIGN.md §17).  Emits BENCH_stream.json for the
// check_bench.py --stream-json gate.
//
// Three sections:
//
//   * hot_path: one ScChecker fed a recorded observer walk through
//     feed_batch, restored to its initial snapshot between replays — the
//     per-symbol cost of the Theorem 3.1 observer with zero service
//     overhead, one row per memory model;
//   * single_stream: the same load pushed through a poll-mode
//     StreamService (pack → ring → unpack → batch apply) on one thread.
//     This is the headline row: single-threaded, so it gates regardless
//     of the host's CPU budget, and the gap to hot_path is the transport
//     tax;
//   * service: the stream-count sweep (1/64/256/1024 streams) under
//     producer + worker threads.  Rows whose thread count exceeds the
//     affinity budget are marked oversubscribed and never gate — same
//     discipline as BENCH_mc.json's scaling rows.
//
// Every row repeats its unit of work until one timed run lasts at least
// kMinRunSeconds, then records the median of kReps runs with the fastest
// and slowest run's rate beside it, so a row's spread is in the file.
//
// A verdict-parity self-check (service report vs offline check_trace on
// the identical load) is recorded in the JSON; the gate fails on any
// mismatch.
#if defined(__linux__)
#include <sched.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checker/memory_model.hpp"
#include "checker/sc_checker.hpp"
#include "mc/record.hpp"
#include "protocol/registry.hpp"
#include "runlog/replay.hpp"
#include "runlog/run_trace.hpp"
#include "stream/service.hpp"
#include "util/byte_io.hpp"

namespace scv {
namespace {

constexpr int kReps = 5;
constexpr double kMinRunSeconds = 0.2;
constexpr std::size_t kWalkSteps = 1500;
constexpr std::size_t kStreamCounts[] = {1, 64, 256, 1024};

std::size_t affinity_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
#endif
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? hc : 1;
}

std::string affinity_mask_string() {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    std::string s;
    int run_start = -1;
    int prev = -2;
    const auto flush = [&](int last) {
      if (run_start < 0) return;
      if (!s.empty()) s += ",";
      s += std::to_string(run_start);
      if (last > run_start) s += "-" + std::to_string(last);
    };
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &set)) continue;
      if (cpu != prev + 1) {
        flush(prev);
        run_start = cpu;
      }
      prev = cpu;
    }
    flush(prev);
    return s;
  }
#endif
  return "unknown";
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Timing of one row: kReps runs, each repeating the row's unit of work
/// until at least kMinRunSeconds have passed.  The median run is the row's
/// result; the slowest and fastest runs' rates give its spread.
struct Timing {
  double symbols = 0;  ///< symbols checked in the median run
  double seconds = 0;  ///< the median run's wall time
  double min_rate = 0;
  double max_rate = 0;
  [[nodiscard]] double rate() const { return symbols / seconds; }
};

/// One discarded warmup, then kReps timed runs of `fn`, which checks
/// `unit_symbols` symbols per call.
template <typename Fn>
Timing time_row(double unit_symbols, Fn&& fn) {
  fn();  // warmup: page in, warm arenas
  Timing runs[kReps];
  for (Timing& run : runs) {
    const double t0 = now_seconds();
    do {
      fn();
      run.symbols += unit_symbols;
      run.seconds = now_seconds() - t0;
    } while (run.seconds < kMinRunSeconds);
  }
  std::sort(std::begin(runs), std::end(runs),
            [](const Timing& x, const Timing& y) {
              return x.rate() < y.rate();
            });
  Timing t = runs[kReps / 2];
  t.min_rate = runs[0].rate();
  t.max_rate = runs[kReps - 1].rate();
  return t;
}

/// "4097920 symbols | 0.297s | 13.8M symbols/s (13.0M-14.3M)": the median
/// run, then the slowest and fastest runs' rates.
std::string format_timing(const Timing& t) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "%9.0f symbols | %6.3fs | %5.1fM symbols/s (%.1fM-%.1fM)",
                t.symbols, t.seconds, t.rate() / 1e6, t.min_rate / 1e6,
                t.max_rate / 1e6);
  return buf;
}

/// The timing fields of one JSON row.
void write_timing(std::ostream& out, const Timing& t) {
  out << "\"symbols\": " << static_cast<std::uint64_t>(t.symbols)
      << ", \"seconds\": " << t.seconds
      << ", \"symbols_per_sec\": " << t.rate()
      << ", \"min_symbols_per_sec\": " << t.min_rate
      << ", \"max_symbols_per_sec\": " << t.max_rate;
}

std::size_t trace_symbols(const RunTrace& t) {
  std::size_t n = 0;
  for (const RunStep& s : t.steps) n += s.symbols.size();
  return n;
}

// --- hot path: raw feed_batch over a restored checker ---------------------

struct HotRow {
  std::string model;
  Timing timing;
};

HotRow bench_hot_path(const RunTrace& walk, const std::string& model_name,
                      std::size_t replays) {
  ScChecker checker(walk.checker);
  ByteWriter init;
  checker.snapshot(init);
  HotRow row;
  row.model = model_name;
  const auto unit = static_cast<double>(trace_symbols(walk) * replays);
  row.timing = time_row(unit, [&] {
    for (std::size_t i = 0; i < replays; ++i) {
      ByteReader r(init.data());
      checker.restore(r);
      for (const RunStep& step : walk.steps) {
        (void)checker.feed_batch(step.symbols);
      }
    }
  });
  return row;
}

// --- service sweep ---------------------------------------------------------

struct ServiceRow {
  std::size_t streams = 0;
  std::size_t producers = 0;
  std::size_t workers = 0;
  std::size_t threads_used = 0;  ///< producers + workers (1 in poll mode)
  std::uint64_t stalls = 0;      ///< in the last service run
  Timing timing;
  bool parity = true;  ///< every stream's report matched check_trace
};

void feed_streams(StreamService& svc, const RunTrace& walk,
                  std::size_t producer, std::size_t streams) {
  StreamService::Producer p = svc.producer(producer);
  for (std::size_t s = producer; s < streams;
       s += svc.producer_count()) {
    const auto id = static_cast<std::uint32_t>(s);
    p.open(id, walk.checker);
    for (const RunStep& step : walk.steps) {
      for (const Symbol& sym : step.symbols) p.symbol(id, sym);
      p.step_end(id);
    }
    p.close(id);
  }
}

ServiceRow bench_service(const RunTrace& walk, std::size_t streams,
                         std::size_t producers, std::size_t workers) {
  ServiceRow row;
  row.streams = streams;
  row.producers = producers;
  row.workers = workers;
  row.threads_used = workers == 0 ? 1 : producers + workers;

  const TraceCheckResult offline = check_trace(walk);
  std::uint64_t stalls = 0;
  bool parity = true;
  const auto unit = static_cast<double>(trace_symbols(walk) * streams);
  row.timing = time_row(unit, [&] {
    StreamServiceOptions opt;
    opt.producers = producers;
    opt.workers = workers;
    StreamService svc(opt);
    svc.start();
    if (workers == 0) {
      feed_streams(svc, walk, 0, streams);
    } else {
      std::vector<std::thread> feeders;
      feeders.reserve(producers);
      for (std::size_t p = 0; p < producers; ++p) {
        feeders.emplace_back(feed_streams, std::ref(svc), std::cref(walk), p,
                             streams);
      }
      for (std::thread& t : feeders) t.join();
    }
    svc.stop();
    stalls = svc.stats().backpressure_stalls;
    for (std::size_t s = 0; s < streams; ++s) {
      const auto rep = svc.report(static_cast<std::uint32_t>(s));
      const bool svc_accepted =
          rep.has_value() && rep->state == StreamState::Closed;
      if (svc_accepted != offline.accepted) parity = false;
    }
  });
  row.stalls = stalls;
  row.parity = parity;
  return row;
}

}  // namespace
}  // namespace scv

int main() {
  using namespace scv;

  const std::size_t cpus = affinity_cpus();
  std::printf("bench_stream: %u hardware threads, %zu affinity CPUs [%s], "
              "median of %d reps\n",
              std::thread::hardware_concurrency(), cpus,
              affinity_mask_string().c_str(), kReps);

  const std::unique_ptr<Protocol> proto =
      make_registered_protocol("serial_memory");
  if (proto == nullptr) {
    std::fprintf(stderr, "bench_stream: serial_memory not in registry\n");
    return 1;
  }

  // One recorded walk per model row; serial memory is clean under all of
  // them, so every stream closes Accepted and the sweep measures pure
  // verification throughput (no quarantine short-circuits).
  const std::pair<const char*, MemoryModel> kModels[] = {
      {"sc", MemoryModel::sc()},
      {"tso", MemoryModel::tso()},
      {"coherence", MemoryModel::coherence()},
  };

  std::vector<HotRow> hot_rows;
  RunTrace sc_walk;
  bool parity = true;
  for (const auto& [name, model] : kModels) {
    RecordWalkOptions opt;
    opt.steps = kWalkSteps;
    opt.observer.model = model;
    RunTrace walk = record_walk(*proto, opt);
    if (walk.verdict != RunVerdict::Accepted) {
      std::fprintf(stderr, "bench_stream: %s walk not clean: %s\n", name,
                   walk.reason.c_str());
      return 1;
    }
    hot_rows.push_back(bench_hot_path(walk, name, /*replays=*/20));
    const HotRow& h = hot_rows.back();
    std::printf("  hot_path %-9s | %s\n", name,
                format_timing(h.timing).c_str());
    std::fflush(stdout);
    if (std::string(name) == "sc") sc_walk = std::move(walk);
  }

  // Poll-mode headline: streams fed and verified sequentially on ONE
  // thread, so the row is meaningful (and gates) on any host, including
  // 1-CPU CI runners.  Its unit of work is 64 streams back to back;
  // per-stream behavior is identical to 1.
  const ServiceRow single =
      bench_service(sc_walk, /*streams=*/64, /*producers=*/1, /*workers=*/0);
  parity = parity && single.parity;
  std::printf("  single_stream (poll) | %s\n",
              format_timing(single.timing).c_str());
  // ROADMAP item 6's target: the poll-mode service keeps at least 70% of
  // the bare checker's rate on the same walk.
  const double single_share =
      single.timing.rate() / hot_rows.front().timing.rate();
  std::printf("  single_stream / hot_path sc: %.0f%%\n", 100 * single_share);
  std::fflush(stdout);

  std::vector<ServiceRow> sweep;
  for (const std::size_t streams : kStreamCounts) {
    const std::size_t par = std::min<std::size_t>(4, streams);
    const ServiceRow row = bench_service(sc_walk, streams, par, par);
    parity = parity && row.parity;
    sweep.push_back(row);
    std::printf("  service %4zu streams | %zup+%zuw%s | %s | %llu stalls\n",
                streams, row.producers, row.workers,
                row.threads_used > cpus ? " (oversub)" : "",
                format_timing(row.timing).c_str(),
                static_cast<unsigned long long>(row.stalls));
    std::fflush(stdout);
  }
  std::printf("  verdict parity vs offline check_trace: %s\n",
              parity ? "ok" : "MISMATCH");

  std::ofstream out("BENCH_stream.json");
  out << "{\n"
      << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n"
      << "  \"affinity_cpus\": " << cpus << ",\n"
      << "  \"affinity_mask\": \"" << affinity_mask_string() << "\",\n"
      << "  \"reps\": " << kReps << ",\n"
      << "  \"min_run_seconds\": " << kMinRunSeconds << ",\n"
      << "  \"verdict_parity\": " << (parity ? "true" : "false") << ",\n"
      << "  \"single_stream_share_of_hot_path_sc\": " << single_share << ",\n"
      << "  \"hot_path\": [\n";
  for (std::size_t i = 0; i < hot_rows.size(); ++i) {
    const HotRow& h = hot_rows[i];
    out << "    {\"model\": \"" << h.model << "\", ";
    write_timing(out, h.timing);
    out << ", \"gating\": true}" << (i + 1 < hot_rows.size() ? "," : "")
        << "\n";
  }
  const auto service_row = [&](const ServiceRow& r) {
    const bool oversub = r.threads_used > cpus;
    out << "{\"streams\": " << r.streams << ", \"producers\": " << r.producers
        << ", \"workers\": " << r.workers
        << ", \"threads_used\": " << r.threads_used
        << ", \"oversubscribed\": " << (oversub ? "true" : "false")
        << ", \"gating\": " << (oversub ? "false" : "true")
        << ", ";
    write_timing(out, r.timing);
    out << ", \"backpressure_stalls\": " << r.stalls << "}";
  };
  out << "  ],\n  \"single_stream\": ";
  service_row(single);
  out << ",\n  \"service\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    out << "    ";
    service_row(sweep[i]);
    out << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote BENCH_stream.json\n");
  return parity ? 0 : 1;
}
