// Experiment FIG1 — reproduces Figure 1 of the paper: the outcomes of the
// 2-processor example program under serial memory, sequential consistency,
// and relaxed models.  The litmus families (figure1 message passing,
// store buffering, 3-processor store buffering, own-read) are swept across
// the checker's memory-model axis (sc, tso, coherence) so the families
// that distinguish the models are recorded machine-checkably, and the
// bounded-preemption exploration mode is measured against full exploration
// at a fixed depth.
//
// JSON output: writes BENCH_models.json ({"models": {...}}) to the working
// directory.  tools/check_bench.py reads it from beside the BENCH_mc.json it
// gates, and checks litmus outcomes and preemption reductions alongside the
// perf numbers.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "checker/memory_model.hpp"
#include "litmus/litmus.hpp"
#include "mc/model_checker.hpp"
#include "protocol/msi_bus.hpp"
#include "protocol/serial_memory.hpp"

namespace {

using namespace scv;

void print_outcome_set(const char* label, const std::set<LitmusOutcome>& s) {
  std::printf("  %-28s {", label);
  bool first = true;
  for (const auto& o : s) {
    std::printf("%s%s", first ? "" : ", ", to_string(o).c_str());
    first = false;
  }
  std::printf("}\n");
}

void print_figure1() {
  std::printf("== FIG1: Figure 1 outcome table ==\n");
  std::printf("Program (real-time order):\n");
  std::printf("  t1  P1: ST x = 1\n  t2  P1: ST y = 2\n");
  std::printf("  t3  P2: LD y -> r2\n  t4  P2: LD x -> r1\n\n");

  const LitmusProgram prog = figure1_program();
  std::printf("  %-28s %s\n", "serial memory:",
              to_string(serial_outcome(prog)).c_str());
  print_outcome_set("sequential consistency:", sc_outcomes(prog));
  RelaxFlags rmo;
  rmo.load_load = true;
  print_outcome_set("relaxed (load-load reorder):",
                    relaxed_outcomes(prog, rmo));
  std::printf("  paper: SC admits (1,2),(0,0),(1,0); forbids (0,2); the\n"
              "  relaxed model additionally admits (0,2).\n\n");

  std::printf("Per-model outcome sets (checker memory-model axis):\n");
  for (const LitmusProgram& family : litmus_families()) {
    std::printf(" %s:\n", family.name.c_str());
    const std::set<LitmusOutcome> sc = sc_outcomes(family);
    for (const NamedModel& nm : memory_model_axis()) {
      const std::set<LitmusOutcome> got = model_outcomes(family, nm.model);
      std::string label = nm.name;
      label += got == sc ? ":" : " (flips):";
      print_outcome_set(label.c_str(), got);
    }
  }
  std::printf("\n");
}

// ------------------------------------------------------------------ JSON

/// kBottom renders as 0, matching Figure 1's convention for the initial
/// value (and to_string above).
std::string json_outcomes(const std::set<LitmusOutcome>& s) {
  std::ostringstream os;
  os << "[";
  bool first_o = true;
  for (const LitmusOutcome& o : s) {
    os << (first_o ? "" : ",") << "[";
    for (std::size_t i = 0; i < o.size(); ++i) {
      os << (i ? "," : "")
         << (o[i] == kBottom ? 0 : static_cast<int>(o[i]));
    }
    os << "]";
    first_o = false;
  }
  os << "]";
  return os.str();
}

struct PreemptRow {
  std::string id;
  std::string protocol;
  std::size_t depth = 0;
  std::uint32_t budget = 0;
  McResult bounded;
  McResult full;
};

PreemptRow run_preemption(const Protocol& proto, const std::string& id,
                          std::size_t depth, std::uint32_t budget) {
  PreemptRow row;
  row.id = id + "_depth" + std::to_string(depth) + "_bp" +
           std::to_string(budget);
  row.protocol = proto.name();
  row.depth = depth;
  row.budget = budget;
  McOptions full;
  full.max_depth = depth;
  full.threads = 1;
  row.full = model_check(proto, full);
  McOptions bounded = full;
  bounded.observer.model = MemoryModel::bounded_sc(budget);
  row.bounded = model_check(proto, bounded);
  std::printf("  %-28s full %8zu states (%s) | bp%u %8zu states (%s) | "
              "x%.1f reduction, %llu pruned\n",
              row.id.c_str(), row.full.states,
              to_string(row.full.verdict).c_str(), budget,
              row.bounded.states, to_string(row.bounded.verdict).c_str(),
              row.bounded.states > 0
                  ? static_cast<double>(row.full.states) /
                        static_cast<double>(row.bounded.states)
                  : 0.0,
              static_cast<unsigned long long>(row.bounded.preemption_pruned));
  std::fflush(stdout);
  return row;
}

/// The "models" JSON object: per-family × per-model litmus outcome rows
/// plus the bounded-preemption state-reduction rows.
std::string models_json() {
  std::ostringstream os;
  os << "{\n    \"litmus\": [\n";
  bool first = true;
  for (const LitmusProgram& family : litmus_families()) {
    const std::set<LitmusOutcome> sc = sc_outcomes(family);
    for (const NamedModel& nm : memory_model_axis()) {
      const std::set<LitmusOutcome> got = model_outcomes(family, nm.model);
      os << (first ? "" : ",\n") << "      {\"family\": \"" << family.name
         << "\", \"model\": \"" << nm.name << "\", \"outcomes\": "
         << json_outcomes(got) << ", \"flips_vs_sc\": "
         << (got == sc ? "false" : "true") << "}";
      first = false;
    }
  }
  os << "\n    ],\n";

  std::printf("Bounded preemption vs full exploration (fixed depth):\n");
  const SerialMemory serial(2, 2, 2);
  const MsiBus msi(2, 2, 2);
  const PreemptRow rows[] = {
      run_preemption(serial, "serial_memory", 8, 0),
      run_preemption(msi, "msi_bus", 8, 0),
  };
  std::printf("\n");
  os << "    \"preemption\": [\n";
  first = true;
  for (const PreemptRow& r : rows) {
    const double reduction =
        r.bounded.states > 0 ? static_cast<double>(r.full.states) /
                                   static_cast<double>(r.bounded.states)
                             : 0.0;
    os << (first ? "" : ",\n") << "      {\"id\": \"" << r.id
       << "\", \"protocol\": \"" << r.protocol << "\", \"depth\": "
       << r.depth << ", \"budget\": " << r.budget
       << ", \"bounded_verdict\": \"" << to_string(r.bounded.verdict)
       << "\", \"bounded_states\": " << r.bounded.states
       << ", \"pruned\": " << r.bounded.preemption_pruned
       << ", \"full_verdict\": \"" << to_string(r.full.verdict)
       << "\", \"full_states\": " << r.full.states
       << ", \"reduction\": " << reduction << "}";
    first = false;
  }
  os << "\n    ]\n  }";
  return os.str();
}

}  // namespace

int main() {
  print_figure1();
  const std::string models = models_json();
  {
    std::ofstream out("BENCH_models.json");
    out << "{\n  \"models\": " << models << "\n}\n";
  }
  std::printf("wrote BENCH_models.json\n");
  return 0;
}
