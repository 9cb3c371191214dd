// Quickstart: verify that a memory protocol is sequentially consistent.
//
// Build:  cmake -B build -G Ninja && cmake --build build
// Run:    ./build/examples/quickstart
//
// The library's one-call entry point is scv::model_check
// (mc/model_checker.hpp): give it a protocol (a finite-state machine with
// storage locations and tracking labels, Section 4.1 of Condon & Hu 2001)
// and it constructs the witness observer of Theorem 4.1, runs the
// protocol–observer–checker product through an explicit-state model
// checker, and returns either a proof of sequential consistency or a
// shortest counterexample run.
#include <cstdio>

#include "mc/model_checker.hpp"
#include "protocol/msi_bus.hpp"
#include "protocol/serial_memory.hpp"
#include "protocol/write_buffer.hpp"

int main() {
  using namespace scv;

  // 1. A trivially correct protocol: atomic serial memory.
  {
    SerialMemory proto(/*procs=*/2, /*blocks=*/2, /*values=*/1);
    const McResult r = model_check(proto);
    std::printf("%-14s -> %s\n", proto.name().c_str(), r.summary().c_str());
  }

  // 2. A realistic protocol: snooping MSI caches on an atomic bus.
  {
    MsiBus proto(/*procs=*/2, /*blocks=*/1, /*values=*/2);
    const McResult r = model_check(proto);
    std::printf("%-14s -> %s\n", proto.name().c_str(), r.summary().c_str());
  }

  // 3. A broken protocol: store buffers without ordering.  The verifier
  //    returns the shortest run whose constraint graph is cyclic — the
  //    store-buffering litmus test, rediscovered automatically.
  {
    WriteBuffer proto(/*procs=*/2, /*blocks=*/2, /*values=*/1,
                      /*depth=*/1, /*forwarding=*/false);
    const McResult r = model_check(proto);
    std::printf("%-14s -> %s\n", proto.name().c_str(), r.summary().c_str());
    std::printf("  counterexample run:\n");
    for (const CounterexampleStep& step : r.counterexample) {
      std::printf("    %s\n", step.action.c_str());
    }
  }
  return 0;
}
