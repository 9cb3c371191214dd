// The descriptor-stream observation seam.
//
// Theorem 3.1 splits verification into a protocol-specific observer that
// *emits* a symbol stream and a protocol-independent checker that
// *consumes* it.  The checker is fed directly (ScChecker::feed_batch, once
// per step) by each driver: Product::step, the trace replayer and the
// streaming service.  SymbolSink is for everything else that wants to watch
// a run — the run-trace recorder, the statistics collector — attached to
// the product driving it.
//
// Sinks are observation-only: on_symbol returns void, so a sink cannot veto
// or reorder the run it watches.  This preserves the linter's R4
// non-interference property by construction: attaching any number of sinks
// can never change which runs the protocol takes or what the checker
// decides.
//
// Stream framing: a run is a sequence of *steps* (one protocol transition
// each).  Drivers bracket every step with begin_step/end_step so sinks that
// care about run structure (the recorder) can group symbols per transition,
// while flat consumers (the statistics collector) just override on_symbol.
#pragma once

#include <string_view>

#include "descriptor/symbol.hpp"

namespace scv {

class SymbolSink {
 public:
  SymbolSink() = default;
  SymbolSink(const SymbolSink&) = default;
  SymbolSink& operator=(const SymbolSink&) = default;
  virtual ~SymbolSink() = default;

  /// A new step begins; `action` is the human-readable protocol action
  /// ("ST(P1,B2,1)", "Drain(P2)", ...), valid only for the duration of the
  /// call.
  virtual void begin_step(std::string_view action) { (void)action; }

  /// One descriptor symbol emitted within the current step.
  virtual void on_symbol(const Symbol& sym) = 0;

  /// The current step is complete (all of its symbols were delivered).
  virtual void end_step() {}
};

}  // namespace scv
