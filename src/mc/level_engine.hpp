// The level engine: model_check's exhaustive search of the observer–checker
// product (Theorem 3.1 put to work), one level-synchronized BFS for every
// thread count (DESIGN.md §9, §11).
//
// The engine is the LevelEngine class in level_engine.cpp.  Its stages are
// named private member functions, in the order an entry and then a level
// meet them: restore, enumerate (with ample selection), step, canonicalize,
// claim (dedup), materialize; then at the level barrier resolve, decide
// (the C3 cycle proviso), settle and commit_level.  A state is named by its
// position in its level's rank order, and its minimum rank is its parent
// link, so a failure's path follows those ranks back to the initial state.
// This header declares the one entry point model_check calls;
// counterexample replay and export stay with model_check.
#pragma once

#include <cstdint>
#include <vector>

#include "mc/model_checker.hpp"
#include "mc/por.hpp"
#include "mc/product.hpp"

namespace scv {

/// One exploration's result.  On a failure verdict, `failure` is the
/// failing step's outcome and `path` the transition indices from the
/// initial state through the failing transition: index i is the step's
/// position in the enumerate() order of the canonical state it left.
struct LevelRun {
  McResult result;
  StepOutcome failure = StepOutcome::Ok;
  std::vector<std::uint32_t> path;
};

/// Explores `protocol`'s product under `options`, with ample sets from
/// `oracle` when options.partial_order_reduction asks for them.  A run that
/// has to be given up restarts, and result.seconds covers every attempt:
/// an ample set failing its runtime cross-validation restarts without POR
/// (result.por_note says why), and a level where a failure and the state
/// budget both trip restarts on one worker.  The counterexample fields of
/// the result (reason, steps, trace, cycle) are left to the caller.
[[nodiscard]] LevelRun explore_levels(const Protocol& protocol,
                                      const McOptions& options,
                                      const PorOracle& oracle);

}  // namespace scv
