#include "src/core/consistency.h"

#include <optional>
#include <utility>

#include "src/core/decompose.h"
#include "src/exec/thread_pool.h"

namespace currency::core {

Result<CpsOutcome> DecideConsistency(const Specification& spec,
                                     const CpsOptions& options) {
  // Mod(S) factors over coupling components, so S is consistent iff every
  // component is; SolveAll decides the chase-routed ones from their
  // fixpoints, then short-circuits on the first UNSAT SAT component (and,
  // with num_threads > 1, solves components concurrently).
  ASSIGN_OR_RETURN(
      auto decomposed,
      DecomposedEncoder::Build(
          spec, options.encoder,
          options.use_chase_routing && !options.want_witness));
  CpsOutcome outcome;
  outcome.components = decomposed->num_components();
  outcome.used_ptime_path = true;
  for (int c = 0; c < outcome.components; ++c) {
    if (!decomposed->chase_routed(c)) outcome.used_ptime_path = false;
  }
  std::optional<exec::ThreadPool> local_pool;
  exec::ThreadPool* pool =
      exec::ResolvePool(options.pool, options.num_threads, local_pool);
  ASSIGN_OR_RETURN(outcome.consistent, decomposed->SolveAll({}, pool));
  if (outcome.consistent && options.want_witness) {
    ASSIGN_OR_RETURN(Completion witness, decomposed->ExtractCompletion());
    outcome.witness = std::move(witness);
  }
  return outcome;
}

}  // namespace currency::core
