// CPS — the consistency problem for specifications (Section 3):
// given S, is Mod(S) non-empty?
//
// Complexity (Theorem 3.1): NP-complete in data complexity, Σp2-complete
// in combined complexity; PTIME without denial constraints (Theorem 6.1).
// The solver splits S along its coupling components (src/core/decompose.h)
// and decides each one on its own: components no denial constraint grounds
// on go to the polynomial copy-order chase (Theorem 6.1 applied to S|_c),
// the rest to CDCL search over the order encoding.  On a specification
// without denial constraints every component takes the chase, so this one
// route is the PTIME procedure of Theorem 6.1.

#ifndef CURRENCY_SRC_CORE_CONSISTENCY_H_
#define CURRENCY_SRC_CORE_CONSISTENCY_H_

#include <optional>

#include "src/common/result.h"
#include "src/core/completion.h"
#include "src/core/encoder.h"
#include "src/core/specification.h"

namespace currency::exec {
class ThreadPool;
}  // namespace currency::exec

namespace currency::core {

/// Options for DecideConsistency.
struct CpsOptions {
  /// Always construct a witness completion (forces every component onto
  /// SAT, since the chase decides consistency without building a model).
  bool want_witness = false;
  /// Decide chase-eligible components (no denial grounding touches them)
  /// by the polynomial copy-order chase instead of building their SAT
  /// encoders; SAT remains the route for the constrained components of
  /// the same specification.  Ignored when `want_witness` forces full
  /// encoders.  Disable to force pure SAT (the equivalence suites' second
  /// reference next to the brute-force oracle).
  bool use_chase_routing = true;
  /// Threads (src/exec/thread_pool.h): components are solved concurrently
  /// with first-UNSAT cancellation.  Counts the calling thread; 1 (the
  /// default) runs strictly sequentially.  Answers and witnesses are
  /// bit-identical for every value.
  int num_threads = 1;
  /// Optional caller-owned pool, reused across calls instead of spawning
  /// pool threads per invocation (the serving layer passes its session
  /// pool).  When set it overrides `num_threads`; not owned — it must
  /// outlive the call and must not be inside a concurrent ParallelFor
  /// region.
  exec::ThreadPool* pool = nullptr;
  Encoder::Options encoder;
};

/// Outcome of CPS.
struct CpsOutcome {
  bool consistent = false;
  /// A consistent completion, when `consistent` and `want_witness`.
  std::optional<Completion> witness;
  /// True iff every coupling component was chase-routed, so the chase
  /// decided the instance and no SAT encoder was built (always the case
  /// without denial constraints unless `want_witness` or forced SAT).
  bool used_ptime_path = false;
  /// Number of coupling components of the specification.
  int components = 0;
};

/// Decides whether Mod(S) is non-empty.
Result<CpsOutcome> DecideConsistency(const Specification& spec,
                                     const CpsOptions& options = {});

}  // namespace currency::core

#endif  // CURRENCY_SRC_CORE_CONSISTENCY_H_
