// DCIP — the deterministic current instance problem (Section 3): given S
// and a relation R in S, is the current instance of R the same in every
// consistent completion?
//
// Complexity (Theorem 3.4): coNP-complete (data), Πp2-complete (combined);
// PTIME without denial constraints via sink-agreement on PO∞
// (Theorem 6.1).  Vacuously true when Mod(S) = ∅.
//
// Determinism is decided per coupling component: by sink agreement on the
// component's chase fixpoint when no denial constraint grounds there
// (Theorem 6.1(3) applied to S|_c), by SAT probes on the component encoder
// otherwise.  Without denial constraints every component takes the chase,
// which is Theorem 6.1's PTIME check.

#ifndef CURRENCY_SRC_CORE_DETERMINISTIC_H_
#define CURRENCY_SRC_CORE_DETERMINISTIC_H_

#include <string>

#include "src/common/result.h"
#include "src/core/chase.h"
#include "src/core/encoder.h"
#include "src/core/specification.h"

namespace currency::exec {
class ThreadPool;
}  // namespace currency::exec

namespace currency::core {

/// Options for the DCIP solvers.
struct DcipOptions {
  /// Decide chase-eligible components by sink-agreement on the component
  /// chase fixpoint (Theorem 6.1(3) applied to S|_c) instead of SAT
  /// probes; SAT remains the route for constrained components.  Disable
  /// to force pure SAT.
  bool use_chase_routing = true;
  /// Threads: the consistency pre-solve and the per-component determinism
  /// probes run concurrently (each component's probe sequence is confined
  /// to one task).  1 (the default) runs sequentially; the answer is
  /// bit-identical for every value.
  int num_threads = 1;
  /// Optional caller-owned pool reused across calls (overrides
  /// `num_threads`; not owned).  See CpsOptions::pool.
  exec::ThreadPool* pool = nullptr;
  Encoder::Options encoder;
};

/// Decides whether S is deterministic for current `relation` instances.
Result<bool> IsDeterministicForRelation(const Specification& spec,
                                        const std::string& relation,
                                        const DcipOptions& options = {});

/// Decides whether S is deterministic for all its current instances.
Result<bool> IsDeterministic(const Specification& spec,
                             const DcipOptions& options = {});

namespace internal {

/// The SAT-path determinism probe shared by the one-shot DCIP solvers and
/// the serving layer's DcipBatch: decides determinism of `inst`'s entity
/// groups whose is-last selectors `encoder` defines (on a component
/// encoder that is exactly the component's own groups).  Requires the
/// encoder's solver to currently hold a satisfying model; the probe
/// sequence generally leaves it without one, so callers re-Solve before
/// probing again.  The answer is model-independent: whichever baseline
/// model is in hand, some alternative-value candidate is satisfiable iff
/// the group's current instance is not unique.
Result<bool> DeterministicProbe(const Specification& spec, Encoder* encoder,
                                int inst);

/// The chase-path determinism check shared by the one-shot DCIP solvers
/// and the serving layer: for every entity group of `inst` inside the
/// (chase-eligible) component, all certain sinks of each attribute's
/// component PO∞ must agree on the attribute value (Theorem 6.1(3)
/// applied to S|_c).  Groups of other instances or components are simply
/// absent from `chase` and checked elsewhere.
bool DeterministicViaComponentChase(const Specification& spec,
                                    const ComponentChase& chase, int inst);

}  // namespace internal

}  // namespace currency::core

#endif  // CURRENCY_SRC_CORE_DETERMINISTIC_H_
