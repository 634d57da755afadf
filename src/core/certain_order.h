// COP — the certain ordering problem (Section 3): given S, a relation R
// in S, and a currency order Ot for R's temporal instance, does Ot hold
// in every consistent completion of S?
//
// Complexity (Theorem 3.4): coNP-complete (data), Πp2-complete (combined);
// PTIME without denial constraints via PO∞ (Theorem 6.1, Lemma 6.2).
// Vacuously true when Mod(S) = ∅.
//
// Each queried pair is decided inside the coupling component owning its
// entity group: by PO∞-membership on the component's chase fixpoint when
// no denial constraint grounds there (Lemma 6.2 applied to S|_c), by a SAT
// refutation probe otherwise.  Without denial constraints every pair takes
// the chase, which is Theorem 6.1's PTIME check.

#ifndef CURRENCY_SRC_CORE_CERTAIN_ORDER_H_
#define CURRENCY_SRC_CORE_CERTAIN_ORDER_H_

#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/core/encoder.h"
#include "src/core/specification.h"

namespace currency::exec {
class ThreadPool;
}  // namespace currency::exec

namespace currency::core {

/// One required pair of a currency order Ot: before ≺_attr after.
struct RequiredPair {
  AttrIndex attr = -1;
  TupleId before = -1;
  TupleId after = -1;
};

/// A currency order Ot for one relation of the specification.
struct CurrencyOrderQuery {
  std::string relation;
  std::vector<RequiredPair> pairs;
};

/// Options for IsCertainOrder.
struct CopOptions {
  /// Answer pairs owned by chase-eligible components from the component
  /// chase fixpoint (pair certain iff it is in the component's PO∞ —
  /// Lemma 6.2 applied to S|_c) instead of SAT probes; SAT remains the
  /// route for constrained components.  Disable to force pure SAT.
  bool use_chase_routing = true;
  /// Threads: the vacuity check solves components concurrently, then the
  /// queried pairs are refuted in parallel per owning component (pairs
  /// sharing a component stay in query order on that component's solver).
  /// 1 (the default) runs sequentially; the answer is bit-identical for
  /// every value.
  int num_threads = 1;
  /// Optional caller-owned pool reused across calls (overrides
  /// `num_threads`; not owned).  See CpsOptions::pool.
  exec::ThreadPool* pool = nullptr;
  Encoder::Options encoder;
};

/// Decides whether every pair of `query` holds in every consistent
/// completion of `spec`.  Pairs relating distinct entities or a tuple to
/// itself can hold in no completion (so the answer is false unless
/// Mod(S) = ∅, which makes COP vacuously true).
Result<bool> IsCertainOrder(const Specification& spec,
                            const CurrencyOrderQuery& query,
                            const CopOptions& options = {});

}  // namespace currency::core

#endif  // CURRENCY_SRC_CORE_CERTAIN_ORDER_H_
