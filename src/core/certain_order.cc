#include "src/core/certain_order.h"

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "src/core/decompose.h"
#include "src/exec/thread_pool.h"

namespace currency::core {

Result<bool> IsCertainOrder(const Specification& spec,
                            const CurrencyOrderQuery& query,
                            const CopOptions& options) {
  ASSIGN_OR_RETURN(int inst, spec.InstanceIndex(query.relation));
  const TemporalInstance& instance = spec.instance(inst);
  const Relation& rel = instance.relation();
  for (const RequiredPair& p : query.pairs) {
    if (p.attr < 1 || p.attr >= instance.schema().arity()) {
      return Status::InvalidArgument("required pair attribute out of range");
    }
    if (p.before < 0 || p.before >= rel.size() || p.after < 0 ||
        p.after >= rel.size()) {
      return Status::InvalidArgument("required pair tuple out of range");
    }
  }

  // Mod(S) = ∅ makes every order vacuously certain; SolveAll decides that
  // per component (chase fixpoints first, then SAT).  A pair (u, v) owned
  // by a SAT-routed component is certain iff the encoding plus the
  // assumption "v ≺ u or incomparable" is unsatisfiable; with totality
  // baked in, that assumption is just ¬ord(u, v).
  ASSIGN_OR_RETURN(auto decomposed,
                   DecomposedEncoder::Build(spec, options.encoder,
                                            options.use_chase_routing));
  std::optional<exec::ThreadPool> local_pool;
  exec::ThreadPool* pool =
      exec::ResolvePool(options.pool, options.num_threads, local_pool);
  ASSIGN_OR_RETURN(bool consistent, decomposed->SolveAll({}, pool));
  if (!consistent) return true;  // Mod(S) = ∅: vacuously certain
  // A reflexive pair is refuted structurally — no solver involved, so
  // answer first (the probes below could only also answer false).
  for (const RequiredPair& p : query.pairs) {
    if (p.before == p.after) return false;  // irreflexivity
  }
  // Group the pairs by owning component, preserving query order within
  // each group: pairs of one component probe one solver sequentially (its
  // call sequence — and thus its learnt-clause state — is the same for
  // every thread count), while distinct components are refuted in
  // parallel.  SolveAll above built and solved every component, so the
  // ComponentEncoder and ComponentChaseFixpoint reads below are cached.
  std::map<int, std::vector<const RequiredPair*>> by_component;
  for (const RequiredPair& p : query.pairs) {
    int component = decomposed->decomposition().ComponentOf(
        inst, rel.tuple(p.before).eid());
    by_component[component].push_back(&p);
  }
  std::vector<std::pair<int, const std::vector<const RequiredPair*>*>> groups;
  groups.reserve(by_component.size());
  for (const auto& [component, pairs] : by_component) {
    groups.emplace_back(component, &pairs);
  }
  std::vector<char> refuted(groups.size(), 0);
  exec::CancellationToken cancel;
  RETURN_IF_ERROR(pool->ParallelFor(
      static_cast<int>(groups.size()),
      [&](int k) -> Status {
        if (decomposed->chase_routed(groups[k].first)) {
          // Lemma 6.2 on S|_c: a pair is certain iff it is in the
          // component's PO∞ (CertainLess also refutes cross-entity pairs
          // — the `after` tuple lies outside the group).
          ASSIGN_OR_RETURN(const ComponentChase* chase,
                           decomposed->ComponentChaseFixpoint(groups[k].first));
          for (const RequiredPair* p : *groups[k].second) {
            if (!chase->CertainLess(inst, rel.tuple(p->before).eid(), p->attr,
                                    p->before, p->after)) {
              refuted[k] = 1;
              cancel.Cancel();
              return Status::OK();
            }
          }
          return Status::OK();
        }
        ASSIGN_OR_RETURN(Encoder * encoder,
                         decomposed->ComponentEncoder(groups[k].first));
        for (const RequiredPair* p : *groups[k].second) {
          if (!encoder->HasPairVar(inst, p->before, p->after)) {
            // Cross-entity pairs are never comparable.
            refuted[k] = 1;
            cancel.Cancel();
            return Status::OK();
          }
          sat::Lit lit = encoder->OrdLit(inst, p->attr, p->before, p->after);
          if (encoder->solver().SolveWithAssumptions({sat::Negate(lit)}) ==
              sat::SolveResult::kSat) {
            // A completion orders them the other way.
            refuted[k] = 1;
            cancel.Cancel();
            return Status::OK();
          }
        }
        return Status::OK();
      },
      &cancel));
  for (char r : refuted) {
    if (r) return false;
  }
  return true;
}

}  // namespace currency::core
