#include "src/core/deterministic.h"

#include <optional>
#include <vector>

#include "src/core/decompose.h"
#include "src/exec/thread_pool.h"

namespace currency::core {

namespace internal {

/// Shared implementation deciding determinism for one instance index given
/// an already-built encoder whose formula was just solved satisfiable (the
/// model is current).  On a component encoder, only the groups it defines
/// is-last selectors for are examined — the others belong to different
/// coupling components and are checked against their own encoders.
Result<bool> DeterministicProbe(const Specification& spec, Encoder* encoder,
                                int inst) {
  const TemporalInstance& instance = spec.instance(inst);
  const Relation& rel = instance.relation();
  // Phase 1 — snapshot every baseline from the model in hand, BEFORE any
  // assumption solve: a kSat call overwrites the model, and nothing in
  // the solver contract promises it survives a kUnsat call either, so no
  // baseline may be read after solving resumes.
  struct Probe {
    AttrIndex attr;
    TupleId candidate;
  };
  std::vector<Probe> probes;
  for (AttrIndex a = 1; a < instance.schema().arity(); ++a) {
    for (const auto& [eid, members] : rel.EntityGroups()) {
      (void)eid;
      if (members.size() <= 1) continue;
      if (encoder->IsLastVar(inst, a, members[0]) < 0) {
        continue;  // another component's group
      }
      // Baseline value: the tuple the model selects as most current.
      TupleId baseline = -1;
      for (TupleId u : members) {
        if (encoder->solver().ModelValue(encoder->IsLastVar(inst, a, u))) {
          baseline = u;
          break;
        }
      }
      if (baseline < 0) {
        return Status::Internal("model selects no current tuple");
      }
      const Value& base_value = rel.tuple(baseline).at(a);
      // Any candidate with a DIFFERENT value that can be most current
      // witnesses non-determinism.  (Candidates with equal value cannot
      // change the current instance.)
      for (TupleId u : members) {
        if (u == baseline || rel.tuple(u).at(a) == base_value) continue;
        probes.push_back(Probe{a, u});
      }
    }
  }
  // Phase 2 — probe the alternatives.
  for (const Probe& probe : probes) {
    sat::Lit assume =
        sat::MakeLit(encoder->IsLastVar(inst, probe.attr, probe.candidate));
    if (encoder->solver().SolveWithAssumptions({assume}) ==
        sat::SolveResult::kSat) {
      return false;
    }
  }
  return true;
}

bool DeterministicViaComponentChase(const Specification& spec,
                                    const ComponentChase& chase, int inst) {
  const Relation& rel = spec.instance(inst).relation();
  for (const ComponentChase::Node& node : chase.nodes) {
    if (node.inst != inst || node.members.size() <= 1) continue;
    std::vector<int> all(node.members.size());
    for (size_t k = 0; k < all.size(); ++k) all[k] = static_cast<int>(k);
    for (size_t a = 1; a < node.orders.size(); ++a) {
      std::vector<int> sinks = node.orders[a].SinksWithin(all);
      for (size_t k = 1; k < sinks.size(); ++k) {
        if (!(rel.tuple(node.members[sinks[k]]).at(a) ==
              rel.tuple(node.members[sinks[0]]).at(a))) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace internal

Result<bool> IsDeterministicForRelation(const Specification& spec,
                                        const std::string& relation,
                                        const DcipOptions& options) {
  ASSIGN_OR_RETURN(int inst, spec.InstanceIndex(relation));
  Encoder::Options enc = options.encoder;
  enc.define_is_last = true;
  ASSIGN_OR_RETURN(auto decomposed,
                   DecomposedEncoder::Build(spec, enc,
                                            options.use_chase_routing));
  std::optional<exec::ThreadPool> local_pool;
  exec::ThreadPool* pool =
      exec::ResolvePool(options.pool, options.num_threads, local_pool);
  ASSIGN_OR_RETURN(bool consistent, decomposed->SolveAll({}, pool));
  if (!consistent) return true;  // vacuous
  // Each entity group's determinism is decided by its own component
  // (SolveAll left every SAT-routed component encoder holding a model), so
  // the groups probe concurrently — one task per component, cancelling
  // the rest once any witness of non-determinism is found.
  const std::vector<int>& components =
      decomposed->decomposition().ComponentsOfInstance(inst);
  std::vector<char> nondeterministic(components.size(), 0);
  exec::CancellationToken cancel;
  RETURN_IF_ERROR(pool->ParallelFor(
      static_cast<int>(components.size()),
      [&](int k) -> Status {
        bool deterministic = true;
        if (decomposed->chase_routed(components[k])) {
          ASSIGN_OR_RETURN(const ComponentChase* chase,
                           decomposed->ComponentChaseFixpoint(components[k]));
          deterministic =
              internal::DeterministicViaComponentChase(spec, *chase, inst);
        } else {
          ASSIGN_OR_RETURN(Encoder * encoder,
                           decomposed->ComponentEncoder(components[k]));
          ASSIGN_OR_RETURN(deterministic,
                           internal::DeterministicProbe(spec, encoder, inst));
        }
        if (!deterministic) {
          nondeterministic[k] = 1;
          cancel.Cancel();
        }
        return Status::OK();
      },
      &cancel));
  for (char n : nondeterministic) {
    if (n) return false;
  }
  return true;
}

Result<bool> IsDeterministic(const Specification& spec,
                             const DcipOptions& options) {
  for (int i = 0; i < spec.num_instances(); ++i) {
    ASSIGN_OR_RETURN(bool det, IsDeterministicForRelation(
                                   spec, spec.instance(i).name(), options));
    if (!det) return false;
  }
  return true;
}

}  // namespace currency::core
