// Entity-component decomposition of the SAT path.
//
// Every clause the order-literal encoder emits stays inside one entity
// group or links exactly two groups through a copy function: transitivity,
// initial-order units, grounded denial constraints and is-last selectors
// are per-(instance, entity), and a copy ≺-compatibility implication
// ord_src(s1,s2) → ord_tgt(t1,t2) couples the source pair's entity group
// with the target pair's.  The *coupling graph* therefore has one node per
// (instance, entity) group and one edge per copy-coupled or (in principle)
// constraint-coupled pair of groups; its connected components are
// independent sub-specifications whose models multiply:
//
//   Mod(S) ≅ Π_c Mod(S|_c)      (c ranges over coupling components)
//
// This is the locality the paper's decision problems already have — they
// quantify over completions of *per-entity* currency orders — made
// explicit.  The DecomposedEncoder below exploits it:
//   * CPS: S is consistent iff every component is; solve smallest-first
//     and short-circuit on the first UNSAT component.
//   * COP: a pair (u, v) is refuted inside the component owning u's
//     entity; other components only matter for the Mod(S) = ∅ vacuity.
//   * DCIP: determinism is checked per entity group against the group's
//     component encoder.
//   * CCQA: the distinct current instances of S are the cartesian product
//     of per-component current fragments; certain-membership checks run
//     on a merged encoder covering just the components a query touches.
//
// Every decision procedure (CPS, COP, DCIP, CCQA) takes this decomposed
// route; with chase routing on, components no denial constraint grounds on
// are decided by the copy-order chase instead of SAT, which on a
// constraint-free specification is exactly Theorem 6.1.  Answers are
// property-tested against the brute-force oracle and against forced-SAT
// routing (tests/oracle_invariants_test.cc,
// tests/chase_routing_equivalence_test.cc) and benchmarked in
// bench/bench_scale_decomposition.cc.

#ifndef CURRENCY_SRC_CORE_DECOMPOSE_H_
#define CURRENCY_SRC_CORE_DECOMPOSE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/result.h"
#include "src/core/chase.h"
#include "src/core/completion.h"
#include "src/core/encoder.h"
#include "src/core/specification.h"
#include "src/exec/thread_pool.h"

namespace currency::core {

/// A node of the coupling graph: one entity group of one instance.
struct EntityNode {
  int inst = -1;
  Value eid;
};

/// The partition of a specification's entity groups into independent
/// coupling components.  Value-semantic and immutable once built.
class Decomposition {
 public:
  /// An empty decomposition (no components); assign from Build().
  Decomposition() = default;

  /// Builds the coupling graph and its connected components.  Fails only
  /// on malformed specifications (unresolvable copy signatures).
  static Result<Decomposition> Build(const Specification& spec);

  int num_components() const { return static_cast<int>(components_.size()); }

  /// The nodes of component `c`.
  const std::vector<EntityNode>& component(int c) const {
    return components_[c];
  }

  /// Component owning (inst, eid), or -1 when the entity does not occur.
  int ComponentOf(int inst, const Value& eid) const;

  /// Components owning at least one entity of instance `inst` (sorted).
  const std::vector<int>& ComponentsOfInstance(int inst) const {
    return instance_components_[inst];
  }

  /// Sorted, deduplicated union of ComponentsOfInstance over `instances`.
  std::vector<int> ComponentsOfInstances(
      const std::vector<int>& instances) const;

  /// An EntityFilter admitting exactly the nodes of the given components.
  EntityFilter FilterFor(const std::vector<int>& components) const;

  /// Content fingerprint of component `c`: a 64-bit hash over every input
  /// a per-component encoder build reads — the member tuples (ids and
  /// values), the initial currency-order pairs among them, the coupling
  /// copy buckets (≥ 2 distinct sources; single-source buckets emit no
  /// clauses and no chase derivations, see the Build comment), and the
  /// texts of exactly the denial constraints with at least one grounding
  /// on a member group (a grounding set is a function of the constraint
  /// text and the member values, which are hashed too; zero-grounding
  /// constraints contribute nothing to any path and are excluded so that
  /// adding one invalidates nothing).  Fingerprints are comparable
  /// across Decomposition rebuilds over a mutated specification: equal
  /// fingerprints mean identical encoding inputs (modulo 64-bit hash
  /// collisions), which is what lets the serving layer re-use component
  /// encoders, cached results and chase fixpoints across Mutate epochs
  /// and re-encode exactly the components an edit touched.
  uint64_t fingerprint(int c) const { return fingerprints_[c]; }

  /// True iff no denial constraint has any grounding on any entity group
  /// of component `c`.  The component's sub-specification is then
  /// effectively constraint-free, so the copy-order chase decides its
  /// consistency, certain orders and determinism in PTIME (Theorem 6.1 /
  /// Lemma 6.2 applied to S|_c) and the SAT encoder need not be built.
  bool chase_eligible(int c) const { return chase_eligible_[c] != 0; }

  /// True iff `c` is chase-eligible AND consists of a single entity group
  /// touched by no coupling copy bucket.  Its data attributes are then
  /// mutually independent, so the component's current-instance fragments
  /// are the cartesian product of per-attribute certain-sink values —
  /// enumerable straight off the chase fixpoint.  (Multi-group or
  /// copy-coupled components correlate attributes across tuples and fall
  /// back to SAT model enumeration even when chase-eligible.)
  bool chase_enumerable(int c) const { return chase_enumerable_[c] != 0; }

 private:
  int num_instances_ = 0;
  std::vector<std::vector<EntityNode>> components_;
  /// node_component_[i]: eid -> component id, per instance.
  std::vector<std::map<Value, int>> node_component_;
  std::vector<std::vector<int>> instance_components_;
  std::vector<uint64_t> fingerprints_;
  std::vector<char> chase_eligible_;
  std::vector<char> chase_enumerable_;
};

/// One small SAT encoder per coupling component, sharing one specification
/// and one set of encoder options.  Component encoders are built lazily
/// (CPS may never reach them past the first UNSAT component) and cached;
/// tuple ids and instance indices remain the specification's own, so the
/// callers' queries need no translation.
///
/// Thread confinement: after Build returns, every shared member — the
/// specification (including each Relation's entity-group cache, warmed by
/// Decomposition::Build), the options, the Decomposition, the
/// CopyBucketIndex, the chase seed, and the per-component filters — is
/// read-only.  Each component's Encoder (and its sat::Solver) is mutable
/// state confined to whichever single task currently works on that
/// component, so ComponentEncoder may be called concurrently for
/// *distinct* components (each task builds into and solves its own
/// `encoders_[c]` slot), but never for the same component from two
/// threads.  SolveAll's parallel path enforces this by giving each task
/// exactly one component.
class DecomposedEncoder {
 public:
  /// `use_chase_routing` routes chase-eligible components through the
  /// polynomial copy-order chase instead of SAT: SolveAll answers their
  /// consistency from ComponentChaseFixpoint and never builds their
  /// encoders.  Off by default so direct callers keep the pure-SAT
  /// semantics (ExtractCompletion in particular needs every encoder
  /// built); the decision procedures and the serving layer opt in via
  /// their own use_chase_routing options.
  static Result<std::unique_ptr<DecomposedEncoder>> Build(
      const Specification& spec, const Encoder::Options& options,
      bool use_chase_routing = false);

  const Decomposition& decomposition() const { return decomposition_; }
  int num_components() const { return decomposition_.num_components(); }

  bool chase_routing() const { return use_chase_routing_; }
  /// True iff routing is on and component `c` is chase-eligible: callers
  /// must answer `c` from ComponentChaseFixpoint, not ComponentEncoder.
  bool chase_routed(int c) const {
    return use_chase_routing_ && decomposition_.chase_eligible(c);
  }
  /// True iff routing is on and `c`'s current-instance fragments may be
  /// enumerated straight off the chase (Decomposition::chase_enumerable).
  bool chase_routed_enumerable(int c) const {
    return use_chase_routing_ && decomposition_.chase_enumerable(c);
  }

  /// The (cached) chase fixpoint of the chase-eligible component `c`.
  /// Lazily computed; same thread-confinement contract as
  /// ComponentEncoder (concurrent calls must target distinct components
  /// unless the fixpoint is already cached, after which the result is
  /// read-only).  InvalidArgument for ineligible components.
  Result<const ComponentChase*> ComponentChaseFixpoint(int c);

  /// Computes component `c`'s chase fixpoint WITHOUT touching the lazy
  /// cache slot: reads only the post-Build read-only state (spec,
  /// decomposition, copy index), so it is safe to call concurrently from
  /// any number of threads — even for the same component.  The serving
  /// layer's epoch snapshots (serve/epoch.h) manage their own slots under
  /// per-component locks and use this const builder to fill them.
  /// InvalidArgument for ineligible components.
  Result<ComponentChase> BuildComponentChase(int c) const;

  /// Moves component `c`'s cached chase fixpoint out (nullptr when never
  /// computed); the slot reverts to lazy.  Mirrors TakeComponentEncoder
  /// for the serving layer's cross-epoch harvest.
  std::unique_ptr<ComponentChase> TakeComponentChase(int c);

  /// Installs a chase fixpoint previously taken from a component with an
  /// equal fingerprint (the caller's responsibility, as with
  /// AdoptComponentEncoder).  Fails when the slot is occupied or the
  /// component is not chase-eligible.
  Status AdoptComponentChase(int c, std::unique_ptr<ComponentChase> chase);

  /// The (cached) encoder of component `c`.
  Result<Encoder*> ComponentEncoder(int c);

  /// Builds a fresh encoder for exactly component `c` WITHOUT touching the
  /// lazy cache slot (the caller owns it).  Like BuildComponentChase this
  /// reads only post-Build read-only state, so concurrent calls are safe
  /// for any component mix; the epoch layer uses it to fill its own
  /// per-component slots.
  Result<std::unique_ptr<Encoder>> BuildComponentEncoder(int c) const {
    return BuildComponentEncoder(c, options_.solver);
  }

  /// Same, with solver knobs overriding the shared options — e.g. the
  /// diversified rivals a caller races through a sat::Portfolio.  The CNF
  /// a component encoder emits is a function of the read-only inputs
  /// only, so every such encoder carries exactly the same formula.
  Result<std::unique_ptr<Encoder>> BuildComponentEncoder(
      int c, const sat::Solver::Options& solver_options) const;

  /// A fresh encoder covering exactly the union of `components` (callers
  /// own it; it is not cached).  Used by CCQA's certain-membership loop,
  /// which mutates its encoder with blocking clauses.
  Result<std::unique_ptr<Encoder>> BuildMergedEncoder(
      const std::vector<int>& components) const;

  /// Pass-through to Decomposition::fingerprint.
  uint64_t component_fingerprint(int c) const {
    return decomposition_.fingerprint(c);
  }

  /// Moves component `c`'s built encoder out of the cache (nullptr when
  /// the component was never built); the slot reverts to lazy.  The
  /// serving layer harvests encoders this way before rebuilding over a
  /// mutated specification.
  std::unique_ptr<Encoder> TakeComponentEncoder(int c);

  /// Installs an encoder previously taken from a component with an equal
  /// fingerprint of a prior build over the same specification object and
  /// the same options.  The fingerprint check is the caller's
  /// responsibility — adopting a mismatched encoder silently corrupts
  /// answers.  Fails when the slot is already occupied.
  Status AdoptComponentEncoder(int c, std::unique_ptr<Encoder> encoder);

  /// Solves every component not listed in `skip`, smallest encoding
  /// first, short-circuiting on the first UNSAT component.  Returns true
  /// iff all solved components are satisfiable (each solved encoder then
  /// holds a model).  With chase routing on, chase-eligible components
  /// are decided first from their (cheap, cached) chase fixpoints and
  /// never reach SAT; a chase-inconsistent component short-circuits the
  /// whole call.
  ///
  /// When `pool` is given and has more than one thread, components are
  /// solved concurrently (one task per component, claimed smallest-first)
  /// with cooperative first-UNSAT cancellation.  The answer — and, on a
  /// satisfiable specification, every per-component witness model — is
  /// bit-identical to the sequential path for every thread count: each
  /// component's encoder sees exactly the same build and the same single
  /// Solve call either way.
  Result<bool> SolveAll(const std::vector<int>& skip = {},
                        exec::ThreadPool* pool = nullptr);

  /// Merges the per-component witness models into one completion.
  /// Requires an immediately preceding SolveAll() == true.
  Result<Completion> ExtractCompletion() const;

 private:
  DecomposedEncoder() = default;

  const Specification* spec_ = nullptr;
  Encoder::Options options_;
  Decomposition decomposition_;
  /// Copy-bucket index shared by every component build (built once).
  CopyBucketIndex copy_index_;
  /// Chase result shared by every component build when the options ask
  /// for chase seeding (the chase runs over the whole specification).
  std::optional<ChaseResult> chase_seed_;
  /// Per-component filters (stable storage for lazily built encoders).
  std::vector<EntityFilter> filters_;
  std::vector<std::unique_ptr<Encoder>> encoders_;
  bool use_chase_routing_ = false;
  /// Lazily computed per-component chase fixpoints (eligible components
  /// only; same slot confinement as encoders_).
  std::vector<std::unique_ptr<ComponentChase>> chases_;
};

}  // namespace currency::core

#endif  // CURRENCY_SRC_CORE_DECOMPOSE_H_
