#include "src/core/decompose.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <utility>

namespace currency::core {

namespace {

/// 64-bit FNV-1a-style accumulator for component fingerprints.  Not
/// cryptographic: the serving layer's cache reuse is correct modulo
/// 64-bit collisions, which is the usual content-hash trade-off.
struct Fingerprinter {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis

  void Mix(uint64_t x) {
    for (int k = 0; k < 8; ++k) {
      h ^= (x >> (8 * k)) & 0xff;
      h *= 1099511628211ull;  // FNV prime
    }
  }
  void MixValue(const Value& v) {
    // Value::Hash is consistent with operator== (Int/Double interleave),
    // matching the equality the encoder's cell dedup uses.
    Mix(static_cast<uint64_t>(v.Hash()));
  }
  void MixString(const std::string& s) {
    Mix(s.size());
    for (char ch : s) {
      h ^= static_cast<unsigned char>(ch);
      h *= 1099511628211ull;
    }
  }
};

/// Plain union-find over dense node ids.
class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int Find(int x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Unite(int a, int b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<int> parent_;
};

}  // namespace

Result<Decomposition> Decomposition::Build(const Specification& spec) {
  Decomposition d;
  d.num_instances_ = spec.num_instances();

  // Nodes: one per (instance, entity) group, densely numbered.
  std::vector<EntityNode> nodes;
  d.node_component_.resize(spec.num_instances());
  std::vector<std::map<Value, int>> node_id(spec.num_instances());
  for (int i = 0; i < spec.num_instances(); ++i) {
    for (const auto& [eid, members] : spec.instance(i).relation().EntityGroups()) {
      (void)members;
      node_id[i][eid] = static_cast<int>(nodes.size());
      nodes.push_back(EntityNode{i, eid});
    }
  }
  UnionFind uf(static_cast<int>(nodes.size()));
  // Nodes touched by a coupling (≥ 2-distinct-source) copy bucket; such a
  // node's attributes are value-correlated with its bucket peers, which
  // disqualifies it from chase-only fragment ENUMERATION (eligibility for
  // the chase decision procedures is unaffected).
  std::vector<char> coupled(nodes.size(), 0);

  // Copy edges: a ≺-compatibility clause arises between two mappings
  // (t1 ⇐ s1), (t2 ⇐ s2) exactly when t1, t2 share a target entity,
  // s1, s2 share a source entity, and s1 ≠ s2 (target tuples are always
  // distinct).  So a (target entity, source entity) bucket couples its
  // two groups iff it maps from at least two distinct source tuples.
  for (const CopyEdge& edge : spec.copy_edges()) {
    if (edge.source_instance < 0 ||
        edge.source_instance >= spec.num_instances() ||
        edge.target_instance < 0 ||
        edge.target_instance >= spec.num_instances()) {
      return Status::Internal("copy edge references an unknown instance");
    }
    const Relation& target = spec.instance(edge.target_instance).relation();
    const Relation& source = spec.instance(edge.source_instance).relation();
    std::map<std::pair<Value, Value>, std::set<TupleId>> bucket_sources;
    for (const auto& [t, s] : edge.fn.mapping()) {
      if (t < 0 || t >= target.size() || s < 0 || s >= source.size()) {
        return Status::Internal("copy mapping references an unknown tuple");
      }
      bucket_sources[{target.tuple(t).eid(), source.tuple(s).eid()}].insert(s);
    }
    for (const auto& [key, sources] : bucket_sources) {
      if (sources.size() < 2) continue;  // no clause between these groups
      int tn = node_id[edge.target_instance].at(key.first);
      int sn = node_id[edge.source_instance].at(key.second);
      uf.Unite(tn, sn);
      coupled[tn] = 1;
      coupled[sn] = 1;
    }
  }

  // Grounded denial constraints contribute no edges: in the implemented
  // constraint language every grounding instantiates all tuple variables
  // within one entity group (the EID-equality premises are implicit, and
  // DenialConstraint::EnumerateGroundingsForGroup enforces it
  // structurally — there is no API that could emit a cross-group
  // grounding).  A future multi-entity constraint extension must add its
  // coupling edges here, next to the copy edges above; until then,
  // scanning groundings would only duplicate the encoders' grounding
  // work to discover nothing.

  // Components, numbered in first-encounter order of their nodes (nodes
  // are ordered by instance, then entity value).
  std::map<int, int> root_component;
  for (size_t n = 0; n < nodes.size(); ++n) {
    int root = uf.Find(static_cast<int>(n));
    auto [it, inserted] =
        root_component.try_emplace(root, static_cast<int>(d.components_.size()));
    if (inserted) d.components_.emplace_back();
    d.components_[it->second].push_back(nodes[n]);
    d.node_component_[nodes[n].inst][nodes[n].eid] = it->second;
  }

  d.instance_components_.resize(spec.num_instances());
  for (int i = 0; i < spec.num_instances(); ++i) {
    std::set<int> comps;
    for (const auto& [eid, c] : d.node_component_[i]) {
      (void)eid;
      comps.insert(c);
    }
    d.instance_components_[i].assign(comps.begin(), comps.end());
  }

  // --- Component fingerprints -------------------------------------------
  // Contributions accumulate strictly in the deterministic iteration
  // orders below (nodes in first-encounter order, entity groups and
  // buckets in Value order, mappings in TupleId order), so a component
  // with identical content hashes identically across rebuilds over a
  // mutated specification.  Coverage: a per-component encoder build reads
  // (a) its member tuples, (b) the initial orders among them, (c) the
  // ≥2-distinct-source copy buckets — single-source buckets emit neither
  // ≺-compatibility clauses nor chase derivations, both of which need two
  // mappings with distinct sources — and (d) per member group, the texts
  // of exactly the denial constraints with at least one grounding on the
  // group (a grounding set is a function of the constraint text and the
  // member values, and the values are hashed under 0xA0; constraints that
  // ground to nothing contribute no clauses and no closure rules, so
  // adding or removing one must not — and does not — move any
  // fingerprint); chase seeding, when enabled, derives only from
  // (b) + (c) inside the component.  Options and schemas are
  // edit-invariant and deliberately not hashed.  The same grounding scan
  // decides chase-eligibility: a component none of whose groups is
  // touched by any grounding is effectively constraint-free.
  std::vector<Fingerprinter> fp(d.components_.size());
  std::vector<std::vector<std::string>> constraint_texts(spec.num_instances());
  for (int i = 0; i < spec.num_instances(); ++i) {
    for (const auto& dc : spec.constraints_for(i)) {
      constraint_texts[i].push_back(dc.ToString(spec.instance(i).schema()));
    }
  }
  d.chase_eligible_.assign(d.components_.size(), 1);
  for (size_t c = 0; c < d.components_.size(); ++c) {
    for (const EntityNode& node : d.components_[c]) {
      const Relation& rel = spec.instance(node.inst).relation();
      const std::vector<TupleId>& members = rel.EntityGroups().at(node.eid);
      fp[c].Mix(0xA0);  // domain separator: nodes + members
      fp[c].Mix(static_cast<uint64_t>(node.inst));
      fp[c].MixValue(node.eid);
      const auto& dcs = spec.constraints_for(node.inst);
      for (size_t k = 0; k < dcs.size(); ++k) {
        if (!dcs[k].HasGroundingForGroup(rel, members)) continue;
        d.chase_eligible_[c] = 0;
        fp[c].Mix(0xD0);  // domain separator: grounded constraints
        fp[c].MixString(constraint_texts[node.inst][k]);
      }
      for (TupleId t : members) {
        fp[c].Mix(static_cast<uint64_t>(t));
        for (const Value& v : rel.tuple(t).values()) fp[c].MixValue(v);
      }
    }
  }
  d.chase_enumerable_.assign(d.components_.size(), 0);
  for (size_t c = 0; c < d.components_.size(); ++c) {
    if (!d.chase_eligible_[c] || d.components_[c].size() != 1) continue;
    const EntityNode& node = d.components_[c][0];
    // A singleton component is bucket-free unless a self-copy bucket
    // (target and source the same group) couples its attributes.
    if (!coupled[node_id[node.inst].at(node.eid)]) {
      d.chase_enumerable_[c] = 1;
    }
  }
  for (int i = 0; i < spec.num_instances(); ++i) {
    const TemporalInstance& inst = spec.instance(i);
    for (AttrIndex a = 1; a < inst.schema().arity(); ++a) {
      for (auto [u, v] : inst.order(a).Pairs()) {
        // Both endpoints share an entity (the AddOrder invariant), so the
        // pair lands in exactly one component.
        int c = d.node_component_[i].at(inst.relation().tuple(u).eid());
        fp[c].Mix(0xB0);  // domain separator: initial orders
        fp[c].Mix(static_cast<uint64_t>(a));
        fp[c].Mix(static_cast<uint64_t>(u));
        fp[c].Mix(static_cast<uint64_t>(v));
      }
    }
  }
  for (size_t e = 0; e < spec.copy_edges().size(); ++e) {
    const CopyEdge& edge = spec.copy_edges()[e];
    const Relation& target = spec.instance(edge.target_instance).relation();
    const Relation& source = spec.instance(edge.source_instance).relation();
    std::map<std::pair<Value, Value>, std::vector<std::pair<TupleId, TupleId>>>
        bucket_mapped;
    std::map<std::pair<Value, Value>, std::set<TupleId>> bucket_srcs;
    for (const auto& [t, s] : edge.fn.mapping()) {
      auto key = std::make_pair(target.tuple(t).eid(), source.tuple(s).eid());
      bucket_mapped[key].emplace_back(t, s);
      bucket_srcs[key].insert(s);
    }
    for (const auto& [key, mapped] : bucket_mapped) {
      if (bucket_srcs.at(key).size() < 2) continue;  // inert bucket
      // A coupling bucket's target and source groups share a component.
      int c = d.node_component_[edge.target_instance].at(key.first);
      fp[c].Mix(0xC0);  // domain separator: coupling copy buckets
      fp[c].Mix(e);
      fp[c].MixValue(key.first);
      fp[c].MixValue(key.second);
      for (auto [t, s] : mapped) {
        fp[c].Mix(static_cast<uint64_t>(t));
        fp[c].Mix(static_cast<uint64_t>(s));
      }
    }
  }
  d.fingerprints_.resize(d.components_.size());
  for (size_t c = 0; c < d.components_.size(); ++c) {
    d.fingerprints_[c] = fp[c].h;
  }
  return d;
}

int Decomposition::ComponentOf(int inst, const Value& eid) const {
  if (inst < 0 || inst >= num_instances_) return -1;
  auto it = node_component_[inst].find(eid);
  return it == node_component_[inst].end() ? -1 : it->second;
}

std::vector<int> Decomposition::ComponentsOfInstances(
    const std::vector<int>& instances) const {
  std::set<int> comps;
  for (int i : instances) {
    comps.insert(instance_components_[i].begin(),
                 instance_components_[i].end());
  }
  return std::vector<int>(comps.begin(), comps.end());
}

EntityFilter Decomposition::FilterFor(
    const std::vector<int>& components) const {
  EntityFilter filter;
  filter.allowed.resize(num_instances_);
  for (int c : components) {
    for (const EntityNode& node : components_[c]) {
      filter.allowed[node.inst].insert(node.eid);
    }
  }
  return filter;
}

Result<std::unique_ptr<DecomposedEncoder>> DecomposedEncoder::Build(
    const Specification& spec, const Encoder::Options& options,
    bool use_chase_routing) {
  std::unique_ptr<DecomposedEncoder> de(new DecomposedEncoder());
  de->spec_ = &spec;
  de->options_ = options;
  de->use_chase_routing_ = use_chase_routing;
  de->options_.restrict_to = nullptr;  // set per component below
  de->options_.copy_index = nullptr;   // points into copy_index_ per build
  de->options_.chase_seed = nullptr;   // points into chase_seed_ per build
  // Decomposition::Build touches every instance's EntityGroups(), which
  // warms the Relation-level lazy cache before any parallel work begins;
  // from here on the specification, the decomposition, the copy index and
  // the chase seed are read-only shared state (see the header's thread-
  // confinement contract).
  ASSIGN_OR_RETURN(de->decomposition_, Decomposition::Build(spec));
  de->copy_index_ = CopyBucketIndex::Build(spec);
  if (options.seed_with_chase) {
    // The chase runs over the whole specification; compute it once here
    // instead of once per component encoder, sharing the bucket index
    // just built rather than bucketing the copy mappings again.
    ASSIGN_OR_RETURN(de->chase_seed_,
                     CertainOrderPrefix(spec, &de->copy_index_));
  }
  int n = de->decomposition_.num_components();
  de->filters_.reserve(n);
  for (int c = 0; c < n; ++c) {
    de->filters_.push_back(de->decomposition_.FilterFor({c}));
  }
  de->encoders_.resize(n);
  de->chases_.resize(n);
  return de;
}

Result<const ComponentChase*> DecomposedEncoder::ComponentChaseFixpoint(
    int c) {
  if (c < 0 || c >= num_components()) {
    return Status::InvalidArgument("component index out of range");
  }
  if (!decomposition_.chase_eligible(c)) {
    return Status::InvalidArgument(
        "component " + std::to_string(c) + " is not chase-eligible");
  }
  if (chases_[c] == nullptr) {
    ASSIGN_OR_RETURN(ComponentChase chase, BuildComponentChase(c));
    chases_[c] = std::make_unique<ComponentChase>(std::move(chase));
  }
  return chases_[c].get();
}

Result<ComponentChase> DecomposedEncoder::BuildComponentChase(int c) const {
  if (c < 0 || c >= num_components()) {
    return Status::InvalidArgument("component index out of range");
  }
  if (!decomposition_.chase_eligible(c)) {
    return Status::InvalidArgument(
        "component " + std::to_string(c) + " is not chase-eligible");
  }
  std::vector<std::pair<int, Value>> nodes;
  for (const EntityNode& node : decomposition_.component(c)) {
    nodes.emplace_back(node.inst, node.eid);
  }
  return ChaseComponentOrders(*spec_, nodes, &copy_index_);
}

std::unique_ptr<ComponentChase> DecomposedEncoder::TakeComponentChase(int c) {
  if (c < 0 || c >= num_components()) return nullptr;
  return std::move(chases_[c]);
}

Status DecomposedEncoder::AdoptComponentChase(
    int c, std::unique_ptr<ComponentChase> chase) {
  if (c < 0 || c >= num_components()) {
    return Status::InvalidArgument("component index out of range");
  }
  if (!decomposition_.chase_eligible(c)) {
    return Status::InvalidArgument(
        "component " + std::to_string(c) + " is not chase-eligible");
  }
  if (chases_[c] != nullptr) {
    return Status::FailedPrecondition(
        "component " + std::to_string(c) + " already has a chase fixpoint");
  }
  chases_[c] = std::move(chase);
  return Status::OK();
}

Result<Encoder*> DecomposedEncoder::ComponentEncoder(int c) {
  if (c < 0 || c >= num_components()) {
    return Status::InvalidArgument("component index out of range");
  }
  if (encoders_[c] == nullptr) {
    ASSIGN_OR_RETURN(encoders_[c], BuildComponentEncoder(c));
  }
  return encoders_[c].get();
}

Result<std::unique_ptr<Encoder>> DecomposedEncoder::BuildComponentEncoder(
    int c, const sat::Solver::Options& solver_options) const {
  if (c < 0 || c >= num_components()) {
    return Status::InvalidArgument("component index out of range");
  }
  Encoder::Options options = options_;
  options.restrict_to = &filters_[c];
  options.copy_index = &copy_index_;
  options.solver = solver_options;
  if (chase_seed_.has_value()) options.chase_seed = &*chase_seed_;
  return Encoder::Build(*spec_, options);
}

std::unique_ptr<Encoder> DecomposedEncoder::TakeComponentEncoder(int c) {
  if (c < 0 || c >= num_components()) return nullptr;
  return std::move(encoders_[c]);
}

Status DecomposedEncoder::AdoptComponentEncoder(
    int c, std::unique_ptr<Encoder> encoder) {
  if (c < 0 || c >= num_components()) {
    return Status::InvalidArgument("component index out of range");
  }
  if (encoders_[c] != nullptr) {
    return Status::FailedPrecondition(
        "component " + std::to_string(c) + " already has an encoder");
  }
  encoders_[c] = std::move(encoder);
  return Status::OK();
}

Result<std::unique_ptr<Encoder>> DecomposedEncoder::BuildMergedEncoder(
    const std::vector<int>& components) const {
  for (int c : components) {
    if (c < 0 || c >= num_components()) {
      return Status::InvalidArgument("component index out of range");
    }
  }
  EntityFilter filter = decomposition_.FilterFor(components);
  Encoder::Options options = options_;
  options.restrict_to = &filter;
  options.copy_index = &copy_index_;
  if (chase_seed_.has_value()) options.chase_seed = &*chase_seed_;
  return Encoder::Build(*spec_, options);
}

Result<bool> DecomposedEncoder::SolveAll(const std::vector<int>& skip,
                                         exec::ThreadPool* pool) {
  // Smallest encoding first: an UNSAT answer then costs as little as the
  // cheapest refuting component allows.  The weight estimates the number
  // of order variables (Σ m² per node, scaled by data attributes).
  std::vector<char> skipped(num_components(), 0);
  for (int c : skip) {
    if (c >= 0 && c < num_components()) skipped[c] = 1;
  }
  // Chase-routed components first: each is a cheap (cached) polynomial
  // fixpoint, so deciding them before any SAT work makes an UNSAT verdict
  // from a constraint-free component nearly free and keeps their encoders
  // unbuilt on the happy path.
  if (use_chase_routing_) {
    for (int c = 0; c < num_components(); ++c) {
      if (skipped[c] || !decomposition_.chase_eligible(c)) continue;
      ASSIGN_OR_RETURN(const ComponentChase* chase, ComponentChaseFixpoint(c));
      if (!chase->consistent) return false;
    }
  }
  std::vector<std::pair<int64_t, int>> order;
  order.reserve(num_components());
  for (int c = 0; c < num_components(); ++c) {
    if (skipped[c]) continue;
    if (use_chase_routing_ && decomposition_.chase_eligible(c)) continue;
    int64_t weight = 0;
    for (const EntityNode& node : decomposition_.component(c)) {
      const TemporalInstance& inst = spec_->instance(node.inst);
      auto m = static_cast<int64_t>(
          inst.relation().EntityGroups().at(node.eid).size());
      weight += m * m * inst.schema().num_data_attributes();
    }
    order.emplace_back(weight, c);
  }
  std::sort(order.begin(), order.end());
  // One task per component, claimed smallest-first, with cooperative
  // first-UNSAT cancellation.  Each task builds and solves only its own
  // component encoder (thread confinement; see the header), so every
  // component's model is the same one the sequential path would compute.
  // Cancellation only skips components whose results no caller observes:
  // the answer is already false, and ExtractCompletion is reachable only
  // off a satisfiable (uncancelled, fully solved) run.  Without threads
  // ParallelFor degenerates to the plain smallest-first loop with its
  // first-UNSAT early exit — one implementation covers both modes.
  exec::ThreadPool sequential(1);
  if (pool == nullptr) pool = &sequential;
  std::vector<char> unsat(order.size(), 0);
  exec::CancellationToken cancel;
  RETURN_IF_ERROR(pool->ParallelFor(
      static_cast<int>(order.size()),
      [&](int k) -> Status {
        ASSIGN_OR_RETURN(Encoder * encoder, ComponentEncoder(order[k].second));
        if (encoder->solver().Solve() == sat::SolveResult::kUnsat) {
          unsat[k] = 1;
          cancel.Cancel();
        }
        return Status::OK();
      },
      &cancel));
  for (char u : unsat) {
    if (u) return false;
  }
  return true;
}

Result<Completion> DecomposedEncoder::ExtractCompletion() const {
  Completion merged;
  merged.orders.resize(spec_->num_instances());
  for (int i = 0; i < spec_->num_instances(); ++i) {
    const TemporalInstance& inst = spec_->instance(i);
    merged.orders[i].assign(inst.schema().arity(),
                            PartialOrder(inst.relation().size()));
  }
  for (int c = 0; c < num_components(); ++c) {
    if (encoders_[c] == nullptr) {
      return Status::FailedPrecondition(
          "ExtractCompletion requires a preceding satisfiable SolveAll()");
    }
    Completion part = encoders_[c]->ExtractCompletion();
    for (int i = 0; i < spec_->num_instances(); ++i) {
      for (size_t a = 1; a < part.orders[i].size(); ++a) {
        for (auto [u, v] : part.orders[i][a].Pairs()) {
          merged.orders[i][a].TryAdd(u, v);
        }
      }
    }
  }
  return merged;
}

}  // namespace currency::core
