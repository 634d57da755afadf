#include "src/serve/session.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <utility>

#include "src/core/chase.h"
#include "src/core/deterministic.h"
#include "src/query/classify.h"
#include "src/sat/solver.h"
#include "src/wire/spec.h"

namespace currency::serve {

using core::DecomposedEncoder;
using core::Encoder;

namespace {

/// Shared batch-routing scaffold for CopBatch and DcipBatch: runs `probe`
/// once per coupling component over that component's request list (in
/// parallel on the session pool), then flips the answer of every item a
/// probe reported — "hit" means refuted for COP, non-deterministic for
/// DCIP.  The probe receives the component id so it can choose the chase
/// fixpoint or the SAT encoder per component.  Per-task hit slots keep
/// the aggregation race-free, and each component's request list is
/// processed in batch order by exactly one task, so every solver's call
/// sequence is reproducible for every thread count.
template <typename Request, typename Probe>
Status FlipItemsPerComponent(
    exec::ThreadPool* pool,
    const std::map<int, std::vector<Request>>& by_component,
    const Probe& probe, std::vector<bool>* out) {
  std::vector<std::pair<int, const std::vector<Request>*>> groups;
  groups.reserve(by_component.size());
  for (const auto& [c, requests] : by_component) {
    groups.emplace_back(c, &requests);
  }
  std::vector<std::vector<int>> hits(groups.size());
  RETURN_IF_ERROR(pool->ParallelFor(
      static_cast<int>(groups.size()), [&](int k) -> Status {
        return probe(groups[k].first, *groups[k].second, &hits[k]);
      }));
  for (const std::vector<int>& items : hits) {
    for (int item : items) (*out)[item] = false;
  }
  return Status::OK();
}

}  // namespace

CurrencySession::CurrencySession(const SessionOptions& options)
    : options_(options), enc_(options.encoder) {
  // One cached encoding serves all four problems: CPS and COP ignore the
  // is-last selectors, DCIP and CCQA need them.
  enc_.define_is_last = true;
  // Session-managed knobs (DecomposedEncoder::Build sets these itself).
  enc_.restrict_to = nullptr;
  enc_.copy_index = nullptr;
  enc_.chase_seed = nullptr;
  pool_ = exec::ResolvePool(options_.pool, options_.num_threads, own_pool_);
  if (options_.registry != nullptr) {
    registry_ = options_.registry;
  } else {
    own_registry_ = std::make_unique<obs::Registry>();
    registry_ = own_registry_.get();
  }
  clock_ = obs::ResolveClock(options_.clock);
  counters_.Bind(registry_, options_.instance_label);
  obs::Labels tenant;
  if (!options_.instance_label.empty()) {
    tenant.push_back({"tenant", options_.instance_label});
  }
  auto procedure = [&](const char* name) {
    obs::Labels labels = tenant;
    labels.push_back({"procedure", name});
    ProcedureInstruments p;
    p.batches = registry_->GetCounter("currency_serve_batches_total", labels);
    p.latency =
        registry_->GetHistogram("currency_serve_batch_latency_ns", labels);
    return p;
  };
  cps_ = procedure("cps");
  cop_ = procedure("cop");
  dcip_ = procedure("dcip");
  ccqa_ = procedure("ccqa");
  mutate_ = procedure("mutate");
  stage_counters_ = {counters_.sat_propagations, counters_.sat_conflicts,
                     counters_.chase_passes};
}

Result<std::unique_ptr<CurrencySession>> CurrencySession::Create(
    core::Specification spec, const SessionOptions& options) {
  if (options.num_threads < 1 && options.pool == nullptr) {
    return Status::InvalidArgument("SessionOptions.num_threads must be >= 1");
  }
  if (options.max_current_instances <= 0) {
    return Status::InvalidArgument(
        "SessionOptions.max_current_instances must be >= 1");
  }
  std::unique_ptr<CurrencySession> session(new CurrencySession(options));
  ASSIGN_OR_RETURN(
      session->current_,
      Epoch::Build(std::move(spec), session->enc_, options.use_chase_routing,
                   /*version=*/0, &session->counters_));
  session->counters_.epoch_publishes->Increment();  // the seed epoch
  return session;
}

std::shared_ptr<Epoch> CurrencySession::Pin() const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return current_;
}

const core::Specification& CurrencySession::spec() const {
  return Pin()->spec();
}

SessionStats CurrencySession::stats() const {
  // A thin view: every field is a registry instrument's current value.
  SessionStats s;
  s.mutations = counters_.mutations->Value();
  s.base_solves = counters_.base_solves->Value();
  s.merged_builds = counters_.merged_builds->Value();
  s.chase_solves = counters_.chase_solves->Value();
  s.last_reused = counters_.last_reused->Value();
  s.last_invalidated = counters_.last_invalidated->Value();
  s.last_chase_reused = counters_.last_chase_reused->Value();
  s.last_chase_rechased = counters_.last_chase_rechased->Value();
  return s;
}

int CurrencySession::num_components() const {
  return Pin()->num_components();
}

int64_t CurrencySession::epoch_version() const { return Pin()->version(); }

Result<bool> CurrencySession::CpsCheck() {
  obs::TraceSpan span(options_.tracer, options_.instance_label, "cps");
  obs::ScopedTimer timer(cps_.latency, clock_);
  cps_.batches->Increment();
  std::shared_ptr<Epoch> epoch;
  {
    obs::TraceSpan::Stage stage("epoch_pin");
    epoch = Pin();
  }
  obs::TraceSpan::Stage stage("solve", stage_counters_);
  return epoch->EnsureAllSolved(pool_);
}

Result<std::vector<bool>> CurrencySession::CopBatch(
    const std::vector<core::CurrencyOrderQuery>& queries) {
  obs::TraceSpan span(options_.tracer, options_.instance_label, "cop");
  obs::ScopedTimer timer(cop_.latency, clock_);
  cop_.batches->Increment();
  std::shared_ptr<Epoch> epoch;
  {
    obs::TraceSpan::Stage stage("epoch_pin");
    epoch = Pin();
  }
  const core::Specification& spec = epoch->spec();
  // Validate the whole batch up front, mirroring the one-shot API's
  // InvalidArgument behaviour (a malformed item fails the batch before
  // any solving).
  std::vector<int> inst_of(queries.size(), -1);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSIGN_OR_RETURN(inst_of[i], spec.InstanceIndex(queries[i].relation));
    const core::TemporalInstance& instance = spec.instance(inst_of[i]);
    const Relation& rel = instance.relation();
    for (const core::RequiredPair& p : queries[i].pairs) {
      if (p.attr < 1 || p.attr >= instance.schema().arity()) {
        return Status::InvalidArgument(
            "required pair attribute out of range");
      }
      if (p.before < 0 || p.before >= rel.size() || p.after < 0 ||
          p.after >= rel.size()) {
        return Status::InvalidArgument("required pair tuple out of range");
      }
    }
  }
  bool consistent = false;
  {
    obs::TraceSpan::Stage stage("base_solve", stage_counters_);
    ASSIGN_OR_RETURN(consistent, epoch->EnsureAllSolved(pool_));
  }
  std::vector<bool> out(queries.size(), true);
  if (!consistent) return out;  // Mod(S) = ∅: every order vacuously certain

  // Structural refutations need no solver: a reflexive pair
  // (irreflexivity) or a cross-entity pair (no order variable relates
  // tuples of distinct entities) can hold in no completion.
  for (size_t i = 0; i < queries.size(); ++i) {
    const Relation& rel = spec.instance(inst_of[i]).relation();
    for (const core::RequiredPair& p : queries[i].pairs) {
      if (p.before == p.after ||
          !(rel.tuple(p.before).eid() == rel.tuple(p.after).eid())) {
        out[i] = false;
        break;
      }
    }
  }

  // Route the remaining pairs to the component owning their entity.
  // Within a component, probes keep batch order (the solver call sequence
  // — hence its learnt-clause state — is reproducible for every thread
  // count); distinct components probe in parallel on the session pool.
  struct Probe {
    int item;
    const core::RequiredPair* pair;
  };
  std::map<int, std::vector<Probe>> by_component;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!out[i]) continue;  // answer already settled structurally
    const Relation& rel = spec.instance(inst_of[i]).relation();
    for (const core::RequiredPair& p : queries[i].pairs) {
      int c = epoch->decomposed().decomposition().ComponentOf(
          inst_of[i], rel.tuple(p.before).eid());
      by_component[c].push_back(Probe{static_cast<int>(i), &p});
    }
  }
  // A query refuted by this component's own earlier probes is skipped
  // (deterministic), while refutations found concurrently by other
  // components are deliberately not consulted — cross-task peeking would
  // make each solver's call sequence depend on timing.
  obs::TraceSpan::Stage stage("solve", stage_counters_);
  RETURN_IF_ERROR(FlipItemsPerComponent(
      pool_, by_component,
      [&](int c, const std::vector<Probe>& probes,
          std::vector<int>* refuted) -> Status {
        if (epoch->decomposed().chase_routed(c)) {
          // Lemma 6.2 on S|_c: the pair is certain iff it is in the
          // component's PO∞ (the fixpoint is cached — EnsureAllSolved
          // computed or adopted it).  No solver state, so no need to
          // dedupe repeated items — and no lock: the fixpoint is
          // read-only once published.
          ASSIGN_OR_RETURN(const core::ComponentChase* chase,
                           epoch->ChaseFixpoint(c));
          for (const Probe& probe : probes) {
            const Relation& rel = spec.instance(inst_of[probe.item]).relation();
            if (!chase->CertainLess(inst_of[probe.item],
                                    rel.tuple(probe.pair->before).eid(),
                                    probe.pair->attr, probe.pair->before,
                                    probe.pair->after)) {
              refuted->push_back(probe.item);
            }
          }
          return Status::OK();
        }
        // Exclusive solver access for the whole probe sequence: a
        // concurrent batch probing the same component waits, keeping both
        // call sequences contiguous (answers are order-independent either
        // way; see the determinism contract).
        return epoch->WithComponentEncoder(c, [&](Encoder* encoder) -> Status {
          std::set<int> local_refuted;
          for (const Probe& probe : probes) {
            if (local_refuted.count(probe.item)) continue;
            sat::Lit lit =
                encoder->OrdLit(inst_of[probe.item], probe.pair->attr,
                                probe.pair->before, probe.pair->after);
            if (encoder->solver().SolveWithAssumptions({sat::Negate(lit)}) ==
                sat::SolveResult::kSat) {
              // A completion orders them the other way.
              local_refuted.insert(probe.item);
              refuted->push_back(probe.item);
            }
          }
          return Status::OK();
        });
      },
      &out));
  return out;
}

Result<std::vector<bool>> CurrencySession::DcipBatch(
    const std::vector<std::string>& relations) {
  obs::TraceSpan span(options_.tracer, options_.instance_label, "dcip");
  obs::ScopedTimer timer(dcip_.latency, clock_);
  dcip_.batches->Increment();
  std::shared_ptr<Epoch> epoch;
  {
    obs::TraceSpan::Stage stage("epoch_pin");
    epoch = Pin();
  }
  const core::Specification& spec = epoch->spec();
  std::vector<int> inst_of(relations.size(), -1);
  for (size_t i = 0; i < relations.size(); ++i) {
    ASSIGN_OR_RETURN(inst_of[i], spec.InstanceIndex(relations[i]));
  }
  bool consistent = false;
  {
    obs::TraceSpan::Stage stage("base_solve", stage_counters_);
    ASSIGN_OR_RETURN(consistent, epoch->EnsureAllSolved(pool_));
  }
  std::vector<bool> out(relations.size(), true);
  if (!consistent) return out;  // vacuous

  // Route each item to the components of its instance; a component probes
  // its requests in batch order, components in parallel.
  struct Request {
    int item;
    int inst;
  };
  std::map<int, std::vector<Request>> by_component;
  for (size_t i = 0; i < relations.size(); ++i) {
    for (int c :
         epoch->decomposed().decomposition().ComponentsOfInstance(inst_of[i])) {
      by_component[c].push_back(Request{static_cast<int>(i), inst_of[i]});
    }
  }
  obs::TraceSpan::Stage stage("solve", stage_counters_);
  RETURN_IF_ERROR(FlipItemsPerComponent(
      pool_, by_component,
      [&](int c, const std::vector<Request>& requests,
          std::vector<int>* nondeterministic) -> Status {
        if (epoch->decomposed().chase_routed(c)) {
          // Theorem 6.1(3) on S|_c: deterministic iff the certain sinks
          // of every group/attribute agree on the value.  Pure reads on
          // the cached fixpoint — no model to re-establish.
          ASSIGN_OR_RETURN(const core::ComponentChase* chase,
                           epoch->ChaseFixpoint(c));
          for (const Request& req : requests) {
            if (!core::internal::DeterministicViaComponentChase(spec, *chase,
                                                                req.inst)) {
              nondeterministic->push_back(req.item);
            }
          }
          return Status::OK();
        }
        return epoch->WithComponentEncoder(c, [&](Encoder* encoder) -> Status {
          for (const Request& req : requests) {
            // Re-establish a model: earlier COP probes, earlier requests
            // in this loop, or a concurrent batch staled it.  The
            // component is known satisfiable (EnsureAllSolved), so kUnsat
            // is a bug.
            if (encoder->solver().Solve() != sat::SolveResult::kSat) {
              return Status::Internal(
                  "cached-SAT component re-solved unsatisfiable");
            }
            ASSIGN_OR_RETURN(bool deterministic,
                             core::internal::DeterministicProbe(
                                 spec, encoder, req.inst));
            if (!deterministic) nondeterministic->push_back(req.item);
          }
          return Status::OK();
        });
      },
      &out));
  return out;
}

Result<std::vector<CcqaResponse>> CurrencySession::CcqaBatch(
    const std::vector<CcqaRequest>& requests) {
  obs::TraceSpan span(options_.tracer, options_.instance_label, "ccqa");
  obs::ScopedTimer timer(ccqa_.latency, clock_);
  ccqa_.batches->Increment();
  std::shared_ptr<Epoch> epoch;
  {
    obs::TraceSpan::Stage stage("epoch_pin");
    epoch = Pin();
  }
  const core::Specification& spec = epoch->spec();
  std::vector<std::vector<int>> instances(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSIGN_OR_RETURN(instances[i],
                     core::internal::QueryInstances(spec, requests[i].query));
    if (requests[i].candidate.has_value() &&
        static_cast<size_t>(requests[i].candidate->arity()) !=
            requests[i].query.head.size()) {
      return Status::InvalidArgument(
          "candidate tuple arity does not match query head");
    }
  }
  bool consistent = false;
  {
    obs::TraceSpan::Stage stage("base_solve", stage_counters_);
    ASSIGN_OR_RETURN(consistent, epoch->EnsureAllSolved(pool_));
  }
  std::vector<CcqaResponse> out(requests.size());
  if (!consistent) {
    // Mod(S) = ∅: membership is vacuously true; the answer set is not a
    // finite object (the one-shot API reports Status::Inconsistent).
    for (size_t i = 0; i < requests.size(); ++i) {
      out[i].vacuous = true;
      if (requests[i].candidate.has_value()) out[i].is_certain = true;
    }
    return out;
  }
  core::CcqaOptions ccqa;
  ccqa.max_current_instances = options_.max_current_instances;
  // SP routing: a request answers from component chase fixpoints when its
  // query is SP over one relation and every component that relation
  // touches is chase-eligible.  Decide that per request up front and warm
  // the needed fixpoints (write-once publication makes the warm-up safe
  // against concurrent batches; the parallel tasks below then only read).
  std::vector<char> sp_route(requests.size(), 0);
  if (epoch->decomposed().chase_routing()) {
    for (size_t i = 0; i < requests.size(); ++i) {
      const query::Query& q = requests[i].query;
      if (!query::IsSpQuery(q) || q.body->Relations().size() != 1) continue;
      std::vector<int> relevant =
          epoch->decomposed().decomposition().ComponentsOfInstances(
              instances[i]);
      bool eligible = true;
      for (int c : relevant) {
        if (!epoch->decomposed().decomposition().chase_eligible(c)) {
          eligible = false;
          break;
        }
      }
      if (!eligible) continue;
      sp_route[i] = 1;
      for (int c : relevant) {
        RETURN_IF_ERROR(epoch->ChaseFixpoint(c).status());
      }
    }
  }
  // Each request works entirely on fresh merged encoders (the blocking
  // loops add permanent clauses, so cached component encoders are off
  // limits), which makes requests independent: they run in parallel on
  // the session pool and fill only their own response slot.  SP-routed
  // requests instead assemble their instance's PO∞ from the warmed
  // fixpoints — read-only, so they parallelize the same way.
  obs::TraceSpan::Stage stage("solve", stage_counters_);
  std::atomic<int64_t> merged{0};
  RETURN_IF_ERROR(pool_->ParallelFor(
      static_cast<int>(requests.size()), [&](int i) -> Status {
        std::vector<int> relevant =
            epoch->decomposed().decomposition().ComponentsOfInstances(
                instances[i]);
        if (sp_route[i]) {
          ASSIGN_OR_RETURN(
              std::set<Tuple> answers,
              core::internal::SpAnswersViaComponentChases(
                  [&](int c) { return epoch->ChaseFixpoint(c); }, spec,
                  requests[i].query, relevant));
          if (requests[i].candidate.has_value()) {
            out[i].is_certain = answers.count(*requests[i].candidate) > 0;
          } else {
            out[i].answers = std::move(answers);
          }
          return Status::OK();
        }
        auto make_encoder = [&]() -> Result<std::unique_ptr<Encoder>> {
          merged.fetch_add(1, std::memory_order_relaxed);
          return epoch->BuildMergedEncoder(relevant);
        };
        if (requests[i].candidate.has_value()) {
          ASSIGN_OR_RETURN(auto encoder, make_encoder());
          ASSIGN_OR_RETURN(
              bool certain,
              core::internal::CheckCertainMemberWith(
                  encoder.get(), spec, requests[i].query,
                  *requests[i].candidate, instances[i], ccqa));
          out[i].is_certain = certain;
          return Status::OK();
        }
        ASSIGN_OR_RETURN(auto seed, make_encoder());
        ASSIGN_OR_RETURN(
            std::set<Tuple> answers,
            core::internal::CertainAnswersVia(seed.get(), make_encoder, spec,
                                              requests[i].query, instances[i],
                                              ccqa));
        out[i].answers = std::move(answers);
        return Status::OK();
      }));
  counters_.merged_builds->Increment(merged.load(std::memory_order_relaxed));
  return out;
}

void CurrencySession::ExportWarmState(
    std::string* spec_wire,
    std::vector<std::pair<uint64_t, bool>>* verdicts) const {
  // One pin covers both reads: the spec bytes and the verdicts describe
  // the same epoch even if a Mutate publishes a successor mid-call.
  std::shared_ptr<Epoch> epoch = Pin();
  *spec_wire = wire::SerializeSpecification(epoch->spec());
  const int n = epoch->num_components();
  for (int c = 0; c < n; ++c) {
    const int sat = epoch->CachedSat(c);
    if (sat < 0) continue;  // not yet solved — nothing worth persisting
    verdicts->emplace_back(epoch->decomposed().component_fingerprint(c),
                           sat == 1);
  }
}

int CurrencySession::AdoptSolvedVerdicts(
    const std::vector<std::pair<uint64_t, bool>>& verdicts) {
  std::shared_ptr<Epoch> epoch = Pin();
  std::map<uint64_t, bool> by_fingerprint(verdicts.begin(), verdicts.end());
  const int n = epoch->num_components();
  int adopted = 0;
  for (int c = 0; c < n; ++c) {
    auto it =
        by_fingerprint.find(epoch->decomposed().component_fingerprint(c));
    if (it == by_fingerprint.end()) continue;
    epoch->AdoptSat(c, it->second);
    ++adopted;
  }
  return adopted;
}

Status CurrencySession::Mutate(const std::vector<core::TupleEdit>& edits) {
  obs::TraceSpan span(options_.tracer, options_.instance_label, "mutate");
  obs::ScopedTimer timer(mutate_.latency, clock_);
  mutate_.batches->Increment();
  // One successor epoch is built at a time; concurrent Mutate callers
  // queue here while batches keep running on the published epoch.
  std::lock_guard<std::mutex> writer(writer_mu_);
  std::shared_ptr<Epoch> old = Pin();
  // Copy-then-edit keeps the published epoch bit-frozen: a rejected batch
  // discards the copy and changes nothing, preserving the atomicity
  // contract of the in-place path.
  core::Specification next = old->spec();
  RETURN_IF_ERROR(next.ApplyTupleEdits(edits));
  counters_.mutations->Increment();
  obs::TraceSpan::Stage stage("epoch_build");
  // Harvest the outgoing epoch into a fingerprint-keyed cache, then adopt
  // every component of the successor whose content fingerprint is
  // unchanged: its encoder (clauses, learnt clauses, variable layout),
  // chase fixpoint, and base-solve result are still exactly what a fresh
  // build would produce and solve.  The fingerprint covers member tuples,
  // coupling copy buckets, AND the texts of the denial constraints with
  // at least one grounding on the component, so a fingerprint match also
  // preserves chase eligibility.
  std::map<uint64_t, Epoch::Harvested> cache = old->Harvest();
  ASSIGN_OR_RETURN(std::shared_ptr<Epoch> epoch,
                   Epoch::Build(std::move(next), enc_,
                                options_.use_chase_routing,
                                old->version() + 1, &counters_));
  int n = epoch->num_components();
  int64_t reused = 0;
  int64_t chase_reused = 0;
  int64_t eligible = 0;
  for (int c = 0; c < n; ++c) {
    if (epoch->decomposed().decomposition().chase_eligible(c)) ++eligible;
    auto it = cache.find(epoch->decomposed().component_fingerprint(c));
    if (it == cache.end()) continue;
    if (it->second.encoder != nullptr) {
      epoch->AdoptEncoder(c, std::move(it->second.encoder));
    }
    if (it->second.chase != nullptr &&
        epoch->decomposed().decomposition().chase_eligible(c)) {
      epoch->AdoptChase(c, std::move(it->second.chase));
      ++chase_reused;
    }
    if (it->second.sat.has_value()) epoch->AdoptSat(c, *it->second.sat);
    ++reused;
    cache.erase(it);
  }
  counters_.last_reused->Set(reused);
  counters_.last_invalidated->Set(n - reused);
  counters_.last_chase_reused->Set(chase_reused);
  counters_.last_chase_rechased->Set(
      epoch->decomposed().chase_routing() ? eligible - chase_reused : 0);
  counters_.epoch_version->Set(epoch->version());
  counters_.epoch_publishes->Increment();
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    current_ = std::move(epoch);
  }
  return Status::OK();
}

}  // namespace currency::serve
