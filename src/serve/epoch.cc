#include "src/serve/epoch.h"

#include <utility>

#include "src/sat/solver.h"

namespace currency::serve {

using core::DecomposedEncoder;
using core::Encoder;

void SessionCounters::Bind(obs::Registry* registry,
                           const std::string& tenant) {
  obs::Labels t;
  if (!tenant.empty()) t.push_back({"tenant", tenant});
  auto with = [&](const char* key, const char* value) {
    obs::Labels labels = t;
    labels.push_back({key, value});
    return labels;
  };
  mutations = registry->GetCounter("currency_serve_mutations_total", t);
  base_solves = registry->GetCounter(
      "currency_serve_component_base_solves_total", with("routing", "sat"));
  chase_solves = registry->GetCounter(
      "currency_serve_component_base_solves_total", with("routing", "chase"));
  merged_builds =
      registry->GetCounter("currency_serve_merged_encoder_builds_total", t);
  cache_hits =
      registry->GetCounter("currency_serve_component_cache_hits_total", t);
  epoch_publishes =
      registry->GetCounter("currency_serve_epoch_publishes_total", t);
  chase_sat_fallbacks =
      registry->GetCounter("currency_chase_sat_fallbacks_total", t);
  sat_propagations = registry->GetCounter("currency_sat_propagations_total", t);
  sat_conflicts = registry->GetCounter("currency_sat_conflicts_total", t);
  sat_gc_runs = registry->GetCounter("currency_sat_gc_runs_total", t);
  sat_minimized_literals =
      registry->GetCounter("currency_sat_minimized_literals_total", t);
  sat_demotions = registry->GetCounter("currency_sat_demotions_total", t);
  sat_arena_bytes = registry->GetGauge("currency_sat_arena_bytes", t);
  sat_tier_core =
      registry->GetGauge("currency_sat_tier_clauses", with("tier", "core"));
  sat_tier_mid =
      registry->GetGauge("currency_sat_tier_clauses", with("tier", "mid"));
  sat_tier_local =
      registry->GetGauge("currency_sat_tier_clauses", with("tier", "local"));
  chase_passes = registry->GetCounter("currency_chase_passes_total", t);
  chase_edges_expanded =
      registry->GetCounter("currency_chase_edges_expanded_total", t);
  last_reused =
      registry->GetGauge("currency_serve_components_last_reused", t);
  last_invalidated =
      registry->GetGauge("currency_serve_components_last_invalidated", t);
  last_chase_reused =
      registry->GetGauge("currency_serve_chase_components_last_reused", t);
  last_chase_rechased =
      registry->GetGauge("currency_serve_chase_components_last_rechased", t);
  epoch_version = registry->GetGauge("currency_serve_epoch_version", t);
}

Result<std::shared_ptr<Epoch>> Epoch::Build(core::Specification spec,
                                            const core::Encoder::Options& enc,
                                            bool use_chase_routing,
                                            int64_t version,
                                            SessionCounters* counters) {
  std::shared_ptr<Epoch> epoch(
      new Epoch(std::move(spec), version, counters));
  // The DecomposedEncoder retains a pointer to the specification, so it is
  // built only after the spec has settled at its final (heap) address.
  ASSIGN_OR_RETURN(
      epoch->decomposed_,
      DecomposedEncoder::Build(epoch->spec_, enc, use_chase_routing));
  epoch->slots_ = std::make_unique<Slot[]>(
      static_cast<size_t>(epoch->decomposed_->num_components()));
  return epoch;
}

namespace {

/// Publishes the work one solver use performed as registry deltas: the
/// solver's cumulative stats are snapshotted before and after (the sat
/// module stays observability-free; this boundary sampling is the only
/// bridge).  arena_bytes is a level, not a count, so its signed delta
/// goes to a gauge.
void SampleSolverDelta(const SessionCounters* counters,
                       const sat::SolverStats& before,
                       const sat::SolverStats& after) {
  // Every instrument is its own heap allocation, so an update is a
  // (usually cold) cache-line RMW — and a warm probe has a zero delta
  // on everything but propagations.  Adding zero is a no-op, so skip
  // it: this keeps the per-query boundary cost inside
  // bench_obs_overhead's 5% traced-vs-compiled-out ceiling no matter
  // how many solver counters exist.
  auto bump = [](obs::Counter* c, int64_t delta) {
    if (delta != 0) c->Increment(delta);
  };
  auto shift = [](obs::Gauge* g, int64_t delta) {
    if (delta != 0) g->Add(delta);
  };
  bump(counters->sat_propagations, after.propagations - before.propagations);
  bump(counters->sat_conflicts, after.conflicts - before.conflicts);
  bump(counters->sat_gc_runs, after.gc_runs - before.gc_runs);
  bump(counters->sat_minimized_literals,
       after.minimized_literals - before.minimized_literals);
  bump(counters->sat_demotions, after.demotions - before.demotions);
  shift(counters->sat_arena_bytes, after.arena_bytes - before.arena_bytes);
  shift(counters->sat_tier_core, after.tier_core - before.tier_core);
  shift(counters->sat_tier_mid, after.tier_tier2 - before.tier_tier2);
  shift(counters->sat_tier_local, after.tier_local - before.tier_local);
}

}  // namespace

Result<bool> Epoch::SolveComponentBase(int c) {
  Slot& slot = slots_[c];
  std::lock_guard<std::mutex> lock(slot.mu);
  // A racing batch may have solved this component while we queued for the
  // slot; its bit is authoritative and costs nothing to reuse.
  int cached = slot.sat.load(std::memory_order_acquire);
  if (cached >= 0) {
    counters_->cache_hits->Increment();
    return cached == 1;
  }
  if (slot.encoder == nullptr) {
    ASSIGN_OR_RETURN(slot.encoder, decomposed_->BuildComponentEncoder(c));
  }
  const sat::SolverStats before = slot.encoder->solver().stats();
  bool sat = slot.encoder->solver().Solve() == sat::SolveResult::kSat;
  SampleSolverDelta(counters_, before, slot.encoder->solver().stats());
  counters_->base_solves->Increment();
  if (decomposed_->chase_routing()) {
    // A chase-routing epoch reached the SAT path: the component carries a
    // grounded denial constraint, so the polynomial route was unavailable.
    counters_->chase_sat_fallbacks->Increment();
  }
  slot.sat.store(sat ? 1 : 0, std::memory_order_release);
  return sat;
}

Result<const core::ComponentChase*> Epoch::ChaseFixpoint(int c) {
  Slot& slot = slots_[c];
  // Write-once publication: after the release store of chase_ready the
  // shared_ptr is never modified again, so the post-acquire read needs no
  // lock.
  if (slot.chase_ready.load(std::memory_order_acquire)) {
    return slot.chase.get();
  }
  std::lock_guard<std::mutex> lock(slot.chase_mu);
  if (!slot.chase_ready.load(std::memory_order_relaxed)) {
    ASSIGN_OR_RETURN(core::ComponentChase chase,
                     decomposed_->BuildComponentChase(c));
    counters_->chase_passes->Increment(chase.passes);
    counters_->chase_edges_expanded->Increment(chase.edges_expanded);
    slot.chase = std::make_shared<const core::ComponentChase>(std::move(chase));
    slot.chase_ready.store(true, std::memory_order_release);
  }
  return slot.chase.get();
}

Status Epoch::WithComponentEncoder(
    int c, const std::function<Status(core::Encoder*)>& fn) {
  Slot& slot = slots_[c];
  std::lock_guard<std::mutex> lock(slot.mu);
  if (slot.encoder == nullptr) {
    // First use, or Harvest moved the encoder into a successor epoch while
    // this epoch was still pinned; rebuilding gives identical answers.
    ASSIGN_OR_RETURN(slot.encoder, decomposed_->BuildComponentEncoder(c));
  }
  const sat::SolverStats before = slot.encoder->solver().stats();
  Status status = fn(slot.encoder.get());
  SampleSolverDelta(counters_, before, slot.encoder->solver().stats());
  return status;
}

Result<bool> Epoch::EnsureAllSolved(exec::ThreadPool* pool) {
  int n = num_components();
  std::vector<int> todo;
  for (int c = 0; c < n; ++c) {
    int s = slots_[c].sat.load(std::memory_order_acquire);
    if (s < 0) {
      todo.push_back(c);
    } else if (s == 0) {
      counters_->cache_hits->Increment();
      return false;  // a cached UNSAT answers without touching the pool
    }
  }
  counters_->cache_hits->Increment(n - static_cast<int64_t>(todo.size()));
  if (todo.empty()) return true;
  // Solve the unknown components on the shared pool.  Per-task results
  // land in their own slots; the first UNSAT cancels the unclaimed rest,
  // whose slots stay unknown — sound, since the answer is already false
  // and a later batch re-solves them through this same path.
  std::vector<std::optional<bool>> outcome(todo.size());
  exec::CancellationToken cancel;
  RETURN_IF_ERROR(pool->ParallelFor(
      static_cast<int>(todo.size()),
      [&](int k) -> Status {
        int c = todo[k];
        if (decomposed_->chase_routed(c)) {
          // Chase-eligible component: consistency is the fixpoint's
          // consistency bit (Theorem 6.1(1) on S|_c); no encoder is
          // built.
          ASSIGN_OR_RETURN(const core::ComponentChase* chase,
                           ChaseFixpoint(c));
          counters_->chase_solves->Increment();
          outcome[k] = chase->consistent;
          if (!chase->consistent) cancel.Cancel();
          return Status::OK();
        }
        ASSIGN_OR_RETURN(bool sat, SolveComponentBase(c));
        outcome[k] = sat;
        if (!sat) cancel.Cancel();
        return Status::OK();
      },
      &cancel));
  bool consistent = true;
  for (size_t k = 0; k < todo.size(); ++k) {
    if (outcome[k].has_value()) {
      slots_[todo[k]].sat.store(*outcome[k] ? 1 : 0,
                                std::memory_order_release);
      if (!*outcome[k]) consistent = false;
    } else {
      consistent = false;  // skipped by cancellation ⇒ some task was UNSAT
    }
  }
  return consistent;
}

std::map<uint64_t, Epoch::Harvested> Epoch::Harvest() {
  std::map<uint64_t, Harvested> cache;
  for (int c = 0; c < num_components(); ++c) {
    Slot& slot = slots_[c];
    Harvested h;
    // try_lock: never wait on a batch that is mid-solve on this component;
    // an unharvested encoder just rebuilds lazily in the successor.
    if (slot.mu.try_lock()) {
      h.encoder = std::move(slot.encoder);
      slot.mu.unlock();
    }
    {
      // The chase shared_ptr is COPIED: pinned readers of this epoch keep
      // their raw pointers valid while the successor shares the fixpoint.
      std::lock_guard<std::mutex> lock(slot.chase_mu);
      if (slot.chase_ready.load(std::memory_order_relaxed)) {
        h.chase = slot.chase;
      }
    }
    int s = slot.sat.load(std::memory_order_acquire);
    if (s >= 0) h.sat = (s == 1);
    if (h.encoder != nullptr || h.chase != nullptr || h.sat.has_value()) {
      // Distinct components always differ in content (each entity group
      // belongs to exactly one), so fingerprints collide only as 64-bit
      // hash accidents; a first-wins map is the pragmatic resolution.
      cache.emplace(decomposed_->component_fingerprint(c), std::move(h));
    }
  }
  return cache;
}

void Epoch::AdoptEncoder(int c, std::unique_ptr<core::Encoder> encoder) {
  encoder->RebindSpec(spec_);
  slots_[c].encoder = std::move(encoder);
}

void Epoch::AdoptChase(int c,
                       std::shared_ptr<const core::ComponentChase> chase) {
  slots_[c].chase = std::move(chase);
  slots_[c].chase_ready.store(true, std::memory_order_release);
}

void Epoch::AdoptSat(int c, bool sat) {
  slots_[c].sat.store(sat ? 1 : 0, std::memory_order_release);
}

int Epoch::CachedSat(int c) const {
  return slots_[c].sat.load(std::memory_order_acquire);
}

}  // namespace currency::serve
