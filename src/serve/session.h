// currency::serve — the session layer: amortized, batched, incrementally
// invalidated currency queries against one long-lived specification.
//
// The decision procedures in src/core are one-shot: every call rebuilds
// the DecomposedEncoder (coupling graph, copy-bucket index, per-component
// filters, per-component SAT encodings) and spawns a thread pool, even
// when a client asks hundreds of queries against the same specification.
// Real serving workloads — Improve3C-style cleaning loops, dashboards
// polling currency invariants, batch auditors — look different: register
// a specification once, fire batches of CPS/COP/DCIP/CCQA queries, edit a
// few tuples, repeat.  CurrencySession is that workload's entry point.
//
// Amortization model:
//   * The DecomposedEncoder build happens once per epoch (registration or
//     Mutate), not once per query.
//   * Component encoders build lazily and persist across requests; their
//     base solves are cached, so a warm CpsCheck is a cache scan with
//     zero solver calls.
//   * One exec::ThreadPool is owned by (or lent to) the session and
//     shared by every request (the one-shot APIs gained a matching
//     CpsOptions::pool knob so they can borrow a caller's pool the same
//     way).
//   * Mutate(edits) snapshots the specification with the edits applied,
//     re-derives the coupling graph, fingerprints every component
//     (Decomposition::fingerprint) and re-adopts the encoder, chase
//     fixpoint and cached result of every component whose fingerprint is
//     unchanged — exactly the components an edit touched are re-encoded
//     and re-solved.
//
// Threading: batches and Mutate may be called concurrently from any
// number of threads.  The session keeps its state in refcounted immutable
// epoch snapshots (serve/epoch.h): a batch pins the current epoch and
// runs to completion on it, while Mutate builds the next epoch off to the
// side and publishes it atomically — readers never block the writer and
// vice versa.  A batch that overlaps a Mutate answers against either the
// pre- or the post-edit snapshot (never a mix); concurrent Mutate calls
// serialize on an internal writer lock.  Within one epoch, concurrent
// batches share the per-component caches under per-component locks.
//
// Determinism contract: every batch answer equals the answer a fresh
// build over the pinned epoch's specification would give.  Two facts
// carry the argument: (1) cached component solvers accumulate learnt
// clauses across requests — and now across concurrent batches — which
// never changes satisfiability answers (learnt clauses are implied) and
// the COP/DCIP probes are model-independent by construction; (2) every
// operation that adds permanent clauses beyond the base encoding —
// CCQA's blocking loops — runs on a fresh throwaway merged encoder,
// never on a cached component encoder.  tests/session_equivalence_test.cc
// property-checks this against fresh solves AND the brute-force oracle
// across thread counts and mutation sequences;
// tests/concurrent_session_test.cc fuzzes it under true concurrency.

#ifndef CURRENCY_SRC_SERVE_SESSION_H_
#define CURRENCY_SRC_SERVE_SESSION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/core/ccqa.h"
#include "src/core/certain_order.h"
#include "src/core/decompose.h"
#include "src/core/specification.h"
#include "src/exec/thread_pool.h"
#include "src/obs/clock.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/query/parser.h"
#include "src/serve/epoch.h"

namespace currency::serve {

/// Options fixed at session creation.
struct SessionOptions {
  /// Pool size shared by every request (counts the calling thread, like
  /// the one-shot num_threads knobs; 1 runs strictly sequentially).
  /// Ignored when `pool` is set.
  int num_threads = 1;
  /// Optional caller-owned pool shared with other sessions (the
  /// SessionManager lends every tenant one pool this way; see
  /// exec::ThreadPool's multi-region contract).  Not owned; must outlive
  /// the session.
  exec::ThreadPool* pool = nullptr;
  /// Budget forwarded to CCQA's enumeration/blocking loops.
  int64_t max_current_instances = 1'000'000;
  /// Serve chase-eligible components (no denial constraint grounds on any
  /// of their entity groups) from the polynomial chase fixpoint instead of
  /// a SAT encoder: consistency reads the fixpoint, COP pairs check
  /// PO∞-membership, DCIP checks sink agreement, and SP-query CCQA
  /// requests whose components are all eligible answer via Proposition
  /// 6.3.  Cached fixpoints survive Mutate exactly like encoders do (same
  /// fingerprint keying).  SAT remains the fallback for constrained
  /// components; answers are identical either way.
  bool use_chase_routing = true;
  /// Base encoder options.  define_is_last is forced on (one cached
  /// encoding serves CPS, COP, DCIP and CCQA); restrict_to / copy_index /
  /// chase_seed are session-managed and ignored.
  core::Encoder::Options encoder;
  /// Metrics registry the session publishes its currency_* instruments
  /// into (not owned; must outlive the session).  Null: the session
  /// creates a private registry — reachable via registry() — so
  /// independent sessions never mix numbers.  The SessionManager injects
  /// its shared registry here, labelled per tenant via instance_label.
  obs::Registry* registry = nullptr;
  /// Value of the instruments' `tenant` label; empty omits the label
  /// (a standalone single-tenant session).
  std::string instance_label;
  /// Request tracer for TraceSpan roots and stage timings (not owned;
  /// must outlive the session).  Null: no tracing.  Stages recorded by
  /// the session attach to whatever root span is open on the calling
  /// thread, so a manager-owned root subsumes the session's own.
  obs::Tracer* tracer = nullptr;
  /// Time source for the batch latency histograms; null means the
  /// monotonic wall clock.  Ignored under CURRENCY_OBS_OFF (timing
  /// compiles out; counters stay).
  const obs::Clock* clock = nullptr;
};

/// Observability counters (monotonic unless noted).  A stats() call
/// returns a snapshot; with concurrent batches in flight the fields are
/// individually accurate but not mutually atomic.  This struct is a thin
/// view over the session's registry instruments (SessionCounters): the
/// same numbers appear in registry()->ExposeText() under the
/// currency_serve_* families, with base_solves and chase_solves unified
/// as currency_serve_component_base_solves_total{routing=sat|chase}.
struct SessionStats {
  /// Mutate calls applied successfully.
  int64_t mutations = 0;
  /// Component base solves performed (cache misses across all requests).
  int64_t base_solves = 0;
  /// Fresh merged encoders built for CCQA requests.
  int64_t merged_builds = 0;
  /// Component chase fixpoints computed by consistency checks (cache
  /// misses; chase-routed sessions only).
  int64_t chase_solves = 0;
  /// Components of the current epoch that re-used a previous epoch's
  /// encoder or result after the most recent Mutate (not monotonic).
  int64_t last_reused = 0;
  /// Components of the current epoch that the most recent Mutate
  /// invalidated — i.e. must rebuild and re-solve (not monotonic).
  int64_t last_invalidated = 0;
  /// Chase-eligible components of the current epoch that re-adopted a
  /// previous epoch's chase fixpoint after the most recent Mutate (not
  /// monotonic; 0 when chase routing is off).
  int64_t last_chase_reused = 0;
  /// Chase-eligible components of the current epoch that could not adopt
  /// a cached fixpoint after the most recent Mutate and re-chase on next
  /// use (not monotonic; 0 when chase routing is off).
  int64_t last_chase_rechased = 0;
};

/// One CCQA batch item: a full answer-set request (no candidate) or a
/// certain-membership request for `candidate`.
struct CcqaRequest {
  query::Query query;
  std::optional<Tuple> candidate;
};

/// Result of one CCQA batch item.
struct CcqaResponse {
  /// True iff Mod(S) = ∅, making every tuple vacuously certain (the
  /// one-shot CertainCurrentAnswers reports this as Status::Inconsistent;
  /// membership requests additionally get is_certain = true, matching
  /// IsCertainCurrentAnswer's convention).
  bool vacuous = false;
  /// Set for membership requests.
  std::optional<bool> is_certain;
  /// Set for answer-set requests unless `vacuous`.
  std::optional<std::set<Tuple>> answers;
};

/// A long-lived session over one specification.  Create → query batches →
/// Mutate → query batches → ...; batches and Mutate may overlap freely
/// (see the file comment for the snapshot semantics).
class CurrencySession {
 public:
  /// Registers `spec` (moved in) and builds the first epoch: coupling
  /// graph, fingerprints, per-component filters.  No SAT solving happens
  /// yet — base solves are paid by the first query batch.  Rejects
  /// num_threads < 1 and max_current_instances <= 0 with InvalidArgument.
  static Result<std::unique_ptr<CurrencySession>> Create(
      core::Specification spec, const SessionOptions& options = {});

  /// The current epoch's specification.  The reference is valid until the
  /// Mutate after next at the earliest; callers that overlap Mutate
  /// should copy.
  const core::Specification& spec() const;
  SessionStats stats() const;
  /// The registry this session's instruments live in: the injected one,
  /// or the session's private registry when none was injected.
  obs::Registry* registry() const { return registry_; }
  int num_components() const;
  /// The current epoch's version: 0 at creation, +1 per successful
  /// Mutate.  Two reads bracketing a batch bound which snapshots the
  /// batch could have pinned.
  int64_t epoch_version() const;

  /// CPS: is Mod(S) non-empty?  Cold calls solve every unknown component
  /// in parallel (first-UNSAT cancellation); warm calls answer from the
  /// per-component result cache.
  Result<bool> CpsCheck();

  /// COP for a batch of currency-order queries, answered in request
  /// order.  Pairs are routed to the component owning their entity and
  /// refuted in parallel across components; pairs sharing a component
  /// probe its solver sequentially in batch order.
  Result<std::vector<bool>> CopBatch(
      const std::vector<core::CurrencyOrderQuery>& queries);

  /// DCIP for a batch of relation names, answered in request order.  Each
  /// relation's determinism is probed per owning component, components in
  /// parallel.
  Result<std::vector<bool>> DcipBatch(
      const std::vector<std::string>& relations);

  /// CCQA for a batch of answer-set / certain-membership requests,
  /// answered in request order.  Each request works on fresh merged
  /// encoders covering only the components its query touches, so requests
  /// run in parallel without sharing mutable solver state.
  Result<std::vector<CcqaResponse>> CcqaBatch(
      const std::vector<CcqaRequest>& requests);

  /// Warm-snapshot export for the durability layer (serve/command.h):
  /// serializes the current epoch's specification into `*spec_wire`
  /// ("CSPC" wire format) and appends one (content fingerprint,
  /// base-satisfiable) pair to `*verdicts` for every component whose base
  /// solve has completed.  Both come from ONE pinned epoch, so the pair
  /// is mutually consistent even under concurrent Mutate.
  void ExportWarmState(std::string* spec_wire,
                       std::vector<std::pair<uint64_t, bool>>* verdicts) const;

  /// Recovery counterpart: seeds cached base-solve verdicts into the
  /// current epoch for every component whose content fingerprint matches
  /// an entry.  Fingerprints cover the component's full content (tuples,
  /// orders, grounded constraint texts, coupling copy buckets), so a
  /// match means the verdict is exactly what a fresh solve would return;
  /// unmatched entries are ignored.  Returns the number adopted.
  int AdoptSolvedVerdicts(
      const std::vector<std::pair<uint64_t, bool>>& verdicts);

  /// Applies `edits` to a copy of the current epoch's specification (see
  /// Specification::ApplyTupleEdits for the validated invariants; on
  /// validation failure nothing changes, including the caches and the
  /// published epoch), builds the next epoch, adopts every component
  /// whose content fingerprint is unchanged, and publishes atomically.
  /// In-flight batches finish on the epoch they pinned.
  Status Mutate(const std::vector<core::TupleEdit>& edits);

 private:
  explicit CurrencySession(const SessionOptions& options);

  /// The current epoch, pinned (a batch holds the pin until it returns).
  std::shared_ptr<Epoch> Pin() const;

  SessionOptions options_;
  /// options_.encoder with define_is_last forced and the session-managed
  /// pointer knobs cleared.
  core::Encoder::Options enc_;
  /// Owned pool when options_.pool is null.
  std::optional<exec::ThreadPool> own_pool_;
  exec::ThreadPool* pool_ = nullptr;
  /// Owned registry when options_.registry is null.
  std::unique_ptr<obs::Registry> own_registry_;
  obs::Registry* registry_ = nullptr;
  const obs::Clock* clock_ = nullptr;
  SessionCounters counters_;
  /// Per-procedure batch instruments, resolved once at construction.
  struct ProcedureInstruments {
    obs::Counter* batches = nullptr;    // currency_serve_batches_total
    obs::Histogram* latency = nullptr;  // currency_serve_batch_latency_ns
  };
  ProcedureInstruments cps_, cop_, dcip_, ccqa_, mutate_;
  /// Counter handles the solve stages snapshot for their trace deltas.
  obs::StageCounters stage_counters_;
  /// Guards current_ (pin = shared_ptr copy, publish = swap).
  mutable std::mutex epoch_mu_;
  std::shared_ptr<Epoch> current_;
  /// Serializes Mutate callers (one successor epoch built at a time).
  std::mutex writer_mu_;
};

}  // namespace currency::serve

#endif  // CURRENCY_SRC_SERVE_SESSION_H_
