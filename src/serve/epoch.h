// serve::Epoch — one immutable snapshot of a session's specification plus
// that snapshot's solver caches, shared by concurrent query batches.
//
// The session façade (session.h) keeps a shared_ptr to the *current*
// epoch; every query batch pins it (shared_ptr copy under a lock-free-ish
// acquire) and runs to completion against that pinned epoch, while Mutate
// builds the NEXT epoch off to the side and publishes it with one
// shared_ptr swap.  Readers never block writers and writers never block
// readers; an epoch dies when its last pinner lets go.
//
// "Immutable" is logical, not physical: the specification, decomposition,
// fingerprints and filters are bit-frozen after Build, but the epoch also
// hosts the per-component *caches* — SAT encoders whose solvers accumulate
// learnt clauses, base-satisfiability bits, chase fixpoints — and those
// fill in lazily under concurrent batches.  Each component's cache slot
// carries its own synchronization:
//
//   * encoder slot: a per-component mutex.  SAT probes (COP/DCIP) and the
//     base solve need exclusive use of the component's solver (assumption
//     solving mutates solver state), so WithComponentEncoder brackets
//     every access.  Learnt clauses accumulated by one batch are implied
//     clauses — they never change another batch's answers, which is the
//     same argument that already let the solver persist across sequential
//     requests.
//   * base-sat slot: an atomic tri-state (unknown / unsat / sat).  Reads
//     are cache hits without any lock; the writer re-checks under the
//     encoder mutex, so two racing batches solve a component once.
//   * chase slot: write-once publication.  The fixpoint is computed under
//     a per-component mutex, stored as shared_ptr<const ComponentChase>,
//     and flagged ready with a release store; readers acquire the flag and
//     then read the pointer lock-free.  The shared_ptr (not a raw move)
//     is what lets a *successor* epoch adopt the fixpoint while pinned
//     readers of this epoch keep their pointers valid.
//
// Cross-epoch reuse: Mutate harvests this epoch's caches keyed by
// component content fingerprint (Decomposition::fingerprint) and the next
// epoch adopts every entry whose fingerprint is unchanged.  Harvest uses
// try_lock on the encoder slots so a writer never waits on a batch that is
// mid-solve — a busy component's encoder simply is not harvested, and the
// next epoch rebuilds it lazily (identical answers, slightly more work).
// Adopted encoders are re-pointed at the new epoch's specification copy
// via Encoder::RebindSpec (a fingerprint match means the component's
// content is identical, so the encoding is byte-for-byte what a fresh
// build would produce).

#ifndef CURRENCY_SRC_SERVE_EPOCH_H_
#define CURRENCY_SRC_SERVE_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/common/result.h"
#include "src/core/chase.h"
#include "src/core/decompose.h"
#include "src/core/specification.h"
#include "src/exec/thread_pool.h"
#include "src/obs/metrics.h"

namespace currency::serve {

/// The session's registry instrument handles, shared by all of its epochs
/// (instruments outlive any single epoch; cache hits and misses accumulate
/// across Mutate).  Updates are relaxed atomics inside the instruments, so
/// concurrent batches bump them without locks — exactly what the old
/// atomic-int64 struct did, except the numbers now live in an
/// obs::Registry where exposition, SessionStats and TenantStats all read
/// the same values.
///
/// Bind() must run before the first Epoch::Build (CurrencySession's
/// constructor does); every pointer is non-null afterwards.  `tenant`
/// becomes the instruments' tenant label, and the SessionStats naming
/// drift between base_solves / chase_solves is resolved by labels: both
/// are series of currency_serve_component_base_solves_total, routing=sat
/// vs routing=chase.
struct SessionCounters {
  // Monotonic counters.
  obs::Counter* mutations = nullptr;
  obs::Counter* base_solves = nullptr;    // {routing="sat"}
  obs::Counter* chase_solves = nullptr;   // {routing="chase"}
  obs::Counter* merged_builds = nullptr;
  /// Component verdicts answered from the epoch's cached bit (no solve).
  obs::Counter* cache_hits = nullptr;
  obs::Counter* epoch_publishes = nullptr;
  /// Components a chase-routing epoch still had to solve via SAT
  /// (constrained, hence chase-ineligible).
  obs::Counter* chase_sat_fallbacks = nullptr;
  // SAT solver work, sampled as stats deltas at solve boundaries (the
  // sat module itself stays observability-free).
  obs::Counter* sat_propagations = nullptr;
  obs::Counter* sat_conflicts = nullptr;
  obs::Counter* sat_gc_runs = nullptr;
  /// Literals stripped from learnt clauses by recursive minimization and
  /// binary self-subsumption before attachment.
  obs::Counter* sat_minimized_literals = nullptr;
  /// TIER2 → LOCAL demotions of learnt clauses untouched across a
  /// ReduceDB cycle.
  obs::Counter* sat_demotions = nullptr;
  /// Aggregate clause-arena bytes across the session's cached solvers
  /// (signed deltas: GC shrinks it).
  obs::Gauge* sat_arena_bytes = nullptr;
  /// Aggregate live learnt clauses per tier across the session's cached
  /// solvers (currency_sat_tier_clauses{tier=core|mid|local}; signed
  /// deltas: ReduceDB shrinks them).
  obs::Gauge* sat_tier_core = nullptr;
  obs::Gauge* sat_tier_mid = nullptr;
  obs::Gauge* sat_tier_local = nullptr;
  // Chase fixpoint work, sampled when a fixpoint is computed.
  obs::Counter* chase_passes = nullptr;
  obs::Counter* chase_edges_expanded = nullptr;
  // Last-Mutate adoption snapshot (gauges: not monotonic).
  obs::Gauge* last_reused = nullptr;
  obs::Gauge* last_invalidated = nullptr;
  obs::Gauge* last_chase_reused = nullptr;
  obs::Gauge* last_chase_rechased = nullptr;
  obs::Gauge* epoch_version = nullptr;

  /// Resolves every handle in `registry`, labelled {tenant=`tenant`}
  /// (label omitted when `tenant` is empty).
  void Bind(obs::Registry* registry, const std::string& tenant);
};

/// One snapshot: an owned specification copy, its decomposition, and the
/// per-component solver caches.  Refcounted via shared_ptr; see the file
/// comment for the pinning and synchronization story.
class Epoch {
 public:
  /// What Harvest() extracts per surviving component, keyed by content
  /// fingerprint, for adoption into the successor epoch.
  struct Harvested {
    std::unique_ptr<core::Encoder> encoder;
    std::shared_ptr<const core::ComponentChase> chase;
    std::optional<bool> sat;
  };

  /// Builds the snapshot over `spec` (moved in): coupling graph,
  /// fingerprints, filters, empty cache slots.  No SAT solving happens
  /// here.  `counters` must outlive the epoch (the session owns both).
  static Result<std::shared_ptr<Epoch>> Build(core::Specification spec,
                                              const core::Encoder::Options& enc,
                                              bool use_chase_routing,
                                              int64_t version,
                                              SessionCounters* counters);

  const core::Specification& spec() const { return spec_; }
  const core::DecomposedEncoder& decomposed() const { return *decomposed_; }
  int num_components() const { return decomposed_->num_components(); }
  /// Monotonic publication counter: the seed epoch is 0, each successful
  /// Mutate publishes version + 1.  The linearizability tests bracket
  /// batches with version reads to bound which snapshots a batch could
  /// have pinned.
  int64_t version() const { return version_; }

  /// Ensures every component has a cached base-satisfiability bit,
  /// solving the unknown ones on `pool` (first-UNSAT cancellation; slots
  /// skipped by cancellation stay unknown, which is sound because the
  /// answer is already false).  Returns the CPS answer.  Concurrent calls
  /// are safe: the per-component encoder mutex makes racing solves of one
  /// component serialize, and the second solver re-checks the cached bit
  /// before doing any work.
  Result<bool> EnsureAllSolved(exec::ThreadPool* pool);

  /// The component's chase fixpoint (chase-eligible components only),
  /// computed on first use and published write-once; lock-free reads
  /// afterwards.  The pointer stays valid for the epoch's lifetime — pin
  /// the epoch, not the fixpoint.
  Result<const core::ComponentChase*> ChaseFixpoint(int c);

  /// Runs `fn` with exclusive access to component `c`'s SAT encoder,
  /// building it first if the slot is empty (lazily, or because Harvest
  /// moved it to a successor epoch).  All solver access goes through
  /// here; holding the slot mutex for the whole probe sequence keeps each
  /// batch's per-component call sequence contiguous.
  Status WithComponentEncoder(int c,
                              const std::function<Status(core::Encoder*)>& fn);

  /// A fresh throwaway encoder over the union of `components` (CCQA's
  /// blocking loops mutate theirs permanently).  Concurrent-safe: reads
  /// only the frozen build state.
  Result<std::unique_ptr<core::Encoder>> BuildMergedEncoder(
      const std::vector<int>& components) const {
    return decomposed_->BuildMergedEncoder(components);
  }

  /// Extracts the caches for cross-epoch adoption; see the file comment.
  /// Safe while batches still run on this epoch: busy encoder slots are
  /// skipped (try_lock) and chase fixpoints are shared, not moved.
  std::map<uint64_t, Harvested> Harvest();

  /// Adoption hooks.  AdoptEncoder and AdoptChase are called only by
  /// Mutate on the not-yet-visible successor (no synchronization needed);
  /// the caller guarantees the fingerprint match, and AdoptEncoder
  /// rebinds the encoder to this epoch's specification copy.  AdoptSat is
  /// additionally safe on a published epoch (it is a release store into
  /// the atomic slot) — recovery uses that to seed snapshot verdicts into
  /// a freshly built epoch.
  void AdoptEncoder(int c, std::unique_ptr<core::Encoder> encoder);
  void AdoptChase(int c, std::shared_ptr<const core::ComponentChase> chase);
  void AdoptSat(int c, bool sat);

  /// The cached base-satisfiability bit of component `c`: -1 unknown,
  /// 0 unsat, 1 sat.  Lock-free; pairs with AdoptSat / SolveComponentBase
  /// publication.  Warm snapshots read solved verdicts through this.
  int CachedSat(int c) const;

 private:
  /// One component's cache slot; see the file comment for the roles.
  struct Slot {
    std::mutex mu;  // guards `encoder` and its solver
    std::unique_ptr<core::Encoder> encoder;
    /// -1 unknown, 0 unsat, 1 sat.
    std::atomic<int> sat{-1};
    std::mutex chase_mu;  // serializes the one-time fixpoint compute
    std::shared_ptr<const core::ComponentChase> chase;
    /// Release-published after `chase` is set; never cleared.
    std::atomic<bool> chase_ready{false};
  };

  Epoch(core::Specification spec, int64_t version, SessionCounters* counters)
      : spec_(std::move(spec)), version_(version), counters_(counters) {}

  /// Solves component `c`'s base encoding under the slot mutex, caching
  /// the bit; returns the cached bit without solving when another batch
  /// got there first.
  Result<bool> SolveComponentBase(int c);

  const core::Specification spec_;
  const int64_t version_;
  SessionCounters* const counters_;
  std::unique_ptr<core::DecomposedEncoder> decomposed_;
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace currency::serve

#endif  // CURRENCY_SRC_SERVE_EPOCH_H_
