// Scale benchmark for the entity-component decomposition of the SAT path
// (src/core/decompose.h).
//
// The workload is a sharded master/replica pair: relation R holds
// range(0) entities of six tuples each, and relation R2 copies A from two
// distinct R tuples per entity, so every coupling component is one
// {R-entity, R2-entity} pair — thousands of entities, equally many
// independent components.  Each entity carries the same small search
// puzzle: thirty random ternary denial constraints over its A-order
// literals (selected per tuple through the P attribute), planted to be
// satisfiable by the identity order but anti-aligned with the solver's
// default phase, so every component costs a few dozen genuine CDCL
// conflicts.  The families:
//
//   * CPS on the satisfiable shard set: every component is solved on its
//     own small encoder, so restarts and re-decisions stay local to one
//     component's search.
//   * CPS with one planted deeply-UNSAT shard (a no-chain denial guarded
//     by P = 99, search-refutable but not unit-refutable): the smallest
//     component is refuted first and the rest are never encoded.
//   * COP with eight queried pairs: after the per-component vacuity
//     solves, each pair re-solves only its own component.
//
// Every family honours --threads=N (this binary carries its own main; the
// flag is stripped before Google Benchmark parses the rest): components are embarrassingly parallel, so on an
// N-core machine `--threads=N` vs `--threads=1` isolates the win of the
// exec layer (src/exec/thread_pool.h) on the same workload, with
// bit-identical answers.  On a single-core machine the two runs time
// identically minus scheduling noise.
//
// Registered as a ctest smoke run (smallest size, one family each) by
// bench/CMakeLists.txt.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "src/core/certain_order.h"
#include "src/core/consistency.h"

namespace {

using namespace currency;  // NOLINT

/// Thread count for every family, set by --threads=N.
int g_threads = 1;

constexpr int kGroup = 6;       // tuples per R entity
constexpr int kClauses = 30;    // puzzle clauses per entity

/// Zero-padded entity ids keep Value order aligned with creation order.
std::string PadId(const char* prefix, int e) {
  std::string digits = std::to_string(e);
  return std::string(prefix) + std::string(6 - digits.size(), '0') + digits;
}

/// Thirty random ternary clauses over the A-order literals of a six-tuple
/// entity, planted to be satisfied by the identity order (tuple i more
/// stale than tuple j for i < j).  Each clause becomes one denial
/// constraint whose premises are the negated literals (negating an order
/// atom flips its direction, thanks to totality), with tuple variables
/// pinned to concrete tuples through the P selector attribute — the same
/// constraint text grounds to exactly one clause in every entity group.
std::vector<std::string> MakePuzzleConstraints(unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> tup(0, kGroup - 1);
  std::uniform_int_distribution<int> coin(0, 1);
  const char* vars[] = {"a", "b", "c", "d", "e", "f"};
  std::vector<std::string> out;
  while (static_cast<int>(out.size()) < kClauses) {
    struct Literal {
      int lo, hi;
      bool identity;  // true: the literal is (lo ≺ hi), i.e. planted-true
    };
    std::vector<Literal> lits;
    bool any_identity = false;
    for (int k = 0; k < 3; ++k) {
      int lo = tup(rng), hi = tup(rng);
      while (hi == lo) hi = tup(rng);
      if (lo > hi) std::swap(lo, hi);
      bool identity = coin(rng) == 1;
      if (k == 2 && !any_identity) identity = true;  // plant satisfiability
      any_identity |= identity;
      lits.push_back({lo, hi, identity});
    }
    std::string text = "FORALL a, b, c, d, e, f IN R: ";
    for (int k = 0; k < 3; ++k) {
      text += std::string(vars[2 * k]) + ".P = " + std::to_string(lits[k].lo) +
              " AND " + vars[2 * k + 1] + ".P = " +
              std::to_string(lits[k].hi) + " AND ";
    }
    for (int k = 0; k < 3; ++k) {
      // Premise = negation of the clause literal.
      std::string lo = vars[2 * k], hi = vars[2 * k + 1];
      text += lits[k].identity ? hi + " PREC[A] " + lo
                               : lo + " PREC[A] " + hi;
      text += (k < 2) ? " AND " : " -> a PREC[A] a";  // pure denial
    }
    out.push_back(std::move(text));
  }
  return out;
}

/// Builds the sharded master/replica specification described above.
/// `plant_unsat` prepends one entity (first in Value order) whose three
/// tuples carry P = 99 and fall to a no-chain denial that needs genuine
/// search — not unit propagation — to refute.
core::Specification MakeShardedSpec(int entities, bool plant_unsat) {
  core::Specification spec;
  Schema rs = Schema::Make("R", {"P", "A", "B"}).value();
  Relation r(rs);
  if (plant_unsat) {
    Value eid("a-plant");  // sorts before every e...-entity
    for (int k = 0; k < 3; ++k) {
      (void)r.AppendValues({eid, Value(99), Value(k), Value(k)});
    }
  }
  for (int e = 0; e < entities; ++e) {
    Value eid(PadId("e", e));
    for (int k = 0; k < kGroup; ++k) {
      (void)r.AppendValues({eid, Value(k), Value(k), Value(k % 2)});
    }
  }
  (void)spec.AddInstance(core::TemporalInstance(std::move(r)));
  for (const std::string& text : MakePuzzleConstraints(/*seed=*/7)) {
    (void)spec.AddConstraintText(text);
  }
  if (plant_unsat) {
    // No A-chains among the planted tuples: every completion of a
    // three-tuple group has one, so the component is UNSAT — but only
    // after case analysis, not at unit-propagation level.
    (void)spec.AddConstraintText(
        "FORALL s, t, u IN R: s.P = 99 AND t.P = 99 AND u.P = 99 AND "
        "t PREC[A] s AND u PREC[A] t -> u PREC[A] u");
  }

  // Replica: R2 copies A from two distinct tuples of each R entity, which
  // couples exactly the {R:e, R2:f} pair into one component.
  int base = plant_unsat ? 3 : 0;
  Schema r2s = Schema::Make("R2", {"C"}).value();
  Relation r2(r2s);
  copy::CopySignature sig;
  sig.target_relation = "R2";
  sig.target_attrs = {"C"};
  sig.source_relation = "R";
  sig.source_attrs = {"A"};
  copy::CopyFunction fn(sig);
  for (int e = 0; e < entities; ++e) {
    Value eid(PadId("f", e));
    TupleId src0 = base + e * kGroup;      // carries A = 0
    TupleId src1 = base + e * kGroup + 2;  // carries A = 2
    auto t0 = r2.AppendValues({eid, Value(0)});
    auto t1 = r2.AppendValues({eid, Value(2)});
    (void)fn.Map(*t0, src0);
    (void)fn.Map(*t1, src1);
  }
  (void)spec.AddInstance(core::TemporalInstance(std::move(r2)));
  (void)spec.AddCopyFunction(std::move(fn));
  return spec;
}

void RunCps(benchmark::State& state, bool plant_unsat) {
  const int entities = static_cast<int>(state.range(0));
  core::Specification spec = MakeShardedSpec(entities, plant_unsat);
  core::CpsOptions options;
  options.num_threads = g_threads;
  int64_t consistent = 0;
  int64_t components = 0;
  for (auto _ : state) {
    auto outcome = core::DecideConsistency(spec, options);
    if (!outcome.ok()) {
      state.SkipWithError(outcome.status().ToString().c_str());
      return;
    }
    consistent += outcome->consistent ? 1 : 0;
    components = outcome->components;
    benchmark::DoNotOptimize(outcome);
  }
  state.counters["entities"] = static_cast<double>(entities);
  state.counters["components"] = static_cast<double>(components);
  // The satisfiable family must answer SAT and the planted family UNSAT;
  // the smoke ctest run relies on this assertion.
  if ((consistent > 0) == plant_unsat) {
    state.SkipWithError("wrong CPS answer");
  }
}

void BM_ScaleCps_Decomposed(benchmark::State& state) {
  RunCps(state, /*plant_unsat=*/false);
}
void BM_ScaleCpsUnsatShard_Decomposed(benchmark::State& state) {
  RunCps(state, /*plant_unsat=*/true);
}
BENCHMARK(BM_ScaleCps_Decomposed)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScaleCpsUnsatShard_Decomposed)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Unit(benchmark::kMillisecond);

void RunCop(benchmark::State& state) {
  const int entities = static_cast<int>(state.range(0));
  core::Specification spec = MakeShardedSpec(entities, /*plant_unsat=*/false);
  core::CopOptions options;
  options.num_threads = g_threads;
  // Eight pairs spread over eight entities.
  core::CurrencyOrderQuery query;
  query.relation = "R";
  for (int k = 0; k < 8; ++k) {
    int e = k * (entities / 8);
    query.pairs.push_back(
        core::RequiredPair{2, e * kGroup, e * kGroup + 1});
  }
  int64_t certain = 0;
  for (auto _ : state) {
    auto result = core::IsCertainOrder(spec, query, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    certain += *result ? 1 : 0;
    benchmark::DoNotOptimize(result);
  }
  state.counters["entities"] = static_cast<double>(entities);
  state.counters["certain"] = static_cast<double>(certain > 0);
}

void BM_ScaleCop_Decomposed(benchmark::State& state) { RunCop(state); }
BENCHMARK(BM_ScaleCop_Decomposed)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main (instead of benchmark_main): strip --threads=N before
// Google Benchmark sees the command line — it rejects unknown flags.
int main(int argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      g_threads = std::atoi(argv[i] + 10);
      if (g_threads < 1) g_threads = 1;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("threads", std::to_string(g_threads));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
