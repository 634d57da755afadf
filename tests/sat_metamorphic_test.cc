// Metamorphic suite for the arena-backed SAT core (src/sat/solver.h),
// with two independent reference points:
//
//  * DIFFERENTIAL vs the preserved pre-arena engine (sat::LegacySolver):
//    identical clause/assumption streams must produce identical SAT/UNSAT
//    verdicts, models that satisfy the recorded formula on both engines,
//    and identical projected-model SETS under enumeration.  (Individual
//    models and enumeration order are search-path artifacts — the two
//    engines legitimately differ there, because blocker watchers and the
//    indexed heap change the search; every path-independent output must
//    agree.)
//
//  * GC TRANSPARENCY within the arena engine: arena compaction relocates
//    clauses and translates every watcher/reason in place, so a
//    relocation-only GC must be bit-for-bit invisible — same verdicts,
//    same MODELS, same enumeration ORDER, same decision/conflict/
//    propagation counts.  The GC-stress hook compacts at every Solve
//    entry and restart; the reduce-limit hook forces ReduceDB + GC
//    cycles mid-search.  This is asserted at the raw solver level, at
//    the spec level (CPS witnesses, CCQA answer sets, current-instance
//    enumeration order, via tests/fixtures.h random specifications), and
//    against warm serve::CurrencySession caches whose solvers compact
//    between batches.
//
// scripts/check.sh re-runs this suite under AddressSanitizer (arena
// relocation is exactly the lifetime traffic ASan polices) and
// ThreadSanitizer (the session case batches on a thread pool).

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/core/ccqa.h"
#include "src/core/certain_order.h"
#include "src/core/consistency.h"
#include "src/query/parser.h"
#include "src/sat/legacy_solver.h"
#include "src/sat/model_enumerator.h"
#include "src/sat/solver.h"
#include "src/serve/session.h"
#include "tests/fixtures.h"

namespace currency::sat {
namespace {

using currency::testing::MakeRandomSpec;

/// RAII guards for the process-wide solver test hooks.
struct GcStressScope {
  explicit GcStressScope(bool on) { Solver::SetGcStressForTesting(on); }
  ~GcStressScope() { Solver::SetGcStressForTesting(false); }
};
struct ReduceLimitScope {
  explicit ReduceLimitScope(int64_t limit) {
    Solver::SetReduceLimitForTesting(limit);
  }
  ~ReduceLimitScope() { Solver::SetReduceLimitForTesting(-1); }
};

/// Checks a CNF (as recorded clause lists) against an engine's model.
template <typename SolverT>
bool CnfSatisfied(const std::vector<std::vector<Lit>>& cnf,
                  const SolverT& solver) {
  for (const auto& clause : cnf) {
    bool sat = false;
    for (Lit l : clause) {
      bool v = solver.ModelValue(LitVar(l));
      if (LitIsNeg(l) ? !v : v) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

std::vector<std::vector<Lit>> RandomClauses(std::mt19937* rng, int num_vars,
                                            int count) {
  std::uniform_int_distribution<int> var_dist(0, num_vars - 1);
  std::uniform_int_distribution<int> sign_dist(0, 1);
  std::vector<std::vector<Lit>> cnf;
  for (int c = 0; c < count; ++c) {
    std::vector<Lit> clause;
    for (int i = 0; i < 3; ++i) {
      clause.push_back(MakeLit(var_dist(*rng), sign_dist(*rng) == 1));
    }
    cnf.push_back(std::move(clause));
  }
  return cnf;
}

/// Gated pigeonhole clauses: UNSAT under the gate assumption, SAT
/// without it; hard enough to accumulate learnt clauses and (with the
/// reduce-limit hook) force mid-search ReduceDB + GC cycles.
template <typename SolverT>
Var AddGatedPigeonhole(SolverT* s, int pigeons, int holes) {
  Var gate = s->NewVar();
  std::vector<std::vector<Var>> x(pigeons, std::vector<Var>(holes));
  for (int p = 0; p < pigeons; ++p) {
    for (int h = 0; h < holes; ++h) x[p][h] = s->NewVar();
  }
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> c{MakeLit(gate, true)};
    for (int h = 0; h < holes; ++h) c.push_back(MakeLit(x[p][h]));
    EXPECT_TRUE(s->AddClause(c));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        EXPECT_TRUE(
            s->AddClause({MakeLit(x[p1][h], true), MakeLit(x[p2][h], true)}));
      }
    }
  }
  return gate;
}

// ---------------------------------------------------------------------
// Differential: arena engine vs the preserved legacy engine.
// ---------------------------------------------------------------------

class ArenaVsLegacyProperty : public ::testing::TestWithParam<int> {};

TEST_P(ArenaVsLegacyProperty, IncrementalStreamsAgree) {
  std::mt19937 rng(GetParam() * 9176 + 3);
  const int num_vars = 10;
  std::uniform_int_distribution<int> batch_dist(3, 8);
  std::uniform_int_distribution<int> nassume_dist(1, 4);
  std::uniform_int_distribution<int> var_dist(0, num_vars - 1);
  std::uniform_int_distribution<int> sign_dist(0, 1);

  Solver arena;
  LegacySolver legacy;
  for (int i = 0; i < num_vars; ++i) {
    arena.NewVar();
    legacy.NewVar();
  }
  std::vector<std::vector<Lit>> cnf;
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE("seed=" + std::to_string(GetParam()) +
                 " round=" + std::to_string(round));
    for (auto& clause : RandomClauses(&rng, num_vars, batch_dist(rng))) {
      // The boolean AddClause returns is level-0 DETECTION, which is
      // search-path dependent (one engine may have learnt the refuting
      // unit already); only Solve verdicts are canonical.
      (void)arena.AddClause(clause);
      (void)legacy.AddClause(clause);
      cnf.push_back(std::move(clause));
    }
    SolveResult base_a = arena.Solve();
    SolveResult base_l = legacy.Solve();
    ASSERT_EQ(base_a, base_l);
    if (base_a == SolveResult::kSat) {
      EXPECT_TRUE(CnfSatisfied(cnf, arena));
      EXPECT_TRUE(CnfSatisfied(cnf, legacy));
    } else {
      EXPECT_TRUE(arena.IsUnsatForever());
      break;
    }
    for (int probe = 0; probe < 2; ++probe) {
      std::vector<Lit> assumptions;
      int n = nassume_dist(rng);
      for (int i = 0; i < n; ++i) {
        assumptions.push_back(MakeLit(var_dist(rng), sign_dist(rng) == 1));
      }
      SolveResult ra = arena.SolveWithAssumptions(assumptions);
      SolveResult rl = legacy.SolveWithAssumptions(assumptions);
      ASSERT_EQ(ra, rl) << "assumption probe " << probe;
      if (ra == SolveResult::kSat) {
        EXPECT_TRUE(CnfSatisfied(cnf, arena));
        for (Lit a : assumptions) {
          bool v = arena.ModelValue(LitVar(a));
          EXPECT_TRUE(LitIsNeg(a) ? !v : v) << "assumption not honoured";
        }
      }
    }
  }
}

TEST_P(ArenaVsLegacyProperty, AgreeUnderForcedMidSearchReduceGc) {
  // Reduce limit 0: every level-0 reduction checkpoint with any
  // deletable learnt clause fires ReduceDB and therefore a compaction —
  // the arena relocates repeatedly mid-solve while the legacy engine
  // (which does not read the hook) keeps its default schedule.
  ReduceLimitScope hook(0);
  std::mt19937 rng(GetParam() * 40013 + 11);
  const int num_vars = 10;
  Solver arena;
  LegacySolver legacy;
  for (int i = 0; i < num_vars; ++i) {
    arena.NewVar();
    legacy.NewVar();
  }
  std::vector<std::vector<Lit>> cnf = RandomClauses(&rng, num_vars, 42);
  for (const auto& clause : cnf) {
    (void)arena.AddClause(clause);
    (void)legacy.AddClause(clause);
  }
  ASSERT_EQ(arena.Solve(), legacy.Solve());
  std::uniform_int_distribution<int> var_dist(0, num_vars - 1);
  std::uniform_int_distribution<int> sign_dist(0, 1);
  for (int probe = 0; probe < 4; ++probe) {
    std::vector<Lit> assumptions{MakeLit(var_dist(rng), sign_dist(rng) == 1),
                                 MakeLit(var_dist(rng), sign_dist(rng) == 1)};
    ASSERT_EQ(arena.SolveWithAssumptions(assumptions),
              legacy.SolveWithAssumptions(assumptions))
        << "probe " << probe;
  }
}

TEST(ArenaVsLegacyTest, PigeonholeWithForcedReduceGcCycles) {
  ReduceLimitScope hook(0);
  Solver arena;
  LegacySolver legacy;
  Var gate_a = AddGatedPigeonhole(&arena, 6, 5);
  Var gate_l = AddGatedPigeonhole(&legacy, 6, 5);
  ASSERT_EQ(gate_a, gate_l);
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(arena.SolveWithAssumptions({MakeLit(gate_a)}),
              SolveResult::kUnsat);
    EXPECT_EQ(legacy.SolveWithAssumptions({MakeLit(gate_l)}),
              SolveResult::kUnsat);
    EXPECT_EQ(arena.Solve(), SolveResult::kSat);
    EXPECT_EQ(legacy.Solve(), SolveResult::kSat);
  }
  // The hook must have produced real mid-search reductions + compactions.
  EXPECT_GT(arena.stats().reductions, 0);
  EXPECT_GT(arena.stats().gc_runs, 0);
  EXPECT_GT(arena.stats().deleted_clauses, 0);
}

TEST(LearntMinimizationTest, MinimizedClausesStillAssertAgainstLegacy) {
  // Conflict analysis now strips redundant literals (recursive
  // minimization + binary self-subsumption) before attaching the learnt
  // clause.  The asserting literal is never removed, so the shortened
  // clause still flips the search exactly like the unminimized one would
  // — which the legacy engine (no minimization) cross-checks verdict for
  // verdict on a workload heavy enough to learn thousands of clauses.
  Solver arena;
  LegacySolver legacy;
  Var gate_a = AddGatedPigeonhole(&arena, 7, 6);
  Var gate_l = AddGatedPigeonhole(&legacy, 7, 6);
  ASSERT_EQ(gate_a, gate_l);
  EXPECT_EQ(arena.SolveWithAssumptions({MakeLit(gate_a)}),
            SolveResult::kUnsat);
  EXPECT_EQ(legacy.SolveWithAssumptions({MakeLit(gate_l)}),
            SolveResult::kUnsat);
  EXPECT_EQ(arena.Solve(), SolveResult::kSat);
  EXPECT_EQ(legacy.Solve(), SolveResult::kSat);
  // The pigeonhole's long clauses guarantee minimization opportunities.
  EXPECT_GT(arena.stats().minimized_literals, 0);
}

TEST_P(ArenaVsLegacyProperty, MinimizationAgreesOnRandomStreams) {
  // Same differential contract on random 3-CNF streams: minimization may
  // only remove literals whose negations are implied by the rest of the
  // clause, so verdicts (and model validity) cannot move.
  std::mt19937 rng(GetParam() * 52361 + 17);
  const int num_vars = 12;
  Solver arena;
  LegacySolver legacy;
  for (int i = 0; i < num_vars; ++i) {
    arena.NewVar();
    legacy.NewVar();
  }
  std::vector<std::vector<Lit>> cnf = RandomClauses(&rng, num_vars, 50);
  for (const auto& clause : cnf) {
    (void)arena.AddClause(clause);
    (void)legacy.AddClause(clause);
  }
  SolveResult base = arena.Solve();
  ASSERT_EQ(base, legacy.Solve());
  if (base == SolveResult::kSat) {
    EXPECT_TRUE(CnfSatisfied(cnf, arena));
  }
  std::uniform_int_distribution<int> var_dist(0, num_vars - 1);
  std::uniform_int_distribution<int> sign_dist(0, 1);
  for (int probe = 0; probe < 4; ++probe) {
    std::vector<Lit> assumptions{MakeLit(var_dist(rng), sign_dist(rng) == 1),
                                 MakeLit(var_dist(rng), sign_dist(rng) == 1)};
    ASSERT_EQ(arena.SolveWithAssumptions(assumptions),
              legacy.SolveWithAssumptions(assumptions))
        << "probe " << probe;
  }
}

TEST(TierLifecycleTest, TieredReduceDbDemotesAndAgreesWithLegacy) {
  // Forced ReduceDB at every checkpoint exercises the full tier
  // lifecycle: learn-time tiering by LBD, TIER2 → LOCAL demotion of
  // clauses untouched across a reduction, LOCAL deletion.  The tier
  // gauges must stay consistent (non-negative, bounded by the clauses
  // ever learnt) and the verdicts must still match the untiered legacy
  // engine.
  ReduceLimitScope hook(0);
  Solver arena;
  LegacySolver legacy;
  Var gate_a = AddGatedPigeonhole(&arena, 6, 5);
  Var gate_l = AddGatedPigeonhole(&legacy, 6, 5);
  ASSERT_EQ(gate_a, gate_l);
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(arena.SolveWithAssumptions({MakeLit(gate_a)}),
              SolveResult::kUnsat);
    EXPECT_EQ(legacy.SolveWithAssumptions({MakeLit(gate_l)}),
              SolveResult::kUnsat);
    EXPECT_EQ(arena.Solve(), SolveResult::kSat);
    EXPECT_EQ(legacy.Solve(), SolveResult::kSat);
  }
  const SolverStats& stats = arena.stats();
  EXPECT_GT(stats.reductions, 0);
  EXPECT_GT(stats.demotions, 0) << "no TIER2 clause aged out";
  EXPECT_GE(stats.tier_core, 0);
  EXPECT_GE(stats.tier_tier2, 0);
  EXPECT_GE(stats.tier_local, 0);
  // Live tiered clauses can never exceed the clauses ever learnt.
  EXPECT_LE(stats.tier_core + stats.tier_tier2 + stats.tier_local,
            stats.learnt_clauses);
  // CORE clauses are kept forever: with conflicts this heavy some glue
  // clauses must have been learnt and retained.
  EXPECT_GT(stats.tier_core, 0);
}

TEST_P(ArenaVsLegacyProperty, ProjectedEnumerationSetsMatch) {
  std::mt19937 rng(GetParam() * 7723 + 29);
  const int num_vars = 8;
  std::vector<std::vector<Lit>> cnf = RandomClauses(&rng, num_vars, 14);
  std::vector<Var> projection{0, 1, 2};

  Solver arena;
  for (int i = 0; i < num_vars; ++i) arena.NewVar();
  for (const auto& clause : cnf) (void)arena.AddClause(clause);
  std::set<std::vector<bool>> arena_models;
  auto res = EnumerateProjectedModels(&arena, projection, 1000,
                                      [&](const std::vector<bool>& m) {
                                        arena_models.insert(m);
                                        return true;
                                      });
  ASSERT_TRUE(res.ok()) << res.status();

  // Legacy enumeration, with the enumerator's blocking scheme inlined.
  LegacySolver legacy;
  for (int i = 0; i < num_vars; ++i) legacy.NewVar();
  for (const auto& clause : cnf) (void)legacy.AddClause(clause);
  std::set<std::vector<bool>> legacy_models;
  while (legacy.Solve() == SolveResult::kSat) {
    std::vector<bool> values(projection.size());
    std::vector<Lit> block;
    for (size_t i = 0; i < projection.size(); ++i) {
      values[i] = legacy.ModelValue(projection[i]);
      block.push_back(MakeLit(projection[i], values[i]));
    }
    legacy_models.insert(std::move(values));
    if (!legacy.AddClause(std::move(block))) break;
  }
  EXPECT_EQ(arena_models, legacy_models);
  EXPECT_EQ(static_cast<int64_t>(arena_models.size()), res->models);
}

INSTANTIATE_TEST_SUITE_P(Random, ArenaVsLegacyProperty,
                         ::testing::Range(0, 30));

// ---------------------------------------------------------------------
// GC transparency: compaction must be bit-for-bit invisible.
// ---------------------------------------------------------------------

struct ScriptRecord {
  std::vector<SolveResult> verdicts;
  std::vector<std::vector<int8_t>> models;
  std::vector<std::vector<bool>> enumerated;  // in enumeration ORDER
  int64_t decisions = 0;
  int64_t conflicts = 0;
  int64_t propagations = 0;
  int64_t learnt_clauses = 0;
  int64_t gc_runs = 0;

  bool SameSearch(const ScriptRecord& other) const {
    return verdicts == other.verdicts && models == other.models &&
           enumerated == other.enumerated && decisions == other.decisions &&
           conflicts == other.conflicts && propagations == other.propagations &&
           learnt_clauses == other.learnt_clauses;
  }
};

/// One deterministic incremental workload on the arena engine: clause
/// batches, assumption probes, a gated pigeonhole for conflict volume,
/// and a final projected enumeration.
ScriptRecord RunScript(int seed) {
  std::mt19937 rng(seed * 5647 + 1);
  const int num_vars = 10;
  Solver s;
  for (int i = 0; i < num_vars; ++i) s.NewVar();
  Var gate = AddGatedPigeonhole(&s, 5, 4);
  ScriptRecord record;
  std::uniform_int_distribution<int> var_dist(0, num_vars - 1);
  std::uniform_int_distribution<int> sign_dist(0, 1);
  auto observe = [&](SolveResult r) {
    record.verdicts.push_back(r);
    if (r == SolveResult::kSat) record.models.push_back(s.model());
  };
  for (int round = 0; round < 4; ++round) {
    for (auto& clause : RandomClauses(&rng, num_vars, 6)) {
      (void)s.AddClause(clause);
    }
    observe(s.Solve());
    observe(s.SolveWithAssumptions({MakeLit(gate)}));
    observe(s.SolveWithAssumptions(
        {MakeLit(var_dist(rng), sign_dist(rng) == 1),
         MakeLit(var_dist(rng), sign_dist(rng) == 1)}));
  }
  (void)EnumerateProjectedModels(&s, {0, 1, 2}, 64,
                                 [&](const std::vector<bool>& m) {
                                   record.enumerated.push_back(m);
                                   return true;
                                 });
  record.decisions = s.stats().decisions;
  record.conflicts = s.stats().conflicts;
  record.propagations = s.stats().propagations;
  record.learnt_clauses = s.stats().learnt_clauses;
  record.gc_runs = s.stats().gc_runs;
  return record;
}

class GcTransparencyProperty : public ::testing::TestWithParam<int> {};

TEST_P(GcTransparencyProperty, StressCompactionIsBitIdentical) {
  // Both runs share the forced reduce limit (ReduceDB + GC cycles are
  // part of the schedule and must be deterministic); the stress run
  // additionally compacts at every Solve entry and restart, which must
  // not change a single decision.
  ReduceLimitScope reduce(16);
  ScriptRecord plain = RunScript(GetParam());
  ScriptRecord stressed;
  {
    GcStressScope stress(true);
    stressed = RunScript(GetParam());
  }
  EXPECT_TRUE(plain.SameSearch(stressed))
      << "arena compaction changed the search (seed " << GetParam() << ")";
  EXPECT_GT(stressed.gc_runs, plain.gc_runs);
}

INSTANTIATE_TEST_SUITE_P(Random, GcTransparencyProperty,
                         ::testing::Range(0, 12));

/// Spec-level record of everything the currency pipeline derives from
/// solver models: CPS verdict + witness completion, CCQA answer set, and
/// the current-instance enumeration order.
struct SpecRecord {
  bool consistent = false;
  std::optional<core::Completion> witness;
  bool ccqa_ok = false;
  std::set<Tuple> answers;
  std::vector<std::string> instance_sequence;

  bool operator==(const SpecRecord& other) const {
    bool witness_eq = witness.has_value() == other.witness.has_value() &&
                      (!witness.has_value() ||
                       witness->orders == other.witness->orders);
    return consistent == other.consistent && witness_eq &&
           ccqa_ok == other.ccqa_ok && answers == other.answers &&
           instance_sequence == other.instance_sequence;
  }
};

SpecRecord RunSpecWorkload(const core::Specification& spec) {
  SpecRecord record;
  core::CpsOptions cps;
  cps.want_witness = true;
  auto outcome = core::DecideConsistency(spec, cps);
  EXPECT_TRUE(outcome.ok()) << outcome.status();
  if (!outcome.ok()) return record;
  record.consistent = outcome->consistent;
  record.witness = outcome->witness;

  query::Query q =
      query::ParseQuery("QA(a) := EXISTS e, b: R(e, a, b)").value();
  core::CcqaOptions ccqa;
  auto answers = core::CertainCurrentAnswers(spec, q, ccqa);
  record.ccqa_ok = answers.ok();
  if (answers.ok()) record.answers = *answers;

  auto visited = core::ForEachCurrentInstance(
      spec, ccqa, [&](const query::Database& db) {
        std::string snapshot;
        for (const auto& [name, relation] : db) {
          snapshot += name + "=" + relation->ToString() + ";";
        }
        record.instance_sequence.push_back(std::move(snapshot));
        return true;
      });
  EXPECT_TRUE(visited.ok()) << visited.status();  // inconsistent ⇒ 0 visits
  return record;
}

TEST_P(GcTransparencyProperty, SpecLevelOutputsSurviveCompaction) {
  core::Specification spec =
      MakeRandomSpec(static_cast<unsigned>(GetParam()) * 733 + 5,
                     /*with_copy=*/GetParam() % 2 == 0,
                     /*with_constraints=*/true);
  ReduceLimitScope reduce(8);
  SpecRecord plain = RunSpecWorkload(spec);
  SpecRecord stressed;
  {
    GcStressScope stress(true);
    stressed = RunSpecWorkload(spec);
  }
  EXPECT_TRUE(plain == stressed)
      << "CPS witness / CCQA answers / enumeration order changed under "
         "arena compaction (seed "
      << GetParam() << ")";
}

TEST(GcTransparencyTest, WarmSessionCachesSurviveCompaction) {
  // A session's cached component solvers accumulate learnt clauses
  // across batches; with the stress hook on, every probe entry compacts
  // those warm arenas.  Answers before, during, and after — and across a
  // Mutate that re-adopts cached encoders — must be identical to the
  // stress-free session and to fresh one-shot solves.
  core::Specification spec = MakeRandomSpec(4242, /*with_copy=*/true,
                                            /*with_constraints=*/true);
  serve::SessionOptions options;
  options.num_threads = 2;  // TSan coverage: compaction inside pooled tasks

  std::vector<core::CurrencyOrderQuery> queries;
  for (TupleId before = 0; before < 3; ++before) {
    core::CurrencyOrderQuery q;
    q.relation = "R";
    q.pairs = {core::RequiredPair{1, before, (before + 1) % 3},
               core::RequiredPair{2, (before + 1) % 3, before}};
    queries.push_back(std::move(q));
  }
  query::Query qa = query::ParseQuery("QA(a) := EXISTS e, b: R(e, a, b)").value();
  std::vector<serve::CcqaRequest> ccqa_requests;
  ccqa_requests.push_back(serve::CcqaRequest{qa, std::nullopt});

  auto run_session = [&](bool stress_warm_batches) {
    struct Results {
      bool cps = false;
      std::vector<bool> cop_warmup, cop_stressed, cop_after_mutate;
      std::vector<serve::CcqaResponse> ccqa;
    } results;
    auto session = serve::CurrencySession::Create(spec, options);
    EXPECT_TRUE(session.ok()) << session.status();
    results.cps = (*session)->CpsCheck().value();
    results.cop_warmup = (*session)->CopBatch(queries).value();
    {
      GcStressScope stress(stress_warm_batches);
      results.cop_stressed = (*session)->CopBatch(queries).value();
      results.ccqa = (*session)->CcqaBatch(ccqa_requests).value();
      core::TupleEdit edit{0, 0, 2, Value(97)};
      Status st = (*session)->Mutate({edit});
      EXPECT_TRUE(st.ok()) << st;
      results.cop_after_mutate = (*session)->CopBatch(queries).value();
    }
    return results;
  };

  auto plain = run_session(false);
  auto stressed = run_session(true);
  EXPECT_EQ(plain.cps, stressed.cps);
  EXPECT_EQ(plain.cop_warmup, stressed.cop_warmup);
  EXPECT_EQ(plain.cop_stressed, stressed.cop_stressed);
  EXPECT_EQ(plain.cop_after_mutate, stressed.cop_after_mutate);
  ASSERT_EQ(plain.ccqa.size(), stressed.ccqa.size());
  for (size_t i = 0; i < plain.ccqa.size(); ++i) {
    EXPECT_EQ(plain.ccqa[i].vacuous, stressed.ccqa[i].vacuous);
    EXPECT_EQ(plain.ccqa[i].answers, stressed.ccqa[i].answers);
  }
  // Warm answers must also be internally stable under compaction.
  EXPECT_EQ(stressed.cop_warmup, stressed.cop_stressed);
}

}  // namespace
}  // namespace currency::sat
