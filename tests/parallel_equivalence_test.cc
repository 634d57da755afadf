// Parallel-vs-sequential equivalence for the decomposed solvers: CPS,
// COP, DCIP and CCQA must return bit-identical answers, witnesses, and
// enumeration orders for every thread count.  The parallel layer only
// reschedules per-component work (src/exec/thread_pool.h), so any
// divergence here is a thread-confinement bug — which is also why
// scripts/check.sh re-runs this suite under ThreadSanitizer.
//
// Each draw is checked across num_threads ∈ {1, 2, 8} against the
// sequential answer AND against the brute-force oracle, so a bug that
// broke both paths identically would still be caught.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/core/brute_force.h"
#include "src/core/ccqa.h"
#include "src/core/certain_order.h"
#include "src/core/consistency.h"
#include "src/core/deterministic.h"
#include "src/obs/trace.h"
#include "src/query/parser.h"
#include "tests/fixtures.h"

namespace currency::core {
namespace {

using currency::testing::MakeRandomSpec;

constexpr int kThreadCounts[] = {1, 2, 8};

/// Canonical serialization of a completion (the witness comparison is on
/// the exact orders, not just validity).
std::string CanonicalCompletion(const Completion& c) {
  std::string out;
  for (const auto& per_inst : c.orders) {
    for (const auto& po : per_inst) out += po.ToString() + "|";
  }
  return out;
}

/// Canonical serialization of a current-instance database.  Tuple order
/// within one relation is part of the decoded output and must also be
/// identical across thread counts, so no sorting happens here.
std::string CanonicalDb(const query::Database& db) {
  std::string out;
  for (const auto& [name, rel] : db) {
    out += name + "{";
    for (const Tuple& t : rel->tuples()) out += t.ToString() + ";";
    out += "}";
  }
  return out;
}

class ParallelEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ParallelEquivalence, AllSolversAgreeForEveryThreadCount) {
  // Variants 0–3: the historical copy × constraints grid.  Variants 4–5
  // add entity-gated constraints with a 0.5 constraint-free fraction, so
  // the decomposed paths mix chase-routed and SAT-routed components.
  for (int variant = 0; variant < 6; ++variant) {
    bool with_copy = variant & 1;
    bool with_constraints = (variant & 2) || variant >= 4;
    double free_fraction = variant >= 4 ? 0.5 : 0.0;
    Specification spec = MakeRandomSpec(GetParam() * 911 + variant, with_copy,
                                        with_constraints, free_fraction);
    SCOPED_TRACE("seed=" + std::to_string(GetParam()) +
                 " variant=" + std::to_string(variant));

    // --- CPS: answer and witness, vs oracle and across threads. ---
    bool oracle_consistent = BruteForceConsistent(spec).value();
    std::optional<std::string> witness_1;
    for (int threads : kThreadCounts) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      CpsOptions cps;
      cps.want_witness = true;
      cps.num_threads = threads;
      auto outcome = DecideConsistency(spec, cps);
      ASSERT_TRUE(outcome.ok()) << outcome.status();
      EXPECT_EQ(outcome->consistent, oracle_consistent);
      if (outcome->consistent) {
        ASSERT_TRUE(outcome->witness.has_value());
        EXPECT_TRUE(IsConsistentCompletion(spec, *outcome->witness).value());
        std::string canonical = CanonicalCompletion(*outcome->witness);
        if (!witness_1.has_value()) {
          witness_1 = canonical;  // threads == 1 runs first
        } else {
          EXPECT_EQ(canonical, *witness_1)
              << "witness differs from the sequential path";
        }
      }
    }

    // --- COP on same-entity and cross-entity pairs. ---
    for (const RequiredPair& pair :
         {RequiredPair{1, 0, 1}, RequiredPair{2, 1, 0}, RequiredPair{1, 0, 2},
          RequiredPair{1, 2, 3}}) {
      CurrencyOrderQuery q;
      q.relation = "R";
      q.pairs = {pair};
      bool oracle = BruteForceCertainOrder(spec, q).value();
      for (int threads : kThreadCounts) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        CopOptions cop;
        cop.num_threads = threads;
        EXPECT_EQ(IsCertainOrder(spec, q, cop).value(), oracle);
      }
    }
    // A multi-pair query spanning both entities exercises the per-
    // component pair grouping.
    {
      CurrencyOrderQuery q;
      q.relation = "R";
      q.pairs = {RequiredPair{1, 0, 1}, RequiredPair{2, 2, 3},
                 RequiredPair{1, 1, 0}};
      bool oracle = BruteForceCertainOrder(spec, q).value();
      for (int threads : kThreadCounts) {
        CopOptions cop;
        cop.num_threads = threads;
        EXPECT_EQ(IsCertainOrder(spec, q, cop).value(), oracle)
            << "multi-pair, threads=" << threads;
      }
    }

    // --- DCIP per relation. ---
    bool oracle_det = BruteForceDeterministic(spec, "R").value();
    for (int threads : kThreadCounts) {
      DcipOptions dcip;
      dcip.num_threads = threads;
      EXPECT_EQ(IsDeterministicForRelation(spec, "R", dcip).value(),
                oracle_det)
          << "threads=" << threads;
    }

    // --- CCQA: enumeration order and count, identical across threads. ---
    std::optional<std::vector<std::string>> order_1;
    std::optional<int64_t> count_1;
    for (int threads : kThreadCounts) {
      CcqaOptions ccqa;
      ccqa.num_threads = threads;
      std::vector<std::string> order;
      auto count = ForEachCurrentInstance(
          spec, ccqa, [&](const query::Database& db) {
            order.push_back(CanonicalDb(db));
            return true;
          });
      ASSERT_TRUE(count.ok()) << count.status();
      if (!order_1.has_value()) {
        order_1 = order;
        count_1 = *count;
      } else {
        EXPECT_EQ(*count, *count_1) << "threads=" << threads;
        EXPECT_EQ(order, *order_1)
            << "enumeration order differs from the sequential path, "
            << "threads=" << threads;
      }
    }

    // --- CCQA answer sets vs oracle. ---
    query::Query q =
        query::ParseQuery("Q(x) := EXISTS y: R('e0', x, y)").value();
    auto oracle_answers = BruteForceCertainAnswers(spec, q);
    for (int threads : kThreadCounts) {
      CcqaOptions ccqa;
      ccqa.use_sp_fast_path = false;  // force the SAT membership loop
      ccqa.num_threads = threads;
      auto answers = CertainCurrentAnswers(spec, q, ccqa);
      if (!oracle_answers.ok()) {
        EXPECT_EQ(answers.status().code(), oracle_answers.status().code())
            << "threads=" << threads;
      } else {
        ASSERT_TRUE(answers.ok()) << answers.status();
        EXPECT_EQ(*answers, *oracle_answers) << "threads=" << threads;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, ParallelEquivalence, ::testing::Range(0, 15));

// An inconsistent multi-component specification: the first-UNSAT
// cancellation path must answer identically for every thread count (this
// is the shape where cancellation actually fires under contention).
TEST(ParallelEquivalence, FirstUnsatCancellationIsDeterministic) {
  Specification spec;
  Schema rs = Schema::Make("R", {"A"}).value();
  Relation r(rs);
  // 24 satisfiable two-tuple entities plus one two-tuple entity whose
  // initial order contradicts the constraint below.
  for (int e = 0; e < 24; ++e) {
    Value eid("e" + std::to_string(e));
    (void)r.AppendValues({eid, Value(0)});
    (void)r.AppendValues({eid, Value(1)});
  }
  Value bad("zbad");
  (void)r.AppendValues({bad, Value(10)});
  (void)r.AppendValues({bad, Value(11)});
  TemporalInstance inst(std::move(r));
  (void)inst.AddOrder(1, 48, 49);  // zbad: t48 ≺ t49 ...
  (void)spec.AddInstance(std::move(inst));
  // ... but larger A must be more stale, forcing t49 ≺ t48: UNSAT.
  ASSERT_TRUE(spec.AddConstraintText(
                      "FORALL s, t IN R: s.A > t.A -> s PREC[A] t")
                  .ok());
  ASSERT_FALSE(BruteForceConsistent(spec).value());
  for (int threads : kThreadCounts) {
    CpsOptions cps;
    cps.num_threads = threads;
    auto outcome = DecideConsistency(spec, cps);
    ASSERT_TRUE(outcome.ok());
    EXPECT_FALSE(outcome->consistent) << "threads=" << threads;
    EXPECT_EQ(outcome->components, 25);
  }
}

// An active trace root on the calling thread must be invisible to the
// parallel solvers: stages opened on pool worker threads are inert by
// design (src/obs/trace.h), and time never flows back into control flow,
// so witnesses and enumeration orders stay bit-identical whether or not
// a span is live — at every thread count.
TEST(ParallelEquivalence, ActiveTraceRootDoesNotPerturbSolvers) {
  Specification spec = MakeRandomSpec(4242, /*with_copy=*/true,
                                      /*with_constraints=*/true,
                                      /*free_fraction=*/0.5);
  obs::TraceOptions trace_options;
  trace_options.enabled = true;
  obs::Tracer tracer(trace_options);
  std::optional<std::string> baseline_witness;
  std::optional<std::vector<std::string>> baseline_order;
  for (int threads : kThreadCounts) {
    for (bool traced : {false, true}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " traced=" + std::to_string(traced));
      std::optional<obs::TraceSpan> span;
      if (traced) span.emplace(&tracer, "test", "equivalence");

      CpsOptions cps;
      cps.want_witness = true;
      cps.num_threads = threads;
      auto outcome = DecideConsistency(spec, cps);
      ASSERT_TRUE(outcome.ok()) << outcome.status();
      ASSERT_TRUE(outcome->consistent);
      std::string witness = CanonicalCompletion(*outcome->witness);
      if (!baseline_witness.has_value()) {
        baseline_witness = witness;
      } else {
        EXPECT_EQ(witness, *baseline_witness);
      }

      CcqaOptions ccqa;
      ccqa.num_threads = threads;
      std::vector<std::string> order;
      auto count = ForEachCurrentInstance(
          spec, ccqa, [&](const query::Database& db) {
            order.push_back(CanonicalDb(db));
            return true;
          });
      ASSERT_TRUE(count.ok()) << count.status();
      if (!baseline_order.has_value()) {
        baseline_order = order;
      } else {
        EXPECT_EQ(order, *baseline_order);
      }
    }
  }
}

}  // namespace
}  // namespace currency::core
