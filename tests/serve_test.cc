// Unit coverage for the serving layer (src/serve/session.h): session
// lifecycle, batch routing and request-order results, warm-cache
// behaviour, Mutate's component-precise invalidation (no-op edits,
// value edits, EID-driven component split/merge), rejected edit batches,
// and the vacuous (Mod(S) = ∅) conventions.  The randomized
// session-vs-fresh sweep lives in session_equivalence_test.cc.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/core/brute_force.h"
#include "src/core/ccqa.h"
#include "src/core/certain_order.h"
#include "src/core/consistency.h"
#include "src/core/deterministic.h"
#include "src/query/parser.h"
#include "src/serve/session.h"
#include "tests/fixtures.h"

namespace currency::serve {
namespace {

using currency::testing::MakeQ1Trimmed;
using currency::testing::MakeQ4Trimmed;
using currency::testing::MakeS0Trimmed;

std::unique_ptr<CurrencySession> MakeSession(core::Specification spec,
                                             int threads = 1) {
  SessionOptions options;
  options.num_threads = threads;
  auto session = CurrencySession::Create(std::move(spec), options);
  EXPECT_TRUE(session.ok()) << session.status();
  return std::move(session).value();
}

/// A two-entity single-relation specification whose entities form two
/// independent coupling components.
core::Specification MakeTwoComponentSpec() {
  core::Specification spec;
  Schema rs = Schema::Make("R", {"A"}).value();
  Relation r(rs);
  (void)r.AppendValues({Value("e0"), Value(0)});
  (void)r.AppendValues({Value("e0"), Value(1)});
  (void)r.AppendValues({Value("e1"), Value(2)});
  (void)r.AppendValues({Value("e1"), Value(3)});
  (void)spec.AddInstance(core::TemporalInstance(std::move(r)));
  EXPECT_TRUE(
      spec.AddConstraintText("FORALL s, t IN R: s.A > t.A -> t PREC[A] s")
          .ok());
  return spec;
}

TEST(CurrencySession, MatchesOneShotSolversOnS0) {
  core::Specification spec = MakeS0Trimmed();
  auto session = MakeSession(MakeS0Trimmed());

  // CPS.
  auto cps = session->CpsCheck();
  ASSERT_TRUE(cps.ok()) << cps.status();
  EXPECT_EQ(*cps, core::DecideConsistency(spec)->consistent);

  // COP: a batch of queries answered in request order.  Trimmed Emp
  // attrs: LN = 1, address = 2, salary = 3, status = 4.
  std::vector<core::CurrencyOrderQuery> queries;
  {
    core::CurrencyOrderQuery q;  // s1 ≺_salary s3 (certain: ϕ1)
    q.relation = "Emp";
    q.pairs = {core::RequiredPair{3, 0, 2}};
    queries.push_back(q);
    q.pairs = {core::RequiredPair{3, 2, 0}};  // reversed: refutable
    queries.push_back(q);
    q.pairs = {core::RequiredPair{1, 0, 3}};  // cross-entity: false
    queries.push_back(q);
    q.pairs = {core::RequiredPair{1, 0, 0}};  // reflexive: false
    queries.push_back(q);
  }
  auto cop = session->CopBatch(queries);
  ASSERT_TRUE(cop.ok()) << cop.status();
  ASSERT_EQ(cop->size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto fresh = core::IsCertainOrder(spec, queries[i]);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    EXPECT_EQ((*cop)[i], *fresh) << "query " << i;
  }

  // DCIP for both relations.
  auto dcip = session->DcipBatch({"Emp", "Dept"});
  ASSERT_TRUE(dcip.ok()) << dcip.status();
  EXPECT_EQ((*dcip)[0], core::IsDeterministicForRelation(spec, "Emp").value());
  EXPECT_EQ((*dcip)[1], core::IsDeterministicForRelation(spec, "Dept").value());

  // CCQA: answer sets and memberships for Q1/Q4.
  std::vector<CcqaRequest> requests;
  requests.push_back(CcqaRequest{MakeQ1Trimmed(), std::nullopt});
  requests.push_back(CcqaRequest{MakeQ4Trimmed(), std::nullopt});
  requests.push_back(CcqaRequest{MakeQ1Trimmed(), Tuple({Value(80)})});
  auto ccqa = session->CcqaBatch(requests);
  ASSERT_TRUE(ccqa.ok()) << ccqa.status();
  core::CcqaOptions copts;
  copts.use_sp_fast_path = false;
  EXPECT_EQ(*(*ccqa)[0].answers,
            core::CertainCurrentAnswers(spec, MakeQ1Trimmed(), copts).value());
  EXPECT_EQ(*(*ccqa)[1].answers,
            core::CertainCurrentAnswers(spec, MakeQ4Trimmed(), copts).value());
  EXPECT_EQ(*(*ccqa)[2].is_certain,
            core::IsCertainCurrentAnswer(spec, MakeQ1Trimmed(),
                                         Tuple({Value(80)}), copts)
                .value());
  EXPECT_GT(session->stats().merged_builds, 0);
}

TEST(CurrencySession, WarmRequestsServeFromTheResultCache) {
  auto session = MakeSession(MakeTwoComponentSpec());
  ASSERT_TRUE(session->CpsCheck().value());
  int64_t solves = session->stats().base_solves;
  EXPECT_EQ(solves, 2) << "one base solve per component";
  // Warm CPS and COP reuse the cached solves and encoders.
  ASSERT_TRUE(session->CpsCheck().value());
  core::CurrencyOrderQuery q;
  q.relation = "R";
  q.pairs = {core::RequiredPair{1, 0, 1}};
  ASSERT_TRUE(session->CopBatch({q}).ok());
  EXPECT_EQ(session->stats().base_solves, solves);
}

TEST(CurrencySession, NoOpMutateInvalidatesNothing) {
  auto session = MakeSession(MakeTwoComponentSpec());
  ASSERT_TRUE(session->CpsCheck().value());
  int64_t solves = session->stats().base_solves;
  // Rewriting a cell with its current value changes no fingerprint.
  ASSERT_TRUE(
      session->Mutate({core::TupleEdit{0, 0, 1, Value(0)}}).ok());
  EXPECT_EQ(session->stats().last_invalidated, 0);
  EXPECT_EQ(session->stats().last_reused, session->num_components());
  ASSERT_TRUE(session->CpsCheck().value());
  EXPECT_EQ(session->stats().base_solves, solves)
      << "a no-op edit must not trigger re-solves";
}

TEST(CurrencySession, MutateInvalidatesExactlyTheTouchedComponent) {
  auto session = MakeSession(MakeTwoComponentSpec());
  ASSERT_TRUE(session->CpsCheck().value());
  EXPECT_EQ(session->num_components(), 2);
  int64_t solves = session->stats().base_solves;
  // Edit entity e0's tuple 0: only e0's component may rebuild.
  ASSERT_TRUE(session->Mutate({core::TupleEdit{0, 0, 1, Value(9)}}).ok());
  EXPECT_EQ(session->stats().last_invalidated, 1);
  EXPECT_EQ(session->stats().last_reused, 1);
  ASSERT_TRUE(session->CpsCheck().value());
  EXPECT_EQ(session->stats().base_solves, solves + 1)
      << "exactly the touched component re-solves";
  // And the answers equal a fresh forced-SAT solve and the oracle over
  // the mutated specification.
  core::CpsOptions forced;
  forced.use_chase_routing = false;
  EXPECT_EQ(session->CpsCheck().value(),
            core::DecideConsistency(session->spec(), forced)->consistent);
  EXPECT_EQ(session->CpsCheck().value(),
            core::BruteForceConsistent(session->spec()).value());
}

TEST(CurrencySession, EidEditsMergeAndSplitCouplingComponents) {
  // R entities e0 = {0, 1} and e1 = {2, 3}; R2's f0 copies A from tuples
  // 0 (entity e0) and 2 (entity e1).  Each (f0, e*) bucket has one
  // source, so nothing couples: components are {R:e0}, {R:e1}, {R2:f0}.
  core::Specification spec;
  Schema rs = Schema::Make("R", {"A"}).value();
  Relation r(rs);
  (void)r.AppendValues({Value("e0"), Value(0)});
  (void)r.AppendValues({Value("e0"), Value(1)});
  (void)r.AppendValues({Value("e1"), Value(2)});
  (void)r.AppendValues({Value("e1"), Value(3)});
  (void)spec.AddInstance(core::TemporalInstance(std::move(r)));
  Schema r2s = Schema::Make("R2", {"C"}).value();
  Relation r2(r2s);
  (void)r2.AppendValues({Value("f0"), Value(0)});
  (void)r2.AppendValues({Value("f0"), Value(2)});
  copy::CopySignature sig;
  sig.target_relation = "R2";
  sig.target_attrs = {"C"};
  sig.source_relation = "R";
  sig.source_attrs = {"A"};
  copy::CopyFunction fn(sig);
  ASSERT_TRUE(fn.Map(0, 0).ok());
  ASSERT_TRUE(fn.Map(1, 2).ok());
  (void)spec.AddInstance(core::TemporalInstance(std::move(r2)));
  ASSERT_TRUE(spec.AddCopyFunction(std::move(fn)).ok());

  auto session = MakeSession(std::move(spec));
  EXPECT_EQ(session->num_components(), 3);
  ASSERT_TRUE(session->CpsCheck().value());

  // Merge: moving tuple 2 into e0 gives bucket (f0, e0) two distinct
  // sources, coupling {R:e0, R2:f0} into one component.
  ASSERT_TRUE(session->Mutate({core::TupleEdit{0, 2, 0, Value("e0")}}).ok());
  EXPECT_EQ(session->num_components(), 2);
  ASSERT_TRUE(session->CpsCheck().value());
  core::CpsOptions forced;
  forced.use_chase_routing = false;
  EXPECT_EQ(session->CpsCheck().value(),
            core::DecideConsistency(session->spec(), forced)->consistent);
  EXPECT_EQ(session->CpsCheck().value(),
            core::BruteForceConsistent(session->spec()).value());

  // Split: moving it back restores the three decoupled components.
  ASSERT_TRUE(session->Mutate({core::TupleEdit{0, 2, 0, Value("e1")}}).ok());
  EXPECT_EQ(session->num_components(), 3);
  ASSERT_TRUE(session->CpsCheck().value());
}

TEST(CurrencySession, RejectedMutationsLeaveTheSessionIntact) {
  // A spec with an initial order on tuple 0 and a copy of Emp-style data:
  // re-use S0 trimmed (ρ: Dept[mgrAddr] ⇐ Emp[address]).
  core::Specification with_order = MakeTwoComponentSpec();
  ASSERT_TRUE(with_order.mutable_instance(0)->AddOrder(1, 0, 1).ok());
  auto session = MakeSession(std::move(with_order));
  ASSERT_TRUE(session->CpsCheck().value());
  int64_t solves = session->stats().base_solves;

  // (a) EID edit on a tuple with initial orders: rejected.
  Status st = session->Mutate({core::TupleEdit{0, 0, 0, Value("e1")}});
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st;
  // (b) Out-of-range edit: rejected.
  EXPECT_EQ(session->Mutate({core::TupleEdit{0, 99, 1, Value(1)}})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session->stats().mutations, 0);
  ASSERT_TRUE(session->CpsCheck().value());
  EXPECT_EQ(session->stats().base_solves, solves)
      << "rejected mutations must not drop the caches";

  // (c) A copy-condition-violating edit rolls back atomically.  The
  // session runs two threads so the parallel batch below also exercises
  // the post-rollback path under TSan: ApplyTupleEdits must leave the
  // entity-group caches warm even though the epoch rebuild is skipped.
  auto s0 = MakeSession(MakeS0Trimmed(), /*threads=*/2);
  ASSERT_TRUE(s0->CpsCheck().ok());
  // Emp s1's address feeds Dept t1/t2 via ρ: editing it alone breaks the
  // copying condition.
  Status bad = s0->Mutate({core::TupleEdit{0, 0, 2, Value("9 New Rd")}});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(s0->spec().instance(0).relation().tuple(0).at(2),
            Value("2 Small St"))
      << "the failed batch must roll back";
  auto post_reject = s0->DcipBatch({"Emp", "Dept"});
  ASSERT_TRUE(post_reject.ok()) << post_reject.status();
  // The coordinated batch (source + both copy targets) is accepted.
  ASSERT_TRUE(s0->Mutate({core::TupleEdit{0, 0, 2, Value("9 New Rd")},
                          core::TupleEdit{1, 0, 1, Value("9 New Rd")},
                          core::TupleEdit{1, 1, 1, Value("9 New Rd")}})
                  .ok());
  EXPECT_EQ(s0->CpsCheck().value(),
            core::DecideConsistency(s0->spec())->consistent);
}

TEST(CurrencySession, VacuousAnswersOnInconsistentSpecifications) {
  // Two tuples with A = 0 and A = 1 plus a pure denial whose premises
  // are value-only: every completion is denied, so Mod(S) = ∅.
  core::Specification spec;
  Schema rs = Schema::Make("R", {"A"}).value();
  Relation r(rs);
  (void)r.AppendValues({Value("e0"), Value(0)});
  (void)r.AppendValues({Value("e0"), Value(1)});
  (void)spec.AddInstance(core::TemporalInstance(std::move(r)));
  ASSERT_TRUE(
      spec.AddConstraintText(
              "FORALL s, t IN R: s.A = 0 AND t.A = 1 -> s PREC[A] s")
          .ok());
  auto session = MakeSession(std::move(spec));
  EXPECT_FALSE(session->CpsCheck().value());

  core::CurrencyOrderQuery q;
  q.relation = "R";
  q.pairs = {core::RequiredPair{1, 0, 1}};
  EXPECT_TRUE(session->CopBatch({q})->at(0)) << "COP is vacuously true";
  EXPECT_TRUE(session->DcipBatch({"R"})->at(0)) << "DCIP is vacuously true";

  query::Query query =
      query::ParseQuery("Q(x) := EXISTS y: R('e0', x, y)").value();
  auto ccqa = session->CcqaBatch(
      {CcqaRequest{query, std::nullopt}, CcqaRequest{query, Tuple({Value(7)})}});
  ASSERT_TRUE(ccqa.ok()) << ccqa.status();
  EXPECT_TRUE((*ccqa)[0].vacuous);
  EXPECT_FALSE((*ccqa)[0].answers.has_value());
  EXPECT_TRUE((*ccqa)[1].vacuous);
  EXPECT_TRUE(*(*ccqa)[1].is_certain) << "membership is vacuously certain";
}

TEST(CurrencySession, ValidatesInputsUpFront) {
  SessionOptions zero_threads;
  zero_threads.num_threads = 0;
  EXPECT_EQ(CurrencySession::Create(MakeTwoComponentSpec(), zero_threads)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  auto session = MakeSession(MakeTwoComponentSpec());
  core::CurrencyOrderQuery unknown;
  unknown.relation = "Nope";
  EXPECT_EQ(session->CopBatch({unknown}).status().code(),
            StatusCode::kNotFound);
  core::CurrencyOrderQuery bad_pair;
  bad_pair.relation = "R";
  bad_pair.pairs = {core::RequiredPair{1, 0, 99}};
  EXPECT_EQ(session->CopBatch({bad_pair}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session->DcipBatch({"Nope"}).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace currency::serve
