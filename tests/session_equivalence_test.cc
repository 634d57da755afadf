// Session-vs-fresh equivalence for the serving layer: every batch answer
// a CurrencySession gives — cold, warm, and after arbitrary accepted or
// rejected Mutate batches — must equal the answer of a fresh one-shot
// solve with forced-SAT routing (use_chase_routing = false) over the
// session's current specification, and must agree with the brute-force
// oracle.  The session's caches (component encoders with
// accumulated learnt clauses, base-solve results, fingerprint-matched
// reuse across epochs) are exactly the machinery under test, which is why
// every round re-checks all four problems from scratch.
//
// Checked across session thread counts {1, 2, 8}; scripts/check.sh also
// runs this suite under ThreadSanitizer and AddressSanitizer.

#include <gtest/gtest.h>

#include <optional>
#include <random>
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
#include "src/serve/session.h"
#include "tests/fixtures.h"

namespace currency::serve {
namespace {

using currency::testing::MakeRandomSpec;

constexpr int kThreadCounts[] = {1, 2, 8};

/// COP queries exercising same-entity, cross-entity, reflexive and
/// multi-pair shapes against relation R of the random specifications.
std::vector<core::CurrencyOrderQuery> MakeCopQueries() {
  std::vector<core::CurrencyOrderQuery> queries;
  auto single = [&](core::RequiredPair p) {
    core::CurrencyOrderQuery q;
    q.relation = "R";
    q.pairs = {p};
    queries.push_back(std::move(q));
  };
  single(core::RequiredPair{1, 0, 1});
  single(core::RequiredPair{2, 1, 0});
  single(core::RequiredPair{1, 0, 2});  // often cross-entity
  single(core::RequiredPair{1, 1, 1});  // reflexive
  core::CurrencyOrderQuery multi;
  multi.relation = "R";
  multi.pairs = {core::RequiredPair{1, 0, 1}, core::RequiredPair{2, 2, 3},
                 core::RequiredPair{1, 1, 0}};
  queries.push_back(std::move(multi));
  return queries;
}

/// Re-checks all four problems on the session against a fresh forced-SAT
/// one-shot solve of session->spec() AND the brute-force oracle.
void CheckAllProblems(CurrencySession* session) {
  const core::Specification& spec = session->spec();

  // --- CPS ---
  {
    core::CpsOptions cps;
    cps.use_chase_routing = false;  // fresh FORCED-SAT comparator
    auto fresh = core::DecideConsistency(spec, cps);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    bool oracle = core::BruteForceConsistent(spec).value();
    auto got = session->CpsCheck();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, fresh->consistent);
    EXPECT_EQ(*got, oracle);
  }

  // --- COP ---
  {
    std::vector<core::CurrencyOrderQuery> queries = MakeCopQueries();
    // Clamp the fixed tuple ids to the relation's actual size.
    const Relation& rel = spec.instance(0).relation();
    for (auto& q : queries) {
      for (auto& p : q.pairs) {
        p.before = p.before % rel.size();
        p.after = p.after % rel.size();
      }
    }
    auto got = session->CopBatch(queries);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      SCOPED_TRACE("cop query " + std::to_string(i));
      core::CopOptions cop;
      cop.use_chase_routing = false;
      auto fresh = core::IsCertainOrder(spec, queries[i], cop);
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      EXPECT_EQ((*got)[i], *fresh);
      EXPECT_EQ((*got)[i],
                core::BruteForceCertainOrder(spec, queries[i]).value());
    }
  }

  // --- DCIP over every relation ---
  {
    std::vector<std::string> relations;
    for (int i = 0; i < spec.num_instances(); ++i) {
      relations.push_back(spec.instance(i).name());
    }
    auto got = session->DcipBatch(relations);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->size(), relations.size());
    for (size_t i = 0; i < relations.size(); ++i) {
      SCOPED_TRACE("dcip relation " + relations[i]);
      core::DcipOptions dcip;
      dcip.use_chase_routing = false;
      auto fresh = core::IsDeterministicForRelation(spec, relations[i], dcip);
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      EXPECT_EQ((*got)[i], *fresh);
      EXPECT_EQ((*got)[i],
                core::BruteForceDeterministic(spec, relations[i]).value());
    }
  }

  // --- CCQA: one answer-set request plus membership requests ---
  {
    query::Query q =
        query::ParseQuery("Q(x) := EXISTS y: R('e0', x, y)").value();
    std::vector<CcqaRequest> requests;
    requests.push_back(CcqaRequest{q, std::nullopt});
    for (int k = 0; k < 4; ++k) {
      requests.push_back(CcqaRequest{q, Tuple({Value(k)})});
    }
    auto got = session->CcqaBatch(requests);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->size(), requests.size());
    core::CcqaOptions ccqa;
    ccqa.use_sp_fast_path = false;
    ccqa.use_chase_routing = false;
    auto fresh = core::CertainCurrentAnswers(spec, q, ccqa);
    auto oracle = core::BruteForceCertainAnswers(spec, q);
    if (!fresh.ok()) {
      ASSERT_EQ(fresh.status().code(), StatusCode::kInconsistent)
          << fresh.status();
      EXPECT_EQ(oracle.status().code(), StatusCode::kInconsistent);
      EXPECT_TRUE((*got)[0].vacuous);
      EXPECT_FALSE((*got)[0].answers.has_value());
    } else {
      ASSERT_TRUE((*got)[0].answers.has_value());
      EXPECT_FALSE((*got)[0].vacuous);
      EXPECT_EQ(*(*got)[0].answers, *fresh);
      EXPECT_EQ(*(*got)[0].answers, oracle.value());
    }
    for (int k = 0; k < 4; ++k) {
      SCOPED_TRACE("ccqa membership candidate " + std::to_string(k));
      auto fresh_member =
          core::IsCertainCurrentAnswer(spec, q, Tuple({Value(k)}), ccqa);
      ASSERT_TRUE(fresh_member.ok()) << fresh_member.status();
      ASSERT_TRUE((*got)[k + 1].is_certain.has_value());
      EXPECT_EQ(*(*got)[k + 1].is_certain, *fresh_member);
      EXPECT_EQ(*fresh_member,
                !oracle.ok() || oracle->count(Tuple({Value(k)})) > 0);
    }
  }
}

/// A random edit batch against the MakeRandomSpec shape (R(A, B) plus an
/// optional R2(C) copying C ⇐ A): no-op rewrites, free B edits, EID moves
/// (including to a fresh entity — the component split/merge cases), and
/// copy-consistent coordinated A edits.
std::vector<core::TupleEdit> MakeRandomEdits(const core::Specification& spec,
                                             std::mt19937& rng) {
  auto rnd = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  const Relation& r = spec.instance(0).relation();
  TupleId t = rnd(0, r.size() - 1);
  switch (rnd(0, 3)) {
    case 0: {  // no-op rewrite of an arbitrary cell
      AttrIndex a = rnd(0, r.schema().arity() - 1);
      return {core::TupleEdit{0, t, a, r.tuple(t).at(a)}};
    }
    case 1:  // free-attribute edit (B is never copied)
      return {core::TupleEdit{0, t, 2, Value(rnd(0, 3))}};
    case 2: {  // EID move; may be rejected when t has initial orders
      const char* eids[] = {"e0", "e1", "e2"};
      return {core::TupleEdit{0, t, 0, Value(eids[rnd(0, 2)])}};
    }
    default: {  // coordinated A edit keeping every copy condition intact
      Value v(rnd(0, 3));
      std::vector<core::TupleEdit> edits = {core::TupleEdit{0, t, 1, v}};
      for (const core::CopyEdge& edge : spec.copy_edges()) {
        for (const auto& [tgt, src] : edge.fn.mapping()) {
          if (src == t) {
            edits.push_back(
                core::TupleEdit{edge.target_instance, tgt, 1, v});
          }
        }
      }
      return edits;
    }
  }
}

class SessionEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SessionEquivalence, BatchesMatchFreshSolvesAcrossMutations) {
  // Variants 0–3: the historical copy × constraints grid.  Variants 4–5
  // add entity-gated constraints with a 0.5 constraint-free fraction, so
  // sessions mix chase-routed and SAT-routed components.
  for (int variant = 0; variant < 6; ++variant) {
    bool with_copy = variant & 1;
    bool with_constraints = (variant & 2) || variant >= 4;
    double free_fraction = variant >= 4 ? 0.5 : 0.0;
    core::Specification spec =
        MakeRandomSpec(GetParam() * 1237 + variant, with_copy,
                       with_constraints, free_fraction);
    for (int threads : kThreadCounts) {
      SCOPED_TRACE("seed=" + std::to_string(GetParam()) +
                   " variant=" + std::to_string(variant) +
                   " threads=" + std::to_string(threads));
      SessionOptions options;
      options.num_threads = threads;
      auto session = CurrencySession::Create(spec, options);
      ASSERT_TRUE(session.ok()) << session.status();
      CheckAllProblems(session->get());
      if (::testing::Test::HasFatalFailure()) return;
      // Warm re-check: answers must be stable and served from cache.
      int64_t solves_before = (*session)->stats().base_solves;
      CheckAllProblems(session->get());
      if (::testing::Test::HasFatalFailure()) return;
      EXPECT_EQ((*session)->stats().base_solves, solves_before)
          << "warm batches must not re-run base solves";
      // Mutation rounds: rejected batches must leave everything
      // unchanged; accepted ones must match fresh solves on the edited
      // specification.  Both paths re-check all four problems.
      std::mt19937 rng(GetParam() * 7919 + variant * 53 + threads);
      for (int round = 0; round < 2; ++round) {
        SCOPED_TRACE("round=" + std::to_string(round));
        std::vector<core::TupleEdit> edits =
            MakeRandomEdits((*session)->spec(), rng);
        Status st = (*session)->Mutate(edits);
        if (!st.ok()) {
          EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st;
        }
        CheckAllProblems(session->get());
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, SessionEquivalence,
                         ::testing::Range(0, 12));

/// Serializes every batch answer a session gives (CPS, COP, DCIP, CCQA
/// answer sets and memberships) into one comparable transcript.
std::string BatchTranscript(CurrencySession* session) {
  std::string out;
  auto cps = session->CpsCheck();
  out += "cps=" + std::string(cps.ok() ? (*cps ? "1" : "0") : "E") + ";";
  std::vector<core::CurrencyOrderQuery> queries = MakeCopQueries();
  const Relation& rel = session->spec().instance(0).relation();
  for (auto& q : queries) {
    for (auto& p : q.pairs) {
      p.before = p.before % rel.size();
      p.after = p.after % rel.size();
    }
  }
  auto cop = session->CopBatch(queries);
  out += "cop=";
  if (cop.ok()) {
    for (bool b : *cop) out += b ? "1" : "0";
  } else {
    out += "E";
  }
  auto dcip = session->DcipBatch({"R"});
  out += ";dcip=";
  out += dcip.ok() ? ((*dcip)[0] ? "1" : "0") : "E";
  query::Query q = query::ParseQuery("Q(x) := EXISTS y: R('e0', x, y)").value();
  std::vector<CcqaRequest> requests;
  requests.push_back(CcqaRequest{q, std::nullopt});
  for (int k = 0; k < 4; ++k) {
    requests.push_back(CcqaRequest{q, Tuple({Value(k)})});
  }
  auto ccqa = session->CcqaBatch(requests);
  out += ";ccqa=";
  if (!ccqa.ok()) {
    out += "E";
    return out;
  }
  for (const CcqaResponse& r : *ccqa) {
    out += r.vacuous ? "v" : ".";
    if (r.is_certain.has_value()) out += *r.is_certain ? "1" : "0";
    if (r.answers.has_value()) {
      out += "{";
      for (const Tuple& t : *r.answers) out += t.ToString() + ",";
      out += "}";
    }
    out += "|";
  }
  return out;
}

// Tracing must not perturb anything: a session running under a live,
// enabled tracer (spans opened, stages attached, timers firing) must
// produce a bit-identical batch transcript to an untraced session over
// the same specification and edit sequence, at every thread count.
TEST(SessionEquivalence, TracingDoesNotPerturbAnswers) {
  for (int variant : {1, 5}) {
    bool with_copy = variant & 1;
    bool with_constraints = (variant & 2) || variant >= 4;
    double free_fraction = variant >= 4 ? 0.5 : 0.0;
    core::Specification spec =
        MakeRandomSpec(99 * 1237 + variant, with_copy, with_constraints,
                       free_fraction);
    for (int threads : kThreadCounts) {
      SCOPED_TRACE("variant=" + std::to_string(variant) +
                   " threads=" + std::to_string(threads));
      obs::TraceOptions trace_options;
      trace_options.enabled = true;
      trace_options.slow_threshold_ns = 0;  // everything hits the slow log
      obs::Tracer tracer(trace_options);

      auto make_session = [&](obs::Tracer* t) {
        SessionOptions options;
        options.num_threads = threads;
        options.tracer = t;
        auto session = CurrencySession::Create(spec, options);
        EXPECT_TRUE(session.ok()) << session.status();
        return std::move(session).value();
      };
      auto plain = make_session(nullptr);
      auto traced = make_session(&tracer);
      if (::testing::Test::HasFailure()) return;

      EXPECT_EQ(BatchTranscript(traced.get()), BatchTranscript(plain.get()));
      // Same accepted/rejected mutation outcomes, same post-edit answers.
      std::mt19937 rng(variant * 53 + threads);
      for (int round = 0; round < 2; ++round) {
        std::vector<core::TupleEdit> edits = MakeRandomEdits(plain->spec(),
                                                             rng);
        Status st_plain = plain->Mutate(edits);
        Status st_traced = traced->Mutate(edits);
        EXPECT_EQ(st_plain.code(), st_traced.code());
        EXPECT_EQ(BatchTranscript(traced.get()),
                  BatchTranscript(plain.get()))
            << "round=" << round;
      }
#ifndef CURRENCY_OBS_OFF
      // The traced session really traced: one root per batch call (4 per
      // transcript × 3 transcripts) plus one per Mutate.
      EXPECT_EQ(tracer.recorded_traces(), 14);
      EXPECT_FALSE(tracer.SlowLog().empty());
#endif
    }
  }
}

}  // namespace
}  // namespace currency::serve
