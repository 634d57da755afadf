// Chase-routing equivalence: components with no denial-constraint
// grounding are decided by the polynomial copy-order chase (Theorem 6.1 /
// Lemma 6.2 / Proposition 6.3 applied to S|_c) while constrained
// components stay on SAT, side by side in one decomposed solve.  Routing
// is an implementation strategy, never a semantic switch, so every answer
// — CPS (and its witness one-shots), COP, DCIP, CCQA answer sets and the
// current-instance enumeration order — must be bit-identical to
// (a) forced-SAT routing (use_chase_routing = false) and (b) the
// brute-force oracle, across thread counts, mixed
// constrained/constraint-free specifications, and session Mutate rounds.
//
// On specifications no denial constraint grounds in, the routed one-shots
// must also equal the whole-specification PTIME procedures of Theorem 6.1
// and Proposition 6.3 (WholeSpecSubsumption below).
//
// Also covered here: the metamorphic classification properties (inert
// additions — a zero-grounding constraint, a single-source copy bucket —
// must not flip eligibility or fingerprints; a real grounding must flip
// exactly its component), the ChaseResult/ComponentChase work counters,
// and the session's chase-fixpoint reuse accounting across Mutate.
// scripts/check.sh re-runs this suite under ASan/UBSan and TSan.

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "src/core/brute_force.h"
#include "src/core/ccqa.h"
#include "src/core/certain_order.h"
#include "src/core/chase.h"
#include "src/core/consistency.h"
#include "src/core/decompose.h"
#include "src/core/deterministic.h"
#include "src/core/sp_ccqa.h"
#include "src/query/classify.h"
#include "src/query/parser.h"
#include "src/serve/session.h"
#include "tests/fixtures.h"

namespace currency::core {
namespace {

using currency::testing::MakeRandomSpec;

constexpr int kThreadCounts[] = {1, 2, 8};

std::string CanonicalCompletion(const Completion& c) {
  std::string out;
  for (const auto& per_inst : c.orders) {
    for (const auto& po : per_inst) out += po.ToString() + "|";
  }
  return out;
}

std::string CanonicalDb(const query::Database& db) {
  std::string out;
  for (const auto& [name, rel] : db) {
    out += name + "{";
    for (const Tuple& t : rel->tuples()) out += t.ToString() + ";";
    out += "}";
  }
  return out;
}

/// The COP query shapes of the session suite, clamped to `rel`'s size.
std::vector<CurrencyOrderQuery> MakeCopQueries(const Relation& rel) {
  std::vector<CurrencyOrderQuery> queries;
  auto single = [&](RequiredPair p) {
    CurrencyOrderQuery q;
    q.relation = "R";
    q.pairs = {p};
    queries.push_back(std::move(q));
  };
  single(RequiredPair{1, 0, 1});
  single(RequiredPair{2, 1, 0});
  single(RequiredPair{1, 0, 2});  // often cross-entity
  single(RequiredPair{1, 1, 1});  // reflexive
  CurrencyOrderQuery multi;
  multi.relation = "R";
  multi.pairs = {RequiredPair{1, 0, 1}, RequiredPair{2, 2, 3},
                 RequiredPair{1, 1, 0}};
  queries.push_back(std::move(multi));
  for (auto& q : queries) {
    for (auto& p : q.pairs) {
      p.before = p.before % rel.size();
      p.after = p.after % rel.size();
    }
  }
  return queries;
}

/// One differential pass over `spec`: every decision routed (chase on)
/// must equal the same decision forced onto SAT and the brute-force
/// oracle, and the current-instance enumeration order must be identical
/// across routings and thread counts.
void CheckRoutedEqualsForcedAndOracle(const Specification& spec) {
  bool oracle_consistent = BruteForceConsistent(spec).value();

  // --- CPS, including want_witness one-shots (witness forces SAT; the
  // witness itself must not depend on the routing flag). ---
  std::optional<std::string> witness_1;
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("cps threads=" + std::to_string(threads));
    for (bool routed : {true, false}) {
      CpsOptions cps;
      cps.use_chase_routing = routed;
      cps.num_threads = threads;
      auto outcome = DecideConsistency(spec, cps);
      ASSERT_TRUE(outcome.ok()) << outcome.status();
      EXPECT_EQ(outcome->consistent, oracle_consistent)
          << "routed=" << routed;

      cps.want_witness = true;
      auto with_witness = DecideConsistency(spec, cps);
      ASSERT_TRUE(with_witness.ok()) << with_witness.status();
      EXPECT_EQ(with_witness->consistent, oracle_consistent);
      if (with_witness->consistent) {
        ASSERT_TRUE(with_witness->witness.has_value());
        EXPECT_TRUE(
            IsConsistentCompletion(spec, *with_witness->witness).value());
        std::string canonical = CanonicalCompletion(*with_witness->witness);
        if (!witness_1.has_value()) {
          witness_1 = canonical;
        } else {
          EXPECT_EQ(canonical, *witness_1)
              << "witness depends on routing or threads, routed=" << routed;
        }
      }
    }
  }

  // --- COP. ---
  for (const CurrencyOrderQuery& q :
       MakeCopQueries(spec.instance(0).relation())) {
    bool oracle = BruteForceCertainOrder(spec, q).value();
    for (int threads : kThreadCounts) {
      for (bool routed : {true, false}) {
        SCOPED_TRACE("cop threads=" + std::to_string(threads) +
                     " routed=" + std::to_string(routed));
        CopOptions cop;
        cop.use_chase_routing = routed;
        cop.num_threads = threads;
        EXPECT_EQ(IsCertainOrder(spec, q, cop).value(), oracle);
      }
    }
  }

  // --- DCIP per relation. ---
  for (int i = 0; i < spec.num_instances(); ++i) {
    const std::string& rel = spec.instance(i).name();
    bool oracle = BruteForceDeterministic(spec, rel).value();
    for (int threads : kThreadCounts) {
      for (bool routed : {true, false}) {
        SCOPED_TRACE("dcip " + rel + " threads=" + std::to_string(threads) +
                     " routed=" + std::to_string(routed));
        DcipOptions dcip;
        dcip.use_chase_routing = routed;
        dcip.num_threads = threads;
        EXPECT_EQ(IsDeterministicForRelation(spec, rel, dcip).value(),
                  oracle);
      }
    }
  }

  // --- Current-instance enumeration: count AND exact order, identical
  // across routings and thread counts. ---
  std::optional<std::vector<std::string>> order_1;
  std::optional<int64_t> count_1;
  for (int threads : kThreadCounts) {
    for (bool routed : {true, false}) {
      SCOPED_TRACE("enum threads=" + std::to_string(threads) +
                   " routed=" + std::to_string(routed));
      CcqaOptions ccqa;
      ccqa.use_chase_routing = routed;
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
        EXPECT_EQ(*count, *count_1);
        EXPECT_EQ(order, *order_1)
            << "enumeration order depends on routing or threads";
      }
    }
  }

  // --- CCQA answer sets and membership, with and without the SP fast
  // path (the routed SP path must agree with the forced merged-SAT
  // blocking loop AND the oracle). ---
  query::Query q = query::ParseQuery("Q(x) := EXISTS y: R('e0', x, y)").value();
  auto oracle_answers = BruteForceCertainAnswers(spec, q);
  for (bool sp : {true, false}) {
    for (bool routed : {true, false}) {
      SCOPED_TRACE("ccqa sp=" + std::to_string(sp) +
                   " routed=" + std::to_string(routed));
      CcqaOptions ccqa;
      ccqa.use_sp_fast_path = sp;
      ccqa.use_chase_routing = routed;
      auto answers = CertainCurrentAnswers(spec, q, ccqa);
      if (!oracle_answers.ok()) {
        EXPECT_EQ(answers.status().code(), oracle_answers.status().code());
      } else {
        ASSERT_TRUE(answers.ok()) << answers.status();
        EXPECT_EQ(*answers, *oracle_answers);
      }
      for (int k = 0; k < 4; ++k) {
        Tuple t({Value(k)});
        auto member = IsCertainCurrentAnswer(spec, q, t, ccqa);
        ASSERT_TRUE(member.ok()) << member.status();
        bool oracle_member =
            !oracle_answers.ok() || oracle_answers->count(t) > 0;
        EXPECT_EQ(*member, oracle_member) << "candidate " << k;
      }
    }
  }
}

class ChaseRoutingEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ChaseRoutingEquivalence, RoutedEqualsForcedSatAndOracle) {
  // Fractions: 0 = every component constrained (routing must degrade to
  // pure SAT), 0.5 = mixed routing inside one solve, 1 = every component
  // chase-eligible with zero-grounding constraints still present; plus a
  // literally constraint-free draw.
  struct Variant {
    bool with_copy;
    bool with_constraints;
    double free_fraction;
  };
  const Variant variants[] = {
      {false, true, 0.0}, {true, true, 0.0},  {false, true, 0.5},
      {true, true, 0.5},  {false, true, 1.0}, {true, true, 1.0},
      {true, false, 0.0},
  };
  for (size_t v = 0; v < sizeof(variants) / sizeof(variants[0]); ++v) {
    Specification spec =
        MakeRandomSpec(GetParam() * 1621 + static_cast<unsigned>(v),
                       variants[v].with_copy, variants[v].with_constraints,
                       variants[v].free_fraction);
    SCOPED_TRACE("seed=" + std::to_string(GetParam()) +
                 " variant=" + std::to_string(v));
    CheckRoutedEqualsForcedAndOracle(spec);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, ChaseRoutingEquivalence,
                         ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// Subsumption of the whole-specification PTIME procedures: when no denial
// constraint grounds anywhere, every coupling component is chase-routed,
// and the per-component chase is Theorem 6.1 / Proposition 6.3 applied to
// each S|_c.  Because Mod(S) factors over components, the routed one-shot
// answers must equal those procedures run over the WHOLE specification —
// PO∞ membership (COP) and sink agreement (DCIP) on ChaseCopyOrders, and
// SpCertainCurrentAnswers / the poss(S) pipeline on the whole-spec PO∞
// (SP CCQA) — and the brute-force oracle.  This is why the decision
// procedures need no separate whole-specification route.

/// Theorem 6.1(2) on the whole-spec PO∞: every pair of `q` is certain iff
/// it is in PO∞ (vacuously certain when the chase derives a cycle).
bool WholeSpecCertainOrder(const ChaseResult& chase, int inst,
                           const CurrencyOrderQuery& q) {
  if (!chase.consistent) return true;
  for (const RequiredPair& p : q.pairs) {
    if (!chase.certain_orders[inst][p.attr].Less(p.before, p.after)) {
      return false;
    }
  }
  return true;
}

/// Theorem 6.1(3) on the whole-spec PO∞: deterministic iff, per entity
/// and attribute, all sinks of PO∞ agree on the value.
bool WholeSpecDeterministic(const Specification& spec,
                            const ChaseResult& chase, int inst) {
  if (!chase.consistent) return true;
  const TemporalInstance& instance = spec.instance(inst);
  const Relation& rel = instance.relation();
  for (AttrIndex a = 1; a < instance.schema().arity(); ++a) {
    for (const auto& [eid, members] : rel.EntityGroups()) {
      (void)eid;
      std::vector<int> sinks =
          chase.certain_orders[inst][a].SinksWithin(members);
      for (size_t k = 1; k < sinks.size(); ++k) {
        if (!(rel.tuple(sinks[k]).at(a) == rel.tuple(sinks[0]).at(a))) {
          return false;
        }
      }
    }
  }
  return true;
}

/// Proposition 6.3 on the whole-spec PO∞ (Inconsistent when Mod(S) = ∅).
Result<std::set<Tuple>> WholeSpecSpAnswers(const Specification& spec,
                                           const ChaseResult& chase,
                                           const query::Query& q) {
  if (!chase.consistent) return Status::Inconsistent("Mod(S) is empty");
  return SpAnswersFromCertainOrders(spec, chase.certain_orders, q);
}

void CheckRoutedEqualsWholeSpec(const Specification& spec) {
  ChaseResult whole = ChaseCopyOrders(spec).value();
  ASSERT_EQ(whole.consistent, BruteForceConsistent(spec).value());

  // The SP queries: a selection on the entity, a full projection, and
  // (when the replica exists) one over R2.
  std::vector<std::string> sp_texts = {
      "Q(x) := EXISTS e, y: R(e, x, y) AND e = 'e0'",
      "Q(x, y) := EXISTS e: R(e, x, y)",
  };
  if (spec.InstanceIndex("R2").ok()) {
    sp_texts.push_back("Q(c) := EXISTS f: R2(f, c)");
  }
  std::vector<query::Query> sp_queries;
  for (const std::string& text : sp_texts) {
    sp_queries.push_back(query::ParseQuery(text).value());
    ASSERT_TRUE(query::IsSpQuery(sp_queries.back())) << text;
  }

  // References first: the whole-spec procedures against the oracle.
  const std::vector<CurrencyOrderQuery> cop_queries =
      MakeCopQueries(spec.instance(0).relation());
  std::vector<bool> cop_ref;
  for (const CurrencyOrderQuery& q : cop_queries) {
    cop_ref.push_back(WholeSpecCertainOrder(whole, 0, q));
    EXPECT_EQ(cop_ref.back(), BruteForceCertainOrder(spec, q).value());
  }
  std::vector<bool> dcip_ref;
  for (int i = 0; i < spec.num_instances(); ++i) {
    dcip_ref.push_back(WholeSpecDeterministic(spec, whole, i));
    EXPECT_EQ(dcip_ref.back(),
              BruteForceDeterministic(spec, spec.instance(i).name()).value());
  }
  std::vector<Result<std::set<Tuple>>> sp_ref;
  for (const query::Query& q : sp_queries) {
    sp_ref.push_back(WholeSpecSpAnswers(spec, whole, q));
    auto oracle = BruteForceCertainAnswers(spec, q);
    ASSERT_EQ(sp_ref.back().ok(), oracle.ok()) << oracle.status();
    if (oracle.ok()) {
      EXPECT_EQ(*sp_ref.back(), *oracle);
    } else {
      EXPECT_EQ(sp_ref.back().status().code(), oracle.status().code());
    }
    if (!spec.HasDenialConstraints()) {
      // The whole-spec entry point proper agrees with its own pipeline.
      auto direct = SpCertainCurrentAnswers(spec, q);
      ASSERT_EQ(direct.ok(), sp_ref.back().ok()) << direct.status();
      if (direct.ok()) {
        EXPECT_EQ(*direct, *sp_ref.back());
      }
    }
  }

  // The routed one-shots, at every thread count.
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    CpsOptions cps;
    cps.num_threads = threads;
    auto outcome = DecideConsistency(spec, cps);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_EQ(outcome->consistent, whole.consistent);
    EXPECT_TRUE(outcome->used_ptime_path)
        << "a component without denial groundings reached SAT";

    for (size_t k = 0; k < cop_queries.size(); ++k) {
      CopOptions cop;
      cop.num_threads = threads;
      EXPECT_EQ(IsCertainOrder(spec, cop_queries[k], cop).value(),
                cop_ref[k])
          << "cop query " << k;
    }

    for (int i = 0; i < spec.num_instances(); ++i) {
      DcipOptions dcip;
      dcip.num_threads = threads;
      EXPECT_EQ(
          IsDeterministicForRelation(spec, spec.instance(i).name(), dcip)
              .value(),
          dcip_ref[i])
          << spec.instance(i).name();
    }

    for (size_t k = 0; k < sp_queries.size(); ++k) {
      SCOPED_TRACE(sp_texts[k]);
      CcqaOptions ccqa;
      ccqa.num_threads = threads;
      auto answers = CertainCurrentAnswers(spec, sp_queries[k], ccqa);
      if (sp_ref[k].ok()) {
        ASSERT_TRUE(answers.ok()) << answers.status();
        EXPECT_EQ(*answers, *sp_ref[k]);
      } else {
        EXPECT_EQ(answers.status().code(), sp_ref[k].status().code());
      }
      // Membership over every value the fixtures draw (0..3), so both
      // certain and non-certain candidates are asked.
      const size_t arity = sp_queries[k].head.size();
      for (int code = 0; code < (arity == 1 ? 4 : 16); ++code) {
        std::vector<Value> values = {Value(code % 4)};
        if (arity == 2) values.push_back(Value(code / 4));
        Tuple t(std::move(values));
        auto member = IsCertainCurrentAnswer(spec, sp_queries[k], t, ccqa);
        ASSERT_TRUE(member.ok()) << member.status();
        EXPECT_EQ(*member, !sp_ref[k].ok() || sp_ref[k]->count(t) > 0)
            << t.ToString();
      }
    }
  }
}

class WholeSpecSubsumption : public ::testing::TestWithParam<int> {};

TEST_P(WholeSpecSubsumption, RoutedEqualsTheorem61AndOracle) {
  // Literally constraint-free draws, and draws whose (entity-gated)
  // constraints ground nowhere (constraint_free_fraction = 1), with and
  // without the coupling replica.
  struct Variant {
    bool with_copy;
    bool with_constraints;
  };
  const Variant variants[] = {
      {false, false}, {true, false}, {false, true}, {true, true}};
  for (size_t v = 0; v < sizeof(variants) / sizeof(variants[0]); ++v) {
    Specification spec = MakeRandomSpec(
        GetParam() * 2741 + static_cast<unsigned>(v), variants[v].with_copy,
        variants[v].with_constraints, /*constraint_free_fraction=*/1.0);
    SCOPED_TRACE("seed=" + std::to_string(GetParam()) +
                 " variant=" + std::to_string(v));
    CheckRoutedEqualsWholeSpec(spec);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, WholeSpecSubsumption,
                         ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Sessions: routed and forced sessions over the same specification must
// give element-wise equal batch answers across random accepted/rejected
// Mutate rounds, for every thread count.

std::vector<TupleEdit> MakeRandomEdits(const Specification& spec,
                                       std::mt19937& rng) {
  auto rnd = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  const Relation& r = spec.instance(0).relation();
  TupleId t = rnd(0, r.size() - 1);
  switch (rnd(0, 3)) {
    case 0: {  // no-op rewrite
      AttrIndex a = rnd(0, r.schema().arity() - 1);
      return {TupleEdit{0, t, a, r.tuple(t).at(a)}};
    }
    case 1:  // free-attribute edit
      return {TupleEdit{0, t, 2, Value(rnd(0, 3))}};
    case 2: {  // EID move; may be rejected
      const char* eids[] = {"e0", "e1", "e2"};
      return {TupleEdit{0, t, 0, Value(eids[rnd(0, 2)])}};
    }
    default: {  // coordinated A edit keeping copy conditions intact
      Value v(rnd(0, 3));
      std::vector<TupleEdit> edits = {TupleEdit{0, t, 1, v}};
      for (const CopyEdge& edge : spec.copy_edges()) {
        for (const auto& [tgt, src] : edge.fn.mapping()) {
          if (src == t) edits.push_back(TupleEdit{edge.target_instance, tgt, 1, v});
        }
      }
      return edits;
    }
  }
}

void CheckSessionsAgree(serve::CurrencySession* routed,
                        serve::CurrencySession* forced) {
  const Specification& spec = routed->spec();
  {
    auto a = routed->CpsCheck();
    auto b = forced->CpsCheck();
    ASSERT_TRUE(a.ok() && b.ok()) << a.status() << " " << b.status();
    EXPECT_EQ(*a, *b) << "CPS";
  }
  {
    std::vector<CurrencyOrderQuery> queries =
        MakeCopQueries(spec.instance(0).relation());
    auto a = routed->CopBatch(queries);
    auto b = forced->CopBatch(queries);
    ASSERT_TRUE(a.ok() && b.ok()) << a.status() << " " << b.status();
    EXPECT_EQ(*a, *b) << "COP";
  }
  {
    std::vector<std::string> relations;
    for (int i = 0; i < spec.num_instances(); ++i) {
      relations.push_back(spec.instance(i).name());
    }
    auto a = routed->DcipBatch(relations);
    auto b = forced->DcipBatch(relations);
    ASSERT_TRUE(a.ok() && b.ok()) << a.status() << " " << b.status();
    EXPECT_EQ(*a, *b) << "DCIP";
  }
  {
    query::Query q =
        query::ParseQuery("Q(x) := EXISTS y: R('e0', x, y)").value();
    std::vector<serve::CcqaRequest> requests;
    requests.push_back(serve::CcqaRequest{q, std::nullopt});
    for (int k = 0; k < 4; ++k) {
      requests.push_back(serve::CcqaRequest{q, Tuple({Value(k)})});
    }
    auto a = routed->CcqaBatch(requests);
    auto b = forced->CcqaBatch(requests);
    ASSERT_TRUE(a.ok() && b.ok()) << a.status() << " " << b.status();
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) {
      SCOPED_TRACE("ccqa request " + std::to_string(i));
      EXPECT_EQ((*a)[i].vacuous, (*b)[i].vacuous);
      EXPECT_EQ((*a)[i].is_certain, (*b)[i].is_certain);
      EXPECT_EQ((*a)[i].answers, (*b)[i].answers);
    }
  }
}

class ChaseRoutingSession : public ::testing::TestWithParam<int> {};

TEST_P(ChaseRoutingSession, RoutedSessionMatchesForcedAcrossMutations) {
  for (int variant = 0; variant < 4; ++variant) {
    bool with_copy = variant & 1;
    double free_fraction = variant >= 2 ? 0.5 : 1.0;
    Specification spec = MakeRandomSpec(GetParam() * 2341 + variant,
                                        with_copy, true, free_fraction);
    for (int threads : kThreadCounts) {
      SCOPED_TRACE("seed=" + std::to_string(GetParam()) +
                   " variant=" + std::to_string(variant) +
                   " threads=" + std::to_string(threads));
      serve::SessionOptions routed_opts;
      routed_opts.num_threads = threads;
      serve::SessionOptions forced_opts = routed_opts;
      forced_opts.use_chase_routing = false;
      auto routed = serve::CurrencySession::Create(spec, routed_opts);
      auto forced = serve::CurrencySession::Create(spec, forced_opts);
      ASSERT_TRUE(routed.ok() && forced.ok())
          << routed.status() << " " << forced.status();
      CheckSessionsAgree(routed->get(), forced->get());
      if (::testing::Test::HasFatalFailure()) return;
      std::mt19937 rng(GetParam() * 4099 + variant * 31 + threads);
      for (int round = 0; round < 2; ++round) {
        SCOPED_TRACE("round=" + std::to_string(round));
        std::vector<TupleEdit> edits =
            MakeRandomEdits((*routed)->spec(), rng);
        Status a = (*routed)->Mutate(edits);
        Status b = (*forced)->Mutate(edits);
        EXPECT_EQ(a.code(), b.code());
        if (!a.ok()) {
          EXPECT_EQ(a.code(), StatusCode::kFailedPrecondition);
        }
        CheckSessionsAgree(routed->get(), forced->get());
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, ChaseRoutingSession, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// Metamorphic classification properties.

/// R(A, B) with groups e0 (A values distinct — a gated "A decides
/// currency" constraint grounds) and e1 (A values equal — the same
/// constraint text gated on e1 grounds nowhere).
Specification MakeMixedSpec(bool constrain_e0) {
  Specification spec;
  Schema rs = Schema::Make("R", {"A", "B"}).value();
  Relation r(rs);
  auto add = [&](const char* eid, int a, int b) {
    auto id = r.AppendValues({Value(eid), Value(a), Value(b)});
    (void)id;
  };
  add("e0", 1, 10);  // 0
  add("e0", 2, 20);  // 1
  add("e1", 5, 30);  // 2
  add("e1", 5, 40);  // 3
  auto st = spec.AddInstance(core::TemporalInstance(std::move(r)));
  (void)st;
  if (constrain_e0) {
    auto cst = spec.AddConstraintText(
        "FORALL s, t IN R: s.EID = 'e0' AND s.A > t.A -> t PREC[A] s");
    (void)cst;
  }
  return spec;
}

TEST(ChaseClassification, GroundedConstraintFlipsExactlyItsComponent) {
  Specification base = MakeMixedSpec(false);
  Specification constrained = MakeMixedSpec(true);
  auto d0 = Decomposition::Build(base);
  auto d1 = Decomposition::Build(constrained);
  ASSERT_TRUE(d0.ok() && d1.ok());
  int e0_before = d0->ComponentOf(0, Value("e0"));
  int e1_before = d0->ComponentOf(0, Value("e1"));
  int e0_after = d1->ComponentOf(0, Value("e0"));
  int e1_after = d1->ComponentOf(0, Value("e1"));
  // Without constraints both components are chase-eligible and (being
  // singleton, uncoupled groups) chase-enumerable.
  EXPECT_TRUE(d0->chase_eligible(e0_before));
  EXPECT_TRUE(d0->chase_eligible(e1_before));
  EXPECT_TRUE(d0->chase_enumerable(e0_before));
  EXPECT_TRUE(d0->chase_enumerable(e1_before));
  // The grounded constraint flips exactly e0's component to SAT and
  // changes exactly e0's fingerprint.
  EXPECT_FALSE(d1->chase_eligible(e0_after));
  EXPECT_FALSE(d1->chase_enumerable(e0_after));
  EXPECT_TRUE(d1->chase_eligible(e1_after));
  EXPECT_NE(d0->fingerprint(e0_before), d1->fingerprint(e0_after));
  EXPECT_EQ(d0->fingerprint(e1_before), d1->fingerprint(e1_after));
}

TEST(ChaseClassification, ZeroGroundingConstraintIsInert) {
  Specification base = MakeMixedSpec(true);
  Specification with_inert = MakeMixedSpec(true);
  // e1's A values are equal, so this constraint grounds nowhere; a
  // constraint gated on a nonexistent entity is equally inert.
  ASSERT_TRUE(with_inert
                  .AddConstraintText("FORALL s, t IN R: s.EID = 'e1' AND "
                                     "s.A > t.A -> t PREC[A] s")
                  .ok());
  ASSERT_TRUE(with_inert
                  .AddConstraintText("FORALL s, t IN R: s.EID = 'nobody' AND "
                                     "s.A > t.A -> t PREC[B] s")
                  .ok());
  auto d0 = Decomposition::Build(base);
  auto d1 = Decomposition::Build(with_inert);
  ASSERT_TRUE(d0.ok() && d1.ok());
  for (const Value& eid : {Value("e0"), Value("e1")}) {
    int before = d0->ComponentOf(0, eid);
    int after = d1->ComponentOf(0, eid);
    EXPECT_EQ(d0->chase_eligible(before), d1->chase_eligible(after))
        << eid.ToString();
    EXPECT_EQ(d0->chase_enumerable(before), d1->chase_enumerable(after))
        << eid.ToString();
    EXPECT_EQ(d0->fingerprint(before), d1->fingerprint(after))
        << eid.ToString();
  }
}

TEST(ChaseClassification, SingleSourceCopyBucketIsInert) {
  // A second relation copying from ONE source tuple of e1: the bucket has
  // a single distinct source, so it emits no clause, no coupling, and no
  // chase derivation — e1's component must keep its classification and
  // fingerprint (the new R2 group forms its own component).
  Specification base = MakeMixedSpec(true);
  Specification with_copy = MakeMixedSpec(true);
  {
    Schema r2s = Schema::Make("R2", {"C"}).value();
    Relation r2(r2s);
    auto id = r2.AppendValues({Value("f0"), Value(5)});  // copies e1's A
    copy::CopySignature sig;
    sig.target_relation = "R2";
    sig.target_attrs = {"C"};
    sig.source_relation = "R";
    sig.source_attrs = {"A"};
    copy::CopyFunction fn(sig);
    auto m = fn.Map(id.value(), 2);
    (void)m;
    ASSERT_TRUE(with_copy.AddInstance(core::TemporalInstance(std::move(r2)))
                    .ok());
    ASSERT_TRUE(with_copy.AddCopyFunction(std::move(fn)).ok());
  }
  auto d0 = Decomposition::Build(base);
  auto d1 = Decomposition::Build(with_copy);
  ASSERT_TRUE(d0.ok() && d1.ok());
  for (const Value& eid : {Value("e0"), Value("e1")}) {
    int before = d0->ComponentOf(0, eid);
    int after = d1->ComponentOf(0, eid);
    EXPECT_EQ(d0->chase_eligible(before), d1->chase_eligible(after))
        << eid.ToString();
    EXPECT_EQ(d0->chase_enumerable(before), d1->chase_enumerable(after))
        << eid.ToString();
    EXPECT_EQ(d0->fingerprint(before), d1->fingerprint(after))
        << eid.ToString();
  }
  // The R2 group itself is a fresh chase-enumerable singleton.
  int r2c = d1->ComponentOf(1, Value("f0"));
  ASSERT_GE(r2c, 0);
  EXPECT_TRUE(d1->chase_eligible(r2c));
  EXPECT_TRUE(d1->chase_enumerable(r2c));
}

TEST(ChaseClassification, CouplingBucketDisablesEnumerationOnly) {
  // R2's group copies from TWO distinct source tuples of e1: the bucket
  // couples the groups into one component.  With no grounded constraint
  // the merged component stays chase-ELIGIBLE, but attribute independence
  // is gone, so it must not be chase-ENUMERABLE.
  Specification spec = MakeMixedSpec(false);
  {
    Schema r2s = Schema::Make("R2", {"C"}).value();
    Relation r2(r2s);
    auto i1 = r2.AppendValues({Value("f0"), Value(5)});
    auto i2 = r2.AppendValues({Value("f0"), Value(5)});
    copy::CopySignature sig;
    sig.target_relation = "R2";
    sig.target_attrs = {"C"};
    sig.source_relation = "R";
    sig.source_attrs = {"A"};
    copy::CopyFunction fn(sig);
    auto m1 = fn.Map(i1.value(), 2);
    auto m2 = fn.Map(i2.value(), 3);
    (void)m1;
    (void)m2;
    ASSERT_TRUE(spec.AddInstance(core::TemporalInstance(std::move(r2))).ok());
    ASSERT_TRUE(spec.AddCopyFunction(std::move(fn)).ok());
  }
  auto d = Decomposition::Build(spec);
  ASSERT_TRUE(d.ok());
  int coupled = d->ComponentOf(0, Value("e1"));
  ASSERT_EQ(coupled, d->ComponentOf(1, Value("f0")));
  EXPECT_TRUE(d->chase_eligible(coupled));
  EXPECT_FALSE(d->chase_enumerable(coupled));
  // e0 is untouched by the bucket: still enumerable.
  int e0 = d->ComponentOf(0, Value("e0"));
  EXPECT_TRUE(d->chase_enumerable(e0));
}

// ---------------------------------------------------------------------------
// Work counters and cache observability.

TEST(ChaseCounters, ComponentChaseCountsWorkAndSkipsEncoders) {
  // e1 coupled with R2 through a two-source bucket, plus an initial order
  // on e1's A so copy propagation actually derives pairs in R2.
  Specification spec;
  {
    Schema rs = Schema::Make("R", {"A", "B"}).value();
    Relation r(rs);
    (void)r.AppendValues({Value("e0"), Value(1), Value(10)});
    (void)r.AppendValues({Value("e0"), Value(2), Value(20)});
    (void)r.AppendValues({Value("e1"), Value(5), Value(30)});
    (void)r.AppendValues({Value("e1"), Value(5), Value(40)});
    TemporalInstance inst(std::move(r));
    ASSERT_TRUE(inst.AddOrder(1, 2, 3).ok());  // e1: tuple 2 ≺ tuple 3 on A
    ASSERT_TRUE(spec.AddInstance(std::move(inst)).ok());

    Schema r2s = Schema::Make("R2", {"C"}).value();
    Relation r2(r2s);
    auto i1 = r2.AppendValues({Value("f0"), Value(5)});
    auto i2 = r2.AppendValues({Value("f0"), Value(5)});
    copy::CopySignature sig;
    sig.target_relation = "R2";
    sig.target_attrs = {"C"};
    sig.source_relation = "R";
    sig.source_attrs = {"A"};
    copy::CopyFunction fn(sig);
    auto m1 = fn.Map(i1.value(), 2);
    auto m2 = fn.Map(i2.value(), 3);
    (void)m1;
    (void)m2;
    ASSERT_TRUE(spec.AddInstance(TemporalInstance(std::move(r2))).ok());
    ASSERT_TRUE(spec.AddCopyFunction(std::move(fn)).ok());
  }
  Encoder::Options enc;
  enc.define_is_last = true;
  auto decomposed = DecomposedEncoder::Build(spec, enc, /*use_chase_routing=*/true);
  ASSERT_TRUE(decomposed.ok()) << decomposed.status();
  ASSERT_TRUE((*decomposed)->chase_routing());
  ASSERT_TRUE((*decomposed)->SolveAll({}, nullptr).value());
  int coupled = (*decomposed)->decomposition().ComponentOf(0, Value("e1"));
  auto chase = (*decomposed)->ComponentChaseFixpoint(coupled);
  ASSERT_TRUE(chase.ok()) << chase.status();
  EXPECT_TRUE((*chase)->consistent);
  EXPECT_GE((*chase)->passes, 1);
  EXPECT_GT((*chase)->edges_expanded, 0) << "copy pairs were scanned";
  EXPECT_GT((*chase)->derived_pairs, 0)
      << "the initial order must propagate into R2";
  // Routed SolveAll never builds encoders for chase-eligible components.
  for (int c = 0; c < (*decomposed)->num_components(); ++c) {
    if ((*decomposed)->decomposition().chase_eligible(c)) {
      EXPECT_EQ((*decomposed)->TakeComponentEncoder(c), nullptr)
          << "component " << c;
    }
  }
  // The whole-specification chase mirrors the counters.
  auto whole = ChaseCopyOrders(spec);
  ASSERT_TRUE(whole.ok());
  EXPECT_GT(whole->edges_expanded, 0);
  EXPECT_GT(whole->derived_pairs, 0);
}

TEST(ChaseCounters, SessionReusesFixpointsAcrossMutate) {
  // Mixed specification: e0 constrained (SAT), e1 free (chase).
  Specification spec = MakeMixedSpec(true);
  serve::SessionOptions options;
  auto session = serve::CurrencySession::Create(std::move(spec), options);
  ASSERT_TRUE(session.ok()) << session.status();
  ASSERT_TRUE((*session)->CpsCheck().value());
  int64_t chase_solves = (*session)->stats().chase_solves;
  EXPECT_EQ(chase_solves, 1) << "exactly e1's component chases";
  EXPECT_EQ((*session)->stats().base_solves, 1) << "exactly e0's solves SAT";

  // A no-op edit keeps every fingerprint: the chase fixpoint is adopted,
  // nothing re-chases, and the next CPS is a pure cache read.
  const Value a0 = (*session)->spec().instance(0).relation().tuple(0).at(1);
  ASSERT_TRUE((*session)->Mutate({TupleEdit{0, 0, 1, a0}}).ok());
  EXPECT_EQ((*session)->stats().last_chase_reused, 1);
  EXPECT_EQ((*session)->stats().last_chase_rechased, 0);
  ASSERT_TRUE((*session)->CpsCheck().value());
  EXPECT_EQ((*session)->stats().chase_solves, chase_solves)
      << "adopted fixpoint must not re-chase";

  // Editing e1's content invalidates exactly its fixpoint.
  ASSERT_TRUE((*session)->Mutate({TupleEdit{0, 2, 2, Value(99)}}).ok());
  EXPECT_EQ((*session)->stats().last_chase_reused, 0);
  EXPECT_EQ((*session)->stats().last_chase_rechased, 1);
  EXPECT_EQ((*session)->stats().last_reused, 1) << "e0's encoder survives";
  ASSERT_TRUE((*session)->CpsCheck().value());
  EXPECT_EQ((*session)->stats().chase_solves, chase_solves + 1)
      << "exactly the invalidated component re-chases";

  // Editing e0's content leaves the fixpoint cache untouched.
  ASSERT_TRUE((*session)->Mutate({TupleEdit{0, 0, 2, Value(77)}}).ok());
  EXPECT_EQ((*session)->stats().last_chase_reused, 1);
  EXPECT_EQ((*session)->stats().last_chase_rechased, 0);
}

}  // namespace
}  // namespace currency::core
