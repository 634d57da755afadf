// Invariant tests for the brute-force oracle itself: the certain-prefix
// seeding and definitive-violation pruning inside
// EnumerateConsistentCompletions are optimizations and must not change
// WHICH completions are visited.  The reference below re-enumerates the
// raw cross product of linear extensions of the *initial* orders and
// filters with IsConsistentCompletion only.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/core/brute_force.h"
#include "src/core/ccqa.h"
#include "src/core/certain_order.h"
#include "src/core/completion.h"
#include "src/core/consistency.h"
#include "src/core/decompose.h"
#include "src/core/deterministic.h"
#include "src/order/linear_extensions.h"
#include "src/query/parser.h"
#include "tests/fixtures.h"

namespace currency::core {
namespace {

using currency::testing::MakeRandomSpec;

/// Raw reference enumeration: no seeding, no pruning.
Result<int64_t> RawCount(const Specification& spec, int64_t max_candidates) {
  struct Slot {
    int inst;
    AttrIndex attr;
    std::vector<std::vector<TupleId>> extensions;
  };
  std::vector<Slot> slots;
  int64_t estimate = 1;
  for (int i = 0; i < spec.num_instances(); ++i) {
    const TemporalInstance& inst = spec.instance(i);
    for (AttrIndex a = 1; a < inst.schema().arity(); ++a) {
      for (const auto& [eid, members] : inst.relation().EntityGroups()) {
        (void)eid;
        if (members.size() <= 1) continue;
        Slot slot;
        slot.inst = i;
        slot.attr = a;
        EnumerateLinearExtensions(inst.order(a), members,
                                  [&](const std::vector<int>& seq) {
                                    slot.extensions.push_back(seq);
                                    return true;
                                  });
        estimate *= static_cast<int64_t>(slot.extensions.size());
        if (estimate > max_candidates) {
          return Status::ResourceExhausted("raw reference too large");
        }
        slots.push_back(std::move(slot));
      }
    }
  }
  Completion base;
  for (int i = 0; i < spec.num_instances(); ++i) {
    base.orders.push_back(spec.instance(i).orders());
  }
  int64_t count = 0;
  std::function<Status(size_t, Completion&)> rec =
      [&](size_t k, Completion& partial) -> Status {
    if (k == slots.size()) {
      ASSIGN_OR_RETURN(bool ok, IsConsistentCompletion(spec, partial));
      if (ok) ++count;
      return Status::OK();
    }
    for (const auto& seq : slots[k].extensions) {
      Completion next = partial;
      PartialOrder& po = next.orders[slots[k].inst][slots[k].attr];
      bool feasible = true;
      for (size_t j = 0; j + 1 < seq.size(); ++j) {
        if (!po.TryAdd(seq[j], seq[j + 1])) {
          feasible = false;
          break;
        }
      }
      if (feasible) RETURN_IF_ERROR(rec(k + 1, next));
    }
    return Status::OK();
  };
  RETURN_IF_ERROR(rec(0, base));
  return count;
}

class OracleCountInvariant : public ::testing::TestWithParam<int> {};

TEST_P(OracleCountInvariant, SeedingAndPruningLoseNothing) {
  for (int variant = 0; variant < 4; ++variant) {
    Specification spec =
        MakeRandomSpec(GetParam() * 419 + variant, variant & 1, variant & 2);
    SCOPED_TRACE("seed=" + std::to_string(GetParam()) +
                 " variant=" + std::to_string(variant));
    auto raw = RawCount(spec, 500'000);
    if (!raw.ok()) continue;  // reference too large: skip this draw
    int64_t optimized =
        EnumerateConsistentCompletions(
            spec, [](const Completion&) { return true; })
            .value();
    EXPECT_EQ(optimized, *raw);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, OracleCountInvariant, ::testing::Range(0, 25));

/// Canonical serialization of a current-instance database: relation name
/// plus value-sorted tuples (the solvers and the oracle materialize tuples
/// in different orders).
std::string CanonicalDb(const query::Database& db) {
  std::string out;
  for (const auto& [name, rel] : db) {
    std::vector<std::string> rows;
    rows.reserve(rel->tuples().size());
    for (const Tuple& t : rel->tuples()) rows.push_back(t.ToString());
    std::sort(rows.begin(), rows.end());
    out += name + "{";
    for (const std::string& row : rows) out += row + ";";
    out += "}";
  }
  return out;
}

/// The oracle's distinct current instances: the LST of every consistent
/// completion, canonicalized and deduplicated.
std::set<std::string> OracleCurrentInstances(const Specification& spec) {
  std::set<std::string> out;
  auto count = EnumerateConsistentCompletions(spec, [&](const Completion& c) {
    std::vector<Relation> storage;
    out.insert(CanonicalDb(CurrentDatabase(spec, c, &storage).value()));
    return true;
  });
  EXPECT_TRUE(count.ok()) << count.status();
  return out;
}

// Property sweep: the one decision route (decomposed, chase-routed
// components next to SAT-routed ones) agrees with forced-SAT routing and
// with the brute-force oracle on CPS, COP, DCIP, CCQA and current-instance
// enumeration.  (The suite name is historical: the comparison it names no
// longer exists, and its references are the two above.)
class DecomposedVsMonolithic : public ::testing::TestWithParam<int> {};

TEST_P(DecomposedVsMonolithic, AllSolversAgree) {
  for (int variant = 0; variant < 4; ++variant) {
    Specification spec =
        MakeRandomSpec(GetParam() * 733 + variant, variant & 1, variant & 2);
    SCOPED_TRACE("seed=" + std::to_string(GetParam()) +
                 " variant=" + std::to_string(variant));
    for (bool routed : {true, false}) {
      SCOPED_TRACE(routed ? "routed" : "forced SAT");

      // CPS, including witness validity.
      CpsOptions cps;
      cps.use_chase_routing = routed;
      auto outcome = DecideConsistency(spec, cps);
      ASSERT_TRUE(outcome.ok()) << outcome.status();
      EXPECT_EQ(outcome->consistent, BruteForceConsistent(spec).value());
      EXPECT_GT(outcome->components, 0);
      cps.want_witness = true;
      auto with_witness = DecideConsistency(spec, cps);
      ASSERT_TRUE(with_witness.ok()) << with_witness.status();
      EXPECT_EQ(with_witness->consistent, outcome->consistent);
      if (with_witness->consistent) {
        ASSERT_TRUE(with_witness->witness.has_value());
        EXPECT_TRUE(
            IsConsistentCompletion(spec, *with_witness->witness).value());
      }

      // COP on a handful of pairs (including a cross-entity one: tuple 0
      // is entity e0, tuple 2 is e1 on every draw).
      for (const RequiredPair& pair : {RequiredPair{1, 0, 1},
                                       RequiredPair{2, 1, 0},
                                       RequiredPair{1, 0, 2}}) {
        CurrencyOrderQuery q;
        q.relation = "R";
        q.pairs = {pair};
        CopOptions cop;
        cop.use_chase_routing = routed;
        EXPECT_EQ(IsCertainOrder(spec, q, cop).value(),
                  BruteForceCertainOrder(spec, q).value());
      }

      // DCIP per relation.
      DcipOptions dcip;
      dcip.use_chase_routing = routed;
      for (int i = 0; i < spec.num_instances(); ++i) {
        const std::string& rel = spec.instance(i).name();
        EXPECT_EQ(IsDeterministicForRelation(spec, rel, dcip).value(),
                  BruteForceDeterministic(spec, rel).value())
            << rel;
      }

      // Current-instance enumeration: distinct databases, exactly the
      // oracle's set.
      CcqaOptions ccqa;
      ccqa.use_chase_routing = routed;
      std::set<std::string> seen;
      auto count = ForEachCurrentInstance(
          spec, ccqa, [&](const query::Database& db) {
            EXPECT_TRUE(seen.insert(CanonicalDb(db)).second)
                << "current instance visited twice";
            return true;
          });
      ASSERT_TRUE(count.ok()) << count.status();
      EXPECT_EQ(*count, static_cast<int64_t>(seen.size()));
      EXPECT_EQ(seen, OracleCurrentInstances(spec));

      // CCQA answer sets, with the SP fast path on and off.
      query::Query q =
          query::ParseQuery("Q(x) := EXISTS y: R('e0', x, y)").value();
      auto oracle = BruteForceCertainAnswers(spec, q);
      for (bool sp : {true, false}) {
        ccqa.use_sp_fast_path = sp;
        auto answers = CertainCurrentAnswers(spec, q, ccqa);
        if (!oracle.ok()) {
          EXPECT_EQ(answers.status().code(), oracle.status().code());
        } else {
          ASSERT_TRUE(answers.ok()) << answers.status();
          EXPECT_EQ(*answers, *oracle) << "sp=" << sp;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, DecomposedVsMonolithic,
                         ::testing::Range(0, 40));

TEST(DecompositionTest, CopyCouplingMergesComponents) {
  // S0's ρ maps three Dept tuples (entity RnD) from Mary's Emp tuples and
  // one from Bob's single tuple: {Emp:Mary, Dept:RnD} couple (two distinct
  // source tuples), while Emp:Bob and Emp:Robert stay their own
  // components (a single-source bucket emits no clause).
  Specification s0 = currency::testing::MakeS0();
  auto decomposition = Decomposition::Build(s0);
  ASSERT_TRUE(decomposition.ok());
  EXPECT_EQ(decomposition->num_components(), 3);
  int mary = decomposition->ComponentOf(0, Value("Mary"));
  int rnd = decomposition->ComponentOf(1, Value("RnD"));
  int bob = decomposition->ComponentOf(0, Value("Bob"));
  int robert = decomposition->ComponentOf(0, Value("Robert"));
  EXPECT_EQ(mary, rnd);
  EXPECT_NE(bob, mary);
  EXPECT_NE(robert, mary);
  EXPECT_NE(bob, robert);
  EXPECT_EQ(decomposition->ComponentOf(0, Value("nobody")), -1);
  EXPECT_EQ(decomposition->ComponentOf(7, Value("Mary")), -1);
}

TEST(OracleInvariantTest, VisitedCompletionsAreConsistentAndDistinct) {
  Specification spec = MakeRandomSpec(12345, /*with_copy=*/true,
                                      /*with_constraints=*/true);
  std::set<std::string> seen;
  auto count = EnumerateConsistentCompletions(spec, [&](const Completion& c) {
    // Every visited completion passes the full validity check ...
    EXPECT_TRUE(IsConsistentCompletion(spec, c).value());
    // ... and is pairwise distinct (serialize the orders as a key).
    std::string key;
    for (const auto& per_inst : c.orders) {
      for (const auto& po : per_inst) key += po.ToString() + "|";
    }
    EXPECT_TRUE(seen.insert(key).second) << "duplicate completion visited";
    return true;
  });
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(static_cast<int64_t>(seen.size()), *count);
}

TEST(OracleInvariantTest, EarlyStopIsHonoured) {
  Specification spec = MakeRandomSpec(777, false, false);
  int visits = 0;
  auto count = EnumerateConsistentCompletions(spec, [&](const Completion&) {
    ++visits;
    return false;  // stop immediately
  });
  ASSERT_TRUE(count.ok());
  EXPECT_LE(*count, 1);
  EXPECT_LE(visits, 1);
}

TEST(OracleInvariantTest, BudgetGuard) {
  // A spec with many unconstrained groups exceeds a tiny budget.
  Specification spec;
  Schema rs = Schema::Make("R", {"A"}).value();
  Relation r(rs);
  for (int e = 0; e < 10; ++e) {
    Value eid("e" + std::to_string(e));
    (void)r.AppendValues({eid, Value(0)});
    (void)r.AppendValues({eid, Value(1)});
    (void)r.AppendValues({eid, Value(2)});
  }
  (void)spec.AddInstance(TemporalInstance(std::move(r)));
  BruteForceOptions options;
  options.max_candidates = 100;
  auto count = EnumerateConsistentCompletions(
      spec, [](const Completion&) { return true; }, options);
  EXPECT_EQ(count.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace currency::core
