// Shared test fixtures: the paper's running examples (Fig. 1 Emp/Dept with
// ϕ1–ϕ4 and ρ; Fig. 3 Mgr with ϕ5) and a random-specification generator
// for property tests against the brute-force oracle.
//
// Tuple ids follow the paper: Emp s1..s5 = TupleIds 0..4, Dept t1..t4 =
// TupleIds 0..3, Mgr s'1..s'3 = TupleIds 0..2.
//
// Two deliberate additions relative to the paper's literal text, both
// needed for the claims of its own examples to hold (documented in
// DESIGN.md §6):
//  * ϕ2b: the single→married rule also orders `status` itself (Example 3.3
//    claims S0 deterministic for Emp, which needs the status attribute
//    determined);
//  * ϕ5 is instantiated on Emp as well as Mgr (Example 4.1's claim that
//    copying s'3 makes "Smith" the certain answer needs the
//    married→divorced rule to apply inside Emp).

#ifndef CURRENCY_TESTS_FIXTURES_H_
#define CURRENCY_TESTS_FIXTURES_H_

#include <random>
#include <string>

#include "src/core/specification.h"
#include "src/query/parser.h"

namespace currency::testing {

inline Schema EmpSchema() {
  return Schema::Make("Emp", {"FN", "LN", "address", "salary", "status"})
      .value();
}

inline Schema DeptSchema() {
  return Schema::Make("Dept", {"mgrFN", "mgrLN", "mgrAddr", "budget"},
                      "dname")
      .value();
}

inline Schema MgrSchema() {
  return Schema::Make("Mgr", {"FN", "LN", "address", "salary", "status"})
      .value();
}

/// Emp of Fig. 1 (s4 and s5 are DISTINCT entities, per Example 2.3).
inline Relation MakeEmpRelation() {
  Relation emp(EmpSchema());
  auto add = [&](const char* eid, const char* fn, const char* ln,
                 const char* addr, int salary, const char* status) {
    auto r = emp.AppendValues({Value(eid), Value(fn), Value(ln), Value(addr),
                               Value(salary), Value(status)});
    (void)r;
  };
  add("Mary", "Mary", "Smith", "2 Small St", 50, "single");     // s1 = 0
  add("Mary", "Mary", "Dupont", "10 Elm Ave", 50, "married");   // s2 = 1
  add("Mary", "Mary", "Dupont", "6 Main St", 80, "married");    // s3 = 2
  add("Bob", "Bob", "Luth", "8 Cowan St", 80, "married");       // s4 = 3
  add("Robert", "Robert", "Luth", "8 Drum St", 55, "married");  // s5 = 4
  return emp;
}

/// Dept of Fig. 1 (all four tuples belong to entity R&D).
inline Relation MakeDeptRelation() {
  Relation dept(DeptSchema());
  auto add = [&](const char* fn, const char* ln, const char* addr,
                 int budget) {
    auto r = dept.AppendValues(
        {Value("RnD"), Value(fn), Value(ln), Value(addr), Value(budget)});
    (void)r;
  };
  add("Mary", "Smith", "2 Small St", 6500);  // t1 = 0
  add("Mary", "Smith", "2 Small St", 7000);  // t2 = 1
  add("Mary", "Dupont", "6 Main St", 6000);  // t3 = 2
  add("Ed", "Luth", "8 Cowan St", 6000);     // t4 = 3
  return dept;
}

/// Mgr of Fig. 3 (all three tuples are Mary).
inline Relation MakeMgrRelation() {
  Relation mgr(MgrSchema());
  auto add = [&](const char* fn, const char* ln, const char* addr, int salary,
                 const char* status) {
    auto r = mgr.AppendValues({Value("Mary"), Value(fn), Value(ln),
                               Value(addr), Value(salary), Value(status)});
    (void)r;
  };
  add("Mary", "Dupont", "6 Main St", 60, "married");   // s'1 = 0
  add("Mary", "Dupont", "6 Main St", 80, "married");   // s'2 = 1
  add("Mary", "Smith", "2 Small St", 80, "divorced");  // s'3 = 2
  return mgr;
}

/// The copy function ρ of Example 2.2: Dept[mgrAddr] ⇐ Emp[address] with
/// ρ(t1)=s1, ρ(t2)=s1, ρ(t3)=s3, ρ(t4)=s4.
inline copy::CopyFunction MakeRho() {
  copy::CopySignature sig;
  sig.target_relation = "Dept";
  sig.target_attrs = {"mgrAddr"};
  sig.source_relation = "Emp";
  sig.source_attrs = {"address"};
  copy::CopyFunction rho(sig);
  auto s1 = rho.Map(0, 0);
  auto s2 = rho.Map(1, 0);
  auto s3 = rho.Map(2, 2);
  auto s4 = rho.Map(3, 3);
  (void)s1;
  (void)s2;
  (void)s3;
  (void)s4;
  return rho;
}

/// The specification S0 of Example 2.3: Emp + Dept, ϕ1–ϕ4 (+ ϕ2b), ρ.
inline core::Specification MakeS0() {
  core::Specification spec;
  auto check = [](const Status& s) {
    if (!s.ok()) abort();
  };
  check(spec.AddInstance(core::TemporalInstance(MakeEmpRelation())));
  check(spec.AddInstance(core::TemporalInstance(MakeDeptRelation())));
  check(spec.AddConstraintText(
      "FORALL s, t IN Emp: s.salary > t.salary -> t PREC[salary] s"));  // ϕ1
  check(spec.AddConstraintText(
      "FORALL s, t IN Emp: s.status = 'married' AND t.status = 'single' "
      "-> t PREC[LN] s"));  // ϕ2
  check(spec.AddConstraintText(
      "FORALL s, t IN Emp: s.status = 'married' AND t.status = 'single' "
      "-> t PREC[status] s"));  // ϕ2b (see file comment)
  check(spec.AddConstraintText(
      "FORALL s, t IN Emp: t PREC[salary] s -> t PREC[address] s"));  // ϕ3
  check(spec.AddConstraintText(
      "FORALL s, t IN Dept: t PREC[mgrAddr] s -> t PREC[budget] s"));  // ϕ4
  check(spec.AddCopyFunction(MakeRho()));
  return spec;
}

/// The specification S1 of Example 4.1: Emp + Mgr, ϕ1–ϕ3 (+ ϕ2b), ϕ5 on
/// Mgr and on Emp, and ρ mapping Emp s3 ⇐ Mgr s'2 over all attributes.
inline core::Specification MakeS1() {
  core::Specification spec;
  auto check = [](const Status& s) {
    if (!s.ok()) abort();
  };
  check(spec.AddInstance(core::TemporalInstance(MakeEmpRelation())));
  check(spec.AddInstance(core::TemporalInstance(MakeMgrRelation())));
  check(spec.AddConstraintText(
      "FORALL s, t IN Emp: s.salary > t.salary -> t PREC[salary] s"));  // ϕ1
  check(spec.AddConstraintText(
      "FORALL s, t IN Emp: s.status = 'married' AND t.status = 'single' "
      "-> t PREC[LN] s"));  // ϕ2
  check(spec.AddConstraintText(
      "FORALL s, t IN Emp: s.status = 'married' AND t.status = 'single' "
      "-> t PREC[status] s"));  // ϕ2b
  check(spec.AddConstraintText(
      "FORALL s, t IN Emp: t PREC[salary] s -> t PREC[address] s"));  // ϕ3
  check(spec.AddConstraintText(
      "FORALL s, t IN Mgr: s.status = 'divorced' AND t.status = 'married' "
      "-> t PREC[LN] s"));  // ϕ5 on Mgr
  check(spec.AddConstraintText(
      "FORALL s, t IN Emp: s.status = 'divorced' AND t.status = 'married' "
      "-> t PREC[LN] s"));  // ϕ5 on Emp (see file comment)

  copy::CopySignature sig;
  sig.target_relation = "Emp";
  sig.target_attrs = {"FN", "LN", "address", "salary", "status"};
  sig.source_relation = "Mgr";
  sig.source_attrs = {"FN", "LN", "address", "salary", "status"};
  copy::CopyFunction rho(sig);
  auto m = rho.Map(2, 1);  // ρ(s3) = s'2
  (void)m;
  check(spec.AddCopyFunction(std::move(rho)));
  return spec;
}

/// A trimmed S0 for comparisons against the brute-force oracle: the
/// unconstrained attributes (FN, mgrFN, mgrLN) are dropped so the number
/// of consistent completions stays exhaustively enumerable.  All paper
/// claims about Q1–Q4 are preserved (none touches a dropped attribute).
inline core::Specification MakeS0Trimmed() {
  core::Specification spec;
  auto check = [](const Status& s) {
    if (!s.ok()) abort();
  };
  Schema emp_schema =
      Schema::Make("Emp", {"LN", "address", "salary", "status"}).value();
  Relation emp(emp_schema);
  auto adde = [&](const char* eid, const char* ln, const char* addr,
                  int salary, const char* status) {
    auto r = emp.AppendValues(
        {Value(eid), Value(ln), Value(addr), Value(salary), Value(status)});
    (void)r;
  };
  adde("Mary", "Smith", "2 Small St", 50, "single");
  adde("Mary", "Dupont", "10 Elm Ave", 50, "married");
  adde("Mary", "Dupont", "6 Main St", 80, "married");
  adde("Bob", "Luth", "8 Cowan St", 80, "married");
  adde("Robert", "Luth", "8 Drum St", 55, "married");
  check(spec.AddInstance(core::TemporalInstance(std::move(emp))));

  Schema dept_schema =
      Schema::Make("Dept", {"mgrAddr", "budget"}, "dname").value();
  Relation dept(dept_schema);
  auto addd = [&](const char* addr, int budget) {
    auto r = dept.AppendValues({Value("RnD"), Value(addr), Value(budget)});
    (void)r;
  };
  addd("2 Small St", 6500);
  addd("2 Small St", 7000);
  addd("6 Main St", 6000);
  addd("8 Cowan St", 6000);
  check(spec.AddInstance(core::TemporalInstance(std::move(dept))));

  check(spec.AddConstraintText(
      "FORALL s, t IN Emp: s.salary > t.salary -> t PREC[salary] s"));
  check(spec.AddConstraintText(
      "FORALL s, t IN Emp: s.status = 'married' AND t.status = 'single' "
      "-> t PREC[LN] s"));
  check(spec.AddConstraintText(
      "FORALL s, t IN Emp: s.status = 'married' AND t.status = 'single' "
      "-> t PREC[status] s"));
  check(spec.AddConstraintText(
      "FORALL s, t IN Emp: t PREC[salary] s -> t PREC[address] s"));
  check(spec.AddConstraintText(
      "FORALL s, t IN Dept: t PREC[mgrAddr] s -> t PREC[budget] s"));

  copy::CopySignature sig;
  sig.target_relation = "Dept";
  sig.target_attrs = {"mgrAddr"};
  sig.source_relation = "Emp";
  sig.source_attrs = {"address"};
  copy::CopyFunction rho(sig);
  auto m1 = rho.Map(0, 0);
  auto m2 = rho.Map(1, 0);
  auto m3 = rho.Map(2, 2);
  auto m4 = rho.Map(3, 3);
  (void)m1;
  (void)m2;
  (void)m3;
  (void)m4;
  check(spec.AddCopyFunction(std::move(rho)));
  return spec;
}

/// Q1–Q4 against the trimmed schemas.
inline query::Query MakeQ1Trimmed() {
  return query::ParseQuery(
             "Q1(s) := EXISTS ln, a, st: Emp('Mary', ln, a, s, st)")
      .value();
}
inline query::Query MakeQ2Trimmed() {
  return query::ParseQuery(
             "Q2(ln) := EXISTS a, s, st: Emp('Mary', ln, a, s, st)")
      .value();
}
inline query::Query MakeQ3Trimmed() {
  return query::ParseQuery(
             "Q3(a) := EXISTS ln, s, st: Emp('Mary', ln, a, s, st)")
      .value();
}
inline query::Query MakeQ4Trimmed() {
  return query::ParseQuery("Q4(b) := EXISTS a: Dept('RnD', a, b)").value();
}

/// Queries Q1–Q4 of Example 1.1 in the DSL.
inline query::Query MakeQ1() {
  return query::ParseQuery(
             "Q1(s) := EXISTS fn, ln, a, st: Emp('Mary', fn, ln, a, s, st)")
      .value();
}
inline query::Query MakeQ2() {
  return query::ParseQuery(
             "Q2(ln) := EXISTS fn, a, s, st: Emp('Mary', fn, ln, a, s, st)")
      .value();
}
inline query::Query MakeQ3() {
  return query::ParseQuery(
             "Q3(a) := EXISTS fn, ln, s, st: Emp('Mary', fn, ln, a, s, st)")
      .value();
}
inline query::Query MakeQ4() {
  return query::ParseQuery(
             "Q4(b) := EXISTS fn, ln, a: Dept('RnD', fn, ln, a, b)")
      .value();
}

/// A small random specification for oracle-vs-solver property tests:
/// one or two relations, 2 entities with groups of 2–3 tuples, random
/// initial orders, a random subset of a constraint pool, and (optionally)
/// a copy function R2[C] ⇐ R[A] whose copying condition holds by
/// construction.  Sized so the brute-force oracle stays fast.
///
/// `constraint_free_fraction` controls chase-routing coverage: each
/// entity group is declared constraint-free with that probability, and
/// every selected pool constraint is then emitted once per REMAINING
/// group, gated on that group's entity (`s.EID = 'e<g>' AND ...`), so
/// the constraint grounds only inside constrained groups.  0 (the
/// default) keeps the historical ungated constraints — and the exact
/// historical RNG stream, so existing seeds reproduce byte-identical
/// specifications.  1 makes every group constraint-free while still
/// exercising the zero-grounding constraint texts.
inline core::Specification MakeRandomSpec(
    unsigned seed, bool with_copy, bool with_constraints,
    double constraint_free_fraction = 0.0) {
  std::mt19937 rng(seed);
  auto coin = [&](int denom) {
    return std::uniform_int_distribution<int>(0, denom - 1)(rng) == 0;
  };
  auto rnd = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };

  core::Specification spec;
  Schema rs = Schema::Make("R", {"A", "B"}).value();
  Relation r(rs);
  int groups = 2;
  std::vector<std::vector<TupleId>> members(groups);
  for (int g = 0; g < groups; ++g) {
    int size = rnd(2, 3);
    for (int k = 0; k < size; ++k) {
      auto id = r.AppendValues({Value("e" + std::to_string(g)),
                                Value(rnd(0, 3)), Value(rnd(0, 3))});
      members[g].push_back(id.value());
    }
  }
  core::TemporalInstance inst(std::move(r));
  // Random initial orders.
  for (int g = 0; g < groups; ++g) {
    for (AttrIndex a = 1; a <= 2; ++a) {
      if (coin(2)) {
        TupleId u = members[g][rnd(0, static_cast<int>(members[g].size()) - 1)];
        TupleId v = members[g][rnd(0, static_cast<int>(members[g].size()) - 1)];
        if (u != v) {
          auto st = inst.AddOrder(a, u, v);
          (void)st;  // cycles silently skipped
        }
      }
    }
  }
  const Relation source_snapshot = inst.relation();
  auto st = spec.AddInstance(std::move(inst));
  (void)st;

  if (with_constraints) {
    // Decide per group whether it stays constraint-free (chase-eligible).
    // The draws happen only when the knob is on, so fraction == 0 leaves
    // the historical RNG stream untouched.
    std::vector<bool> constrained(groups, true);
    if (constraint_free_fraction > 0.0) {
      std::uniform_real_distribution<double> u01(0.0, 1.0);
      for (int g = 0; g < groups; ++g) {
        constrained[g] = u01(rng) >= constraint_free_fraction;
      }
    }
    const char* pool[] = {
        "FORALL s, t IN R: s.A > t.A -> t PREC[A] s",
        "FORALL s, t IN R: t PREC[A] s -> t PREC[B] s",
        "FORALL s, t IN R: s.A > t.A -> s PREC[B] t",
        "FORALL s, t IN R: s.B != t.B AND t PREC[B] s -> t PREC[A] s",
        "FORALL s, t IN R: s.A = t.A AND s.B > t.B -> t PREC[B] s",
    };
    for (const char* text : pool) {
      if (coin(3)) {
        if (constraint_free_fraction <= 0.0) {
          auto cst = spec.AddConstraintText(text);
          (void)cst;
          continue;
        }
        // Gate the constraint on each constrained group's entity so it
        // cannot ground inside the constraint-free groups.  When every
        // group is free, gate on a nonexistent entity instead: the spec
        // still carries a denial constraint (HasDenialConstraints() is
        // true) but it grounds nowhere, so every component remains
        // chase-eligible.
        std::string body(text);
        size_t colon = body.find(": ");
        bool any = false;
        for (int g = 0; g < groups; ++g) {
          if (!constrained[g]) continue;
          std::string gated = body;
          gated.insert(colon + 2,
                       "s.EID = 'e" + std::to_string(g) + "' AND ");
          auto cst = spec.AddConstraintText(gated);
          (void)cst;
          any = true;
        }
        if (!any) {
          std::string gated = body;
          gated.insert(colon + 2, "s.EID = 'none' AND ");
          auto cst = spec.AddConstraintText(gated);
          (void)cst;
        }
      }
    }
  }

  if (with_copy) {
    // R2 copies C from R.A for a random subset of source tuples.
    Schema r2s = Schema::Make("R2", {"C"}).value();
    Relation r2(r2s);
    copy::CopySignature sig;
    sig.target_relation = "R2";
    sig.target_attrs = {"C"};
    sig.source_relation = "R";
    sig.source_attrs = {"A"};
    copy::CopyFunction fn(sig);
    std::vector<std::pair<TupleId, TupleId>> mapping;
    for (TupleId src = 0; src < source_snapshot.size(); ++src) {
      if (coin(2)) {
        auto id = r2.AppendValues(
            {Value("f0"), source_snapshot.tuple(src).at(1)});
        mapping.emplace_back(id.value(), src);
      }
    }
    if (!mapping.empty()) {
      for (auto [t, s] : mapping) {
        auto m = fn.Map(t, s);
        (void)m;
      }
      core::TemporalInstance inst2(std::move(r2));
      auto st2 = spec.AddInstance(std::move(inst2));
      (void)st2;
      auto st3 = spec.AddCopyFunction(std::move(fn));
      (void)st3;
    } else {
      core::TemporalInstance inst2(std::move(r2));
      auto st2 = spec.AddInstance(std::move(inst2));
      (void)st2;
    }
  }
  return spec;
}

}  // namespace currency::testing

#endif  // CURRENCY_TESTS_FIXTURES_H_
