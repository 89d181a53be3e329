// Template subsystem coverage (src/tmpl/, docs/TEMPLATES.md): parsing and
// compilation, domain extraction and pruned enumeration, and the property
// suite — batched template answers must equal an independent brute-force
// reference (full-universe odometer through the sequential entry points)
// across all 11 semantics, both modes, every thread count, with the
// pruning soundness gates (custom partition, model-free database)
// exercised and a fault-injection sweep pinning "unknown is allowed,
// wrong is not". The pre-built query path is pinned three ways: its cache
// keys equal the parsed text's, instantiations over atoms no clause
// mentions answer like naive mode, and each Reasoner builds its tuple
// index once.
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "batch/answer_cache.h"
#include "core/reasoner.h"
#include "ground/join.h"
#include "gtest/gtest.h"
#include "obs/trace.h"
#include "sat/fault.h"
#include "tests/test_util.h"
#include "tmpl/answer.h"
#include "tmpl/enumerate.h"
#include "tmpl/template.h"

namespace dd {
namespace {

using dd::testing::Db;
using tmpl::AnswerTemplate;
using tmpl::AnswerTemplateText;
using tmpl::BuildQuery;
using tmpl::EnumerateBindings;
using tmpl::EnumerateOptions;
using tmpl::InstantiateQuery;
using tmpl::ParseTemplate;
using tmpl::SaturatingPow;
using tmpl::Template;
using tmpl::TemplateAnswer;
using tmpl::TemplateOptions;

using Binding = std::vector<std::string>;
using BindingSet = std::set<Binding>;

const SemanticsKind kAllKinds[] = {
    SemanticsKind::kCwa,  SemanticsKind::kGcwa, SemanticsKind::kEgcwa,
    SemanticsKind::kCcwa, SemanticsKind::kEcwa, SemanticsKind::kDdr,
    SemanticsKind::kPws,  SemanticsKind::kPerf, SemanticsKind::kIcwa,
    SemanticsKind::kDsm,  SemanticsKind::kPdsm,
};

/// The grounder's name "p(c1,c2)" of `atom` under `subst`.
std::string AtomName(const ground::PredAtom& atom,
                     const std::unordered_map<std::string, std::string>& subst) {
  if (atom.args.empty()) return atom.predicate;
  std::string name = atom.predicate + "(";
  for (size_t i = 0; i < atom.args.size(); ++i) {
    if (i) name += ",";
    const ground::Term& t = atom.args[i];
    name += t.is_variable ? subst.at(t.name) : t.name;
  }
  return name + ")";
}

/// Renders one instantiation as a plain conjunction formula — NOT via
/// InstantiateQuery, so the reference path shares no compilation code
/// with the subsystem under test.
std::string InstanceFormula(const Template& t, const Binding& b) {
  std::unordered_map<std::string, std::string> subst;
  for (size_t i = 0; i < t.vars.size(); ++i) subst[t.vars[i]] = b[i];
  std::string f;
  for (const auto& a : t.pos) {
    if (!f.empty()) f += " & ";
    f += AtomName(a, subst);
  }
  for (const auto& a : t.neg) {
    if (!f.empty()) f += " & ";
    f += '~';  // += not `"~" + <temporary>`: GCC 12 -Wrestrict (PR 105329)
    f += AtomName(a, subst);
  }
  return f;
}

/// EnumerateBindings over the index and universe read from `db`.
Result<std::vector<Binding>> Enumerate(const Database& db, const Template& t,
                                       const EnumerateOptions& eo) {
  return EnumerateBindings(t, ground::IndexDatabase(db), eo);
}

/// Independent reference: every full-universe instantiation evaluated
/// through the sequential unlimited entry points. Each instantiation gets
/// a FRESH Reasoner — parsing a junk formula interns its atom into the
/// shared vocabulary, and a polluted vocabulary both slows the
/// enumeration-heavy semantics (PDSM is exponential in the atom count)
/// and is simply not the database the next query should see. Returns
/// nullopt when the semantics rejects the database (e.g. PERF on
/// integrity clauses) — the subsystem must reject it identically.
std::optional<BindingSet> BruteForceYes(
    const std::string& program, const Template& t, SemanticsKind kind,
    bool brave, const std::function<void(Reasoner*)>& configure = {}) {
  Reasoner probe(Db(program));
  EnumerateOptions eo;
  eo.prune = false;
  auto bindings = Enumerate(probe.db(), t, eo);
  EXPECT_TRUE(bindings.ok()) << bindings.status().ToString();
  BindingSet yes;
  for (const Binding& b : *bindings) {
    Reasoner r(Db(program));
    std::string f = InstanceFormula(t, b);
    // Intern any fresh full-universe atoms BEFORE configure runs: a custom
    // partition snapshots the vocabulary, so it must see the final one.
    auto parsed = r.ParseQueryFormula(f);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    if (configure) configure(&r);
    if (brave) {
      auto v = r.InfersCredulously(kind, f);
      if (!v.ok()) {
        EXPECT_EQ(v.status().code(), StatusCode::kFailedPrecondition)
            << v.status().ToString();
        return std::nullopt;
      }
      if (*v == Trilean::kYes) yes.insert(b);
    } else {
      auto v = r.InfersFormula(kind, f);
      if (!v.ok()) {
        EXPECT_EQ(v.status().code(), StatusCode::kFailedPrecondition)
            << v.status().ToString();
        return std::nullopt;
      }
      if (*v) yes.insert(b);
    }
  }
  return yes;
}

BindingSet ToSet(const std::vector<Binding>& rows) {
  return BindingSet(rows.begin(), rows.end());
}

/// For every full-universe instantiation of `t` (a superset of the
/// candidates AnswerTemplate compiles): the pre-built query and the parsed
/// InstantiateQuery text canonicalize to one key, so the answer cache and
/// its DDCACHE1 snapshots hold one entry for a template read and a ground
/// read of the same instance.
void ExpectPrebuiltKeysMatchText(Reasoner* r, const Template& t,
                                 batch::BatchMode mode,
                                 const std::string& where) {
  EnumerateOptions eo;
  eo.prune = false;
  auto bindings = Enumerate(r->db(), t, eo);
  ASSERT_TRUE(bindings.ok()) << bindings.status().ToString();
  for (const Binding& b : *bindings) {
    const batch::BatchQuery text = InstantiateQuery(t, b, mode);
    const batch::BatchQuery built = BuildQuery(t, b, r);
    ASSERT_NE(built.formula, nullptr) << where;
    EXPECT_TRUE(built.text.empty()) << where;
    auto parsed = r->ParseQueryFormula(text.text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(batch::Canonicalize(built.formula, r->db().vocabulary()).key,
              batch::Canonicalize(*parsed, r->db().vocabulary()).key)
        << where << " " << text.text;
  }
}

// ---------------------------------------------------------------------------
// Parsing and compilation
// ---------------------------------------------------------------------------

TEST(TemplateParse, ConjunctsVarsAndRoundTrip) {
  auto t = ParseTemplate("color(X, red), not bad(X)");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->pos.size(), 1u);
  ASSERT_EQ(t->neg.size(), 1u);
  EXPECT_EQ(t->pos[0].predicate, "color");
  EXPECT_EQ(t->neg[0].predicate, "bad");
  EXPECT_EQ(t->vars, (std::vector<std::string>{"X"}));
  EXPECT_EQ(t->ToString(), "color(X,red), not bad(X)");
  EXPECT_TRUE(t->IsSafe());
}

TEST(TemplateParse, VarsInFirstOccurrenceOrder) {
  auto t = ParseTemplate("edge(X, Y), node(Y), edge(Y, Z)");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->vars, (std::vector<std::string>{"X", "Y", "Z"}));
}

TEST(TemplateParse, RejectsUnsafeAndEmpty) {
  // A variable only in a negated conjunct makes the answer set depend on
  // the universe, not the database — rejected, like the grounder's safety
  // check.
  EXPECT_FALSE(ParseTemplate("not p(X)").ok());
  EXPECT_FALSE(ParseTemplate("p(a), not q(X)").ok());
  EXPECT_FALSE(ParseTemplate("").ok());
  EXPECT_FALSE(ParseTemplate("   ").ok());
  EXPECT_FALSE(ParseTemplate("p(X) :- q(X)").ok());  // a rule is not a template
  // Ground templates (zero variables) are safe by construction.
  EXPECT_TRUE(ParseTemplate("p(a), not q(b)").ok());
}

TEST(TemplateCompile, SkepticalSinglePositiveConjunctIsLiteralQuery) {
  auto t = ParseTemplate("p(X)");
  ASSERT_TRUE(t.ok());
  batch::BatchQuery q =
      InstantiateQuery(*t, {"a"}, batch::BatchMode::kSkeptical);
  EXPECT_EQ(q.text, "p(a)");
  EXPECT_TRUE(q.is_literal);
  // Brave mode always compiles a formula (InfersCredulously takes one).
  batch::BatchQuery bq = InstantiateQuery(*t, {"a"}, batch::BatchMode::kBrave);
  EXPECT_FALSE(bq.is_literal);
}

TEST(TemplateCompile, MixedConjunctsCompileToConjunctionFormula) {
  auto t = ParseTemplate("p(X), not q(X)");
  ASSERT_TRUE(t.ok());
  batch::BatchQuery q =
      InstantiateQuery(*t, {"a"}, batch::BatchMode::kSkeptical);
  EXPECT_FALSE(q.is_literal);
  EXPECT_EQ(q.text, "p(a) & ~q(a)");
}

// ---------------------------------------------------------------------------
// Domain extraction and enumeration
// ---------------------------------------------------------------------------

/// The tuples of every predicate named `pred` in `idx` (any arity), in
/// id order, as constant names.
std::vector<Binding> Rows(const ground::TupleIndex& idx, const char* pred) {
  std::vector<Binding> rows;
  for (int p = 0; p < idx.num_predicates(); ++p) {
    if (idx.PredicateName(p) != pred) continue;
    for (int t = 0; t < idx.Count(p); ++t) {
      Binding& row = rows.emplace_back();
      for (int k = 0; k < idx.Arity(p); ++k) {
        row.push_back(idx.universe()[idx.Args(p, t)[k]]);
      }
    }
  }
  return rows;
}

TEST(Enumerate, IndexDatabaseCollectsMentionedTuples) {
  Database db = Db("p(a). q(a,b) | p(b). r. s(). s(a,,c).");
  const ground::TupleIndex idx = ground::IndexDatabase(db);
  EXPECT_EQ(Rows(idx, "p"), (std::vector<Binding>{{"a"}, {"b"}}));
  EXPECT_EQ(Rows(idx, "q"), (std::vector<Binding>{{"a", "b"}}));
  // Bare propositional atoms are arity-0 predicates with one empty tuple.
  EXPECT_EQ(Rows(idx, "r"), (std::vector<Binding>{{}}));
  // So are names with an empty argument: they lex as atom names, and
  // splitting them would bind the empty constant.
  EXPECT_TRUE(Rows(idx, "s").empty());
  EXPECT_EQ(Rows(idx, "s()"), (std::vector<Binding>{{}}));
  EXPECT_EQ(Rows(idx, "s(a,,c)"), (std::vector<Binding>{{}}));
  EXPECT_EQ(idx.universe(), (std::vector<std::string>{"a", "b"}));
}

TEST(Enumerate, JoinBindsConstantsAndSharedVariables) {
  Database db = Db("e(a,b). e(b,c). e(a,c).");
  auto t = ParseTemplate("e(X, Y), e(Y, Z)");
  ASSERT_TRUE(t.ok());
  auto bindings = Enumerate(db, *t, EnumerateOptions{});
  ASSERT_TRUE(bindings.ok());
  // Chains through a shared middle node only: (a,b,c).
  EXPECT_EQ(*bindings, (std::vector<Binding>{{"a", "b", "c"}}));
  // A constant in the template restricts the join.
  auto t2 = ParseTemplate("e(a, Y)");
  ASSERT_TRUE(t2.ok());
  auto b2 = Enumerate(db, *t2, EnumerateOptions{});
  ASSERT_TRUE(b2.ok());
  EXPECT_EQ(*b2, (std::vector<Binding>{{"b"}, {"c"}}));
}

TEST(Enumerate, ZeroVariableTemplateHasOneEmptyCandidate) {
  Database db = Db("p(a).");
  auto t = ParseTemplate("p(a)");
  ASSERT_TRUE(t.ok());
  auto bindings = Enumerate(db, *t, EnumerateOptions{});
  ASSERT_TRUE(bindings.ok());
  EXPECT_EQ(*bindings, (std::vector<Binding>{{}}));
}

TEST(Enumerate, CandidateCapFailsResourceExhausted) {
  Database db = Db("p(a). p(b). p(c).");
  auto t = ParseTemplate("p(X), p(Y)");
  ASSERT_TRUE(t.ok());
  EnumerateOptions eo;
  eo.max_candidates = 2;
  auto bindings = Enumerate(db, *t, eo);
  ASSERT_FALSE(bindings.ok());
  EXPECT_EQ(bindings.status().code(), StatusCode::kResourceExhausted);
}

TEST(Enumerate, SaturatingPowSaturates) {
  EXPECT_EQ(SaturatingPow(3, 2), 9);
  EXPECT_EQ(SaturatingPow(0, 5), 0);
  EXPECT_EQ(SaturatingPow(7, 0), 1);
  EXPECT_EQ(SaturatingPow(1 << 20, 4), INT64_MAX);  // saturates, no UB
}

// ---------------------------------------------------------------------------
// Property suite: batched == brute force, all semantics × modes × threads
// ---------------------------------------------------------------------------

struct Case {
  const char* program;
  const char* tmpl;
};

const Case kCases[] = {
    // Definite + disjunctive facts, one derived predicate.
    {"p(a). p(b) | q(b). r(a) :- p(a).", "p(X)"},
    {"p(a). p(b) | q(b). r(a) :- p(a).", "r(X)"},
    {"p(a). p(b) | q(b). r(a) :- p(a).", "p(X), not q(X)"},
    // Two-variable join over a disjunctive coloring fragment.
    {"color(n1,r) | color(n1,g). color(n2,r). ok(n1) :- color(n1,r).",
     "color(X,C)"},
    {"color(n1,r) | color(n1,g). color(n2,r). ok(n1) :- color(n1,r).",
     "color(X,r)"},
    // Constraint program (exclusive disjunction).
    {"e(a) | e(b). :- e(a), e(b). f(a) :- e(a).", "e(X)"},
    {"e(a) | e(b). :- e(a), e(b). f(a) :- e(a).", "e(X), not f(X)"},
};

TEST(TemplateProperty, BatchedMatchesBruteForceAcrossAllSemantics) {
  for (const Case& c : kCases) {
    for (SemanticsKind kind : kAllKinds) {
      for (bool brave : {false, true}) {
        auto t = ParseTemplate(c.tmpl);
        ASSERT_TRUE(t.ok()) << c.tmpl;
        std::optional<BindingSet> ref =
            BruteForceYes(c.program, *t, kind, brave);
        const batch::BatchMode mode = brave ? batch::BatchMode::kBrave
                                            : batch::BatchMode::kSkeptical;
        if (!ref.has_value()) {
          // The semantics rejects this database (e.g. PERF + integrity
          // clauses); the template path must reject it the same way.
          Reasoner r(Db(c.program));
          auto a = AnswerTemplate(&r, kind, *t, mode, TemplateOptions{});
          EXPECT_FALSE(a.ok()) << SemanticsKindName(kind);
          continue;
        }
        BindingSet first;
        for (int threads : {1, 4}) {
          Reasoner r(Db(c.program));
          TemplateOptions topts;
          topts.batch.num_threads = threads;
          auto a = AnswerTemplate(&r, kind, *t, mode, topts);
          ASSERT_TRUE(a.ok()) << a.status().ToString();
          EXPECT_TRUE(a->unknown.empty())
              << c.program << " | " << c.tmpl << " "
              << SemanticsKindName(kind);
          EXPECT_EQ(ToSet(a->yes), *ref)
              << c.program << " | " << c.tmpl << " "
              << SemanticsKindName(kind) << (brave ? " brave" : " skeptical")
              << " threads=" << threads;
          if (threads == 1) {
            first = ToSet(a->yes);
            ExpectPrebuiltKeysMatchText(
                &r, *t, mode,
                std::string(c.tmpl) + " " + SemanticsKindName(kind) +
                    (brave ? " brave" : " skeptical"));
          } else {
            EXPECT_EQ(ToSet(a->yes), first) << "thread variance";
          }
        }
        // Naive A/B path: same answers through the sequential engine.
        Reasoner r(Db(c.program));
        TemplateOptions naive;
        naive.naive = true;
        auto a = AnswerTemplate(&r, kind, *t, mode, naive);
        ASSERT_TRUE(a.ok()) << a.status().ToString();
        EXPECT_EQ(ToSet(a->yes), *ref)
            << "naive " << c.tmpl << " " << SemanticsKindName(kind);
      }
    }
  }
}

TEST(TemplateProperty, InconsistentDatabaseIsVacuousOverFullUniverse) {
  // No intended model: skeptical inference is vacuously true everywhere,
  // so pruning to clause-mentioned atoms would silently DROP answers (any
  // universe instantiation is an answer). The gate must fall back to the
  // full odometer and flag the vacuity.
  Reasoner r(Db("p(a). q(b). :- p(a)."));
  TemplateOptions topts;
  auto a = AnswerTemplateText(&r, SemanticsKind::kGcwa, "q(X)",
                              batch::BatchMode::kSkeptical, topts);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_TRUE(a->vacuous);
  // Universe {a, b}: both instantiations are (vacuous) answers.
  EXPECT_EQ(a->candidates, 2);
  auto t = ParseTemplate("q(X)");
  ASSERT_TRUE(t.ok());
  std::optional<BindingSet> ref =
      BruteForceYes("p(a). q(b). :- p(a).", *t, SemanticsKind::kGcwa,
                    /*brave=*/false);
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(ToSet(a->yes), *ref);
  // Brave mode on the same database: nothing is bravely true, and the
  // vacuity gate does not apply.
  auto b = AnswerTemplateText(&r, SemanticsKind::kGcwa, "q(X)",
                              batch::BatchMode::kBrave, topts);
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(b->vacuous);
  EXPECT_TRUE(b->yes.empty());
}

TEST(TemplateProperty, EmptyArgumentNamesBindNoEmptyConstant) {
  // "p()" is the arity-0 atom "p()", not p applied to the constant "".
  Reasoner r(Db("p(). q(a)."));
  auto a = AnswerTemplateText(&r, SemanticsKind::kGcwa, "p(X)",
                              batch::BatchMode::kSkeptical);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->candidates, 0);
  EXPECT_TRUE(a->yes.empty());
  Reasoner r3(Db("p(a,,b)."));
  auto a3 = AnswerTemplateText(&r3, SemanticsKind::kGcwa, "p(X,Y,Z)",
                               batch::BatchMode::kSkeptical);
  ASSERT_TRUE(a3.ok()) << a3.status().ToString();
  EXPECT_TRUE(a3->yes.empty());
  // Nor does "" join the unpruned universe: it holds c alone.
  Reasoner v(Db("p(a,,b). q(c). :- q(c)."));
  auto b = AnswerTemplateText(&v, SemanticsKind::kGcwa, "q(X)",
                              batch::BatchMode::kSkeptical);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(b->vacuous);
  EXPECT_EQ(b->yes, (std::vector<Binding>{{"c"}}));
}

TEST(TemplateProperty, CustomPartitionDisablesPruning) {
  // Under CCWA/ECWA with a custom partition, atoms outside every clause
  // can float (Z) — the clause-mentioned domain is no longer a sound
  // candidate set, so the full universe must be enumerated.
  for (SemanticsKind kind : {SemanticsKind::kCcwa, SemanticsKind::kEcwa}) {
    Reasoner r(Db("p(a) | q(a). r(b)."));
    ASSERT_TRUE(r.SetPartition({"p(a)"}, {}, {}, 'z').ok());
    auto t = ParseTemplate("q(X)");
    ASSERT_TRUE(t.ok());
    TemplateOptions topts;
    auto a = AnswerTemplate(&r, kind, *t, batch::BatchMode::kSkeptical, topts);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    // Universe {a, b}: the full odometer ran (q is mentioned only at a).
    EXPECT_EQ(a->candidates, 2) << SemanticsKindName(kind);
    EXPECT_TRUE(a->unknown.empty());
    std::optional<BindingSet> ref = BruteForceYes(
        "p(a) | q(a). r(b).", *t, kind, /*brave=*/false,
        [](Reasoner* rr) {
          EXPECT_TRUE(rr->SetPartition({"p(a)"}, {}, {}, 'z').ok());
        });
    ASSERT_TRUE(ref.has_value()) << SemanticsKindName(kind);
    EXPECT_EQ(ToSet(a->yes), *ref) << SemanticsKindName(kind);
  }
}

TEST(TemplateProperty, FaultInjectionNeverWrongAndNeverCached) {
  // Injected solver faults may degrade substitutions to kUnknown but can
  // never flip one: every reported yes must be a true yes, every silent
  // no a true no — and nothing kUnknown may have been cached (the warm
  // re-run must recover the complete reference answer set).
  const char* kProgram = "p(a). p(b) | q(b). r(a) :- p(a).";
  auto t = ParseTemplate("p(X)");
  ASSERT_TRUE(t.ok());
  std::optional<BindingSet> ref_opt =
      BruteForceYes(kProgram, *t, SemanticsKind::kGcwa, /*brave=*/false);
  ASSERT_TRUE(ref_opt.has_value());
  const BindingSet& ref = *ref_opt;

  for (int fault_at = 1; fault_at <= 6; ++fault_at) {
    Reasoner r(Db(kProgram));
    batch::AnswerCache cache(256);
    TemplateOptions topts;
    topts.batch.cache = &cache;
    BindingSet candidates;
    {
      sat::FaultPlan plan;
      plan.unknown_at = fault_at;
      sat::ScopedFaultPlan faulty(plan);
      auto a = AnswerTemplate(&r, SemanticsKind::kGcwa, *t,
                              batch::BatchMode::kSkeptical, topts);
      if (!a.ok()) {
        EXPECT_TRUE(a.status().IsBudgetExhaustion())
            << a.status().ToString();
        continue;
      }
      candidates = ToSet(a->yes);
      BindingSet unknown = ToSet(a->unknown);
      for (const Binding& b : candidates) {
        EXPECT_TRUE(ref.count(b)) << "wrong yes under fault " << fault_at;
      }
      // Every candidate not listed yes/unknown answered no — check none of
      // those is a reference yes.
      EnumerateOptions eo;
      eo.prune = false;
      auto all = Enumerate(r.db(), *t, eo);
      ASSERT_TRUE(all.ok());
      for (const Binding& b : *all) {
        if (!candidates.count(b) && !unknown.count(b) && ref.count(b)) {
          // Allowed only if it simply was not a candidate this run AND the
          // run was complete — with faults the unknown list covers it.
          EXPECT_TRUE(false) << "silent wrong no under fault " << fault_at;
        }
      }
    }
    // Fault-free warm re-run against the same cache: kUnknown was never
    // cached, so the complete reference set must come back.
    auto again = AnswerTemplate(&r, SemanticsKind::kGcwa, *t,
                                batch::BatchMode::kSkeptical, topts);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_TRUE(again->unknown.empty());
    EXPECT_EQ(ToSet(again->yes), ref) << "after fault " << fault_at;
  }
}

TEST(TemplateProperty, RepeatAnswersFromCache) {
  Reasoner r(Db("p(a). p(b) | q(b)."));
  batch::AnswerCache cache(256);
  TemplateOptions topts;
  topts.batch.cache = &cache;
  auto first = AnswerTemplateText(&r, SemanticsKind::kGcwa, "p(X)",
                                  batch::BatchMode::kSkeptical, topts);
  ASSERT_TRUE(first.ok());
  auto second = AnswerTemplateText(&r, SemanticsKind::kGcwa, "p(X)",
                                   batch::BatchMode::kSkeptical, topts);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(ToSet(second->yes), ToSet(first->yes));
  EXPECT_GT(second->batch_stats.cache_hits, 0);
}

TEST(TemplateCompile, PrebuiltQueryHasTheParsedShape) {
  Reasoner r(Db("p(a). q(b)."));
  auto t = ParseTemplate("p(X), not q(X)");
  ASSERT_TRUE(t.ok());
  batch::BatchQuery q = BuildQuery(*t, {"a"}, &r);
  ASSERT_NE(q.formula, nullptr);
  EXPECT_EQ(batch::Canonicalize(q.formula, r.db().vocabulary()).key,
            "&(!(a(q(a))),a(p(a)))");
  // q(a) is mentioned by no clause: it was interned, as parsing would.
  EXPECT_NE(r.db().vocabulary().Find("q(a)"), kInvalidVar);
  auto lit = ParseTemplate("p(X)");
  ASSERT_TRUE(lit.ok());
  // One conjunct is the bare literal, as ParseLiteral gives it.
  batch::BatchQuery l = BuildQuery(*lit, {"a"}, &r);
  ASSERT_EQ(l.formula->kind(), FormulaKind::kAtom);
  EXPECT_EQ(r.db().vocabulary().Name(l.formula->atom()), "p(a)");
}

// ---------------------------------------------------------------------------
// Atoms no clause mentions, and the per-Reasoner index
// ---------------------------------------------------------------------------

struct FreshCase {
  const char* program;
  const char* tmpl;
  bool partition;  ///< SetPartition({"p(a)"}, {}, {}, 'z') first
};

// Every case interns atoms no clause mentions on some semantics.
const FreshCase kFreshCases[] = {
    // Negated conjuncts over constants no clause pairs with s / q.
    {"p(a). p(b) | q(b). r(c).", "p(X), not s(X)", false},
    {"p(a). p(b) | q(b).", "p(X), not q(X)", false},
    // A custom partition: CCWA/ECWA run the unpruned odometer (q(b)).
    {"p(a) | q(a). r(b).", "q(X)", true},
    {"p(a) | q(a). r(b).", "q(X), not p(X)", true},
    // No intended model: skeptical inference is vacuous over the full
    // universe (q(a)).
    {"p(a). q(b). :- p(a).", "q(X)", false},
};

/// A Reasoner over `c.program`, configured as the case says.
std::unique_ptr<Reasoner> FreshReasoner(const FreshCase& c) {
  auto r = std::make_unique<Reasoner>(Db(c.program));
  if (c.partition) {
    EXPECT_TRUE(r->SetPartition({"p(a)"}, {}, {}, 'z').ok());
  }
  return r;
}

/// `got` (pre-built batch path) answers exactly like `want` (naive).
void ExpectSameAnswer(const Result<TemplateAnswer>& got,
                      const Result<TemplateAnswer>& want,
                      const std::string& where) {
  ASSERT_EQ(got.ok(), want.ok())
      << where << ": " << got.status().ToString() << " vs "
      << want.status().ToString();
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << where;
    return;
  }
  EXPECT_EQ(got->yes, want->yes) << where;
  EXPECT_EQ(got->unknown, want->unknown) << where;
  EXPECT_EQ(got->candidates, want->candidates) << where;
  EXPECT_EQ(got->vacuous, want->vacuous) << where;
}

TEST(TemplateFresh, PrebuiltPathAnswersLikeNaiveOnFreshAtoms) {
  int grew = 0;
  for (const FreshCase& c : kFreshCases) {
    auto t = ParseTemplate(c.tmpl);
    ASSERT_TRUE(t.ok()) << c.tmpl;
    for (SemanticsKind kind : kAllKinds) {
      for (batch::BatchMode mode :
           {batch::BatchMode::kSkeptical, batch::BatchMode::kBrave}) {
        const std::string where =
            std::string(c.program) + " | " + c.tmpl + " " +
            SemanticsKindName(kind) +
            (mode == batch::BatchMode::kBrave ? " brave" : " skeptical");
        std::unique_ptr<Reasoner> built = FreshReasoner(c);
        const int vars_before = built->db().num_vars();
        auto got = AnswerTemplate(built.get(), kind, *t, mode);
        if (built->db().num_vars() > vars_before) ++grew;
        std::unique_ptr<Reasoner> naive = FreshReasoner(c);
        TemplateOptions nopts;
        nopts.naive = true;
        ExpectSameAnswer(got, AnswerTemplate(naive.get(), kind, *t, mode, nopts),
                         where);
      }
    }
  }
  // The pre-built path did intern fresh atoms (not just known ones).
  EXPECT_GT(grew, 0);
}

TEST(TemplateFresh, FreshLiteralBetweenTemplateCalls) {
  // A sequential query interning a fresh atom between two template calls
  // grows the vocabulary (and regrows a custom partition) under the
  // Reasoner's kept index; the second call must still answer like naive
  // and must not trip the partition's size invariant.
  for (const FreshCase& c : kFreshCases) {
    auto t = ParseTemplate(c.tmpl);
    ASSERT_TRUE(t.ok());
    for (SemanticsKind kind : kAllKinds) {
      const std::string where = std::string(c.program) + " | " + c.tmpl +
                                " " + SemanticsKindName(kind);
      std::unique_ptr<Reasoner> built = FreshReasoner(c);
      std::unique_ptr<Reasoner> naive = FreshReasoner(c);
      TemplateOptions nopts;
      nopts.naive = true;
      for (int round = 0; round < 2; ++round) {
        ExpectSameAnswer(
            AnswerTemplate(built.get(), kind, *t,
                           batch::BatchMode::kSkeptical),
            AnswerTemplate(naive.get(), kind, *t,
                           batch::BatchMode::kSkeptical, nopts),
            where + " round " + std::to_string(round));
        const std::string fresh = "not zz" + std::to_string(round) + "(a)";
        auto v = built->InfersLiteral(kind, fresh, QueryOptions{});
        auto w = naive->InfersLiteral(kind, fresh, QueryOptions{});
        ASSERT_EQ(v.ok(), w.ok()) << where;
        if (v.ok()) {
          EXPECT_EQ(*v, *w) << where;
        }
      }
    }
  }
}

TEST(TemplateIndex, BuiltOncePerReasoner) {
  obs::TraceContext trace;
  TemplateOptions topts;
  topts.batch.trace = &trace;
  const char* kProgram = "p(a). p(b) | q(b). r(a) :- p(a).";
  Reasoner r(Db(kProgram));
  for (bool naive : {false, true}) {
    topts.naive = naive;
    for (const char* text : {"p(X)", "p(X), not q(X)", "r(X)"}) {
      for (batch::BatchMode mode :
           {batch::BatchMode::kSkeptical, batch::BatchMode::kBrave}) {
        auto a = AnswerTemplateText(&r, SemanticsKind::kGcwa, text, mode,
                                    topts);
        ASSERT_TRUE(a.ok()) << a.status().ToString();
      }
    }
  }
  std::vector<int64_t> built;
  for (const obs::Span& sp : trace.Snapshot()) {
    if (sp.name == "tmpl_answers") built.push_back(sp.Counter("index_built"));
  }
  ASSERT_EQ(built.size(), 12u);
  EXPECT_EQ(built.front(), 1);  // the first call builds it...
  EXPECT_EQ(trace.SumCounter("index_built", "tmpl"), 1);  // ...and only it
  // A second Reasoner builds its own.
  Reasoner other(Db(kProgram));
  ASSERT_TRUE(AnswerTemplateText(&other, SemanticsKind::kEgcwa, "p(X)",
                                 batch::BatchMode::kSkeptical, topts)
                  .ok());
  EXPECT_EQ(trace.SumCounter("index_built", "tmpl"), 2);
  // The index is the clause-mentioned one, whatever the queries interned.
  EXPECT_EQ(r.mention_index().universe(),
            ground::IndexDatabase(Db(kProgram)).universe());
}

TEST(TemplateFormat, AnswerBlockGolden) {
  TemplateAnswer a;
  a.vars = {"X", "C"};
  a.yes = {{"n1", "red"}};
  a.unknown = {{"n2", "red"}};
  a.candidates = 6;
  EXPECT_EQ(tmpl::FormatAnswer(a),
            "answer: X=n1 C=red\n"
            "unknown: X=n2 C=red\n"
            "answers: 1 yes, 1 unknown, 6 candidates\n");
  a.unknown.clear();
  a.vacuous = true;
  EXPECT_EQ(tmpl::FormatAnswer(a),
            "answer: X=n1 C=red\n"
            "answers: 1 yes, 0 unknown, 6 candidates"
            " (no intended model: vacuous)\n");
}

}  // namespace
}  // namespace dd
