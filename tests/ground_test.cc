#include "ground/grounder.h"

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/brute_force.h"
#include "core/io.h"
#include "core/reasoner.h"
#include "ground/parser.h"
#include "gtest/gtest.h"
#include "semantics/dsm.h"
#include "semantics/egcwa.h"
#include "tests/test_util.h"
#include "util/fingerprint.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace dd {
namespace {

using ground::FoProgram;
using ground::GroundOptions;
using ground::GroundProgramText;
using ground::ParseProgram;

TEST(GroundParser, AtomsTermsAndRules) {
  auto p = ParseProgram(
      "edge(a, b).\n"
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Z) :- path(X, Y), edge(Y, Z).\n"
      ":- path(X, X).\n"
      "flag :- not path(a, b).\n");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  ASSERT_EQ(p->rules.size(), 5u);
  EXPECT_TRUE(p->rules[0].heads[0].IsGround());
  EXPECT_FALSE(p->rules[1].heads[0].IsGround());
  EXPECT_TRUE(p->rules[3].heads.empty());
  EXPECT_EQ(p->rules[4].neg_body.size(), 1u);
  EXPECT_EQ(p->rules[1].Variables(), (std::vector<std::string>{"X", "Y"}));
  EXPECT_EQ(p->Constants(), (std::vector<std::string>{"a", "b"}));
}

TEST(GroundParser, VariableConvention) {
  auto p = ParseProgram("p(X, x, _tmp, 42).");
  ASSERT_TRUE(p.ok());
  const auto& args = p->rules[0].heads[0].args;
  EXPECT_TRUE(args[0].is_variable);
  EXPECT_FALSE(args[1].is_variable);
  EXPECT_TRUE(args[2].is_variable);
  EXPECT_FALSE(args[3].is_variable);
}

TEST(GroundParser, Errors) {
  EXPECT_FALSE(ParseProgram("p(a").ok());
  EXPECT_FALSE(ParseProgram("p(a,).").ok());
  EXPECT_FALSE(ParseProgram("p(a)").ok());
  EXPECT_FALSE(ParseProgram(":- .").ok());
  EXPECT_FALSE(ParseProgram("not :- a.").ok());
}

TEST(GroundParser, RoundTripThroughToString) {
  const char* text =
      "a(X) | b(X) :- c(X), not d(X).\n"
      ":- a(k).\n";
  auto p = ParseProgram(text);
  ASSERT_TRUE(p.ok());
  auto p2 = ParseProgram(p->ToString());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p->ToString(), p2->ToString());
}

TEST(Grounder, SimpleInstantiation) {
  auto db = GroundProgramText(
      "node(a). node(b).\n"
      "red(X) | blue(X) :- node(X).\n");
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // 2 node facts + 2 instantiated choice rules.
  EXPECT_EQ(db->num_clauses(), 4);
  EXPECT_NE(db->vocabulary().Find("red(a)"), kInvalidVar);
  EXPECT_NE(db->vocabulary().Find("blue(b)"), kInvalidVar);
}

TEST(Grounder, SafetyEnforcedByDefault) {
  auto bad = GroundProgramText("p(X).");
  EXPECT_EQ(bad.status().code(), StatusCode::kFailedPrecondition);
  GroundOptions opts;
  opts.require_safety = false;
  auto ok = GroundProgramText("q(a). p(X).", opts);
  ASSERT_TRUE(ok.ok());
  // p instantiated over the universe {a}.
  EXPECT_NE(ok->vocabulary().Find("p(a)"), kInvalidVar);
}

TEST(Grounder, RelevanceFilterDropsUnderivableBodies) {
  GroundOptions with, without;
  with.relevance_filter = true;
  without.relevance_filter = false;
  const char* text =
      "fact(a).\n"
      "out(X) :- ghost(X), fact(X).\n";  // ghost is never derivable
  auto filtered = GroundProgramText(text, with);
  auto full = GroundProgramText(text, without);
  ASSERT_TRUE(filtered.ok() && full.ok());
  EXPECT_LT(filtered->num_clauses(), full->num_clauses());
  // Semantics preserved: same minimal models on the shared atoms.
  EXPECT_EQ(brute::MinimalModels(*filtered).size(),
            brute::MinimalModels(*full).size());
}

TEST(Grounder, RelevanceFilterScopeCounterexample) {
  // The documented limitation: under ECWA with a floating atom, the filter
  // changes answers — the dropped rule "x :- ghost" constrained the junk
  // completions. This pins the documented behaviour down.
  GroundOptions on, off;
  on.relevance_filter = true;
  off.relevance_filter = false;
  const char* text = "a. x :- ghost.";
  auto filtered = GroundProgramText(text, on);
  auto full = GroundProgramText(text, off);
  ASSERT_TRUE(filtered.ok() && full.ok());
  EXPECT_EQ(filtered->num_clauses(), 1);
  EXPECT_EQ(full->num_clauses(), 2);
  // Classical models over {ghost, x} differ, which is exactly why the
  // filter is opt-in.
  EXPECT_NE(brute::AllModels(*filtered).size(),
            brute::AllModels(*full).size());
}

TEST(Grounder, RelevanceFilterDisabledUnderNegation) {
  // With negation the filter would be unsound; verify it is bypassed and
  // grounding keeps the rule even when explicitly requested.
  GroundOptions opts;
  opts.relevance_filter = true;
  auto db = GroundProgramText(
      "item(a).\n"
      "ok(X) :- item(X), not broken(X).\n",
      opts);
  ASSERT_TRUE(db.ok());
  EXPECT_NE(db->vocabulary().Find("ok(a)"), kInvalidVar);
  EgcwaSemantics egcwa(*db);
  auto models = egcwa.Models();
  ASSERT_TRUE(models.ok());
  // Minimal model: {item(a), ok(a)}... classically minimal models are
  // {item(a), ok(a)} and {item(a), broken(a)}.
  EXPECT_EQ(models->size(), 2u);
}

TEST(Grounder, ClauseCapEnforced) {
  GroundOptions opts;
  opts.max_clauses = 10;
  auto db = GroundProgramText(
      "d(a). d(b). d(c). d(e). d(f).\n"
      "p(X, Y, Z) :- d(X), d(Y), d(Z).\n",
      opts);
  EXPECT_EQ(db.status().code(), StatusCode::kResourceExhausted);
}

TEST(Grounder, DuplicateInstancesDeduplicated) {
  auto db = GroundProgramText(
      "d(a).\n"
      "p :- d(a).\n"
      "p :- d(X).\n");  // the instance duplicates the ground rule
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->num_clauses(), 2);
}

TEST(GroundBottomUp, RejectsNegationAndUnsafety) {
  auto p1 = ParseProgram("a(X) :- b(X), not c(X). b(k).");
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(ground::GroundBottomUp(*p1).status().code(),
            StatusCode::kFailedPrecondition);
  auto p2 = ParseProgram("a(X). b(k).");
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(ground::GroundBottomUp(*p2).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(GroundBottomUp, AgreesWithNaiveOnCwaFamilyAnswers) {
  // Bottom-up grounding only keeps derivable-body instances; for the
  // CWA/fixpoint family the answers must match the full naive grounding.
  const char* prog =
      "edge(a, b). edge(b, c). edge(c, d).\n"
      "path(X, Y) | detour(X, Y) :- edge(X, Y).\n"
      "path(X, Z) :- path(X, Y), path(Y, Z).\n"
      "reach(X) :- path(a, X).\n";
  auto parsed = ParseProgram(prog);
  ASSERT_TRUE(parsed.ok());
  auto naive = ground::Ground(*parsed);
  auto smart = ground::GroundBottomUp(*parsed);
  ASSERT_TRUE(naive.ok() && smart.ok());
  EXPECT_LT(smart->num_clauses(), naive->num_clauses());
  Reasoner rn(*naive), rs(*smart);
  for (const char* q :
       {"not reach(d)", "not reach(b)", "not path(b,a)", "not detour(a,b)"}) {
    auto a = rn.InfersLiteral(SemanticsKind::kGcwa, q);
    auto b = rs.InfersLiteral(SemanticsKind::kGcwa, q);
    ASSERT_TRUE(a.ok() && b.ok()) << q;
    EXPECT_EQ(*a, *b) << q;
    auto c = rn.InfersLiteral(SemanticsKind::kDdr, q);
    auto d = rs.InfersLiteral(SemanticsKind::kDdr, q);
    ASSERT_TRUE(c.ok() && d.ok()) << q;
    EXPECT_EQ(*c, *d) << q;
  }
}

TEST(GroundBottomUp, ScalesWhereNaiveExplodes) {
  // Chain of 40 constants: the join rule has 3 variables, so naive
  // grounding enumerates 40^3 = 64000 instantiations while the bottom-up
  // join only touches derivable path atoms.
  std::string prog;
  const int n = 40;
  for (int i = 0; i + 1 < n; ++i) {
    prog += StrFormat("edge(c%d, c%d).\n", i, i + 1);
  }
  prog += "path(X, Y) :- edge(X, Y).\n";
  prog += "path(X, Z) :- path(X, Y), edge(Y, Z).\n";
  auto parsed = ParseProgram(prog);
  ASSERT_TRUE(parsed.ok());
  auto smart = ground::GroundBottomUp(*parsed);
  ASSERT_TRUE(smart.ok()) << smart.status().ToString();
  // n-1 edges + n-1 base-path instances + C(n-1,2)-ish join instances:
  // far below the naive 64000.
  EXPECT_LT(smart->num_clauses(), 2000);
  // Spot-check reachability end to end.
  Reasoner r(*smart);
  EXPECT_TRUE(*r.InfersLiteral(SemanticsKind::kGcwa, "path(c0,c39)"));
  EXPECT_TRUE(*r.InfersLiteral(SemanticsKind::kGcwa, "not path(c39,c0)"));
}

TEST(GroundBottomUp, IntegrityInstancesFromDerivableBodies) {
  const char* prog =
      "q(a) | q(b).\n"
      ":- q(X), q(Y), neq(X, Y).\n"
      "neq(a, b). neq(b, a).\n";
  auto parsed = ParseProgram(prog);
  ASSERT_TRUE(parsed.ok());
  auto db = ground::GroundBottomUp(*parsed);
  ASSERT_TRUE(db.ok());
  // Both q atoms are derivable, so the integrity instances appear.
  DsmSemantics dsm(*db);
  auto models = dsm.Models();
  ASSERT_TRUE(models.ok());
  // Exactly two stable models: q(a) or q(b), never both.
  EXPECT_EQ(models->size(), 2u);
}

TEST(Grounder, ThreeColoringEndToEnd) {
  // A triangle is 3-colorable but not 2-colorable.
  const char* triangle =
      "node(a). node(b). node(c).\n"
      "edge(a, b). edge(b, c). edge(a, c).\n"
      "col(X, r) | col(X, g) | col(X, b2) :- node(X).\n"
      ":- edge(X, Y), col(X, C), col(Y, C).\n";
  auto db = GroundProgramText(triangle);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  DsmSemantics dsm(*db);
  EXPECT_TRUE(*dsm.HasModel());

  const char* two_colors =
      "node(a). node(b). node(c).\n"
      "edge(a, b). edge(b, c). edge(a, c).\n"
      "col(X, r) | col(X, g) :- node(X).\n"
      ":- edge(X, Y), col(X, C), col(Y, C).\n";
  auto db2 = GroundProgramText(two_colors);
  ASSERT_TRUE(db2.ok());
  DsmSemantics dsm2(*db2);
  EXPECT_FALSE(*dsm2.HasModel());
}

TEST(Grounder, TransitiveClosure) {
  const char* prog =
      "edge(a, b). edge(b, c).\n"
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Z) :- path(X, Y), edge(Y, Z).\n";
  auto db = GroundProgramText(prog);
  ASSERT_TRUE(db.ok());
  Reasoner r(std::move(db).value());
  EXPECT_TRUE(*r.InfersLiteral(SemanticsKind::kGcwa, "path(a,c)"));
  EXPECT_TRUE(*r.InfersLiteral(SemanticsKind::kGcwa, "not path(c,a)"));
}

TEST(Grounder, RelevanceFilterMatchesBottomUpClauseForClause) {
  // The atom-level divergence case: p is derivable AS A PREDICATE (p(a)
  // is a fact) but p(b) is not derivable as an atom, so the instance
  // "q(b) :- p(b), d(b)" must be dropped. A predicate-level filter keeps
  // it, splitting Ground's fingerprint from GroundBottomUp's and missing
  // every shared answer-cache / bank-store entry.
  const char* text =
      "d(a). d(b). p(a).\n"
      "q(X) :- p(X), d(X).\n";
  GroundOptions rel;
  rel.relevance_filter = true;
  auto filtered = GroundProgramText(text, rel);
  auto prog = ParseProgram(text);
  ASSERT_TRUE(filtered.ok() && prog.ok());
  auto bottom_up = ground::GroundBottomUp(*prog);
  ASSERT_TRUE(bottom_up.ok());
  EXPECT_EQ(filtered->num_clauses(), bottom_up->num_clauses());
  EXPECT_EQ(DatabaseFingerprint(*filtered), DatabaseFingerprint(*bottom_up));
  EXPECT_EQ(filtered->vocabulary().Find("q(b)"), kInvalidVar);
  EXPECT_NE(filtered->vocabulary().Find("q(a)"), kInvalidVar);
}

/// The bench_template family (bench/bench_template.cc): a color ring with
/// two color-swapping edges and a ring whose colors are forced.
std::string TwoRingProgram(int m, int j) {
  std::string p = "color(x1,r) | color(x1,g).\n";
  for (int i = 1; i < m; ++i) {
    p += StrFormat(i == m / 2 ? "sedge(x%d,x%d).\n" : "edge(x%d,x%d).\n", i,
                   i + 1);
  }
  p += StrFormat("sedge(x%d,x1).\n", m);
  p += "color(y1,r).\n";
  for (int i = 1; i < j; ++i) p += StrFormat("edge(y%d,y%d).\n", i, i + 1);
  p += StrFormat("edge(y%d,y1).\n", j);
  p += "color(Y,C) :- edge(X,Y), color(X,C).\n";
  p += "color(Y,r) :- sedge(X,Y), color(X,g).\n";
  p += "color(Y,g) :- sedge(X,Y), color(X,r).\n";
  p += ":- color(X,r), color(X,g).\n";
  return p;
}

TEST(Grounder, RelevanceFilterFingerprintSharedAcrossGrounders) {
  // Disjunctive heads + a join rule + a rule reorder: both grounders and
  // both rule orders must land on ONE fingerprint, the key of the shared
  // answer cache and model-bank store (docs/TEMPLATES.md §cache keys).
  const char* text =
      "node(a). node(b). edge(a, b).\n"
      "color(X, r) | color(X, g) :- node(X).\n"
      "agree(X, Y) :- edge(X, Y), color(X, C), color(Y, C).\n";
  const char* reordered =
      "agree(X, Y) :- edge(X, Y), color(X, C), color(Y, C).\n"
      "color(X, r) | color(X, g) :- node(X).\n"
      "edge(a, b). node(b). node(a).\n";
  GroundOptions rel;
  rel.relevance_filter = true;
  auto a = GroundProgramText(text, rel);
  auto b = GroundProgramText(reordered, rel);
  auto prog = ParseProgram(text);
  ASSERT_TRUE(a.ok() && b.ok() && prog.ok());
  auto c = ground::GroundBottomUp(*prog);
  ASSERT_TRUE(c.ok());
  const uint64_t fp = DatabaseFingerprint(*a);
  EXPECT_EQ(fp, DatabaseFingerprint(*b));
  EXPECT_EQ(fp, DatabaseFingerprint(*c));
  // Junk instances over the color constants never materialize: r/g are
  // not nodes, so color(r,g)-style atoms stay out of the closure.
  EXPECT_EQ(a->vocabulary().Find("color(r,g)"), kInvalidVar);

  // The committed coloring example and the template bench's two rings.
  auto coloring = ReadFileToString(DD_EXAMPLES_DIR "/coloring3.fodb");
  ASSERT_TRUE(coloring.ok()) << coloring.status().ToString();
  for (const std::string& program : {*coloring, TwoRingProgram(12, 4)}) {
    auto parsed = ParseProgram(program);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto filtered = ground::Ground(*parsed, rel);
    auto bottom_up = ground::GroundBottomUp(*parsed);
    ASSERT_TRUE(filtered.ok() && bottom_up.ok());
    EXPECT_GT(bottom_up->num_clauses(), 0);
    EXPECT_EQ(DatabaseFingerprint(*filtered), DatabaseFingerprint(*bottom_up))
        << program;
  }
}

TEST(Grounder, ClosureHeldToClauseCap) {
  // Transitive closure over a complete graph: the derivable closure alone
  // runs to 200^2 path atoms joined 200^3 ways, so the clause cap must
  // stop it while it grows, not after.
  std::string text;
  for (int i = 0; i < 200; ++i) text += StrFormat("node(c%d).\n", i);
  text += "edge(X, Y) :- node(X), node(Y).\n";
  text += "path(X, Y) :- edge(X, Y).\n";
  text += "path(X, Z) :- path(X, Y), edge(Y, Z).\n";
  auto prog = ParseProgram(text);
  ASSERT_TRUE(prog.ok());
  GroundOptions opts;
  opts.max_clauses = 100;
  auto bottom_up = ground::GroundBottomUp(*prog, opts);
  EXPECT_EQ(bottom_up.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(bottom_up.status().message(), "grounding exceeded 100 clauses");
  opts.relevance_filter = true;
  auto filtered = ground::Ground(*prog, opts);
  EXPECT_EQ(filtered.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(filtered.status().message(), "grounding exceeded 100 clauses");
}

TEST(Grounder, StratifiedDefaultsThroughGrounding) {
  // win(X) :- move(X,Y), not win(Y): the classic game program (acyclic
  // moves keep it stratified after grounding on this instance's ordering).
  const char* game =
      "move(a, b). move(b, c).\n"
      "win(X) :- move(X, Y), not win(Y).\n";
  auto db = GroundProgramText(game);
  ASSERT_TRUE(db.ok());
  Reasoner r(std::move(db).value());
  // c has no moves: lost. b can move to c: won. a moves to b (won): lost.
  EXPECT_TRUE(*r.InfersFormula(SemanticsKind::kDsm, "win(b)"));
  EXPECT_TRUE(*r.InfersFormula(SemanticsKind::kDsm, "~win(a)"));
  EXPECT_TRUE(*r.InfersFormula(SemanticsKind::kDsm, "~win(c)"));
}

// ---------------------------------------------------------------------------
// Differential check: the relevance-filtered and bottom-up grounders
// against a reference built from plain Ground() and a naive fixpoint over
// atom names.
// ---------------------------------------------------------------------------

/// A clause as sorted atom-name lists: heads, positive body, negative body.
using NamedClause = std::tuple<std::vector<std::string>,
                               std::vector<std::string>,
                               std::vector<std::string>>;

std::vector<std::string> Names(const Vocabulary& voc,
                               const std::vector<Var>& vars) {
  std::vector<std::string> out;
  for (Var v : vars) out.push_back(voc.Name(v));
  std::sort(out.begin(), out.end());
  return out;
}

/// `db`'s clauses by name, sorted (duplicates kept).
std::vector<NamedClause> NamedClauses(const Database& db) {
  std::vector<NamedClause> out;
  for (const Clause& c : db.clauses()) {
    out.emplace_back(Names(db.vocabulary(), c.heads()),
                     Names(db.vocabulary(), c.pos_body()),
                     Names(db.vocabulary(), c.neg_body()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The clauses of `full` (a plain grounding) whose positive body lies in
/// the least set of atom names closed under those clauses' heads.
std::vector<NamedClause> NaiveRelevant(const Database& full) {
  const std::vector<NamedClause> all = NamedClauses(full);
  std::set<std::string> derived;
  auto body_derived = [&](const NamedClause& c) {
    for (const std::string& b : std::get<1>(c)) {
      if (derived.count(b) == 0) return false;
    }
    return true;
  };
  for (bool grew = true; grew;) {
    grew = false;
    for (const NamedClause& c : all) {
      if (!body_derived(c)) continue;
      for (const std::string& h : std::get<0>(c)) {
        grew = derived.insert(h).second || grew;
      }
    }
  }
  std::vector<NamedClause> out;
  for (const NamedClause& c : all) {
    if (body_derived(c)) out.push_back(c);
  }
  return out;
}

Database FromNamed(const std::vector<NamedClause>& clauses) {
  Database db;
  for (const auto& [heads, pos, neg] : clauses) db.AddRule(heads, pos, neg);
  return db;
}

/// A random small safe program over predicates e/2, p/1, q/2, r/1, s/0
/// and up to four constants: facts (some disjunctive), random rules with
/// repeated variables and integrity clauses, and often linear and
/// non-linear recursion.
std::string RandomProgram(Rng* rng) {
  const int num_constants = 1 + static_cast<int>(rng->Below(4));
  const struct {
    const char* name;
    int arity;
  } kPreds[] = {{"e", 2}, {"p", 1}, {"q", 2}, {"r", 1}, {"s", 0}};
  auto constant = [&] {
    return StrFormat("c%d", static_cast<int>(rng->Below(num_constants)));
  };
  // An atom of a random predicate; args from `vars` (when non-empty, with
  // probability 2/3) or constants.
  auto atom = [&](const std::vector<std::string>& vars) {
    const auto& pred = kPreds[rng->Below(5)];
    std::string out = pred.name;
    for (int k = 0; k < pred.arity; ++k) {
      out += k == 0 ? "(" : ",";
      out += !vars.empty() && rng->Below(3) != 0
                 ? vars[rng->Below(vars.size())]
                 : constant();
    }
    return pred.arity == 0 ? out : out + ")";
  };
  std::string text;
  const int facts = 2 + static_cast<int>(rng->Below(5));
  for (int i = 0; i < facts; ++i) {
    text += atom({});
    if (rng->Chance(0.3)) text += " | " + atom({});
    text += ".\n";
  }
  const std::vector<std::string> kVars = {"X", "Y", "Z"};
  const int rules = 1 + static_cast<int>(rng->Below(5));
  for (int i = 0; i < rules; ++i) {
    const std::vector<std::string> vars(
        kVars.begin(), kVars.begin() + 1 + static_cast<long>(rng->Below(3)));
    std::vector<std::string> body;
    const int body_size = 1 + static_cast<int>(rng->Below(3));
    for (int b = 0; b < body_size; ++b) body.push_back(atom(vars));
    // Heads may use only variables the body binds (safety).
    std::vector<std::string> bound;
    for (const std::string& v : vars) {
      for (const std::string& b : body) {
        if (b.find(v) != std::string::npos) {
          bound.push_back(v);
          break;
        }
      }
    }
    const int heads = static_cast<int>(rng->Below(5)) == 0
                          ? 0
                          : 1 + static_cast<int>(rng->Below(2));
    for (int h = 0; h < heads; ++h) {
      text += (h ? " | " : "") + atom(bound);
    }
    text += heads ? " :- " : ":- ";
    for (int b = 0; b < body_size; ++b) text += (b ? ", " : "") + body[b];
    text += ".\n";
  }
  if (rng->Chance(0.5)) {
    text += "q(X,Y) :- e(X,Y).\n";
    text += rng->Chance(0.5) ? "q(X,Z) :- q(X,Y), q(Y,Z).\n"
                             : "q(X,Z) :- q(X,Y), e(Y,Z).\n";
  }
  if (rng->Chance(0.3)) text += "r(X) | p(X) :- q(X,X).\n";
  return text;
}

TEST(GroundDifferential, RelevanceAndBottomUpMatchNaiveReference) {
  Rng rng(20260417);
  int nonempty = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::string text = RandomProgram(&rng);
    SCOPED_TRACE(text);
    auto prog = ParseProgram(text);
    ASSERT_TRUE(prog.ok()) << prog.status().ToString();
    auto full = ground::Ground(*prog);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    const std::vector<NamedClause> want = NaiveRelevant(*full);
    const uint64_t want_fp = DatabaseFingerprint(FromNamed(want));
    nonempty += want.empty() ? 0 : 1;

    GroundOptions rel;
    rel.relevance_filter = true;
    auto filtered = ground::Ground(*prog, rel);
    auto bottom_up = ground::GroundBottomUp(*prog);
    ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
    ASSERT_TRUE(bottom_up.ok()) << bottom_up.status().ToString();
    EXPECT_EQ(NamedClauses(*filtered), want);
    EXPECT_EQ(NamedClauses(*bottom_up), want);
    EXPECT_EQ(DatabaseFingerprint(*filtered), want_fp);
    EXPECT_EQ(DatabaseFingerprint(*bottom_up), want_fp);

    // Under a clause cap both fail exactly when the reference is larger.
    const int64_t n = static_cast<int64_t>(want.size());
    for (int64_t cap : {int64_t{1}, n - 1, n, n + 1}) {
      if (cap < 1) continue;
      GroundOptions capped;
      capped.max_clauses = cap;
      auto b = ground::GroundBottomUp(*prog, capped);
      capped.relevance_filter = true;
      auto f = ground::Ground(*prog, capped);
      for (const Result<Database>* got : {&b, &f}) {
        if (n <= cap) {
          ASSERT_TRUE(got->ok()) << "cap " << cap << ": "
                                 << got->status().ToString();
          EXPECT_EQ(NamedClauses(**got), want);
        } else {
          EXPECT_EQ(got->status().code(), StatusCode::kResourceExhausted)
              << "cap " << cap;
          EXPECT_EQ(got->status().message(),
                    StrFormat("grounding exceeded %lld clauses",
                              static_cast<long long>(cap)));
        }
      }
    }

    // With negation the filter is off (plain Ground's clauses exactly) and
    // GroundBottomUp refuses the program.
    auto negated = ParseProgram(text + "s :- p(X), not r(X).\n");
    ASSERT_TRUE(negated.ok());
    auto plain = ground::Ground(*negated);
    auto unfiltered = ground::Ground(*negated, rel);
    ASSERT_TRUE(plain.ok() && unfiltered.ok());
    EXPECT_EQ(NamedClauses(*unfiltered), NamedClauses(*plain));
    EXPECT_EQ(ground::GroundBottomUp(*negated).status().code(),
              StatusCode::kFailedPrecondition);
  }
  // The generator is not degenerate.
  EXPECT_GT(nonempty, 250);
}

}  // namespace
}  // namespace dd
