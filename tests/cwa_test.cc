#include "semantics/cwa.h"

#include "core/brute_force.h"
#include "core/reasoner.h"
#include "gen/generators.h"
#include "gtest/gtest.h"
#include "semantics/gcwa.h"
#include "tests/test_util.h"

namespace dd {
namespace {

using testing::Db;
using testing::F;

TEST(Cwa, ConsistentOnDefiniteDb) {
  Database db = Db("a. b :- a. c :- d.");
  CwaSemantics cwa(db);
  EXPECT_TRUE(*cwa.HasModel());
  Vocabulary& voc = db.vocabulary();
  EXPECT_TRUE(*cwa.InfersLiteral(Lit::Pos(voc.Find("a"))));
  EXPECT_TRUE(*cwa.InfersLiteral(Lit::Neg(voc.Find("c"))));
  EXPECT_TRUE(*cwa.InfersLiteral(Lit::Neg(voc.Find("d"))));
  // The unique CWA model is the least model.
  auto models = cwa.Models();
  ASSERT_TRUE(models.ok());
  ASSERT_EQ(models->size(), 1u);
}

TEST(Cwa, InconsistentOnPlainDisjunction) {
  // The paper's motivating failure: from a|b, CWA negates both disjuncts.
  Database db = Db("a | b.");
  CwaSemantics cwa(db);
  EXPECT_FALSE(*cwa.HasModel());
  // GCWA repairs exactly this.
  GcwaSemantics gcwa(db);
  EXPECT_TRUE(*gcwa.HasModel());
}

TEST(Cwa, NegationSetIsTheNonEntailedAtoms) {
  Database db = Db("a. b | c.");
  CwaSemantics cwa(db);
  auto negs = cwa.NegatedAtoms();
  ASSERT_TRUE(negs.ok());
  Vocabulary& voc = db.vocabulary();
  EXPECT_FALSE(negs->Contains(voc.Find("a")));  // entailed
  EXPECT_TRUE(negs->Contains(voc.Find("b")));
  EXPECT_TRUE(negs->Contains(voc.Find("c")));
}

TEST(Cwa, ConsistencyMatchesBruteForceCharacterization) {
  // CWA(DB) is consistent iff DB has a unique least element among its
  // models... more precisely iff the set of entailed atoms is a model.
  Rng rng(515);
  int consistent = 0;
  for (int iter = 0; iter < 120; ++iter) {
    DdbConfig cfg;
    cfg.num_vars = 5;
    cfg.num_clauses = 6;
    cfg.integrity_fraction = 0.15;
    cfg.seed = rng.Next();
    Database db = RandomDdb(cfg);
    CwaSemantics cwa(db);
    auto has = cwa.HasModel();
    ASSERT_TRUE(has.ok());
    // Brute-force: entailed atoms = intersection of all models; CWA model
    // set nonempty iff that intersection is itself a model.
    auto models = brute::AllModels(db);
    bool expected = false;
    if (!models.empty()) {
      Interpretation entailed = models[0];
      for (const auto& m : models) {
        for (Var v : entailed.TrueAtoms()) {
          if (!m.Contains(v)) entailed.Erase(v);
        }
      }
      expected = db.Satisfies(entailed);
    }
    ASSERT_EQ(*has, expected) << db.ToString();
    consistent += *has ? 1 : 0;
  }
  EXPECT_GT(consistent, 5);
  EXPECT_LT(consistent, 115);
}

TEST(Cwa, InferenceMatchesBruteForce) {
  Rng rng(616);
  for (int iter = 0; iter < 80; ++iter) {
    DdbConfig cfg;
    cfg.num_vars = 5;
    cfg.num_clauses = 6;
    cfg.seed = rng.Next();
    Database db = RandomDdb(cfg);
    CwaSemantics cwa(db);
    // Reference: models of DB satisfying ¬x for every non-entailed atom.
    auto all = brute::AllModels(db);
    Interpretation entailed(db.num_vars());
    if (!all.empty()) {
      entailed = all[0];
      for (const auto& m : all) {
        for (Var v : entailed.TrueAtoms()) {
          if (!m.Contains(v)) entailed.Erase(v);
        }
      }
    }
    std::vector<Interpretation> cwa_models;
    for (const auto& m : all) {
      bool ok = true;
      for (Var v : m.TrueAtoms()) {
        if (!entailed.Contains(v)) {
          ok = false;
          break;
        }
      }
      if (ok) cwa_models.push_back(m);
    }
    Formula f = testing::RandomFormula(&rng, db.num_vars(), 2);
    auto got = cwa.InfersFormula(f);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(*got, brute::Infers(cwa_models, f)) << db.ToString();
  }
}

TEST(Cwa, ReasonerIntegration) {
  auto r = Reasoner::FromProgram("a. b | c.");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r->HasModel(SemanticsKind::kCwa));
  EXPECT_TRUE(*r->HasModel(SemanticsKind::kGcwa));
  EXPECT_EQ(MakeSemantics(SemanticsKind::kCwa, r->db())->name(), "CWA");
}

}  // namespace
}  // namespace dd
