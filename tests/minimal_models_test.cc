#include <set>

#include "core/brute_force.h"
#include "gen/generators.h"
#include "gtest/gtest.h"
#include "minimal/minimal_models.h"
#include "tests/test_util.h"

namespace dd {
namespace {

using testing::Db;
using testing::F;
using testing::ModelSet;

// A random partition of [0, n) into P/Q/Z.
Partition RandomPartition(Rng* rng, int n) {
  Partition p;
  p.p = Interpretation(n);
  p.q = Interpretation(n);
  p.z = Interpretation(n);
  for (Var v = 0; v < n; ++v) {
    switch (rng->Below(3)) {
      case 0:
        p.p.Insert(v);
        break;
      case 1:
        p.q.Insert(v);
        break;
      default:
        p.z.Insert(v);
        break;
    }
  }
  // Keep P nonempty so minimization has something to do.
  if (p.p.TrueCount() == 0 && n > 0) {
    Var v = static_cast<Var>(rng->Below(static_cast<uint64_t>(n)));
    p.q.Erase(v);
    p.z.Erase(v);
    p.p.Insert(v);
  }
  return p;
}

// The two engine modes: persistent session with memos, and a dedicated
// solver per oracle call with none. Answers must agree.
MinimalOptions Mode(bool sessions) {
  MinimalOptions o;
  o.use_sessions = sessions;
  return o;
}

Database RandomTestDb(Rng* rng, bool allow_negation) {
  DdbConfig cfg;
  cfg.num_vars = 4 + static_cast<int>(rng->Below(4));  // 4..7
  cfg.num_clauses = 4 + static_cast<int>(rng->Below(10));
  cfg.max_head = 3;
  cfg.max_body = 2;
  cfg.fact_fraction = 0.4;
  cfg.integrity_fraction = 0.15;
  cfg.negation_fraction = allow_negation ? 0.3 : 0.0;
  cfg.seed = rng->Next();
  return RandomDdb(cfg);
}

TEST(MinimalEngine, HasModelAndFindModel) {
  Database sat = Db("a | b. c :- a.");
  MinimalEngine e1(sat);
  EXPECT_TRUE(e1.HasModel());
  auto m = e1.FindModel();
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(sat.Satisfies(*m));

  Database unsat = Db("a. :- a.");
  MinimalEngine e2(unsat);
  EXPECT_FALSE(e2.HasModel());
  EXPECT_FALSE(e2.FindModel().has_value());
}

TEST(MinimalEngine, IsMinimalHandPicked) {
  Database db = Db("a | b.");
  MinimalEngine e(db);
  Partition all = Partition::MinimizeAll(db.num_vars());
  EXPECT_TRUE(e.IsMinimal(Interpretation::FromAtoms(2, {0}), all));
  EXPECT_TRUE(e.IsMinimal(Interpretation::FromAtoms(2, {1}), all));
  EXPECT_FALSE(e.IsMinimal(Interpretation::FromAtoms(2, {0, 1}), all));
  EXPECT_FALSE(e.IsMinimal(Interpretation::FromAtoms(2, {}), all));  // no model
}

TEST(MinimalEngine, MinimizeReachesAMinimalModelBelow) {
  Rng rng(555);
  for (int iter = 0; iter < 150; ++iter) {
    Database db = RandomTestDb(&rng, /*allow_negation=*/true);
    MinimalEngine e(db);
    auto m = e.FindModel();
    if (!m.has_value()) continue;
    Partition pqz = RandomPartition(&rng, db.num_vars());
    Interpretation mm = e.Minimize(*m, pqz);
    ASSERT_TRUE(db.Satisfies(mm));
    ASSERT_TRUE(e.IsMinimal(mm, pqz)) << db.ToString();
    // P-part shrank, Q-part preserved.
    ASSERT_TRUE(mm.SubsetOfOn(*m, pqz.p));
    ASSERT_TRUE(mm.EqualOn(*m, pqz.q));
  }
}

TEST(MinimalEngine, EnumerateMinimalModelsMatchesBruteForce) {
  for (bool sessions : {true, false}) {
    SCOPED_TRACE(sessions ? "sessions" : "fresh");
    Rng rng(777);
    for (int iter = 0; iter < 120; ++iter) {
      Database db = RandomTestDb(&rng, /*allow_negation=*/true);
      MinimalEngine e(db, Mode(sessions));
      Partition all = Partition::MinimizeAll(db.num_vars());
      std::vector<Interpretation> got;
      e.EnumerateMinimalProjections(all, -1, [&](const Interpretation& m) {
        got.push_back(m);
        return true;
      });
      auto expected = brute::MinimalModels(db);
      ASSERT_EQ(ModelSet(got), ModelSet(expected)) << db.ToString();
    }
  }
}

TEST(MinimalEngine, EnumerateAllPqzMinimalMatchesBruteForce) {
  for (bool sessions : {true, false}) {
    SCOPED_TRACE(sessions ? "sessions" : "fresh");
    Rng rng(888);
    for (int iter = 0; iter < 120; ++iter) {
      Database db = RandomTestDb(&rng, /*allow_negation=*/true);
      MinimalEngine e(db, Mode(sessions));
      Partition pqz = RandomPartition(&rng, db.num_vars());
      std::vector<Interpretation> got;
      e.EnumerateAllMinimalModels(pqz, -1, [&](const Interpretation& m) {
        got.push_back(m);
        return true;
      });
      auto expected = brute::PqzMinimalModels(db, pqz);
      ASSERT_EQ(ModelSet(got), ModelSet(expected)) << db.ToString();
    }
  }
}

TEST(MinimalEngine, IsMinimalAgreesWithBruteForceUnderPqz) {
  for (bool sessions : {true, false}) {
    SCOPED_TRACE(sessions ? "sessions" : "fresh");
    Rng rng(999);
    for (int iter = 0; iter < 80; ++iter) {
      Database db = RandomTestDb(&rng, /*allow_negation=*/true);
      MinimalEngine e(db, Mode(sessions));
      Partition pqz = RandomPartition(&rng, db.num_vars());
      auto minimal = ModelSet(brute::PqzMinimalModels(db, pqz));
      for (const auto& m : brute::AllModels(db)) {
        ASSERT_EQ(e.IsMinimal(m, pqz), minimal.count(m) > 0) << db.ToString();
      }
    }
  }
}

TEST(MinimalEngine, MinimalEntailsMatchesBruteForce) {
  for (bool sessions : {true, false}) {
    SCOPED_TRACE(sessions ? "sessions" : "fresh");
    Rng rng(1234);
    for (int iter = 0; iter < 150; ++iter) {
      Database db = RandomTestDb(&rng, /*allow_negation=*/true);
      MinimalEngine e(db, Mode(sessions));
      Partition pqz = RandomPartition(&rng, db.num_vars());
      Formula f = testing::RandomFormula(&rng, db.num_vars(), 3);
      Interpretation counterexample;
      bool got = e.MinimalEntails(f, pqz, &counterexample);
      const std::vector<Interpretation> minimal =
          brute::PqzMinimalModels(db, pqz);
      bool expected = brute::Infers(minimal, f);
      ASSERT_EQ(got, expected) << db.ToString() << "\nF = "
                               << f->ToString(db.vocabulary());
      if (!got) {
        // The counterexample (from the main loop or the projection probe)
        // is a <P;Z>-minimal model that violates F.
        ASSERT_EQ(ModelSet(minimal).count(counterexample), 1u)
            << db.ToString();
        ASSERT_FALSE(f->Eval(counterexample)) << db.ToString();
      }
    }
  }
}

TEST(MinimalEngine, ExistsMinimalModelWithMatchesBruteForce) {
  for (bool sessions : {true, false}) {
    SCOPED_TRACE(sessions ? "sessions" : "fresh");
    Rng rng(4321);
    for (int iter = 0; iter < 150; ++iter) {
      Database db = RandomTestDb(&rng, /*allow_negation=*/true);
      MinimalEngine e(db, Mode(sessions));
      Partition pqz = RandomPartition(&rng, db.num_vars());
      Lit l = Lit::Make(static_cast<Var>(rng.Below(db.num_vars())),
                        rng.Chance(0.5));
      Interpretation witness;
      bool got = e.ExistsMinimalModelWith(l, pqz, &witness);
      bool expected = false;
      for (const auto& m : brute::PqzMinimalModels(db, pqz)) {
        if (m.Satisfies(l)) expected = true;
      }
      ASSERT_EQ(got, expected) << db.ToString();
      if (got) {
        ASSERT_TRUE(witness.Satisfies(l));
        ASSERT_TRUE(e.IsMinimal(witness, pqz));
      }
    }
  }
}

TEST(MinimalEngine, FreeAtomsMatchesBruteForce) {
  for (bool sessions : {true, false}) {
    SCOPED_TRACE(sessions ? "sessions" : "fresh");
    Rng rng(31337);
    for (int iter = 0; iter < 100; ++iter) {
      Database db = RandomTestDb(&rng, /*allow_negation=*/true);
      MinimalEngine e(db, Mode(sessions));
      Partition pqz = RandomPartition(&rng, db.num_vars());
      Interpretation free = e.FreeAtoms(pqz);
      Interpretation expected(db.num_vars());
      for (const auto& m : brute::PqzMinimalModels(db, pqz)) {
        for (Var v : m.TrueAtoms()) {
          if (pqz.p.Contains(v)) expected.Insert(v);
        }
      }
      ASSERT_EQ(free, expected) << db.ToString();
    }
  }
}

TEST(MinimalEngine, StatsAreCounted) {
  Database db = Db("a | b. c | d :- a.");
  MinimalEngine e(db);
  Partition all = Partition::MinimizeAll(db.num_vars());
  e.EnumerateMinimalProjections(all, -1,
                                [](const Interpretation&) { return true; });
  EXPECT_GT(e.stats().sat_calls, 0);
  EXPECT_GT(e.stats().minimizations, 0);
  EXPECT_GT(e.stats().models_enumerated, 0);
  e.ResetStats();
  EXPECT_EQ(e.stats().sat_calls, 0);
}

TEST(MinimalEngine, EnumerationCapStopsEarly) {
  Database db = Db("a | b. c | d. e | f.");
  MinimalEngine e(db);
  Partition all = Partition::MinimizeAll(db.num_vars());
  int count = e.EnumerateMinimalProjections(
      all, 3, [](const Interpretation&) { return true; });
  EXPECT_EQ(count, 3);
}

TEST(MinimalEngine, UnsatDatabaseBehaviour) {
  Database db = Db("a. :- a.");
  MinimalEngine e(db);
  Partition all = Partition::MinimizeAll(db.num_vars());
  int count = e.EnumerateMinimalProjections(
      all, -1, [](const Interpretation&) { return true; });
  EXPECT_EQ(count, 0);
  // Everything is vacuously entailed.
  Database* dbp = &db;
  EXPECT_TRUE(e.MinimalEntails(F(dbp, "a & ~a"), all));
  EXPECT_FALSE(e.ExistsMinimalModelWith(Lit::Pos(0), all));
}

}  // namespace
}  // namespace dd
