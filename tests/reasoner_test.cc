#include "core/reasoner.h"

#include "gtest/gtest.h"
#include "semantics/semantics.h"
#include "tests/test_util.h"

namespace dd {
namespace {

TEST(Reasoner, EndToEndOverProgramText) {
  auto r = Reasoner::FromProgram(
      "bird | penguin.\n"
      "flies :- bird.\n");
  ASSERT_TRUE(r.ok());
  Reasoner& reasoner = *r;
  EXPECT_TRUE(*reasoner.HasModel(SemanticsKind::kGcwa));
  EXPECT_TRUE(*reasoner.InfersFormula(SemanticsKind::kEgcwa,
                                      "bird | penguin"));
  EXPECT_TRUE(*reasoner.InfersFormula(SemanticsKind::kEgcwa,
                                      "bird -> flies"));
  EXPECT_FALSE(*reasoner.InfersLiteral(SemanticsKind::kGcwa, "flies"));
  EXPECT_FALSE(*reasoner.InfersLiteral(SemanticsKind::kGcwa, "not bird"));
}

TEST(Reasoner, ParseErrorsSurface) {
  EXPECT_FALSE(Reasoner::FromProgram("a |").ok());
  auto r = Reasoner::FromProgram("a | b.");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->InfersFormula(SemanticsKind::kGcwa, "a &").ok());
  EXPECT_FALSE(r->InfersLiteral(SemanticsKind::kGcwa, "not not a").ok());
}

TEST(Reasoner, FreshQueryAtomsAreClosedOff) {
  auto r = Reasoner::FromProgram("a | b.");
  ASSERT_TRUE(r.ok());
  // "ghost" never appears in the database: every CWA-flavoured semantics
  // should infer its negation.
  EXPECT_TRUE(*r->InfersLiteral(SemanticsKind::kGcwa, "not ghost"));
  EXPECT_TRUE(*r->InfersFormula(SemanticsKind::kEgcwa, "~ghost"));
}

TEST(Reasoner, EnginesAreCachedPerKind) {
  // A head cycle keeps DSM off the polynomial fast path, so queries run on
  // the cached generic engine and its oracle session.
  auto r = Reasoner::FromProgram("a | b. a :- b. b :- a.");
  ASSERT_TRUE(r.ok());
  // The first query builds the engine and loads its session; repeat
  // queries on the cached engine load no further database.
  EXPECT_TRUE(*r->InfersLiteral(SemanticsKind::kDsm, "a"));
  const int64_t loads = r->TotalSessionStats().base_loads;
  EXPECT_GT(loads, 0);
  EXPECT_TRUE(*r->InfersLiteral(SemanticsKind::kDsm, "a"));
  EXPECT_TRUE(*r->InfersFormula(SemanticsKind::kDsm, "a & b"));
  EXPECT_EQ(r->TotalSessionStats().base_loads, loads);
  EXPECT_EQ(MakeSemantics(SemanticsKind::kDsm, r->db())->name(), "DSM");
}

TEST(Reasoner, ModelsAndStats) {
  auto r = Reasoner::FromProgram("a | b.");
  ASSERT_TRUE(r.ok());
  auto models = r->Models(SemanticsKind::kEgcwa);
  ASSERT_TRUE(models.ok());
  EXPECT_EQ(models->size(), 2u);
  EXPECT_GT(r->TotalStats().sat_calls, 0);
}

TEST(Reasoner, AllKindsRespondOnAStratifiedDb) {
  auto r = Reasoner::FromProgram("a | b. c :- not a.");
  ASSERT_TRUE(r.ok());
  for (SemanticsKind k :
       {SemanticsKind::kGcwa, SemanticsKind::kEgcwa, SemanticsKind::kCcwa,
        SemanticsKind::kEcwa, SemanticsKind::kPerf, SemanticsKind::kIcwa,
        SemanticsKind::kDsm, SemanticsKind::kPdsm}) {
    auto has = r->HasModel(k);
    ASSERT_TRUE(has.ok()) << SemanticsKindName(k) << ": "
                          << has.status().ToString();
    EXPECT_TRUE(*has) << SemanticsKindName(k);
  }
  // DDR / PWS reject negation by design.
  EXPECT_EQ(r->HasModel(SemanticsKind::kDdr).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(r->HasModel(SemanticsKind::kPws).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(Reasoner, GcwaAndCcwaHandleNegationClassically) {
  // GCWA on a DNDB treats "not" classically (minimal models of the
  // classical reading); just confirm it answers consistently.
  auto r = Reasoner::FromProgram("a :- not b.");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r->InfersFormula(SemanticsKind::kGcwa, "a | b"));
}

}  // namespace
}  // namespace dd
