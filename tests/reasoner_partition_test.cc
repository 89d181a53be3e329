#include "core/reasoner.h"

#include "gtest/gtest.h"
#include "semantics/ccwa.h"
#include "semantics/ecwa_circ.h"
#include "tests/test_util.h"

namespace dd {
namespace {

TEST(ReasonerPartition, DefaultsToMinimizeAll) {
  auto r = Reasoner::FromProgram("a | b.");
  ASSERT_TRUE(r.ok());
  // CCWA with P = V behaves like GCWA: nothing negated from a|b.
  EXPECT_FALSE(*r->InfersLiteral(SemanticsKind::kCcwa, "not a"));
  EXPECT_TRUE(*r->InfersFormula(SemanticsKind::kEcwa, "~a | ~b"));
}

TEST(ReasonerPartition, CustomPartitionChangesAnswers) {
  auto r = Reasoner::FromProgram("a :- b.");
  ASSERT_TRUE(r.ok());
  // With everything minimized, ECWA infers ~b.
  EXPECT_TRUE(*r->InfersFormula(SemanticsKind::kEcwa, "~b"));
  // Fixing b (Q) protects it from minimization: ~b no longer inferred.
  ASSERT_TRUE(r->SetPartition({"a"}, {"b"}, {}).ok());
  EXPECT_FALSE(*r->InfersFormula(SemanticsKind::kEcwa, "~b"));
  EXPECT_TRUE(*r->InfersFormula(SemanticsKind::kEcwa, "b -> a"));
  EXPECT_TRUE(*r->InfersFormula(SemanticsKind::kEcwa, "a -> b"));
}

TEST(ReasonerPartition, RestPlacement) {
  auto r = Reasoner::FromProgram("a | b. c :- a.");
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->SetPartition({"a", "b"}, {}, {}, 'z').ok());
  // c floats in Z: minimization of {a,b} doesn't negate c directly.
  EXPECT_FALSE(*r->InfersLiteral(SemanticsKind::kCcwa, "not a"));
  // Everything unlisted into Q also validates.
  ASSERT_TRUE(r->SetPartition({"a", "b"}, {}, {}, 'q').ok());
  EXPECT_TRUE(r->HasModel(SemanticsKind::kEcwa).ok());
}

TEST(ReasonerPartition, Errors) {
  auto r = Reasoner::FromProgram("a | b.");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->SetPartition({"ghost"}, {}, {}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(r->SetPartition({"a"}, {"a"}, {}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(r->SetPartition({"a"}, {}, {}, 'x').code(),
            StatusCode::kInvalidArgument);
  // A failed SetPartition leaves the reasoner usable.
  EXPECT_TRUE(r->HasModel(SemanticsKind::kCcwa).ok());
}

TEST(ReasonerPartition, ResetRebuildsEngines) {
  auto r = Reasoner::FromProgram("a :- b.");
  ASSERT_TRUE(r.ok());
  // Query once so the engine is cached, then repartition: the cached
  // engine must not serve the stale partition.
  EXPECT_TRUE(*r->InfersFormula(SemanticsKind::kEcwa, "~b"));
  ASSERT_TRUE(r->SetPartition({"a"}, {"b"}, {}).ok());
  EXPECT_FALSE(*r->InfersFormula(SemanticsKind::kEcwa, "~b"));
  // Unrelated engines survive repartitioning: a GCWA query after the
  // repartition runs on the cached engine and loads no database. Dispatch
  // off keeps the Horn program's GCWA queries on the generic engine.
  r->set_analysis_dispatch(false);
  const int64_t before = r->TotalSessionStats().base_loads;
  EXPECT_TRUE(*r->InfersLiteral(SemanticsKind::kGcwa, "not b"));
  const int64_t loads = r->TotalSessionStats().base_loads;
  EXPECT_GT(loads, before);
  ASSERT_TRUE(r->SetPartition({"b"}, {"a"}, {}).ok());
  EXPECT_TRUE(*r->InfersLiteral(SemanticsKind::kGcwa, "not a"));
  EXPECT_EQ(r->TotalSessionStats().base_loads, loads);
}

}  // namespace
}  // namespace dd
