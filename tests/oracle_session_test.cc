// Oracle-session equivalence and reuse tests (src/oracle/).
//
// The tentpole invariant: sessions are a pure performance layer. For every
// semantics and every query, the answer with use_sessions=true equals the
// answer with use_sessions=false, and the *semantic* oracle structure (the
// counting algorithm's Σ₂ᵖ call count) is identical in both modes — only
// solver invocations and wall-clock change.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "core/oracle_stats.h"
#include "gen/generators.h"
#include "gtest/gtest.h"
#include "minimal/minimal_models.h"
#include "minimal/pqz.h"
#include "oracle/sat_session.h"
#include "semantics/ccwa.h"
#include "semantics/counting_inference.h"
#include "semantics/gcwa.h"
#include "semantics/semantics.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace dd {
namespace {

using testing::ModelSet;
using testing::RandomFormula;

SemanticsOptions WithSessions(bool on) {
  SemanticsOptions opts;
  opts.use_sessions = on;
  return opts;
}

std::vector<SemanticsKind> AllKinds() {
  return {SemanticsKind::kCwa,  SemanticsKind::kGcwa, SemanticsKind::kEgcwa,
          SemanticsKind::kCcwa, SemanticsKind::kEcwa, SemanticsKind::kDdr,
          SemanticsKind::kPws,  SemanticsKind::kPerf, SemanticsKind::kIcwa,
          SemanticsKind::kDsm,  SemanticsKind::kPdsm};
}

// Databases each kind is defined on: DDR/PWS need deductive inputs; the
// positive family works for all kinds, the stratified one for the DNDB
// semantics.
bool KindHandles(SemanticsKind k, bool has_negation) {
  if (!has_negation) return true;
  switch (k) {
    case SemanticsKind::kPerf:
    case SemanticsKind::kIcwa:
    case SemanticsKind::kDsm:
    case SemanticsKind::kPdsm:
      return true;
    default:
      return false;
  }
}

// Session answers == fresh answers for every semantics on random DDBs.
TEST(OracleSessionTest, AllSemanticsAgreeWithFreshSolvers) {
  Rng fr(0x5E55101);
  for (uint64_t seed : {11u, 22u, 33u}) {
    for (bool stratified : {false, true}) {
      const int n = stratified ? 7 : 8;
      Database db =
          stratified ? RandomStratifiedDdb(n, 2 * n, 3, 0.4, seed)
                     : RandomPositiveDdb(n, 2 * n, seed);
      for (SemanticsKind k : AllKinds()) {
        if (!KindHandles(k, stratified)) continue;
        auto with = MakeSemantics(k, db, WithSessions(true));
        auto without = MakeSemantics(k, db, WithSessions(false));
        SCOPED_TRACE(with->name() + (stratified ? " strat" : " pos") +
                     " seed=" + std::to_string(seed));

        auto hm_s = with->HasModel();
        auto hm_f = without->HasModel();
        ASSERT_EQ(hm_s.ok(), hm_f.ok());
        if (hm_s.ok()) {
          EXPECT_EQ(*hm_s, *hm_f);
        }

        for (Var v = 0; v < db.num_vars(); v += 3) {
          for (Lit l : {Lit::Pos(v), Lit::Neg(v)}) {
            auto is = with->InfersLiteral(l);
            auto if_ = without->InfersLiteral(l);
            ASSERT_EQ(is.ok(), if_.ok()) << "lit " << v;
            if (is.ok()) {
              EXPECT_EQ(*is, *if_) << "lit " << v;
            }
          }
        }

        for (int q = 0; q < 3; ++q) {
          Formula f = RandomFormula(&fr, db.num_vars(), 2);
          auto fs = with->InfersFormula(f);
          auto ff = without->InfersFormula(f);
          ASSERT_EQ(fs.ok(), ff.ok());
          if (fs.ok()) {
            EXPECT_EQ(*fs, *ff);
          }
        }

        auto ms = with->Models(200);
        auto mf = without->Models(200);
        ASSERT_EQ(ms.ok(), mf.ok());
        if (ms.ok()) {
          EXPECT_EQ(ModelSet(*ms), ModelSet(*mf));
        }
      }
    }
  }
}

// The paper-level oracle structure is mode-invariant: the GCWA counting
// algorithm issues exactly the same Σ₂ᵖ binary-search calls with and
// without sessions, and stays within the ceil(lg(|P|+1))+1 bound.
TEST(OracleSessionTest, GcwaCountingOracleCallsUnchangedBySessions) {
  for (int n : {4, 8, 16}) {
    for (uint64_t seed : {3u, 7u}) {
      Database db = RandomPositiveDdb(n, 2 * n, seed);
      GcwaSemantics with(db, WithSessions(true));
      GcwaSemantics without(db, WithSessions(false));
      auto rs = with.InfersFormulaViaCounting(FormulaNode::MakeAtom(0));
      auto rf = without.InfersFormulaViaCounting(FormulaNode::MakeAtom(0));
      ASSERT_TRUE(rs.ok());
      ASSERT_TRUE(rf.ok());
      EXPECT_EQ(rs->inferred, rf->inferred);
      EXPECT_EQ(rs->free_count, rf->free_count);
      EXPECT_EQ(rs->oracle_calls, rf->oracle_calls)
          << "sessions must not change the oracle-call structure";
      int bound = static_cast<int>(std::ceil(std::log2(n + 1))) + 1;
      EXPECT_LE(rs->oracle_calls, bound);
      // The perf effect: the session answers with no more solver work.
      EXPECT_LE(with.stats().sat_calls, without.stats().sat_calls);
    }
  }
}

// Context retraction: a group's clauses constrain only solves that assume
// its activation, and die with the group.
TEST(OracleSessionTest, ContextClausesAreScopedAndRetracted) {
  Database db = testing::Db("a | b.");
  oracle::SatSession session(db);
  EXPECT_EQ(session.Solve(), sat::SolveResult::kSat);
  {
    oracle::SatSession::Context ctx(&session);
    ctx.AddUnit(Lit::Neg(0));
    ctx.AddUnit(Lit::Neg(1));
    EXPECT_EQ(ctx.Solve(), sat::SolveResult::kUnsat);
    // The base problem is untouched while the group is live but unassumed.
    EXPECT_EQ(session.Solve(), sat::SolveResult::kSat);
  }
  EXPECT_EQ(session.Solve(), sat::SolveResult::kSat);
  EXPECT_EQ(session.stats().contexts_opened, 1);
  EXPECT_EQ(session.stats().contexts_retired, 1);
}

// Keep(): a kept group persists, but still only binds solves that assume
// its activation literal.
TEST(OracleSessionTest, KeptContextPersistsUnderItsActivation) {
  Database db = testing::Db("a | b.");
  oracle::SatSession session(db);
  Lit act;
  {
    oracle::SatSession::Context ctx(&session);
    ctx.AddClause({Lit::Neg(0)});
    ctx.AddClause({Lit::Neg(1)});
    ctx.Keep();
    act = ctx.activation();
    EXPECT_EQ(ctx.Solve(), sat::SolveResult::kUnsat);
  }
  // After destruction with Keep(): unconstrained solves are SAT, solves
  // assuming the activation still see the group.
  EXPECT_EQ(session.Solve(), sat::SolveResult::kSat);
  EXPECT_EQ(session.Solve({act}), sat::SolveResult::kUnsat);
}

// Retract(): a kept group retired by its activation alone binds nothing
// afterwards, and a kept group opened after it stays live.
TEST(OracleSessionTest, RetractedKeptContextLeavesLaterGroupsLive) {
  Database db = testing::Db("a | b.");
  oracle::SatSession session(db);
  oracle::SatSession::Context first(&session);
  first.Keep();
  first.AddClause({Lit::Neg(0)});
  oracle::SatSession::Context second(&session);
  second.Keep();
  second.AddClause({Lit::Neg(1)});
  first.Retract();
  EXPECT_EQ(session.Solve({first.activation()}), sat::SolveResult::kUnsat);
  EXPECT_EQ(second.Solve(), sat::SolveResult::kSat);
  EXPECT_EQ(session.stats().contexts_retired, 1);
}

// Memoized minimality: the second identical IsMinimal answers from the
// cache with zero additional solver calls.
TEST(OracleSessionTest, MinimalityVerdictsAreMemoized) {
  Database db = RandomPositiveDdb(8, 16, 5);
  MinimalEngine engine(db);
  Partition all = Partition::MinimizeAll(db.num_vars());
  std::optional<Interpretation> m = engine.FindModel();
  ASSERT_TRUE(m.has_value());
  Interpretation mm = engine.Minimize(*m, all);

  bool first = engine.IsMinimal(mm, all);
  int64_t sat_after_first = engine.stats().sat_calls;
  int64_t hits_after_first = engine.session_stats().cache_hits;
  bool second = engine.IsMinimal(mm, all);
  EXPECT_EQ(first, second);
  EXPECT_TRUE(first);
  EXPECT_EQ(engine.stats().sat_calls, sat_after_first)
      << "memoized verdict must not call the solver";
  EXPECT_GT(engine.session_stats().cache_hits, hits_after_first);
}

// Memoized enumeration: the second full enumeration replays the stream's
// recorded projections without any solver call.
TEST(OracleSessionTest, EnumerationReplaysWithoutSolverCalls) {
  Database db = RandomPositiveDdb(8, 16, 9);
  MinimalEngine engine(db);
  Partition all = Partition::MinimizeAll(db.num_vars());

  std::vector<Interpretation> first;
  engine.EnumerateMinimalProjections(all, -1, [&](const Interpretation& m) {
    first.push_back(m);
    return true;
  });
  int64_t sat_after_first = engine.stats().sat_calls;

  std::vector<Interpretation> second;
  engine.EnumerateMinimalProjections(all, -1, [&](const Interpretation& m) {
    second.push_back(m);
    return true;
  });
  EXPECT_EQ(first, second) << "replay must preserve discovery order";
  EXPECT_EQ(engine.stats().sat_calls, sat_after_first)
      << "replay of an exhausted stream must be SAT-free";
  EXPECT_GT(engine.session_stats().projections_replayed, 0);
}

// Evicting a projection stream must not disturb the streams still live:
// B's half-finished stream resumes after A's eviction and still finds all
// of B's minimal projections.
TEST(OracleSessionTest, StreamEvictionKeepsLiveStreamsResumable) {
  Database db = testing::Db("a | b. c | d. e | f.");
  const int n = db.num_vars();
  auto with_z = [n](Var z) {
    Partition p;
    p.p = Interpretation(n);
    p.q = Interpretation(n);
    p.z = Interpretation(n);
    for (Var v = 0; v < n; ++v) {
      if (v == z) {
        p.z.Insert(v);
      } else {
        p.p.Insert(v);
      }
    }
    return p;
  };
  const Partition a = Partition::MinimizeAll(n);
  const Partition b = with_z(5);
  const Partition c = with_z(4);
  auto count = [](MinimalEngine* e, const Partition& p, int64_t cap) {
    return e->EnumerateMinimalProjections(
        p, cap, [](const Interpretation&) { return true; });
  };
  MinimalEngine reference(db);
  const int want = count(&reference, b, -1);
  ASSERT_GT(want, 1);

  MinimalOptions mo;
  mo.projection_stream_cap = 2;
  MinimalEngine engine(db, mo);
  count(&engine, a, 1);
  count(&engine, b, 1);
  count(&engine, c, 1);  // evicts a's stream
  EXPECT_EQ(engine.session_stats().cache_evictions, 1);
  EXPECT_EQ(count(&engine, b, -1), want);
}

// CCWA (partitioned counting) is also mode-invariant, including under a
// nontrivial <P;Q;Z> split.
TEST(OracleSessionTest, CcwaCountingAgreesAcrossModes) {
  const int n = 8;
  Database db = RandomPositiveDdb(n, 2 * n, 17);
  Partition p;
  p.p = Interpretation(n);
  p.q = Interpretation(n);
  p.z = Interpretation(n);
  for (Var v = 0; v < n; ++v) {
    if (v < n / 2) {
      p.p.Insert(v);
    } else if (v < 3 * n / 4) {
      p.q.Insert(v);
    } else {
      p.z.Insert(v);
    }
  }
  CcwaSemantics with(db, p, WithSessions(true));
  CcwaSemantics without(db, p, WithSessions(false));
  auto rs = with.InfersFormulaViaCounting(FormulaNode::MakeAtom(0));
  auto rf = without.InfersFormulaViaCounting(FormulaNode::MakeAtom(0));
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rf.ok());
  EXPECT_EQ(rs->inferred, rf->inferred);
  EXPECT_EQ(rs->free_count, rf->free_count);
  EXPECT_EQ(rs->oracle_calls, rf->oracle_calls);
}

// Session bookkeeping invariants: one base load per engine, opened >=
// retired, and no session activity at all in fresh mode.
TEST(OracleSessionTest, SessionStatsInvariant) {
  Database db = RandomPositiveDdb(6, 12, 2);
  {
    MinimalOptions mo;
    mo.use_sessions = true;
    MinimalEngine engine(db, mo);
    Partition all = Partition::MinimizeAll(db.num_vars());
    (void)engine.FreeAtoms(all);
    oracle::SessionStats s = engine.session_stats();
    EXPECT_EQ(s.base_loads, 1);
    EXPECT_GE(s.contexts_opened, s.contexts_retired);
    EXPECT_GT(s.solves, 0);
  }
  {
    MinimalOptions mo;
    mo.use_sessions = false;
    MinimalEngine engine(db, mo);
    Partition all = Partition::MinimizeAll(db.num_vars());
    (void)engine.FreeAtoms(all);
    oracle::SessionStats s = engine.session_stats();
    EXPECT_EQ(s.base_loads, 0);
    EXPECT_EQ(s.solves, 0);
    EXPECT_EQ(s.cache_hits, 0);
  }
}

// The stats formatter shows the semantic counters next to the reuse
// counters, and renders fresh mode as "session: off".
TEST(OracleSessionTest, FormatStatsRendersSessionCounters) {
  MinimalStats m;
  m.sat_calls = 12;
  m.minimizations = 3;
  m.cegar_iterations = 4;
  m.models_enumerated = 5;
  oracle::SessionStats off;
  EXPECT_EQ(FormatStats(m, off),
            "SAT calls=12, minimizations=3, CEGAR=4, models=5 | "
            "session: off");
  oracle::SessionStats on;
  on.base_loads = 1;
  on.solves = 9;
  on.contexts_opened = 4;
  on.contexts_retired = 3;
  on.cache_hits = 7;
  on.cache_misses = 2;
  on.projections_replayed = 6;
  EXPECT_EQ(FormatStats(m, on),
            "SAT calls=12, minimizations=3, CEGAR=4, models=5 | "
            "session: loads=1, solves=9, ctx=4/3, cache=7/2, replayed=6");
}

}  // namespace
}  // namespace dd
