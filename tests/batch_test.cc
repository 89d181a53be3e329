// Batched query evaluation (docs/BATCHING.md).
//
// The contracts under test:
//   * batch == sequential: AnswerBatch returns exactly the answers the
//     one-query-at-a-time entry points return, on every semantics;
//   * thread invariance: the answer vector is identical for 1 and 4
//     worker threads;
//   * cache discipline: repeat batches are served from the answer cache
//     with identical answers, the cache invalidates on any fingerprint
//     change, and kUnknown is NEVER stored — not under budgets, not under
//     injected oracle faults;
//   * direct == bank: a group answered per query (too small for a bank,
//     or banks off) and a group answered from a new or stored bank give
//     the sequential entry points' and core/brute_force's answers, with
//     witnesses that are intended models deciding the query;
//   * bounded oracle memos: capping MinimalityCache / ProjectionStore
//     evicts (visible in SessionStats::cache_evictions) without changing
//     any answer.
#include <optional>
#include <string>
#include <vector>

#include "batch/answer_cache.h"
#include "batch/model_bank_store.h"
#include "batch/query_batch.h"
#include "core/brute_force.h"
#include "core/reasoner.h"
#include "gen/generators.h"
#include "gtest/gtest.h"
#include "sat/fault.h"
#include "tests/test_util.h"
#include "util/fingerprint.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace dd {
namespace {

using testing::Db;

const SemanticsKind kAllKinds[] = {
    SemanticsKind::kCwa,  SemanticsKind::kGcwa, SemanticsKind::kEgcwa,
    SemanticsKind::kCcwa, SemanticsKind::kEcwa, SemanticsKind::kDdr,
    SemanticsKind::kPws,  SemanticsKind::kPerf, SemanticsKind::kIcwa,
    SemanticsKind::kDsm,  SemanticsKind::kPdsm,
};

/// Literal queries over every atom (both polarities) plus a few formulas —
/// the standard workload the equivalence tests run.
std::vector<batch::BatchQuery> MixedWorkload(int num_vars) {
  std::vector<batch::BatchQuery> qs;
  for (int i = 0; i < num_vars; ++i) {
    qs.push_back({StrFormat("p%d", i), true});
    qs.push_back({StrFormat("not p%d", i), true});
  }
  qs.push_back({"p0 | p1", false});
  qs.push_back({"p0 & p2", false});
  qs.push_back({"~p0 -> p1", false});
  qs.push_back({"(p0 | p1) & (p2 | p3)", false});
  qs.push_back({"p1 & p0", false});  // commutation dup of an earlier conjunct
  return qs;
}

/// The sequential reference: the unbudgeted single-query entry points.
std::vector<Trilean> SequentialReference(
    Reasoner* r, SemanticsKind kind,
    const std::vector<batch::BatchQuery>& qs) {
  std::vector<Trilean> out;
  for (const batch::BatchQuery& q : qs) {
    Result<bool> ans = q.is_literal ? r->InfersLiteral(kind, q.text)
                                    : r->InfersFormula(kind, q.text);
    EXPECT_TRUE(ans.ok()) << SemanticsKindName(kind) << " '" << q.text
                          << "': " << ans.status().ToString();
    out.push_back(ans.ok() ? TrileanFromBool(*ans) : Trilean::kUnknown);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Fingerprint

TEST(Fingerprint, InvariantUnderClauseAndInterningOrder) {
  Database a = Db("a | b. c :- a. d :- b, not c.");
  // Same clauses, different file order AND different interning order.
  Database b = Db("d :- b, not c. c :- a. a | b.");
  EXPECT_EQ(DatabaseFingerprint(a), DatabaseFingerprint(b));
}

TEST(Fingerprint, SensitiveToAnyClauseChange) {
  const uint64_t base = DatabaseFingerprint(Db("a | b. c :- a."));
  EXPECT_NE(base, DatabaseFingerprint(Db("a | b. c :- b.")));
  EXPECT_NE(base, DatabaseFingerprint(Db("a | b.")));
  EXPECT_NE(base, DatabaseFingerprint(Db("a | b. c :- a. c :- a.")));
  EXPECT_NE(base, DatabaseFingerprint(Db("a | b. c :- not a.")));
}

TEST(Fingerprint, QueryInterningDoesNotChangeIt) {
  Database db = Db("a | b. c :- a.");
  Reasoner r(db);
  const uint64_t before = r.fingerprint();
  // Parsing a query with a fresh atom grows the vocabulary but not the
  // clause set; the fingerprint (and thus the cache epoch) must hold.
  EXPECT_TRUE(r.InfersFormula(SemanticsKind::kGcwa, "a | fresh_atom").ok());
  EXPECT_EQ(r.fingerprint(), before);
  EXPECT_EQ(before, DatabaseFingerprint(db));
}

// ---------------------------------------------------------------------------
// AnswerCache unit tests

TEST(AnswerCache, LruEvictionAtCapacity) {
  batch::AnswerCache cache(2);
  cache.SetEpoch(1);
  cache.Insert("k1", Trilean::kYes);
  cache.Insert("k2", Trilean::kNo);
  // Touch k1 so k2 is the LRU victim when k3 arrives.
  EXPECT_EQ(cache.Lookup("k1"), Trilean::kYes);
  cache.Insert("k3", Trilean::kYes);
  EXPECT_EQ(cache.size(), 2);
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_TRUE(cache.Lookup("k1").has_value());
  EXPECT_FALSE(cache.Lookup("k2").has_value());
  EXPECT_TRUE(cache.Lookup("k3").has_value());
}

TEST(AnswerCache, RefusesUnknown) {
  batch::AnswerCache cache(8);
  cache.SetEpoch(1);
  cache.Insert("k", Trilean::kUnknown);
  EXPECT_EQ(cache.size(), 0);
  EXPECT_EQ(cache.stats().rejected, 1);
  EXPECT_FALSE(cache.Lookup("k").has_value());
}

TEST(AnswerCache, EpochChangeInvalidates) {
  batch::AnswerCache cache(8);
  cache.SetEpoch(1);
  cache.Insert("k", Trilean::kYes);
  cache.SetEpoch(1);  // same epoch: no-op
  EXPECT_EQ(cache.size(), 1);
  EXPECT_EQ(cache.stats().invalidations, 0);
  cache.SetEpoch(2);  // fingerprint changed: drop everything
  EXPECT_EQ(cache.size(), 0);
  EXPECT_EQ(cache.stats().invalidations, 1);
  EXPECT_FALSE(cache.Lookup("k").has_value());
}

// ---------------------------------------------------------------------------
// Canonicalization

TEST(Canonicalize, CommutativeConnectivesShareKeys) {
  Database db = Db("a | b. c :- a.");
  Vocabulary& voc = db.vocabulary();
  auto key = [&](const char* text) {
    Result<Formula> f = ParseFormula(text, &voc);
    EXPECT_TRUE(f.ok());
    return batch::Canonicalize(*f, voc).key;
  };
  EXPECT_EQ(key("a & b"), key("b & a"));
  EXPECT_EQ(key("a | b"), key("b | a"));
  EXPECT_EQ(key("a | (b | c)"), key("c | b | a"));
  EXPECT_NE(key("a -> b"), key("b -> a"));  // implication is ordered
  EXPECT_NE(key("a & b"), key("a | b"));
}

TEST(Canonicalize, DetectsBareLiterals) {
  Database db = Db("a | b.");
  Vocabulary& voc = db.vocabulary();
  Result<Formula> pos = ParseFormula("a", &voc);
  Result<Formula> neg = ParseFormula("~b", &voc);
  Result<Formula> compound = ParseFormula("a | b", &voc);
  ASSERT_TRUE(pos.ok() && neg.ok() && compound.ok());
  EXPECT_TRUE(batch::Canonicalize(*pos, voc).lit.has_value());
  EXPECT_TRUE(batch::Canonicalize(*neg, voc).lit.has_value());
  EXPECT_FALSE(batch::Canonicalize(*compound, voc).lit.has_value());
}

TEST(Canonicalize, SplitPartsNeedNoSecondSimplify) {
  // AnswerBatch keys the parts SplitConjuncts / SplitDisjuncts return
  // without simplifying them again; that must give Canonicalize's key,
  // roots and literal.
  Database db = Db("a | b. c :- a. d :- c, b. e.");
  const Vocabulary& voc = db.vocabulary();
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    Formula f = testing::RandomFormula(&rng, voc.size(), 4);
    switch (rng.Below(4)) {
      case 0:
        f = FormulaNode::MakeAnd(f, FormulaNode::MakeConst(rng.Chance(0.5)));
        break;
      case 1:
        f = FormulaNode::MakeIff(f,
                                 testing::RandomFormula(&rng, voc.size(), 2));
        break;
      default:
        break;
    }
    for (const auto& parts :
         {batch::SplitConjuncts(f), batch::SplitDisjuncts(f)}) {
      for (const Formula& part : parts) {
        const batch::CanonicalQuery once =
            batch::CanonicalizeSimplified(part, voc);
        const batch::CanonicalQuery twice = batch::Canonicalize(part, voc);
        EXPECT_EQ(once.key, twice.key);
        EXPECT_EQ(once.roots, twice.roots);
        EXPECT_EQ(once.lit, twice.lit);
      }
    }
  }
}

TEST(Canonicalize, BankSoundnessGate) {
  for (SemanticsKind kind : kAllKinds) {
    EXPECT_EQ(batch::BankIsSound(kind), kind != SemanticsKind::kPdsm)
        << SemanticsKindName(kind);
    // The brave gate mirrors the skeptical one: PDSM's credulous check
    // runs 3-valued over partial stable models, which a bank of total
    // projections cannot reproduce.
    EXPECT_EQ(batch::BraveBankIsSound(kind), kind != SemanticsKind::kPdsm)
        << SemanticsKindName(kind);
  }
}

TEST(Canonicalize, MinBankGroupTable) {
  // One-query banks only where the group-size sweep found them no slower
  // than the direct path (docs/BATCHING.md §5); two queries elsewhere.
  EXPECT_EQ(batch::kMinBankGroup, 2u);
  for (SemanticsKind kind : kAllKinds) {
    for (batch::BatchMode mode :
         {batch::BatchMode::kSkeptical, batch::BatchMode::kBrave}) {
      const bool one = kind == SemanticsKind::kCwa ||
                       (kind == SemanticsKind::kIcwa &&
                        mode == batch::BatchMode::kBrave);
      EXPECT_EQ(batch::MinBankGroup(kind, mode),
                one ? 1u : batch::kMinBankGroup)
          << SemanticsKindName(kind);
    }
  }
}

TEST(Canonicalize, SplitDisjunctsMirrorsSplitConjuncts) {
  Database db = Db("a | b. c :- a.");
  Vocabulary& voc = db.vocabulary();
  auto parse = [&](const char* text) {
    Result<Formula> f = ParseFormula(text, &voc);
    EXPECT_TRUE(f.ok());
    return *f;
  };
  EXPECT_EQ(batch::SplitDisjuncts(parse("a | b | c")).size(), 3u);
  EXPECT_EQ(batch::SplitDisjuncts(parse("a & b")).size(), 1u);
  EXPECT_EQ(batch::SplitDisjuncts(parse("a")).size(), 1u);
  EXPECT_EQ(batch::SplitConjuncts(parse("a | b | c")).size(), 1u);
}

// ---------------------------------------------------------------------------
// Batch == sequential

TEST(Batch, EqualsSequentialOnEverySemantics) {
  // Positive deductive databases keep every semantics applicable.
  for (uint64_t seed : {1u, 7u}) {
    Database db = RandomPositiveDdb(8, 14, seed);
    std::vector<batch::BatchQuery> qs = MixedWorkload(8);
    for (SemanticsKind kind : kAllKinds) {
      Reasoner seq(db);
      std::vector<Trilean> want = SequentialReference(&seq, kind, qs);
      Reasoner r(db);
      Result<batch::BatchAnswer> got = r.AnswerBatch(kind, qs);
      ASSERT_TRUE(got.ok()) << SemanticsKindName(kind) << ": "
                            << got.status().ToString();
      ASSERT_EQ(got->answers.size(), qs.size());
      for (size_t i = 0; i < qs.size(); ++i) {
        EXPECT_EQ(got->answers[i], want[i])
            << SemanticsKindName(kind) << " seed " << seed << " '"
            << qs[i].text << "'";
      }
      EXPECT_EQ(got->stats.unknowns, 0) << SemanticsKindName(kind);
      EXPECT_GT(got->stats.dedup_hits, 0);       // "p1 & p0" dups conjuncts
      EXPECT_GT(got->stats.conjunct_splits, 0);  // "p0 & p2" splits
    }
  }
}

TEST(Batch, ThreadCountInvariance) {
  Database db = HcfModularDdb(3, 5, 4, 11);
  std::vector<batch::BatchQuery> qs;
  for (int m = 0; m < 3; ++m) {
    for (int p = 0; p < 5; ++p) {
      qs.push_back({StrFormat("m%d_p%d", m, p), true});
      qs.push_back({StrFormat("not m%d_p%d", m, p), true});
    }
  }
  qs.push_back({"m0_p0 | m1_p0", false});  // spans two modules
  qs.push_back({"m2_p1 -> m2_p3", false});
  for (SemanticsKind kind :
       {SemanticsKind::kGcwa, SemanticsKind::kEgcwa, SemanticsKind::kDdr,
        SemanticsKind::kPws, SemanticsKind::kDsm}) {
    batch::BatchOptions one;
    one.num_threads = 1;
    batch::BatchOptions four;
    four.num_threads = 4;
    Reasoner r1(db);
    Reasoner r4(db);
    Result<batch::BatchAnswer> a1 = r1.AnswerBatch(kind, qs, one);
    Result<batch::BatchAnswer> a4 = r4.AnswerBatch(kind, qs, four);
    ASSERT_TRUE(a1.ok() && a4.ok()) << SemanticsKindName(kind);
    EXPECT_EQ(a1->answers, a4->answers) << SemanticsKindName(kind);
    // Multi-module databases really do split into several groups.
    EXPECT_GT(a1->stats.groups, 1) << SemanticsKindName(kind);
    EXPECT_EQ(a1->stats.groups, a4->stats.groups);
  }
}

TEST(Batch, SplitConjunctionMatchesLiteralAnswers) {
  Database db = RandomPositiveDdb(6, 10, 3);
  Reasoner r(db);
  std::vector<batch::BatchQuery> qs = {
      {"p0", true}, {"p0 & p1", false}, {"p1", true}};
  Result<batch::BatchAnswer> got = r.AnswerBatch(SemanticsKind::kGcwa, qs);
  ASSERT_TRUE(got.ok());
  // The conjunction's answer is the Kleene AND of its conjuncts' answers,
  // and its parts are shared with the literal queries.
  const bool both = got->answers[0] == Trilean::kYes &&
                    got->answers[2] == Trilean::kYes;
  EXPECT_EQ(got->answers[1], TrileanFromBool(both));
  EXPECT_EQ(got->stats.unique_queries, 2);
  EXPECT_EQ(got->stats.dedup_hits, 2);
}

// ---------------------------------------------------------------------------
// Brave batches == sequential InfersCredulously

/// Disjunction-bearing workload: literals plus the ∨/∧ shapes the brave
/// splitter cares about (top-level ∨ splits; ∧ stays whole).
std::vector<batch::BatchQuery> BraveWorkload(int num_vars) {
  std::vector<batch::BatchQuery> qs;
  for (int i = 0; i < num_vars; ++i) {
    qs.push_back({StrFormat("p%d", i), true});
    qs.push_back({StrFormat("not p%d", i), true});
  }
  qs.push_back({"p0 | p1", false});
  qs.push_back({"p0 | ~p1 | p2", false});
  qs.push_back({"p0 & p1", false});
  qs.push_back({"(p0 & p1) | (p2 & p3)", false});
  qs.push_back({"p1 | p0", false});  // commutation dup of an earlier disjunct
  return qs;
}

TEST(BatchBrave, EqualsSequentialCredulousOnEverySemantics) {
  for (uint64_t seed : {1u, 7u}) {
    Database db = RandomPositiveDdb(8, 14, seed);
    std::vector<batch::BatchQuery> qs = BraveWorkload(8);
    for (SemanticsKind kind : kAllKinds) {
      Reasoner seq(db);
      std::vector<Trilean> want;
      for (const batch::BatchQuery& q : qs) {
        Result<Trilean> ans = seq.InfersCredulously(kind, q.text);
        ASSERT_TRUE(ans.ok()) << SemanticsKindName(kind) << " '" << q.text
                              << "': " << ans.status().ToString();
        want.push_back(*ans);
      }
      Reasoner r(db);
      Result<batch::BatchAnswer> got = r.AnswerBatchCredulous(kind, qs);
      ASSERT_TRUE(got.ok()) << SemanticsKindName(kind) << ": "
                            << got.status().ToString();
      ASSERT_EQ(got->answers.size(), qs.size());
      for (size_t i = 0; i < qs.size(); ++i) {
        EXPECT_EQ(got->answers[i], want[i])
            << SemanticsKindName(kind) << " seed " << seed << " '"
            << qs[i].text << "'";
      }
      EXPECT_EQ(got->stats.unknowns, 0) << SemanticsKindName(kind);
      EXPECT_GT(got->stats.disjunct_splits, 0) << SemanticsKindName(kind);
      EXPECT_GT(got->stats.dedup_hits, 0) << SemanticsKindName(kind);
    }
  }
}

TEST(BatchBrave, ThreadCountInvariance) {
  Database db = HcfModularDdb(3, 5, 4, 11);
  std::vector<batch::BatchQuery> qs;
  for (int m = 0; m < 3; ++m) {
    for (int p = 0; p < 5; ++p) {
      qs.push_back({StrFormat("m%d_p%d", m, p), true});
      qs.push_back({StrFormat("not m%d_p%d", m, p), true});
    }
  }
  qs.push_back({"m0_p0 | m1_p0", false});  // spans two modules
  qs.push_back({"m2_p1 & m2_p3", false});
  for (SemanticsKind kind :
       {SemanticsKind::kGcwa, SemanticsKind::kEgcwa, SemanticsKind::kDdr,
        SemanticsKind::kPws, SemanticsKind::kDsm}) {
    batch::BatchOptions one;
    one.num_threads = 1;
    batch::BatchOptions four;
    four.num_threads = 4;
    Reasoner r1(db);
    Reasoner r4(db);
    Result<batch::BatchAnswer> a1 = r1.AnswerBatchCredulous(kind, qs, one);
    Result<batch::BatchAnswer> a4 = r4.AnswerBatchCredulous(kind, qs, four);
    ASSERT_TRUE(a1.ok() && a4.ok()) << SemanticsKindName(kind);
    EXPECT_EQ(a1->answers, a4->answers) << SemanticsKindName(kind);
    EXPECT_GT(a1->stats.groups, 1) << SemanticsKindName(kind);
    EXPECT_EQ(a1->stats.groups, a4->stats.groups);
  }
}

TEST(BatchBrave, ModeTaggedCacheKeysNeverCollide) {
  // "a | b" holds in SOME intended model but (on this database) not in
  // all; a shared cache must keep the two verdicts apart.
  Database db = Db("a | b. c :- a.");
  Reasoner r(db);
  std::vector<batch::BatchQuery> qs = {{"a | b", false}, {"a", true}};
  Result<batch::BatchAnswer> brave =
      r.AnswerBatchCredulous(SemanticsKind::kGcwa, qs);
  ASSERT_TRUE(brave.ok());
  EXPECT_EQ(brave->answers[0], Trilean::kYes);
  EXPECT_EQ(brave->answers[1], Trilean::kYes);  // a holds in some model
  Result<batch::BatchAnswer> skeptical =
      r.AnswerBatch(SemanticsKind::kGcwa, qs);
  ASSERT_TRUE(skeptical.ok());
  EXPECT_EQ(skeptical->answers[0], Trilean::kYes);  // a|b is the clause
  EXPECT_EQ(skeptical->answers[1], Trilean::kNo);   // a fails in {b}-models
  // Repeat both: each mode hits its OWN entries.
  Result<batch::BatchAnswer> brave2 =
      r.AnswerBatchCredulous(SemanticsKind::kGcwa, qs);
  ASSERT_TRUE(brave2.ok());
  EXPECT_EQ(brave2->answers, brave->answers);
  EXPECT_EQ(brave2->stats.cache_hits, brave2->stats.unique_queries);
}

TEST(BatchBrave, WitnessesCertifyAnswers) {
  Database db = RandomPositiveDdb(8, 14, 37);
  std::vector<batch::BatchQuery> qs = BraveWorkload(8);
  batch::BatchOptions opts;
  opts.collect_witnesses = true;
  Reasoner r(db);
  Result<batch::BatchAnswer> brave =
      r.AnswerBatchCredulous(SemanticsKind::kGcwa, qs, opts);
  ASSERT_TRUE(brave.ok());
  ASSERT_EQ(brave->witnesses.size(), qs.size());
  int certified = 0;
  for (size_t i = 0; i < qs.size(); ++i) {
    if (brave->answers[i] == Trilean::kYes) {
      // A brave kYes must carry an intended model satisfying the query.
      ASSERT_TRUE(brave->witnesses[i].has_value()) << qs[i].text;
      Result<Formula> f = r.ParseQueryFormula(qs[i].text);
      ASSERT_TRUE(f.ok());
      EXPECT_TRUE((*f)->Eval(*brave->witnesses[i])) << qs[i].text;
      ++certified;
    } else {
      EXPECT_FALSE(brave->witnesses[i].has_value()) << qs[i].text;
    }
  }
  EXPECT_GT(certified, 0);

  // Skeptical witnesses are counterexamples: a kNo carries an intended
  // model violating the query.
  Reasoner rs(db);
  Result<batch::BatchAnswer> skeptical =
      rs.AnswerBatch(SemanticsKind::kGcwa, qs, opts);
  ASSERT_TRUE(skeptical.ok());
  ASSERT_EQ(skeptical->witnesses.size(), qs.size());
  certified = 0;
  for (size_t i = 0; i < qs.size(); ++i) {
    if (skeptical->answers[i] == Trilean::kNo) {
      ASSERT_TRUE(skeptical->witnesses[i].has_value()) << qs[i].text;
      Result<Formula> f = rs.ParseQueryFormula(qs[i].text);
      ASSERT_TRUE(f.ok());
      EXPECT_FALSE((*f)->Eval(*skeptical->witnesses[i])) << qs[i].text;
      ++certified;
    } else {
      EXPECT_FALSE(skeptical->witnesses[i].has_value()) << qs[i].text;
    }
  }
  EXPECT_GT(certified, 0);
}

// ---------------------------------------------------------------------------
// Direct vs bank evaluation, against the sequential entry points and
// core/brute_force

/// A random query text over p0..p{vars-1}: a literal, or a formula of two
/// or three atoms.
std::string RandomQueryText(Rng* rng, int vars) {
  auto atom = [&] {
    const int v = static_cast<int>(rng->Below(static_cast<uint64_t>(vars)));
    return rng->Chance(0.3) ? StrFormat("~p%d", v) : StrFormat("p%d", v);
  };
  const uint64_t shape = rng->Below(5);
  const std::string a = atom();
  if (shape == 0) return a;
  const std::string b = atom();
  switch (shape) {
    case 1:
      return StrFormat("%s | %s", a.c_str(), b.c_str());
    case 2:
      return StrFormat("%s & %s", a.c_str(), b.c_str());
    case 3:
      return StrFormat("(%s -> %s) | %s", a.c_str(), b.c_str(),
                       atom().c_str());
    default:
      return StrFormat("~(%s & %s)", a.c_str(), b.c_str());
  }
}

/// The brute-force reference of one semantics: its total intended models
/// (PDSM: its partial stable models) and the verdict they give a query.
struct BruteReference {
  SemanticsKind kind;
  std::vector<Interpretation> models;
  std::vector<PartialInterpretation> partial;  ///< PDSM only

  BruteReference(SemanticsKind k, const Database& db) : kind(k) {
    const Partition all = Partition::MinimizeAll(db.num_vars());
    switch (kind) {
      case SemanticsKind::kCwa: {
        // DB ∪ {¬x : DB ⊭ x}: the models where every atom not true in all
        // classical models is false.
        const std::vector<Interpretation> classical = brute::AllModels(db);
        for (const Interpretation& m : classical) {
          bool closed = true;
          for (Var v : m.TrueAtoms()) {
            for (const Interpretation& o : classical) closed &= o.Contains(v);
          }
          if (closed) models.push_back(m);
        }
        break;
      }
      case SemanticsKind::kGcwa:
        models = brute::GcwaModels(db);
        break;
      case SemanticsKind::kEgcwa:
        models = brute::MinimalModels(db);
        break;
      case SemanticsKind::kCcwa:
        models = brute::CcwaModels(db, all);
        break;
      case SemanticsKind::kEcwa:
        models = brute::PqzMinimalModels(db, all);
        break;
      case SemanticsKind::kDdr:
        models = brute::DdrModels(db);
        break;
      case SemanticsKind::kPws:
        models = brute::PwsModels(db);
        break;
      case SemanticsKind::kPerf:
        models = brute::PerfectModels(db);
        break;
      case SemanticsKind::kIcwa:
        models = brute::IcwaModels(db);
        break;
      case SemanticsKind::kDsm:
        models = brute::StableModels(db);
        break;
      case SemanticsKind::kPdsm:
        partial = brute::PartialStableModels(db);
        break;
    }
  }

  /// Does `m` decide `f` the way a witness must: violate it (skeptical)
  /// or satisfy it (brave)? PDSM reads f 3-valued: a skeptical
  /// counterexample leaves f not true, a brave witness leaves it not
  /// false, and the witness is the model's true set.
  bool Decides(const Formula& f, bool brave, const Interpretation* m,
               const PartialInterpretation* pm) const {
    if (pm != nullptr) {
      const TruthValue t = f->Eval3(*pm);
      return brave ? t != TruthValue::kFalse : t != TruthValue::kTrue;
    }
    return f->Eval(*m) == brave;
  }

  Trilean Answer(const Formula& f, bool brave) const {
    bool found = false;
    for (const Interpretation& m : models) found |= Decides(f, brave, &m, nullptr);
    for (const PartialInterpretation& pm : partial) {
      found |= Decides(f, brave, nullptr, &pm);
    }
    return TrileanFromBool(found == brave);
  }

  /// True when `w` is an intended model (PDSM: the true set of a partial
  /// stable model) that decides `f`.
  bool Certifies(const Interpretation& w, const Formula& f, bool brave) const {
    for (const Interpretation& m : models) {
      if (m == w && Decides(f, brave, &m, nullptr)) return true;
    }
    for (const PartialInterpretation& pm : partial) {
      if (pm.TrueSet() == w && Decides(f, brave, nullptr, &pm)) return true;
    }
    return false;
  }
};

TEST(BatchDifferential, DirectAndBankGroupsEqualSequentialAndBruteForce) {
  // One whole-database group (analysis dispatch off) of 1-4 queries,
  // answered four ways: direct (banks off), as planned (direct below
  // MinBankGroup, a new bank from it on), from a stored bank, and by the
  // sequential entry points; all must equal core/brute_force. Each batch
  // leg runs with and without witnesses and on 1 and 4 threads; each
  // witness must be an intended model deciding its query.
  constexpr int kVars = 7;
  int64_t yes = 0, no = 0, certified_witnesses = 0;
  for (uint64_t seed : {3u, 8u}) {
    const Database db = RandomPositiveDdb(kVars, 11, seed);
    Rng rng(seed * 7919);
    for (SemanticsKind kind : kAllKinds) {
      const BruteReference ref(kind, db);
      for (bool brave : {false, true}) {
        const batch::BatchMode mode =
            brave ? batch::BatchMode::kBrave : batch::BatchMode::kSkeptical;
        const bool bank_sound =
            brave ? batch::BraveBankIsSound(kind) : batch::BankIsSound(kind);
        for (int size = 1; size <= 4; ++size) {
          std::vector<batch::BatchQuery> qs;
          for (int i = 0; i < size; ++i) {
            qs.push_back({RandomQueryText(&rng, kVars), false});
          }
          const std::string where =
              StrFormat("%s %s seed %llu size %d", SemanticsKindName(kind),
                        brave ? "brave" : "skeptical",
                        static_cast<unsigned long long>(seed), size);
          Database parse_db = db;
          std::vector<Formula> fs;
          std::vector<Trilean> want;
          Reasoner seq(db);
          for (const batch::BatchQuery& q : qs) {
            fs.push_back(testing::F(&parse_db, q.text));
            want.push_back(ref.Answer(fs.back(), brave));
            if (brave) {
              Result<Trilean> r = seq.InfersCredulously(kind, q.text);
              ASSERT_TRUE(r.ok()) << where;
              EXPECT_EQ(*r, want.back()) << where << " sequential " << q.text;
            } else {
              Result<bool> r = seq.InfersFormula(kind, q.text);
              ASSERT_TRUE(r.ok()) << where;
              EXPECT_EQ(TrileanFromBool(*r), want.back())
                  << where << " sequential " << q.text;
            }
          }

          enum class Leg { kDirect, kPlanned, kStored };
          for (Leg leg : {Leg::kDirect, Leg::kPlanned, Leg::kStored}) {
            if (leg == Leg::kStored && !bank_sound) continue;
            for (bool witnesses : {false, true}) {
              for (int threads : {1, 4}) {
                Reasoner r(db);
                r.set_analysis_dispatch(false);
                batch::BatchOptions opts;
                opts.use_answer_cache = false;
                opts.collect_witnesses = witnesses;
                opts.num_threads = threads;
                if (leg == Leg::kDirect) opts.model_bank_cap = 0;
                if (leg == Leg::kStored) {
                  // Two queries make a group that builds and stores the
                  // whole-database bank.
                  ASSERT_TRUE(
                      r.AnswerBatch(kind, {{"p0", true}, {"p1", true}}, opts)
                          .ok());
                }
                Result<batch::BatchAnswer> got =
                    brave ? r.AnswerBatchCredulous(kind, qs, opts)
                          : r.AnswerBatch(kind, qs, opts);
                const std::string at =
                    StrFormat("%s leg %d witnesses %d threads %d",
                              where.c_str(), static_cast<int>(leg),
                              witnesses ? 1 : 0, threads);
                ASSERT_TRUE(got.ok()) << at;
                const batch::BatchStats& st = got->stats;
                EXPECT_EQ(st.groups, 1) << at;
                const bool banked =
                    leg == Leg::kStored ||
                    (leg == Leg::kPlanned && bank_sound &&
                     st.unique_queries >=
                         static_cast<int64_t>(batch::MinBankGroup(kind, mode)));
                EXPECT_EQ(st.bank_groups, banked ? 1 : 0) << at;
                EXPECT_EQ(st.fallback_groups, banked ? 0 : 1) << at;
                EXPECT_EQ(st.bank_store_hits, leg == Leg::kStored ? 1 : 0)
                    << at;
                ASSERT_EQ(got->answers.size(), qs.size()) << at;
                for (size_t i = 0; i < qs.size(); ++i) {
                  EXPECT_EQ(got->answers[i], want[i]) << at << " " << qs[i].text;
                  ++(got->answers[i] == Trilean::kYes ? yes : no);
                  if (!witnesses) continue;
                  const bool certified =
                      got->answers[i] == (brave ? Trilean::kYes : Trilean::kNo);
                  ASSERT_EQ(got->witnesses[i].has_value(), certified)
                      << at << " " << qs[i].text;
                  if (certified) {
                    EXPECT_TRUE(ref.Certifies(*got->witnesses[i], fs[i], brave))
                        << at << " witness of " << qs[i].text;
                    ++certified_witnesses;
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  // Not vacuous: both verdicts occur, and witnesses were checked.
  EXPECT_GT(yes, 100);
  EXPECT_GT(no, 100);
  EXPECT_GT(certified_witnesses, 100);
}

// ---------------------------------------------------------------------------
// Answer cache behaviour through the Reasoner

TEST(BatchCache, RepeatBatchIsAllHitsWithIdenticalAnswers) {
  Database db = RandomPositiveDdb(8, 14, 5);
  std::vector<batch::BatchQuery> qs = MixedWorkload(8);
  Reasoner r(db);
  Result<batch::BatchAnswer> first = r.AnswerBatch(SemanticsKind::kEgcwa, qs);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->stats.cache_hits, 0);
  EXPECT_GT(first->stats.cache_insertions, 0);
  Result<batch::BatchAnswer> second = r.AnswerBatch(SemanticsKind::kEgcwa, qs);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->answers, first->answers);
  EXPECT_EQ(second->stats.cache_hits, second->stats.unique_queries);
  EXPECT_EQ(second->stats.cache_misses, 0);
  EXPECT_EQ(second->stats.groups, 0);  // nothing left to evaluate
}

TEST(BatchCache, SharedCacheHitsAcrossReasonersWithEqualFingerprint) {
  // Same clause multiset, different order: fingerprints agree, so a cache
  // shared by two reasoners serves the second from the first's work.
  Database a = Db("a | b. c :- a. d :- b.");
  Database b = Db("d :- b. a | b. c :- a.");
  batch::AnswerCache shared(64);
  batch::BatchOptions opts;
  opts.cache = &shared;
  std::vector<batch::BatchQuery> qs = {
      {"a", true}, {"not c", true}, {"a | b", false}};
  Reasoner ra(a);
  Result<batch::BatchAnswer> first = ra.AnswerBatch(SemanticsKind::kGcwa, qs,
                                                    opts);
  ASSERT_TRUE(first.ok());
  Reasoner rb(b);
  Result<batch::BatchAnswer> second = rb.AnswerBatch(SemanticsKind::kGcwa, qs,
                                                     opts);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->answers, first->answers);
  EXPECT_EQ(second->stats.cache_hits, second->stats.unique_queries);
  EXPECT_EQ(shared.stats().invalidations, 0);
}

TEST(BatchCache, FingerprintChangeInvalidatesSharedCache) {
  batch::AnswerCache shared(64);
  batch::BatchOptions opts;
  opts.cache = &shared;
  std::vector<batch::BatchQuery> qs = {{"a", true}, {"not c", true}};
  Reasoner ra(Db("a | b. c :- a."));
  ASSERT_TRUE(ra.AnswerBatch(SemanticsKind::kGcwa, qs, opts).ok());
  EXPECT_GT(shared.size(), 0);
  // A different database (one clause added) flips the fingerprint: the
  // shared cache drops every entry rather than serve stale answers.
  Reasoner rb(Db("a | b. c :- a. e."));
  Result<batch::BatchAnswer> second = rb.AnswerBatch(SemanticsKind::kGcwa, qs,
                                                     opts);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.cache_invalidations, 1);
  EXPECT_EQ(second->stats.cache_hits, 0);
}

TEST(BatchCounters, SharedCacheAndStoreCountEachBatchsOwnTraffic) {
  // Two reasoners over different databases alternate batches through ONE
  // answer cache and ONE bank store, both at capacity 1. Every batch's
  // cache_* / bank_store_* counters must equal the traffic that batch
  // made, measured here as the shared structures' stat deltas around the
  // call (nothing else touches them meanwhile). The sequence covers
  // fingerprint switches, evictions, a refused kUnknown insert and a
  // width-floor store miss.
  Reasoner ra(Db("a | b. c | d."));
  Reasoner rb(Db("p | q. r | s."));
  batch::AnswerCache cache(1);
  batch::ModelBankStore store(1);
  struct Step {
    Reasoner* r;
    std::vector<batch::BatchQuery> qs;
    int64_t oracle_call_budget;
    int64_t model_bank_cap;  ///< 0 leaves the store untouched
  };
  // Every group that should build a bank asks two queries, so it pays
  // for one (kMinBankGroup).
  const std::vector<Step> steps = {
      // Two modules of two queries: four inserts into the capacity-1
      // cache, two into the capacity-1 store.
      {&ra, {{"a", true}, {"b", true}, {"c", true}, {"d", true}}, -1, 4096},
      // Fingerprint switch: both structures invalidate.
      {&rb, {{"p", true}, {"r", true}}, -1, 4096},
      // Switch back under a zero oracle budget: kUnknown, refused.
      {&ra, {{"b", true}}, 0, 4096},
      {&rb, {{"q", true}}, -1, 0},
      // Spans both modules: stores the whole-database bank under ra's
      // epoch.
      {&ra, {{"a | c", false}, {"b | d", false}}, -1, 4096},
      {&rb, {{"not q", true}}, -1, 0},
      // A new atom outgrows the stored whole-database bank: a width-floor
      // miss that keeps the entry (the rebuilt bank refreshes it, no
      // insertion). Module banks have no width floor: they are numbered
      // over their own atoms, where a new atom reads false.
      {&ra, {{"a | c | z", false}, {"b | d | z", false}}, -1, 4096},
      {&rb, {{"p", true}}, -1, 4096},
  };
  for (size_t i = 0; i < steps.size(); ++i) {
    const Step& step = steps[i];
    batch::BatchOptions opts;
    opts.cache = &cache;
    opts.bank_store = &store;
    opts.oracle_call_budget = step.oracle_call_budget;
    opts.model_bank_cap = step.model_bank_cap;
    const batch::AnswerCache::Stats c0 = cache.stats();
    const batch::ModelBankStore::Stats s0 = store.stats();
    Result<batch::BatchAnswer> r =
        step.r->AnswerBatch(SemanticsKind::kGcwa, step.qs, opts);
    ASSERT_TRUE(r.ok()) << "step " << i;
    const batch::AnswerCache::Stats& c1 = cache.stats();
    const batch::ModelBankStore::Stats& s1 = store.stats();
    const batch::BatchStats& bs = r->stats;
    EXPECT_EQ(bs.cache_hits, c1.hits - c0.hits) << "step " << i;
    EXPECT_EQ(bs.cache_misses, c1.misses - c0.misses) << "step " << i;
    EXPECT_EQ(bs.cache_insertions, c1.insertions - c0.insertions)
        << "step " << i;
    EXPECT_EQ(bs.cache_evictions, c1.evictions - c0.evictions)
        << "step " << i;
    EXPECT_EQ(bs.cache_invalidations, c1.invalidations - c0.invalidations)
        << "step " << i;
    EXPECT_EQ(bs.bank_store_hits, s1.hits - s0.hits) << "step " << i;
    EXPECT_EQ(bs.bank_store_misses, s1.misses - s0.misses) << "step " << i;
    EXPECT_EQ(bs.bank_store_insertions, s1.insertions - s0.insertions)
        << "step " << i;
    EXPECT_EQ(bs.bank_store_evictions, s1.evictions - s0.evictions)
        << "step " << i;
    EXPECT_EQ(bs.bank_store_invalidations,
              s1.invalidations - s0.invalidations)
        << "step " << i;
    EXPECT_EQ(bs.bank_store_truncated_rejected, s1.rejected - s0.rejected)
        << "step " << i;
    // The events the sequence is built to produce.
    switch (i) {
      case 0:
        EXPECT_EQ(bs.cache_evictions, 3);
        EXPECT_EQ(bs.bank_store_evictions, 1);
        break;
      case 1:
        EXPECT_EQ(bs.cache_invalidations, 1);
        EXPECT_EQ(bs.bank_store_invalidations, 1);
        break;
      case 2:
        EXPECT_EQ(bs.unknowns, 1);
        EXPECT_EQ(c1.rejected - c0.rejected, 1);
        EXPECT_EQ(bs.cache_insertions, 0);
        break;
      case 3:
      case 5:
        EXPECT_EQ(s1.hits + s1.misses + s1.invalidations,
                  s0.hits + s0.misses + s0.invalidations);
        break;
      case 6:
        EXPECT_EQ(bs.bank_store_misses, 1);
        EXPECT_EQ(bs.bank_store_hits, 0);
        EXPECT_EQ(bs.bank_store_insertions, 0);
        EXPECT_EQ(store.size(), 1);
        break;
      default:
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Budgets and fault injection: kUnknown is sound and never cached

TEST(BatchBudget, ZeroOracleBudgetYieldsUnknownsAndCachesNone) {
  Database db = RandomPositiveDdb(10, 18, 9);
  std::vector<batch::BatchQuery> qs = MixedWorkload(10);
  Reasoner ref(db);
  std::vector<Trilean> want =
      SequentialReference(&ref, SemanticsKind::kGcwa, qs);
  Reasoner r(db);
  batch::BatchOptions opts;
  opts.oracle_call_budget = 0;  // exhausted before the first oracle call
  Result<batch::BatchAnswer> got = r.AnswerBatch(SemanticsKind::kGcwa, qs,
                                                 opts);
  ASSERT_TRUE(got.ok());
  int64_t unknowns = 0;
  for (size_t i = 0; i < qs.size(); ++i) {
    if (got->answers[i] == Trilean::kUnknown) {
      ++unknowns;
    } else {
      // Anytime contract: definite answers under budget match the
      // unbudgeted reference exactly.
      EXPECT_EQ(got->answers[i], want[i]) << qs[i].text;
    }
  }
  EXPECT_GT(unknowns, 0);
  ASSERT_NE(r.answer_cache(), nullptr);
  r.answer_cache()->ForEach([](const std::string& key, Trilean t) {
    EXPECT_NE(t, Trilean::kUnknown) << key;
  });
  // A follow-up unbudgeted batch on the same reasoner recovers the full
  // reference: the exhausted batch neither poisoned the cache nor wedged
  // the engines.
  Result<batch::BatchAnswer> clean = r.AnswerBatch(SemanticsKind::kGcwa, qs);
  ASSERT_TRUE(clean.ok());
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(clean->answers[i], want[i]) << qs[i].text;
  }
}

TEST(BatchBudget, FaultInjectionSweepNeverCachesUnknown) {
  Database db = RandomPositiveDdb(8, 14, 13);
  std::vector<batch::BatchQuery> qs = MixedWorkload(8);
  sat::ScopedFaultPlan clean_ref(sat::FaultPlan{});
  Reasoner ref(db);
  std::vector<Trilean> want =
      SequentialReference(&ref, SemanticsKind::kEgcwa, qs);
  for (int64_t k = 1; k <= 8; ++k) {
    sat::FaultPlan plan;
    plan.unknown_at = k;
    Reasoner r(db);
    std::optional<Result<batch::BatchAnswer>> faulted;
    {
      sat::ScopedFaultPlan scoped(plan);
      faulted = r.AnswerBatch(SemanticsKind::kEgcwa, qs);
    }
    Result<batch::BatchAnswer>& got = *faulted;
    ASSERT_TRUE(got.ok()) << "k=" << k << ": " << got.status().ToString();
    for (size_t i = 0; i < qs.size(); ++i) {
      if (got->answers[i] != Trilean::kUnknown) {
        EXPECT_EQ(got->answers[i], want[i]) << "k=" << k << " " << qs[i].text;
      }
    }
    if (r.answer_cache() != nullptr) {
      r.answer_cache()->ForEach([&](const std::string& key, Trilean t) {
        EXPECT_NE(t, Trilean::kUnknown) << "k=" << k << " " << key;
      });
    }
    // With the fault gone, the same reasoner answers the full reference.
    Result<batch::BatchAnswer> after = r.AnswerBatch(SemanticsKind::kEgcwa,
                                                     qs);
    ASSERT_TRUE(after.ok());
    for (size_t i = 0; i < qs.size(); ++i) {
      EXPECT_EQ(after->answers[i], want[i]) << "k=" << k << " " << qs[i].text;
    }
  }
}

// ---------------------------------------------------------------------------
// Bounded oracle memos (MinimalityCache / ProjectionStore caps)

TEST(OracleCacheBound, TinyCapsEvictWithoutChangingAnswers) {
  Database db = RandomPositiveDdb(10, 18, 17);
  std::vector<batch::BatchQuery> qs = MixedWorkload(10);
  Reasoner ref(db);
  std::vector<Trilean> want =
      SequentialReference(&ref, SemanticsKind::kGcwa, qs);
  SemanticsOptions tiny;
  tiny.oracle_cache_cap = 2;
  tiny.projection_stream_cap = 1;
  Reasoner r(db, tiny);
  Result<batch::BatchAnswer> got = r.AnswerBatch(SemanticsKind::kGcwa, qs);
  ASSERT_TRUE(got.ok());
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(got->answers[i], want[i]) << qs[i].text;
  }
  // The sequential path evicts too (caps flow through MinimalOptions).
  for (const batch::BatchQuery& q : qs) {
    if (q.is_literal) {
      EXPECT_TRUE(r.InfersLiteral(SemanticsKind::kEgcwa, q.text).ok());
    }
  }
  EXPECT_GT(r.TotalSessionStats().cache_evictions, 0);
}

TEST(OracleCacheBound, DefaultCapsDoNotEvictOnSmallPrograms) {
  Database db = RandomPositiveDdb(8, 14, 19);
  Reasoner r(db);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(
        r.InfersLiteral(SemanticsKind::kGcwa, StrFormat("not p%d", i)).ok());
  }
  EXPECT_EQ(r.TotalSessionStats().cache_evictions, 0);
}

}  // namespace
}  // namespace dd
