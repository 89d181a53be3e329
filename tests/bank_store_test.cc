// Cross-batch model-bank store (batch/model_bank_store.h,
// docs/BATCHING.md).
//
// The contracts under test:
//   * key discipline: MakeKey separates module fingerprint, atom order,
//     semantics and effective enumeration cap — two batches share a bank
//     only when they would have built the same one over the same
//     numbering, so reasoners that number a module's atoms differently
//     never read each other's banks;
//   * LRU bounding: the store evicts at capacity and SetEpoch drops
//     everything wholesale on a fingerprint change, like AnswerCache;
//   * completeness: Insert refuses banks not marked complete (a truncated
//     bank answers nothing), and no fault-injection schedule can smuggle
//     one in through the batch layer;
//   * width: a bank built before the vocabulary grew misses for queries
//     over newer atoms but keeps serving the old ones;
//   * reuse: a second NON-identical batch on the same reasoner answers
//     its banked groups from the store — zero new bank enumeration —
//     with answers identical to the sequential reference, even under
//     eviction churn from a capacity-1 store.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "batch/model_bank_store.h"
#include "batch/query_batch.h"
#include "core/reasoner.h"
#include "gen/generators.h"
#include "gtest/gtest.h"
#include "sat/fault.h"
#include "tests/test_util.h"
#include "util/fingerprint.h"
#include "util/string_util.h"

namespace dd {
namespace {

using batch::ModelBank;
using batch::ModelBankStore;
using testing::Db;

const SemanticsKind kAllKinds[] = {
    SemanticsKind::kCwa,  SemanticsKind::kGcwa, SemanticsKind::kEgcwa,
    SemanticsKind::kCcwa, SemanticsKind::kEcwa, SemanticsKind::kDdr,
    SemanticsKind::kPws,  SemanticsKind::kPerf, SemanticsKind::kIcwa,
    SemanticsKind::kDsm,  SemanticsKind::kPdsm,
};

/// A complete bank with `n` arbitrary models over `num_vars` atoms.
std::shared_ptr<const ModelBank> SampleBank(int n, int num_vars) {
  auto models = std::make_shared<std::vector<Interpretation>>();
  for (int i = 0; i < n; ++i) {
    Interpretation m(num_vars);
    if (i < num_vars) m.Set(i, true);
    models->push_back(m);
  }
  auto bank = std::make_shared<ModelBank>();
  bank->models = std::move(models);
  bank->num_vars = num_vars;
  bank->complete = true;
  return bank;
}

// ---------------------------------------------------------------------------
// Unit tests

TEST(BankStoreKey, SeparatesFingerprintAtomOrderKindAndCap) {
  const std::string base =
      ModelBankStore::MakeKey(0xabcu, 0x12u, SemanticsKind::kGcwa, 4096);
  EXPECT_NE(base,
            ModelBankStore::MakeKey(0xabdu, 0x12u, SemanticsKind::kGcwa, 4096));
  EXPECT_NE(base,
            ModelBankStore::MakeKey(0xabcu, 0x13u, SemanticsKind::kGcwa, 4096));
  EXPECT_NE(base, ModelBankStore::MakeKey(0xabcu, 0x12u,
                                          SemanticsKind::kEgcwa, 4096));
  EXPECT_NE(base,
            ModelBankStore::MakeKey(0xabcu, 0x12u, SemanticsKind::kGcwa, 4095));
}

TEST(BankStore, LruEvictionAtCapacity) {
  ModelBankStore store(2);
  store.SetEpoch(1);
  store.Insert("k1", SampleBank(1, 3));
  store.Insert("k2", SampleBank(2, 3));
  // Touch k1 so k2 is the LRU victim when k3 arrives.
  EXPECT_NE(store.Lookup("k1", 3), nullptr);
  store.Insert("k3", SampleBank(3, 3));
  EXPECT_EQ(store.size(), 2);
  EXPECT_EQ(store.stats().evictions, 1);
  EXPECT_NE(store.Lookup("k1", 3), nullptr);
  EXPECT_EQ(store.Lookup("k2", 3), nullptr);
  EXPECT_NE(store.Lookup("k3", 3), nullptr);
}

TEST(BankStore, EpochChangeInvalidates) {
  ModelBankStore store(8);
  store.SetEpoch(1);
  store.Insert("k", SampleBank(2, 3));
  store.SetEpoch(1);  // same epoch: no-op
  EXPECT_EQ(store.size(), 1);
  EXPECT_EQ(store.stats().invalidations, 0);
  store.SetEpoch(2);  // fingerprint changed: drop everything
  EXPECT_EQ(store.size(), 0);
  EXPECT_EQ(store.stats().invalidations, 1);
  EXPECT_EQ(store.Lookup("k", 3), nullptr);
}

TEST(BankStore, RefusesIncompleteBanks) {
  ModelBankStore store(8);
  store.SetEpoch(1);
  auto truncated = std::make_shared<ModelBank>();
  truncated->models = std::make_shared<std::vector<Interpretation>>();
  truncated->num_vars = 3;
  truncated->complete = false;
  store.Insert("k", truncated);
  EXPECT_EQ(store.size(), 0);
  EXPECT_EQ(store.stats().rejected, 1);
  EXPECT_EQ(store.Lookup("k", 3), nullptr);
}

TEST(BankStore, WidthMismatchMissesButKeepsEntry) {
  ModelBankStore store(8);
  store.SetEpoch(1);
  store.Insert("k", SampleBank(2, 3));
  // A query mentioning a newer atom (Var 3) cannot be evaluated against
  // a 3-var bank: miss, entry untouched.
  EXPECT_EQ(store.Lookup("k", 4), nullptr);
  EXPECT_EQ(store.stats().misses, 1);
  EXPECT_EQ(store.size(), 1);
  // Queries over the old atoms keep hitting.
  EXPECT_NE(store.Lookup("k", 3), nullptr);
  EXPECT_NE(store.Lookup("k", 1), nullptr);
}

TEST(BankStore, SharedHandleSurvivesEviction) {
  ModelBankStore store(1);
  store.SetEpoch(1);
  store.Insert("k1", SampleBank(2, 3));
  std::shared_ptr<const ModelBank> held = store.Lookup("k1", 3);
  ASSERT_NE(held, nullptr);
  store.Insert("k2", SampleBank(1, 3));  // evicts k1
  EXPECT_EQ(store.Lookup("k1", 3), nullptr);
  // Eviction dropped the store's reference, not the bank: an in-flight
  // evaluation holding the handle keeps reading valid models.
  EXPECT_EQ(held->models->size(), 2u);
}

// ---------------------------------------------------------------------------
// Through the Reasoner: cross-batch reuse

/// Literal queries over vars [lo, hi), both polarities.
std::vector<batch::BatchQuery> LiteralRange(int lo, int hi) {
  std::vector<batch::BatchQuery> qs;
  for (int i = lo; i < hi; ++i) {
    qs.push_back({StrFormat("p%d", i), true});
    qs.push_back({StrFormat("not p%d", i), true});
  }
  return qs;
}

TEST(BankStoreReuse, SecondBatchReusesBanksWithoutReenumerating) {
  Database db = RandomPositiveDdb(8, 14, 21);
  Reasoner r(db);
  batch::BatchOptions opts;
  opts.use_answer_cache = false;  // isolate the bank store's effect
  Result<batch::BatchAnswer> first =
      r.AnswerBatch(SemanticsKind::kGcwa, LiteralRange(0, 4), opts);
  ASSERT_TRUE(first.ok());
  ASSERT_GT(first->stats.bank_groups, 0);
  EXPECT_GT(first->stats.bank_store_insertions, 0);
  EXPECT_GT(first->stats.bank_models, 0);

  // A DIFFERENT batch over the same modules: banks come from the store,
  // nothing is re-enumerated.
  std::vector<batch::BatchQuery> qs2 = LiteralRange(4, 8);
  Result<batch::BatchAnswer> second =
      r.AnswerBatch(SemanticsKind::kGcwa, qs2, opts);
  ASSERT_TRUE(second.ok());
  EXPECT_GT(second->stats.bank_store_hits, 0);
  EXPECT_EQ(second->stats.bank_models, 0);

  Reasoner ref(db);
  for (size_t i = 0; i < qs2.size(); ++i) {
    Result<bool> want = ref.InfersLiteral(SemanticsKind::kGcwa, qs2[i].text);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(second->answers[i], TrileanFromBool(*want)) << qs2[i].text;
  }
}

TEST(BankStoreReuse, SkepticalBankServesBraveBatch) {
  // Banks are mode-independent: the model set a skeptical batch builds
  // answers a later brave batch by an exists pass.
  Database db = RandomPositiveDdb(8, 14, 23);
  Reasoner r(db);
  batch::BatchOptions opts;
  opts.use_answer_cache = false;
  ASSERT_TRUE(
      r.AnswerBatch(SemanticsKind::kEgcwa, LiteralRange(0, 8), opts).ok());
  Result<batch::BatchAnswer> brave = r.AnswerBatchCredulous(
      SemanticsKind::kEgcwa, LiteralRange(0, 8), opts);
  ASSERT_TRUE(brave.ok());
  EXPECT_GT(brave->stats.bank_store_hits, 0);
  EXPECT_EQ(brave->stats.bank_models, 0);
  Reasoner ref(db);
  std::vector<batch::BatchQuery> qs = LiteralRange(0, 8);
  for (size_t i = 0; i < qs.size(); ++i) {
    Result<Trilean> want =
        ref.InfersCredulously(SemanticsKind::kEgcwa, qs[i].text);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(brave->answers[i], *want) << qs[i].text;
  }
}

TEST(BankStoreReuse, TinyCapacityEvictionChurnKeepsAnswers) {
  // A capacity-1 store thrashes on a multi-module database; answers must
  // match a store-less run exactly — evictions only ever cost time.
  Database db = HcfModularDdb(3, 4, 3, 29);
  std::vector<batch::BatchQuery> qs;
  for (int m = 0; m < 3; ++m) {
    for (int p = 0; p < 4; ++p) {
      qs.push_back({StrFormat("m%d_p%d", m, p), true});
      qs.push_back({StrFormat("not m%d_p%d", m, p), true});
    }
  }
  for (SemanticsKind kind :
       {SemanticsKind::kGcwa, SemanticsKind::kEgcwa, SemanticsKind::kDdr}) {
    batch::BatchOptions tiny;
    tiny.use_answer_cache = false;
    tiny.bank_store_capacity = 1;
    batch::BatchOptions off;
    off.use_answer_cache = false;
    off.use_bank_store = false;
    Reasoner rt(db);
    Reasoner ro(db);
    Result<batch::BatchAnswer> with_store = rt.AnswerBatch(kind, qs, tiny);
    Result<batch::BatchAnswer> without = ro.AnswerBatch(kind, qs, off);
    ASSERT_TRUE(with_store.ok() && without.ok()) << SemanticsKindName(kind);
    EXPECT_EQ(with_store->answers, without->answers) << SemanticsKindName(kind);
    // Run the batch again: churn across batches, same answers.
    Result<batch::BatchAnswer> again = rt.AnswerBatch(kind, qs, tiny);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->answers, without->answers) << SemanticsKindName(kind);
    ASSERT_NE(rt.bank_store(), nullptr);
    EXPECT_LE(rt.bank_store()->size(), 1);
  }
}

TEST(BankStoreReuse, ExternalStoreSharedAcrossReasoners) {
  // Like a server's sessions: two reasoners over fingerprint-equal
  // databases share one store. They intern the atoms in different orders
  // (x, y first in b), but each module's atoms keep their relative order,
  // so the compact module numberings agree and the second reasoner never
  // enumerates.
  Database a = Db("a | b. c :- a. d :- b. x | y.");
  Database b = Db("x | y. a | b. c :- a. d :- b.");
  ModelBankStore shared(8);
  batch::BatchOptions opts;
  opts.use_answer_cache = false;
  opts.bank_store = &shared;
  // Two queries per module, so both groups pay for (and store) a bank.
  std::vector<batch::BatchQuery> qs = {{"a", true},
                                       {"not c", true},
                                       {"d", true},
                                       {"x | y", false},
                                       {"x", true}};
  Reasoner ra(a);
  Result<batch::BatchAnswer> first =
      ra.AnswerBatch(SemanticsKind::kGcwa, qs, opts);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->stats.bank_store_insertions, 2);
  Reasoner rb(b);
  Result<batch::BatchAnswer> second =
      rb.AnswerBatch(SemanticsKind::kGcwa, qs, opts);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->answers, first->answers);
  EXPECT_EQ(second->stats.bank_store_hits, 2);
  EXPECT_EQ(second->stats.bank_models, 0);
  EXPECT_EQ(shared.stats().invalidations, 0);
}

TEST(BankStoreReuse, OneQueryGroupWithoutStoredBankBuildsNone) {
  // A bank costs one oracle call per intended model or more, a query a
  // few: a one-query group answers directly and stores nothing, in both
  // modes, on every semantics but the two that bank from one query (CWA,
  // ICWA brave; see MinBankGroupTable in batch_test).
  Database db = Db("a | b. c :- a. d :- b. x | y.");
  for (SemanticsKind kind : kAllKinds) {
    for (batch::BatchMode mode :
         {batch::BatchMode::kSkeptical, batch::BatchMode::kBrave}) {
      const bool brave = mode == batch::BatchMode::kBrave;
      if (kind == SemanticsKind::kCwa ||
          (kind == SemanticsKind::kIcwa && brave)) {
        continue;
      }
      SCOPED_TRACE(SemanticsKindName(kind));
      Reasoner r(db);
      batch::BatchOptions opts;
      opts.use_answer_cache = false;
      const std::vector<batch::BatchQuery> qs = {{"c", true}};
      Result<batch::BatchAnswer> got =
          brave ? r.AnswerBatchCredulous(kind, qs, opts)
                : r.AnswerBatch(kind, qs, opts);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got->stats.groups, 1);
      EXPECT_EQ(got->stats.bank_groups, 0);
      EXPECT_EQ(got->stats.fallback_groups, 1);
      EXPECT_EQ(got->stats.bank_store_insertions, 0);
      EXPECT_EQ(got->stats.bank_models, 0);
    }
  }
}

TEST(BankStoreReuse, OneQueryGroupAnswersFromStoredBankWithoutOracle) {
  // Once a two-query group has stored its bank, a one-query group on the
  // same footprint reads it: no engine runs, so no oracle call is made.
  Database db = Db("a | b. c :- a. d :- b. x | y.");
  for (SemanticsKind kind : kAllKinds) {
    if (!batch::BankIsSound(kind)) continue;
    SCOPED_TRACE(SemanticsKindName(kind));
    Reasoner r(db);
    batch::BatchOptions opts;
    opts.use_answer_cache = false;
    Result<batch::BatchAnswer> first = r.AnswerBatch(
        kind, {{"a", true}, {"not b", true}, {"x", true}, {"y", true}}, opts);
    ASSERT_TRUE(first.ok());
    ASSERT_EQ(first->stats.bank_store_insertions, first->stats.groups);
    const int64_t sat_before = r.TotalStats().sat_calls;
    const int64_t solves_before = r.TotalSessionStats().solves;
    for (const char* q : {"c", "not d"}) {
      Result<batch::BatchAnswer> got = r.AnswerBatch(kind, {{q, true}}, opts);
      ASSERT_TRUE(got.ok()) << q;
      EXPECT_EQ(got->stats.bank_store_hits, 1) << q;
      EXPECT_EQ(got->stats.bank_groups, 1) << q;
      EXPECT_EQ(got->stats.bank_models, 0) << q;
      EXPECT_EQ(got->stats.group_atoms, 0) << q;
      Reasoner ref(db);
      Result<bool> want = ref.InfersLiteral(kind, q);
      ASSERT_TRUE(want.ok()) << q;
      EXPECT_EQ(got->answers[0], TrileanFromBool(*want)) << q;
    }
    EXPECT_EQ(r.TotalStats().sat_calls, sat_before);
    EXPECT_EQ(r.TotalSessionStats().solves, solves_before);
  }
}

TEST(BankStoreReuse, SharedStoreNeverCrossesAtomNumberings) {
  // Equal fingerprints, different Var numbering: a = 0 in ra but a = 2 in
  // rb. A bank is a bitset over its builder's numbering, so a store shared
  // by both must never hand one reasoner's bank to the other under a
  // different numbering. The literals and "b | c" run in module groups;
  // "a | ~b" spans both modules and runs as a whole-database group, as
  // every CWA query does. All must match rb's own sequential answers.
  const char* kFirst = "a.\nb | c.";
  const char* kSecond = "b | c.\na.";
  const std::vector<batch::BatchQuery> qs = {{"a", true},
                                             {"b | c", false},
                                             {"not a", true},
                                             {"a & (b | c)", false},
                                             {"a | ~b", false}};
  for (SemanticsKind kind : {SemanticsKind::kEgcwa, SemanticsKind::kCwa,
                             SemanticsKind::kGcwa, SemanticsKind::kDsm}) {
    SCOPED_TRACE(SemanticsKindName(kind));
    ModelBankStore shared(8);
    batch::BatchOptions opts;
    opts.use_answer_cache = false;
    opts.bank_store = &shared;
    Reasoner ra(Db(kFirst));
    Reasoner rb(Db(kSecond));
    ASSERT_EQ(ra.fingerprint(), rb.fingerprint());
    ASSERT_TRUE(ra.AnswerBatch(kind, qs, opts).ok());
    ASSERT_GT(shared.size(), 0);
    Result<batch::BatchAnswer> got = rb.AnswerBatch(kind, qs, opts);
    ASSERT_TRUE(got.ok());
    Reasoner ref(Db(kSecond));
    for (size_t i = 0; i < qs.size(); ++i) {
      Result<bool> want = ref.InfersFormula(kind, qs[i].text);
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(got->answers[i], TrileanFromBool(*want)) << qs[i].text;
    }
  }
}

// ---------------------------------------------------------------------------
// Fault injection: truncated banks never reach the store

TEST(BankStoreFaults, InjectionSweepNeverStoresIncompleteBank) {
  Database db = RandomPositiveDdb(8, 14, 31);
  std::vector<batch::BatchQuery> qs = LiteralRange(0, 8);
  sat::ScopedFaultPlan clean_ref(sat::FaultPlan{});
  Reasoner ref(db);
  std::vector<Trilean> want;
  for (const batch::BatchQuery& q : qs) {
    Result<bool> ans = ref.InfersLiteral(SemanticsKind::kEgcwa, q.text);
    ASSERT_TRUE(ans.ok());
    want.push_back(TrileanFromBool(*ans));
  }
  for (int64_t k = 1; k <= 8; ++k) {
    sat::FaultPlan plan;
    plan.unknown_at = k;
    Reasoner r(db);
    batch::BatchOptions opts;
    opts.use_answer_cache = false;
    std::optional<Result<batch::BatchAnswer>> faulted;
    {
      sat::ScopedFaultPlan scoped(plan);
      faulted = r.AnswerBatch(SemanticsKind::kEgcwa, qs, opts);
    }
    ASSERT_TRUE(faulted->ok()) << "k=" << k;
    // Soundness: every definite answer matches the clean reference.
    for (size_t i = 0; i < qs.size(); ++i) {
      if ((*faulted)->answers[i] != Trilean::kUnknown) {
        EXPECT_EQ((*faulted)->answers[i], want[i])
            << "k=" << k << " " << qs[i].text;
      }
    }
    // The store audit: whatever the fault cut short, nothing incomplete
    // was stored.
    if (r.bank_store() != nullptr) {
      r.bank_store()->ForEach(
          [&](const std::string& key, const auto& bank) {
            EXPECT_TRUE(bank->complete) << "k=" << k << " " << key;
            EXPECT_NE(bank->models, nullptr) << "k=" << k << " " << key;
          });
    }
    // With the fault gone, the same reasoner (and its store) recovers the
    // full reference — a poisoned bank would show up right here.
    Result<batch::BatchAnswer> after =
        r.AnswerBatch(SemanticsKind::kEgcwa, qs, opts);
    ASSERT_TRUE(after.ok());
    for (size_t i = 0; i < qs.size(); ++i) {
      EXPECT_EQ(after->answers[i], want[i]) << "k=" << k << " " << qs[i].text;
    }
  }
}

// ---------------------------------------------------------------------------
// The strict-inequality cap edge (EvaluateGroup's completeness probe)

TEST(BankCapEdge, ExactlyCapModelCountsStillBank) {
  // The enumeration asks for cap+1 models and trusts the bank iff at most
  // cap came back — so a module with EXACTLY cap models banks (and at
  // cap-1 it must fall back). A connected chain keeps one module.
  Database db = Db("p0 | p1. p1 | p2. p2 | p3. p3 | p4.");
  std::vector<batch::BatchQuery> qs = LiteralRange(0, 5);
  for (SemanticsKind kind : kAllKinds) {
    // Measure the module's model count with an ample cap, store off so
    // the re-runs below rebuild from scratch.
    batch::BatchOptions probe;
    probe.use_answer_cache = false;
    probe.use_bank_store = false;
    Reasoner rp(db);
    Result<batch::BatchAnswer> wide = rp.AnswerBatch(kind, qs, probe);
    ASSERT_TRUE(wide.ok()) << SemanticsKindName(kind);
    if (kind == SemanticsKind::kPdsm) {
      // PDSM's 3-valued evaluation is gated off banks entirely.
      EXPECT_EQ(wide->stats.bank_groups, 0);
      continue;
    }
    ASSERT_GT(wide->stats.bank_groups, 0) << SemanticsKindName(kind);
    const int64_t n = wide->stats.bank_models;
    // CWA of a disjunctive database is inconsistent: its bank is complete
    // and EMPTY, so there is no cap boundary to pin.
    if (n == 0) continue;

    // cap == model count: the bank is provably complete and must be used.
    batch::BatchOptions exact = probe;
    exact.model_bank_cap = n;
    Reasoner re(db);
    Result<batch::BatchAnswer> at_cap = re.AnswerBatch(kind, qs, exact);
    ASSERT_TRUE(at_cap.ok()) << SemanticsKindName(kind);
    EXPECT_GT(at_cap->stats.bank_groups, 0)
        << SemanticsKindName(kind) << " n=" << n;
    EXPECT_EQ(at_cap->answers, wide->answers) << SemanticsKindName(kind);

    // cap == model count - 1: the probe sees cap+1 == n models, cannot
    // prove completeness, and the group must fall back — same answers.
    if (n > 1) {
      batch::BatchOptions under = probe;
      under.model_bank_cap = n - 1;
      Reasoner ru(db);
      Result<batch::BatchAnswer> below = ru.AnswerBatch(kind, qs, under);
      ASSERT_TRUE(below.ok()) << SemanticsKindName(kind);
      EXPECT_EQ(below->stats.bank_groups, 0)
          << SemanticsKindName(kind) << " n=" << n;
      EXPECT_GT(below->stats.fallback_groups, 0) << SemanticsKindName(kind);
      EXPECT_EQ(below->answers, wide->answers) << SemanticsKindName(kind);
    }
  }
}

}  // namespace
}  // namespace dd
