// Serving-layer coverage (src/serve/, docs/SERVING.md): snapshot
// round-trips and corruption fuzz (bit flips, truncation — corrupted
// caches load empty, counted, and answers stay identical), admission
// control, retry-ladder determinism and fault tolerance, hot reload, and
// warm-vs-cold equivalence across all 11 semantics.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "batch/answer_cache.h"
#include "batch/queries_file.h"
#include "core/reasoner.h"
#include "gtest/gtest.h"
#include "obs/trace.h"
#include "sat/fault.h"
#include "serve/request_gate.h"
#include "serve/retry_ladder.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "tests/test_util.h"
#include "util/fingerprint.h"
#include "util/string_util.h"

namespace dd {
namespace {

using batch::AnswerCache;
using batch::BatchQuery;
using serve::LoadAnswerCache;
using serve::QueryServer;
using serve::RequestGate;
using serve::RetryPolicy;
using serve::RungLimits;
using serve::SaveAnswerCache;
using serve::ServeOptions;
using serve::SnapshotLoad;
using dd::testing::Db;

const SemanticsKind kAllKinds[] = {
    SemanticsKind::kCwa,  SemanticsKind::kGcwa, SemanticsKind::kEgcwa,
    SemanticsKind::kCcwa, SemanticsKind::kEcwa, SemanticsKind::kDdr,
    SemanticsKind::kPws,  SemanticsKind::kPerf, SemanticsKind::kIcwa,
    SemanticsKind::kDsm,  SemanticsKind::kPdsm,
};

/// A unique temp path per test; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(::testing::TempDir() + "dd_serve_" + tag + "_" +
              std::to_string(reinterpret_cast<uintptr_t>(this)) + ".snap") {
    std::remove(path_.c_str());
  }
  ~TempFile() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteAll(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good()) << path;
}

AnswerCache MakeSampleCache(uint64_t epoch) {
  AnswerCache cache(64);
  cache.SetEpoch(epoch);
  cache.Insert(AnswerCache::MakeKey(epoch, SemanticsKind::kGcwa, "a"),
               Trilean::kYes);
  cache.Insert(AnswerCache::MakeKey(epoch, SemanticsKind::kGcwa, "b"),
               Trilean::kNo);
  cache.Insert(AnswerCache::MakeKey(epoch, SemanticsKind::kPdsm, "(a|b)"),
               Trilean::kYes);
  return cache;
}

// ---------------------------------------------------------------------------
// Snapshot persistence
// ---------------------------------------------------------------------------

TEST(Snapshot, RoundTripPreservesEntriesAndRecencyOrder) {
  TempFile f("roundtrip");
  AnswerCache cache = MakeSampleCache(7);
  ASSERT_TRUE(SaveAnswerCache(cache, 7, f.path()).ok());

  AnswerCache loaded(64);
  SnapshotLoad outcome = SnapshotLoad::kMissing;
  ASSERT_TRUE(LoadAnswerCache(f.path(), 7, &loaded, &outcome).ok());
  EXPECT_EQ(outcome, SnapshotLoad::kLoaded);
  EXPECT_EQ(loaded.size(), cache.size());

  std::vector<std::pair<std::string, Trilean>> want, got;
  cache.ForEach([&](const std::string& k, Trilean a) {
    want.emplace_back(k, a);
  });
  loaded.ForEach([&](const std::string& k, Trilean a) {
    got.emplace_back(k, a);
  });
  EXPECT_EQ(want, got);  // MRU-first order round-trips exactly

  // Golden stability: re-saving the loaded cache is byte-identical.
  TempFile f2("roundtrip2");
  ASSERT_TRUE(SaveAnswerCache(loaded, 7, f2.path()).ok());
  EXPECT_EQ(ReadAll(f.path()), ReadAll(f2.path()));
}

TEST(Snapshot, GoldenFormat) {
  TempFile f("golden");
  AnswerCache cache(8);
  cache.SetEpoch(3);
  cache.Insert("k1", Trilean::kYes);
  ASSERT_TRUE(SaveAnswerCache(cache, 3, f.path()).ok());
  const std::string data = ReadAll(f.path());
  // magic(8) + epoch(8) + count(8) + [len(4) + "k1"(2) + answer(1)] + sum(8)
  ASSERT_EQ(data.size(), 8u + 8 + 8 + 4 + 2 + 1 + 8);
  EXPECT_EQ(data.substr(0, 8), "DDCACHE1");
  EXPECT_EQ(static_cast<uint8_t>(data[8]), 3);   // epoch, LE
  EXPECT_EQ(static_cast<uint8_t>(data[16]), 1);  // count, LE
  EXPECT_EQ(static_cast<uint8_t>(data[24]), 2);  // key_len, LE
  EXPECT_EQ(data.substr(28, 2), "k1");
  EXPECT_EQ(static_cast<uint8_t>(data[30]), 1);  // kYes
}

TEST(Snapshot, MissingFileIsCleanColdStart) {
  AnswerCache cache(8);
  SnapshotLoad outcome = SnapshotLoad::kLoaded;
  Status s = LoadAnswerCache("/nonexistent/dir/x.snap", 1, &cache, &outcome);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(outcome, SnapshotLoad::kMissing);
  EXPECT_EQ(cache.size(), 0);
}

TEST(Snapshot, StaleEpochLoadsEmptyByContract) {
  TempFile f("stale");
  AnswerCache cache = MakeSampleCache(7);
  ASSERT_TRUE(SaveAnswerCache(cache, 7, f.path()).ok());
  AnswerCache loaded(8);
  SnapshotLoad outcome = SnapshotLoad::kLoaded;
  Status s = LoadAnswerCache(f.path(), 8, &loaded, &outcome);
  EXPECT_TRUE(s.ok());  // stale is normal, not an error
  EXPECT_EQ(outcome, SnapshotLoad::kStale);
  EXPECT_EQ(loaded.size(), 0);
  EXPECT_EQ(loaded.epoch(), 8u);  // pinned to the CURRENT database
}

TEST(Snapshot, EveryBitFlipFailsClosed) {
  TempFile f("bitflip");
  AnswerCache cache = MakeSampleCache(7);
  ASSERT_TRUE(SaveAnswerCache(cache, 7, f.path()).ok());
  const std::string good = ReadAll(f.path());

  TempFile mutant("bitflip_mut");
  for (size_t byte = 0; byte < good.size(); ++byte) {
    for (int bit = 0; bit < 8; bit += 3) {  // 3 bits per byte: cheap + dense
      std::string bad = good;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      WriteAll(mutant.path(), bad);
      AnswerCache loaded(64);
      SnapshotLoad outcome = SnapshotLoad::kLoaded;
      Status s = LoadAnswerCache(mutant.path(), 7, &loaded, &outcome);
      // The whole-payload checksum makes ANY single-bit flip corruption.
      EXPECT_EQ(outcome, SnapshotLoad::kCorrupt)
          << "byte " << byte << " bit " << bit;
      EXPECT_EQ(s.code(), StatusCode::kDataLoss);
      EXPECT_EQ(loaded.size(), 0);
      // The cache stays fully usable after a rejected load.
      loaded.Insert("probe", Trilean::kYes);
      EXPECT_EQ(loaded.Lookup("probe"), Trilean::kYes);
    }
  }
}

TEST(Snapshot, EveryTruncationFailsClosed) {
  TempFile f("trunc");
  AnswerCache cache = MakeSampleCache(7);
  ASSERT_TRUE(SaveAnswerCache(cache, 7, f.path()).ok());
  const std::string good = ReadAll(f.path());

  TempFile mutant("trunc_mut");
  for (size_t len = 0; len < good.size(); ++len) {
    WriteAll(mutant.path(), good.substr(0, len));
    AnswerCache loaded(64);
    SnapshotLoad outcome = SnapshotLoad::kLoaded;
    Status s = LoadAnswerCache(mutant.path(), 7, &loaded, &outcome);
    EXPECT_EQ(outcome, SnapshotLoad::kCorrupt) << "length " << len;
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(loaded.size(), 0);
  }
}

TEST(Snapshot, UnknownAnswerByteIsCorruption) {
  // Handcraft a file whose answer byte is 2 and whose checksum is VALID:
  // structural validation itself must reject the third value.
  std::string data;
  data.append("DDCACHE1");
  for (int i = 0; i < 8; ++i) data.push_back(i == 0 ? 5 : 0);  // epoch 5
  for (int i = 0; i < 8; ++i) data.push_back(i == 0 ? 1 : 0);  // count 1
  data.push_back(1);  // key_len 1 (LE u32)
  data.push_back(0);
  data.push_back(0);
  data.push_back(0);
  data.push_back('k');
  data.push_back(2);  // the impossible "kUnknown on disk"
  uint64_t sum = FingerprintBytes(data);
  for (int i = 0; i < 8; ++i) data.push_back(static_cast<char>(sum >> (8 * i)));

  TempFile f("badanswer");
  WriteAll(f.path(), data);
  AnswerCache loaded(8);
  SnapshotLoad outcome = SnapshotLoad::kLoaded;
  Status s = LoadAnswerCache(f.path(), 5, &loaded, &outcome);
  EXPECT_EQ(outcome, SnapshotLoad::kCorrupt);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(loaded.size(), 0);
}

TEST(Snapshot, SaveIsAtomicOverPreviousSnapshot) {
  TempFile f("atomic");
  AnswerCache first(8);
  first.SetEpoch(1);
  first.Insert("old", Trilean::kYes);
  ASSERT_TRUE(SaveAnswerCache(first, 1, f.path()).ok());

  AnswerCache second(8);
  second.SetEpoch(1);
  second.Insert("new", Trilean::kNo);
  ASSERT_TRUE(SaveAnswerCache(second, 1, f.path()).ok());

  AnswerCache loaded(8);
  ASSERT_TRUE(LoadAnswerCache(f.path(), 1, &loaded, nullptr).ok());
  EXPECT_EQ(loaded.size(), 1);
  EXPECT_EQ(loaded.Lookup("new"), Trilean::kNo);
}

// ---------------------------------------------------------------------------
// Request gate
// ---------------------------------------------------------------------------

TEST(RequestGateTest, ShedsBeyondQueueCap) {
  RequestGate gate(RequestGate::Options{1, 0});
  auto t1 = gate.Enter();
  ASSERT_TRUE(t1.ok());
  auto t2 = gate.Enter();  // slot busy, queue cap 0 -> immediate shed
  EXPECT_EQ(t2.status().code(), StatusCode::kUnavailable);
  t1->Release();
  auto t3 = gate.Enter();
  EXPECT_TRUE(t3.ok());
  RequestGate::Stats s = gate.stats();
  EXPECT_EQ(s.admitted, 2);
  EXPECT_EQ(s.shed, 1);
  EXPECT_EQ(s.queued, 0);
}

TEST(RequestGateTest, QueuedWaiterAdmittedOnRelease) {
  RequestGate gate(RequestGate::Options{1, 2});
  auto t1 = gate.Enter();
  ASSERT_TRUE(t1.ok());
  bool waiter_ok = false;
  std::thread waiter([&] {
    auto t = gate.Enter();  // blocks until t1 releases
    waiter_ok = t.ok();
  });
  while (gate.waiting() < 1) std::this_thread::yield();
  t1->Release();
  waiter.join();
  EXPECT_TRUE(waiter_ok);
  RequestGate::Stats s = gate.stats();
  EXPECT_EQ(s.admitted, 2);
  EXPECT_EQ(s.queued, 1);
  EXPECT_GE(s.queue_peak, 1);
}

TEST(RequestGateTest, ShutdownWakesWaitersWithUnavailable) {
  RequestGate gate(RequestGate::Options{1, 4});
  auto t1 = gate.Enter();
  ASSERT_TRUE(t1.ok());
  StatusCode waiter_code = StatusCode::kOk;
  std::thread waiter([&] { waiter_code = gate.Enter().status().code(); });
  while (gate.waiting() < 1) std::this_thread::yield();
  gate.Shutdown();
  waiter.join();
  EXPECT_EQ(waiter_code, StatusCode::kUnavailable);
  EXPECT_EQ(gate.Enter().status().code(), StatusCode::kUnavailable);
  t1->Release();  // releasing a pre-shutdown ticket stays legal
}

// ---------------------------------------------------------------------------
// Retry ladder
// ---------------------------------------------------------------------------

TEST(RetryLadder, RungLimitsAreDeterministicAndGeometric) {
  RetryPolicy p;  // defaults: 2048 conflicts, growth 4, 3 rungs
  EXPECT_EQ(RungLimits(p, 0).conflict_budget, 2048);
  EXPECT_EQ(RungLimits(p, 1).conflict_budget, 8192);
  EXPECT_EQ(RungLimits(p, 2).conflict_budget, 32768);
  // Unlimited axes stay unlimited on every rung.
  EXPECT_EQ(RungLimits(p, 2).deadline_ms, -1);
  EXPECT_EQ(RungLimits(p, 2).oracle_call_budget, -1);
  // Ceiling clamps escalation; pure function = same answer every call.
  p.conflict_ceiling = 10000;
  EXPECT_EQ(RungLimits(p, 2).conflict_budget, 10000);
  EXPECT_EQ(RungLimits(p, 2).conflict_budget, 10000);
}

TEST(RetryLadder, EscalatesThroughUnknownToDefiniteAnswer) {
  RetryPolicy p;
  p.max_rungs = 3;
  int calls = 0;
  std::vector<int64_t> seen;
  serve::LadderResult r =
      serve::RunLadder(p, [&](const Budget::Limits& lim, Status* why) {
        seen.push_back(lim.conflict_budget);
        if (++calls < 3) {
          *why = Status::ResourceExhausted("dry");
          return Trilean::kUnknown;
        }
        return Trilean::kYes;
      });
  EXPECT_EQ(r.answer, Trilean::kYes);
  EXPECT_EQ(r.rungs, 3);
  EXPECT_TRUE(r.escalated);
  EXPECT_TRUE(r.exhausted.ok());
  EXPECT_EQ(seen, (std::vector<int64_t>{2048, 8192, 32768}));
}

TEST(RetryLadder, HardErrorStopsImmediately) {
  RetryPolicy p;
  p.max_rungs = 5;
  int calls = 0;
  serve::LadderResult r =
      serve::RunLadder(p, [&](const Budget::Limits&, Status* why) {
        ++calls;
        *why = Status::InvalidArgument("bad query");
        return Trilean::kUnknown;
      });
  EXPECT_EQ(calls, 1);  // escalation cannot fix a parse error
  EXPECT_EQ(r.rungs, 1);
  EXPECT_EQ(r.answer, Trilean::kUnknown);
  EXPECT_EQ(r.exhausted.code(), StatusCode::kInvalidArgument);
}

TEST(RetryLadder, ExhaustedCeilingReportsBudgetStatus) {
  RetryPolicy p;
  p.max_rungs = 2;
  serve::LadderResult r =
      serve::RunLadder(p, [&](const Budget::Limits&, Status* why) {
        *why = Status::ResourceExhausted("dry");
        return Trilean::kUnknown;
      });
  EXPECT_EQ(r.answer, Trilean::kUnknown);
  EXPECT_EQ(r.rungs, 2);
  EXPECT_TRUE(r.exhausted.IsBudgetExhaustion());
}

// ---------------------------------------------------------------------------
// QueryServer
// ---------------------------------------------------------------------------

TEST(QueryServerTest, ServesAndCachesAcrossRequests) {
  QueryServer server(Db("a | b. c."), ServeOptions{});
  QueryServer::Answer a1 = server.Submit(SemanticsKind::kGcwa,
                                         BatchQuery{"c", true});
  EXPECT_TRUE(a1.status.ok());
  EXPECT_EQ(a1.verdict, Trilean::kYes);
  EXPECT_FALSE(a1.cache_hit);
  EXPECT_EQ(a1.rungs, 1);

  QueryServer::Answer a2 = server.Submit(SemanticsKind::kGcwa,
                                         BatchQuery{"c", true});
  EXPECT_EQ(a2.verdict, Trilean::kYes);
  EXPECT_TRUE(a2.cache_hit);

  QueryServer::Answer a3 = server.Submit(SemanticsKind::kGcwa,
                                         BatchQuery{"a", true});
  EXPECT_EQ(a3.verdict, Trilean::kNo);  // a holds in only one minimal model

  serve::ServeStats s = server.stats();
  EXPECT_EQ(s.requests, 3);
  EXPECT_EQ(s.admitted, 3);
  EXPECT_EQ(s.cache_hits, 1);
  EXPECT_EQ(s.unknowns, 0);
  EXPECT_EQ(server.ExitCode(), 0);
}

TEST(QueryServerTest, HotReloadSwapsDatabaseAndEpoch) {
  QueryServer server(Db("a."), ServeOptions{});
  EXPECT_EQ(server.Submit(SemanticsKind::kCwa, BatchQuery{"a", true}).verdict,
            Trilean::kYes);
  const uint64_t fp1 = server.fingerprint();

  ASSERT_TRUE(server.Reload(Db("b.")).ok());
  EXPECT_NE(server.fingerprint(), fp1);
  // Same query text, new database: CWA closes over the new facts.
  EXPECT_EQ(server.Submit(SemanticsKind::kCwa, BatchQuery{"a", true}).verdict,
            Trilean::kNo);
  EXPECT_EQ(server.Submit(SemanticsKind::kCwa, BatchQuery{"b", true}).verdict,
            Trilean::kYes);
  EXPECT_EQ(server.stats().reloads, 1);
  EXPECT_EQ(server.ExitCode(), 0);
}

TEST(QueryServerTest, WarmStartAnswersMatchColdAcrossAllSemantics) {
  // No integrity clauses: PERF rejects them (paper footnote 3) and every
  // semantics must answer definitely for the cold/warm comparison.
  const char* kProgram = "a | b. c :- a. c :- b. d.";
  std::vector<std::pair<std::string, bool>> queries = {
      {"c", true}, {"d", true}, {"a", true}, {"not e", true},
      {"(a | b)", false}, {"(c & d)", false},
  };

  TempFile f("warmcold");
  std::vector<Trilean> cold;
  {
    ServeOptions opts;
    opts.cache_path = f.path();
    QueryServer server(Db(kProgram), opts);
    EXPECT_EQ(server.stats().cache_loads, 0);  // nothing to load yet
    for (SemanticsKind kind : kAllKinds) {
      for (const auto& [text, is_lit] : queries) {
        QueryServer::Answer a = server.Submit(kind, BatchQuery{text, is_lit});
        ASSERT_TRUE(a.status.ok()) << SemanticsKindName(kind) << " " << text;
        EXPECT_NE(a.verdict, Trilean::kUnknown)
            << SemanticsKindName(kind) << " " << text;
        cold.push_back(a.verdict);
      }
    }
    ASSERT_TRUE(server.SaveCache().ok());
    EXPECT_EQ(server.stats().cache_saves, 1);
  }
  {
    ServeOptions opts;
    opts.cache_path = f.path();
    QueryServer server(Db(kProgram), opts);
    EXPECT_EQ(server.stats().cache_loads, 1);
    size_t i = 0;
    for (SemanticsKind kind : kAllKinds) {
      for (const auto& [text, is_lit] : queries) {
        QueryServer::Answer a = server.Submit(kind, BatchQuery{text, is_lit});
        EXPECT_EQ(a.verdict, cold[i++])
            << SemanticsKindName(kind) << " " << text;
        EXPECT_TRUE(a.cache_hit) << SemanticsKindName(kind) << " " << text;
      }
    }
    EXPECT_EQ(server.stats().cache_misses, 0);
  }
}

TEST(QueryServerTest, CorruptSnapshotCountsFailureAndAnswersIdentically) {
  const char* kProgram = "a | b. c.";
  TempFile f("corruptserve");
  {
    ServeOptions opts;
    opts.cache_path = f.path();
    QueryServer server(Db(kProgram), opts);
    server.Submit(SemanticsKind::kGcwa, BatchQuery{"c", true});
    ASSERT_TRUE(server.SaveCache().ok());
  }
  // Flip one payload byte: the warm start must degrade to cold.
  std::string data = ReadAll(f.path());
  data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x40);
  WriteAll(f.path(), data);

  ServeOptions opts;
  opts.cache_path = f.path();
  QueryServer server(Db(kProgram), opts);
  serve::ServeStats s = server.stats();
  EXPECT_EQ(s.cache_load_failures, 1);
  EXPECT_EQ(s.cache_loads, 0);

  QueryServer::Answer a = server.Submit(SemanticsKind::kGcwa,
                                        BatchQuery{"c", true});
  EXPECT_EQ(a.verdict, Trilean::kYes);  // identical to the cold answer
  EXPECT_FALSE(a.cache_hit);            // but computed, not cached
  EXPECT_EQ(server.ExitCode(), 0);      // corruption is degradation, not failure
}

TEST(QueryServerTest, RetryLadderEscalatesPastInjectedFault) {
  // Rung 0's first oracle call reports kUnknown (injected); the ladder's
  // rung 1 re-runs fault-free and must recover the definite answer.
  ServeOptions opts;
  opts.retry.max_rungs = 3;
  QueryServer server(Db("a | b. c :- a. c :- b."), opts);
  Trilean reference;
  {
    sat::ScopedFaultPlan clean((sat::FaultPlan()));
    reference = server.Submit(SemanticsKind::kGcwa,
                              BatchQuery{"(a & c)", false}).verdict;
    ASSERT_NE(reference, Trilean::kUnknown);
  }
  ASSERT_TRUE(server.Reload(Db("a | b. c :- a. c :- b.")).ok());  // cold cache
  {
    sat::FaultPlan plan;
    plan.unknown_at = 1;
    sat::ScopedFaultPlan faulty(plan);
    QueryServer::Answer a = server.Submit(SemanticsKind::kGcwa,
                                          BatchQuery{"(a & c)", false});
    // Never wrong: either the ladder recovered the reference verdict (by
    // retrying past the fault) or it stayed kUnknown.
    if (a.verdict != Trilean::kUnknown) {
      EXPECT_EQ(a.verdict, reference);
      EXPECT_GE(a.rungs, 2);  // the recovery took an escalated rung
      EXPECT_GE(server.stats().retry_successes, 1);
    }
  }
}

TEST(QueryServerTest, UnknownIsNeverCachedOrPersisted) {
  // Exhaust the oracle: answers degrade to kUnknown, nothing may be
  // cached, and the persisted snapshot must hold zero entries.
  TempFile f("unknowns");
  ServeOptions opts;
  opts.cache_path = f.path();
  opts.retry.max_rungs = 2;
  QueryServer server(Db("a | b. c :- a. c :- b."), opts);
  {
    sat::FaultPlan all;
    all.exhaust_after = 1;  // every solve after the first is faulty
    sat::ScopedFaultPlan faulty(all);
    QueryServer::Answer a = server.Submit(SemanticsKind::kGcwa,
                                          BatchQuery{"(a & c)", false});
    if (a.verdict == Trilean::kUnknown) {
      EXPECT_TRUE(a.status.ok());  // degraded, not errored
      EXPECT_EQ(server.stats().unknowns, 1);
      EXPECT_EQ(server.ExitCode(), 2);
    }
  }
  ASSERT_TRUE(server.SaveCache().ok());
  AnswerCache loaded(64);
  SnapshotLoad outcome = SnapshotLoad::kMissing;
  ASSERT_TRUE(
      LoadAnswerCache(f.path(), server.fingerprint(), &loaded, &outcome).ok());
  EXPECT_EQ(outcome, SnapshotLoad::kLoaded);
  if (server.stats().unknowns > 0) {
    EXPECT_EQ(loaded.size(), 0);
  }
}

TEST(QueryServerTest, LadderIsDeterministicAcrossRuns) {
  // Same policy, same database, same query -> same rung count and verdict
  // on every run (conflict budgets, not wall clock).
  ServeOptions opts;
  opts.retry.max_rungs = 3;
  opts.retry.initial_conflicts = 1;  // rung 0 is starved on purpose
  std::vector<std::pair<Trilean, int>> runs;
  for (int run = 0; run < 3; ++run) {
    QueryServer server(Db("a | b. c :- a. c :- b. :- a, b."), opts);
    QueryServer::Answer a = server.Submit(SemanticsKind::kGcwa,
                                          BatchQuery{"(c | (a & b))", false});
    runs.emplace_back(a.verdict, a.rungs);
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[1], runs[2]);
}

TEST(QueryServerTest, ShutdownShedsNewRequests) {
  QueryServer server(Db("a."), ServeOptions{});
  server.Shutdown();
  QueryServer::Answer a = server.Submit(SemanticsKind::kCwa,
                                        BatchQuery{"a", true});
  EXPECT_EQ(a.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(a.verdict, Trilean::kUnknown);
  EXPECT_EQ(server.stats().shed, 1);
  EXPECT_EQ(server.ExitCode(), 2);
}

// ---------------------------------------------------------------------------
// Protocol (HandleLine)
// ---------------------------------------------------------------------------

TEST(QueryServerTest, BraveModeAnswersAndCounts) {
  QueryServer server(Db("a | b. c :- a."), ServeOptions{});
  // Brave: true in SOME intended model. GCWA's augmentation is empty
  // here, so {a, b, c} is intended and both verdicts flip vs skeptical.
  QueryServer::Answer brave = server.Submit(
      SemanticsKind::kGcwa, BatchQuery{"a & b", false},
      batch::BatchMode::kBrave);
  EXPECT_TRUE(brave.status.ok());
  EXPECT_EQ(brave.verdict, Trilean::kYes);
  QueryServer::Answer skeptical =
      server.Submit(SemanticsKind::kGcwa, BatchQuery{"a & b", false});
  EXPECT_EQ(skeptical.verdict, Trilean::kNo);
  // Mode-tagged cache keys: the repeat brave submit hits its own entry.
  QueryServer::Answer again = server.Submit(
      SemanticsKind::kGcwa, BatchQuery{"a & b", false},
      batch::BatchMode::kBrave);
  EXPECT_EQ(again.verdict, Trilean::kYes);
  EXPECT_TRUE(again.cache_hit);
  serve::ServeStats s = server.stats();
  EXPECT_EQ(s.brave_requests, 2);
  EXPECT_EQ(s.requests, 3);
  EXPECT_EQ(server.ExitCode(), 0);
}

TEST(QueryServerTest, BankStoreSpansRequestsAndCountsReuses) {
  // Distinct query texts defeat the answer cache, so later requests'
  // groups must be answered from the bank the first request stored. The
  // first request splits into two queries on one module, so its group
  // pays for a bank; a one-query group would answer directly.
  QueryServer server(Db("a | b. c :- a. c :- b. d."), ServeOptions{});
  EXPECT_EQ(server.Submit(SemanticsKind::kGcwa,
                          BatchQuery{"a & b", false}).verdict,
            Trilean::kNo);
  EXPECT_EQ(server.Submit(SemanticsKind::kGcwa,
                          BatchQuery{"c", true}).verdict,
            Trilean::kYes);
  EXPECT_EQ(server.Submit(SemanticsKind::kGcwa,
                          BatchQuery{"a", true}).verdict,
            Trilean::kNo);
  EXPECT_EQ(server.Submit(SemanticsKind::kGcwa,
                          BatchQuery{"not e", true}).verdict,
            Trilean::kYes);
  EXPECT_GT(server.stats().bank_reuses, 0);

  // bank_store_capacity <= 0 disables reuse without changing answers.
  ServeOptions off;
  off.bank_store_capacity = 0;
  QueryServer cold(Db("a | b. c :- a. c :- b. d."), off);
  EXPECT_EQ(cold.Submit(SemanticsKind::kGcwa, BatchQuery{"c", true}).verdict,
            Trilean::kYes);
  EXPECT_EQ(cold.Submit(SemanticsKind::kGcwa, BatchQuery{"a", true}).verdict,
            Trilean::kNo);
  EXPECT_EQ(cold.stats().bank_reuses, 0);
}

TEST(QueryServerTest, SnapshotPersistsSkepticalEntriesOnly) {
  TempFile f("brave_filter");
  ServeOptions opts;
  opts.cache_path = f.path();
  const char* kProgram = "a | b. c :- a. c :- b.";
  {
    QueryServer server(Db(kProgram), opts);
    EXPECT_EQ(server.Submit(SemanticsKind::kGcwa,
                            BatchQuery{"c", true}).verdict,
              Trilean::kYes);
    EXPECT_EQ(server.Submit(SemanticsKind::kGcwa, BatchQuery{"a & b", false},
                            batch::BatchMode::kBrave).verdict,
              Trilean::kYes);
    ASSERT_TRUE(server.SaveCache().ok());
  }
  // Reload the snapshot raw: every key must be skeptical (no mode tag).
  AnswerCache loaded(64);
  SnapshotLoad outcome = SnapshotLoad::kMissing;
  ASSERT_TRUE(LoadAnswerCache(f.path(),
                              DatabaseFingerprint(Db(kProgram)), &loaded,
                              &outcome)
                  .ok());
  EXPECT_EQ(outcome, SnapshotLoad::kLoaded);
  EXPECT_GT(loaded.size(), 0);
  loaded.ForEach([](const std::string& key, Trilean) {
    EXPECT_FALSE(AnswerCache::IsBraveKey(key)) << key;
  });
  // A warm-started server still answers brave queries correctly (they
  // are simply recomputed).
  QueryServer warm(Db(kProgram), opts);
  EXPECT_EQ(warm.Submit(SemanticsKind::kGcwa, BatchQuery{"a & b", false},
                        batch::BatchMode::kBrave).verdict,
            Trilean::kYes);
  EXPECT_EQ(warm.stats().cache_loads, 1);
}

TEST(ServeProtocol, QueryReloadSaveStatsQuit) {
  TempFile db2("reload_db");
  {
    std::ofstream out(db2.path());
    out << "b.\n";
  }
  TempFile f("protocol");
  ServeOptions opts;
  opts.cache_path = f.path();
  QueryServer server(Db("a."), opts);
  bool quit = false;

  EXPECT_EQ(server.HandleLine("QUERY cwa lit a", &quit),
            "ANSWER yes rungs=1 cached=0");
  EXPECT_EQ(server.HandleLine("QUERY cwa lit a", &quit),
            "ANSWER yes rungs=1 cached=1");
  EXPECT_EQ(server.HandleLine("QUERY cwa lit b", &quit),
            "ANSWER no rungs=1 cached=0");  // CWA: b not derivable

  std::string reloaded =
      server.HandleLine("RELOAD " + db2.path(), &quit);
  EXPECT_EQ(reloaded.rfind("RELOADED fp=", 0), 0u) << reloaded;
  EXPECT_EQ(server.HandleLine("QUERY cwa lit b", &quit),
            "ANSWER yes rungs=1 cached=0");  // new database, fresh cache

  // The RELOAD swapped in a fresh session cache holding only the one
  // post-reload answer.
  std::string saved = server.HandleLine("SAVE", &quit);
  EXPECT_EQ(saved.rfind("SAVED ", 0), 0u) << saved;
  EXPECT_NE(saved.find("entries=1"), std::string::npos) << saved;

  std::string stats = server.HandleLine("STATS", &quit);
  EXPECT_EQ(stats.rfind("STATS {", 0), 0u) << stats;
  EXPECT_NE(stats.find("\"dd.serve.requests\": 4"), std::string::npos)
      << stats;

  EXPECT_FALSE(quit);
  EXPECT_EQ(server.HandleLine("QUIT", &quit), "BYE");
  EXPECT_TRUE(quit);
}

TEST(ServeProtocol, BraveVerb) {
  QueryServer server(Db("a | b. c :- a."), ServeOptions{});
  bool quit = false;
  // GCWA on this database: every model is intended (empty augmentation),
  // so "a & b" is bravely yes but skeptically no.
  EXPECT_EQ(server.HandleLine("BRAVE gcwa a & b", &quit),
            "ANSWER yes rungs=1 cached=0");
  EXPECT_EQ(server.HandleLine("BRAVE gcwa a & b", &quit),
            "ANSWER yes rungs=1 cached=1");
  EXPECT_EQ(server.HandleLine("QUERY gcwa infer a & b", &quit),
            "ANSWER no rungs=1 cached=0");
  EXPECT_EQ(server.HandleLine("BRAVE", &quit).rfind("ERR ", 0), 0u);
  EXPECT_EQ(server.HandleLine("BRAVE nosuch a", &quit).rfind("ERR ", 0), 0u);
  EXPECT_EQ(server.HandleLine("BRAVE gcwa", &quit).rfind("ERR ", 0), 0u);
  EXPECT_EQ(server.HandleLine("BRAVE gcwa ((((", &quit).rfind("ERR ", 0), 0u);
  // Two answered + the unparseable one (parsing happens inside Submit).
  EXPECT_EQ(server.stats().brave_requests, 3);
  EXPECT_FALSE(quit);
}

TEST(ServeProtocol, AnswersVerb) {
  // Template answers over a ground first-order database: GCWA minimal
  // models are {p(a),p(b)} and {p(a),q(b)}, so p(X) is skeptically true
  // only at X=a but bravely true at X=a and X=b.
  QueryServer server(Db("p(a). p(b) | q(b)."), ServeOptions{});
  bool quit = false;
  EXPECT_EQ(server.HandleLine("ANSWERS gcwa skeptical p(X)", &quit),
            "ANSWERS yes=1 unknown=0 candidates=2 rungs=1 X=a");
  EXPECT_EQ(server.HandleLine("ANSWERS gcwa brave p(X)", &quit),
            "ANSWERS yes=2 unknown=0 candidates=2 rungs=1 X=a X=b");
  // The second identical request answers from the session cache (each
  // instantiation is a cached one-query-batch entry).
  EXPECT_EQ(server.HandleLine("ANSWERS gcwa skeptical p(X)", &quit),
            "ANSWERS yes=1 unknown=0 candidates=2 rungs=1 X=a");
  EXPECT_EQ(server.HandleLine("ANSWERS", &quit).rfind("ERR ", 0), 0u);
  EXPECT_EQ(server.HandleLine("ANSWERS nosuch skeptical p(X)", &quit)
                .rfind("ERR ", 0),
            0u);
  EXPECT_EQ(server.HandleLine("ANSWERS gcwa sideways p(X)", &quit)
                .rfind("ERR ", 0),
            0u);
  EXPECT_EQ(server.HandleLine("ANSWERS gcwa skeptical", &quit)
                .rfind("ERR ", 0),
            0u);
  // An unsafe template is a hard error (parse-level, inside the ladder).
  EXPECT_EQ(server.HandleLine("ANSWERS gcwa skeptical not p(X)", &quit)
                .rfind("ERR ", 0),
            0u);
  EXPECT_EQ(server.stats().template_requests, 4);  // 3 answered + unsafe
  EXPECT_EQ(server.stats().brave_requests, 1);
  EXPECT_EQ(server.ExitCode(), 0);
  EXPECT_FALSE(quit);
}

TEST(ServeProtocol, AnswersCountsCacheHitsInStats) {
  // Template reads count their first rung's cache lookups, one per
  // instantiation: the repeat answers both p(a) and p(b) from the cache.
  QueryServer server(Db("p(a). p(b) | q(b)."), ServeOptions{});
  bool quit = false;
  EXPECT_EQ(server.HandleLine("ANSWERS gcwa skeptical p(X)", &quit),
            "ANSWERS yes=1 unknown=0 candidates=2 rungs=1 X=a");
  EXPECT_EQ(server.stats().cache_hits, 0);
  EXPECT_EQ(server.stats().cache_misses, 2);
  EXPECT_EQ(server.HandleLine("ANSWERS gcwa skeptical p(X)", &quit),
            "ANSWERS yes=1 unknown=0 candidates=2 rungs=1 X=a");
  const std::string stats = server.HandleLine("STATS", &quit);
  EXPECT_NE(stats.find("\"dd.serve.cache_hits\": 2"), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"dd.serve.cache_misses\": 2"), std::string::npos)
      << stats;
}

TEST(ServeProtocol, AnswersSharesCacheEntriesWithGroundReads) {
  // A template read and a ground read of one of its instantiations
  // canonicalize to the same key, so the ground read is a cache hit.
  QueryServer server(Db("p(a). p(b) | q(b)."), ServeOptions{});
  bool quit = false;
  EXPECT_EQ(server.HandleLine("ANSWERS gcwa skeptical p(X)", &quit),
            "ANSWERS yes=1 unknown=0 candidates=2 rungs=1 X=a");
  EXPECT_EQ(server.HandleLine("QUERY gcwa lit p(a)", &quit),
            "ANSWER yes rungs=1 cached=1");
  EXPECT_EQ(server.HandleLine("ANSWERS gcwa skeptical p(X), not q(X)", &quit),
            "ANSWERS yes=1 unknown=0 candidates=2 rungs=1 X=a");
  EXPECT_EQ(server.HandleLine("QUERY gcwa infer p(b) & ~q(b)", &quit),
            "ANSWER no rungs=1 cached=1");
  EXPECT_EQ(server.HandleLine("ANSWERS gcwa brave p(X)", &quit),
            "ANSWERS yes=2 unknown=0 candidates=2 rungs=1 X=a X=b");
  EXPECT_EQ(server.HandleLine("BRAVE gcwa p(b)", &quit),
            "ANSWER yes rungs=1 cached=1");
}

TEST(QueryServerTest, TemplateIndexBuiltOncePerSessionAcrossRungs) {
  // Every rung of every template request on one session reuses the
  // index its Reasoner built on the first; a reload's fresh Reasoner
  // builds its own.
  obs::TraceContext trace;
  ServeOptions opts;
  opts.retry.max_rungs = 3;
  opts.trace = &trace;
  QueryServer server(Db("p(a). p(b) | q(b). r(a) :- p(a)."), opts);
  int64_t rungs = 0;
  {
    sat::FaultPlan plan;
    plan.unknown_at = 1;
    sat::ScopedFaultPlan faulty(plan);
    rungs += server.SubmitTemplate(SemanticsKind::kGcwa, "p(X)").rungs;
  }
  rungs += server.SubmitTemplate(SemanticsKind::kGcwa, "r(X)",
                                 batch::BatchMode::kBrave).rungs;
  int64_t calls = 0;
  for (const obs::Span& sp : trace.Snapshot()) {
    calls += sp.name == "tmpl_answers" ? 1 : 0;
  }
  EXPECT_EQ(calls, rungs);
  EXPECT_GT(rungs, 2);  // the injected fault escalated the first request
  EXPECT_EQ(trace.SumCounter("index_built", "tmpl"), 1);
  ASSERT_TRUE(server.Reload(Db("p(a). p(b) | q(b). r(a) :- p(a).")).ok());
  EXPECT_TRUE(server.SubmitTemplate(SemanticsKind::kGcwa, "p(X)").status.ok());
  EXPECT_EQ(trace.SumCounter("index_built", "tmpl"), 2);
}

TEST(QueryServerTest, SubmitTemplateMatchesSequentialSubmits) {
  // Every substitution the template reports must answer exactly like the
  // same ground query through Submit (the serve-layer never-wrong gate).
  QueryServer server(Db("p(a). p(b) | q(b). r(a) :- p(a)."),
                     ServeOptions{});
  QueryServer::TemplateResult t =
      server.SubmitTemplate(SemanticsKind::kGcwa, "p(X)");
  ASSERT_TRUE(t.status.ok());
  ASSERT_TRUE(t.answer.unknown.empty());
  ASSERT_EQ(t.answer.vars, std::vector<std::string>{"X"});
  for (const std::string c : {"a", "b"}) {
    Trilean ref = server.Submit(SemanticsKind::kGcwa,
                                BatchQuery{"p(" + c + ")", true})
                      .verdict;
    bool in_yes = false;
    for (const auto& b : t.answer.yes) in_yes |= b[0] == c;
    EXPECT_EQ(in_yes, ref == Trilean::kYes) << c;
  }
}

TEST(QueryServerTest, TemplateLadderEscalatesPastInjectedFault) {
  // Rung 0 hits an injected kUnknown; the escalated rung re-runs only the
  // degraded substitutions (the definite ones are cached) and must end
  // complete with the fault-free answer set — or stay degraded, never
  // wrong.
  ServeOptions opts;
  opts.retry.max_rungs = 3;
  QueryServer server(Db("p(a). p(b) | q(b)."), opts);
  std::vector<std::vector<std::string>> reference;
  {
    sat::ScopedFaultPlan clean((sat::FaultPlan()));
    QueryServer::TemplateResult t =
        server.SubmitTemplate(SemanticsKind::kGcwa, "p(X)");
    ASSERT_TRUE(t.status.ok());
    ASSERT_TRUE(t.answer.unknown.empty());
    reference = t.answer.yes;
  }
  ASSERT_TRUE(server.Reload(Db("p(a). p(b) | q(b).")).ok());  // cold cache
  {
    sat::FaultPlan plan;
    plan.unknown_at = 1;
    sat::ScopedFaultPlan faulty(plan);
    QueryServer::TemplateResult t =
        server.SubmitTemplate(SemanticsKind::kGcwa, "p(X)");
    ASSERT_TRUE(t.status.ok());
    if (t.answer.unknown.empty()) {
      EXPECT_EQ(t.answer.yes, reference);
    } else {
      // Degraded: whatever did answer yes must be a subset of the
      // fault-free yes set.
      for (const auto& b : t.answer.yes) {
        bool in_ref = false;
        for (const auto& r : reference) in_ref |= r == b;
        EXPECT_TRUE(in_ref);
      }
      EXPECT_EQ(server.ExitCode(), 2);
    }
  }
}

TEST(ServeProtocol, MalformedInputYieldsErrNeverCrash) {
  QueryServer server(Db("a."), ServeOptions{});
  bool quit = false;
  EXPECT_EQ(server.HandleLine("", &quit), "");
  EXPECT_EQ(server.HandleLine("   ", &quit), "");
  EXPECT_EQ(server.HandleLine("# comment", &quit), "");
  EXPECT_EQ(server.HandleLine("FROBNICATE", &quit).rfind("ERR ", 0), 0u);
  EXPECT_EQ(server.HandleLine("QUERY", &quit).rfind("ERR ", 0), 0u);
  EXPECT_EQ(server.HandleLine("QUERY nosuch lit a", &quit).rfind("ERR ", 0),
            0u);
  EXPECT_EQ(server.HandleLine("QUERY cwa neither a", &quit).rfind("ERR ", 0),
            0u);
  EXPECT_EQ(server.HandleLine("QUERY cwa lit", &quit).rfind("ERR ", 0), 0u);
  EXPECT_EQ(server.HandleLine("QUERY cwa infer ((((", &quit).rfind("ERR ", 0),
            0u);
  EXPECT_EQ(server.HandleLine("RELOAD", &quit).rfind("ERR ", 0), 0u);
  EXPECT_EQ(server.HandleLine("RELOAD /nonexistent/x", &quit).rfind("ERR ", 0),
            0u);
  // SAVE without a configured cache path is a clean precondition error.
  EXPECT_EQ(server.HandleLine("SAVE", &quit).rfind("ERR ", 0), 0u);
  // CRLF is accepted; arbitrary bytes are tolerated; oversize is refused.
  EXPECT_EQ(server.HandleLine("QUERY cwa lit a\r", &quit),
            "ANSWER yes rungs=1 cached=0");
  std::string noise("QUERY cwa lit ");
  noise.push_back('\0');
  noise += "\xff\xfe";
  EXPECT_EQ(server.HandleLine(noise, &quit).rfind("ERR ", 0), 0u);
  EXPECT_EQ(server.HandleLine(std::string(2 << 20, 'x'), &quit),
            "ERR line too long");
  EXPECT_FALSE(quit);
}

// ---------------------------------------------------------------------------
// One verb grammar: the serve verbs map onto the .queries grammar

/// A serve protocol line and its .queries twin.
struct VerbTwin {
  const char* serve;
  const char* queries;
};

constexpr char kTwinProgram[] = "a | b. c :- a. p(a). p(b) | q(b).";

TEST(ServeProtocol, VerbsAnswerLikeTheirQueriesTwins) {
  const VerbTwin kTwins[] = {
      {"QUERY gcwa lit not c", "lit gcwa not c"},
      {"QUERY egcwa infer a | b", "infer egcwa a | b"},
      {"BRAVE gcwa a & c", "brave gcwa a & c"},
      {"ANSWERS gcwa skeptical p(X)", "answers gcwa p(X)"},
      {"ANSWERS gcwa brave p(X)", "banswers gcwa p(X)"},
  };
  for (const VerbTwin& t : kTwins) {
    SCOPED_TRACE(t.serve);
    auto file = batch::ParseQueriesFile(t.queries);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    ASSERT_EQ(file->queries.size(), 1u);
    const batch::ParsedQuery& q = file->queries[0];
    const batch::BatchMode mode =
        q.brave ? batch::BatchMode::kBrave : batch::BatchMode::kSkeptical;

    // The .queries request, submitted directly, and the protocol line must
    // answer alike and leave identical serve counters.
    QueryServer direct(Db(kTwinProgram), ServeOptions{});
    QueryServer proto(Db(kTwinProgram), ServeOptions{});
    bool quit = false;
    const std::string resp = proto.HandleLine(t.serve, &quit);
    if (q.is_template) {
      QueryServer::TemplateResult r =
          direct.SubmitTemplate(q.kind, q.query.text, mode);
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      const std::string want = StrFormat(
          "ANSWERS yes=%zu unknown=%zu candidates=%lld rungs=%d",
          r.answer.yes.size(), r.answer.unknown.size(),
          static_cast<long long>(r.answer.candidates), r.rungs);
      EXPECT_EQ(resp.rfind(want, 0), 0u) << resp;
    } else {
      QueryServer::Answer a = direct.Submit(q.kind, q.query, mode);
      ASSERT_TRUE(a.status.ok()) << a.status.ToString();
      EXPECT_EQ(resp, StrFormat("ANSWER %s rungs=%d cached=0",
                                TrileanName(a.verdict), a.rungs));
    }
    EXPECT_EQ(serve::ToJson(proto.stats()), serve::ToJson(direct.stats()));
  }
}

TEST(ServeProtocol, MalformedVerbsFailOnBothSides) {
  struct Malformed {
    VerbTwin twin;
    bool same_message;  ///< both sides fail inside batch::ParseRequest
  };
  const Malformed kBad[] = {
      {{"QUERY nosuch lit a", "lit nosuch a"}, true},
      {{"QUERY gcwa lit", "lit gcwa"}, true},
      {{"QUERY gcwa infer  \t ", "infer gcwa  \t "}, true},
      {{"BRAVE", "brave"}, true},
      {{"BRAVE nosuch a", "brave nosuch a"}, true},
      {{"BRAVE gcwa", "brave gcwa"}, true},
      {{"ANSWERS nosuch skeptical p(X)", "answers nosuch p(X)"}, true},
      {{"ANSWERS gcwa brave", "banswers gcwa"}, true},
      {{"QUERY gcwa neither a", "neither gcwa a"}, false},
      {{"ANSWERS gcwa sideways p(X)", "sideways gcwa p(X)"}, false},
  };
  QueryServer server(Db(kTwinProgram), ServeOptions{});
  for (const Malformed& m : kBad) {
    SCOPED_TRACE(m.twin.serve);
    auto file = batch::ParseQueriesFile(std::string("lit gcwa a\n") +
                                        m.twin.queries + "\n");
    ASSERT_FALSE(file.ok());
    EXPECT_EQ(file.status().code(), StatusCode::kInvalidArgument);
    const std::string& why = file.status().message();
    EXPECT_EQ(why.rfind("queries line 2: ", 0), 0u) << why;
    bool quit = false;
    const std::string resp = server.HandleLine(m.twin.serve, &quit);
    EXPECT_EQ(resp.rfind("ERR ", 0), 0u) << resp;
    if (m.same_message) {
      EXPECT_EQ(resp.substr(4), why.substr(16));
    }
  }
  // A request that never parsed is not a request.
  EXPECT_EQ(server.stats().requests, 0);
}

TEST(ServeProtocol, MixedSessionStatsPin) {
  // One session over every counting rule: a conjunct-split QUERY hit
  // counts once, an ANSWERS request counts one hit per cached
  // instantiation, BRAVE bumps brave_requests, and a template that fails
  // to parse counts in errors.
  QueryServer server(Db("p(a). p(b) | q(b). a | b."), ServeOptions{});
  bool quit = false;
  EXPECT_EQ(server.HandleLine("QUERY gcwa infer p(a) & ~q(a)", &quit),
            "ANSWER yes rungs=1 cached=0");
  EXPECT_EQ(server.stats().cache_misses, 2);  // one per conjunct
  EXPECT_EQ(server.HandleLine("QUERY gcwa infer p(a) & ~q(a)", &quit),
            "ANSWER yes rungs=1 cached=1");
  EXPECT_EQ(server.stats().cache_hits, 1);  // both conjuncts hit: one hit
  // p(a) is cached by the QUERY above, p(b) is not.
  EXPECT_EQ(server.HandleLine("ANSWERS gcwa skeptical p(X)", &quit),
            "ANSWERS yes=1 unknown=0 candidates=2 rungs=1 X=a");
  EXPECT_EQ(server.stats().cache_hits, 2);
  EXPECT_EQ(server.HandleLine("ANSWERS gcwa skeptical p(X)", &quit),
            "ANSWERS yes=1 unknown=0 candidates=2 rungs=1 X=a");
  EXPECT_EQ(server.stats().cache_hits, 4);  // one per instantiation
  EXPECT_EQ(server.HandleLine("BRAVE gcwa a & b", &quit),
            "ANSWER yes rungs=1 cached=0");
  EXPECT_EQ(server.HandleLine("ANSWERS gcwa skeptical not p(X)", &quit)
                .rfind("ERR ", 0),
            0u);
  EXPECT_EQ(
      server.HandleLine("STATS", &quit),
      "STATS {\"counters\": {\"dd.serve.admitted\": 6, "
      "\"dd.serve.bank_reuses\": 0, \"dd.serve.brave_requests\": 1, "
      "\"dd.serve.cache_hits\": 4, \"dd.serve.cache_load_failures\": 0, "
      "\"dd.serve.cache_loads\": 0, \"dd.serve.cache_misses\": 4, "
      "\"dd.serve.cache_save_failures\": 0, \"dd.serve.cache_saves\": 0, "
      "\"dd.serve.cache_stale\": 0, \"dd.serve.errors\": 1, "
      "\"dd.serve.escalations\": 0, \"dd.serve.queued\": 0, "
      "\"dd.serve.reloads\": 0, \"dd.serve.requests\": 6, "
      "\"dd.serve.retry_successes\": 0, \"dd.serve.rungs\": 6, "
      "\"dd.serve.shed\": 0, \"dd.serve.template_requests\": 3, "
      "\"dd.serve.unknowns\": 0}, \"histograms\": {}}");
}

}  // namespace
}  // namespace dd
