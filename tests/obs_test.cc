// Observability-layer coverage (docs/OBSERVABILITY.md).
//
// Pins the three contracts the obs subsystem makes:
//
//   1. Exactness: summing `oracle_calls` over "reasoner"-layer trace spans
//      reproduces the reasoner's running totals, on every one of the 11
//      semantics and across engine drops (each engine report is folded
//      into its span and the totals together, so the sum is exact by
//      construction — these tests keep it that way).
//   2. Publish coverage: for each legacy stats struct s, Publish(s) writes
//      every field under its documented dd.* name and nothing else, so
//      the registry exports (--metrics, BENCH_*.json rows) carry every
//      legacy counter.
//   3. Determinism: counter totals are invariant across --threads 1/4 —
//      parallel chunk engines run untraced and fold into the same parent
//      stats, so observability never depends on the worker count.
//
// Plus schema checks for the two JSON exports (metrics snapshot, trace
// span tree) and the strict DD_THREADS parse of ThreadPool::DefaultThreads.
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/reasoner.h"
#include "core/oracle_stats.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/stats_view.h"
#include "obs/trace.h"
#include "tests/test_util.h"
#include "util/budget.h"
#include "util/thread_pool.h"

namespace dd {
namespace {

const SemanticsKind kAllKinds[] = {
    SemanticsKind::kCwa,  SemanticsKind::kGcwa, SemanticsKind::kEgcwa,
    SemanticsKind::kCcwa, SemanticsKind::kEcwa, SemanticsKind::kDdr,
    SemanticsKind::kPws,  SemanticsKind::kPerf, SemanticsKind::kIcwa,
    SemanticsKind::kDsm,  SemanticsKind::kPdsm,
};

// ---------------------------------------------------------------------------
// MetricsRegistry / Counter / Histogram

TEST(Metrics, CounterSumsConcurrentAdds) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.Value(), int64_t{kThreads} * kPerThread);
}

TEST(Metrics, HistogramPowerOfTwoBuckets) {
  obs::Histogram h;
  h.Record(0);   // bucket 0 (v <= 0)
  h.Record(1);   // bucket 1
  h.Record(5);   // 4 <= 5 < 8 -> bucket 3
  h.Record(5);
  h.Record(8);   // 8 <= 8 < 16 -> bucket 4
  EXPECT_EQ(h.Count(), 5);
  EXPECT_EQ(h.Sum(), 19);
  EXPECT_EQ(h.BucketCount(0), 1);
  EXPECT_EQ(h.BucketCount(1), 1);
  EXPECT_EQ(h.BucketCount(3), 2);
  EXPECT_EQ(h.BucketCount(4), 1);
}

TEST(Metrics, RegistrySnapshotAndAbsentValue) {
  obs::MetricsRegistry reg;
  obs::Counter* a = reg.GetCounter("dd.test.a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, reg.GetCounter("dd.test.a"));  // stable registration
  a->Add(3);
  reg.Add("dd.test.b", 7);
  reg.GetHistogram("dd.test.h")->Record(9);
  obs::MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Value("dd.test.a"), 3);
  EXPECT_EQ(snap.Value("dd.test.b"), 7);
  EXPECT_EQ(snap.Value("dd.test.never_touched"), 0);
  ASSERT_EQ(snap.histograms.count("dd.test.h"), 1u);
  EXPECT_EQ(snap.histograms.at("dd.test.h").count, 1);
  EXPECT_EQ(snap.histograms.at("dd.test.h").sum, 9);
}

// Golden JSON for a hand-built snapshot: the export is byte-deterministic
// (sorted map keys), so an exact string pin is safe and is exactly what
// scripts/check.sh pipes through `python3 -m json.tool`.
TEST(Metrics, SnapshotJsonGolden) {
  obs::MetricsSnapshot snap;
  snap.counters["dd.minimal.sat_calls"] = 12;
  snap.counters["dd.dispatch.generic"] = 2;
  obs::MetricsSnapshot::HistogramData h;
  h.count = 3;
  h.sum = 1200;
  h.buckets = {{512, 2}, {1024, 1}};
  snap.histograms["dd.query.latency_us"] = h;
  EXPECT_EQ(obs::ToJsonString(snap),
            "{\"counters\": {\"dd.dispatch.generic\": 2, "
            "\"dd.minimal.sat_calls\": 12}, "
            "\"histograms\": {\"dd.query.latency_us\": "
            "{\"count\": 3, \"sum\": 1200, "
            "\"buckets\": [[512, 2], [1024, 1]]}}}");
}

TEST(Metrics, JsonEscapeControlAndQuotes) {
  EXPECT_EQ(obs::JsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

// ---------------------------------------------------------------------------
// TraceContext span tree

TEST(Trace, ParentingCountersAndLayerSums) {
  obs::TraceContext t;
  int root = t.OpenSpan("query", "reasoner");
  int child = t.OpenSpan("minimal.entails", "minimal");
  t.AddCounter(root, "oracle_calls", 2);
  t.AddCounter(root, "oracle_calls", 3);  // accumulates on the key
  t.AddCounter(child, "oracle_calls", 5);
  t.SetAttr(root, "semantics", "GCWA");
  t.SetAttr(root, "semantics", "EGCWA");  // overwrites
  t.CloseSpan(child);
  t.CloseSpan(root);
  ASSERT_EQ(t.span_count(), 2u);
  std::vector<obs::Span> spans = t.Snapshot();
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[0].Counter("oracle_calls"), 5);
  EXPECT_EQ(spans[0].Counter("no_such_counter"), 0);
  ASSERT_NE(spans[0].Attr("semantics"), nullptr);
  EXPECT_EQ(*spans[0].Attr("semantics"), "EGCWA");
  EXPECT_EQ(spans[0].Attr("no_such_attr"), nullptr);
  EXPECT_GE(spans[0].end_us, spans[0].start_us);
  // Layer-filtered vs global sums.
  EXPECT_EQ(t.SumCounter("oracle_calls"), 10);
  EXPECT_EQ(t.SumCounter("oracle_calls", "reasoner"), 5);
  EXPECT_EQ(t.SumCounter("oracle_calls", "minimal"), 5);
  EXPECT_EQ(t.SumCounter("oracle_calls", "qbf"), 0);
}

TEST(Trace, SiblingAfterCloseParentsToRoot) {
  obs::TraceContext t;
  int root = t.OpenSpan("query", "reasoner");
  int a = t.OpenSpan("a", "minimal");
  t.CloseSpan(a);
  int b = t.OpenSpan("b", "minimal");
  t.CloseSpan(b);
  t.CloseSpan(root);
  std::vector<obs::Span> spans = t.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[2].parent, root);  // not parented under the closed `a`
}

TEST(Trace, JsonSchemaShape) {
  obs::TraceContext t;
  int id = t.OpenSpan("query", "reasoner");
  t.AddCounter(id, "oracle_calls", 4);
  t.SetAttr(id, "semantics", "GCWA");
  t.CloseSpan(id);
  std::string json = t.ToJsonString();
  EXPECT_NE(json.find("\"trace_schema\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"spans\": ["), std::string::npos);
  EXPECT_NE(json.find("\"layer\": \"reasoner\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\": {\"oracle_calls\": 4}"),
            std::string::npos);
  EXPECT_NE(json.find("\"attrs\": {\"semantics\": \"GCWA\"}"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Publish coverage: every field of each legacy struct lands under its
// documented dd.* name (docs/OBSERVABILITY.md), and nothing else does

using Counters = std::map<std::string, int64_t>;

TEST(StatsPublish, MinimalWritesEveryField) {
  MinimalStats s;
  s.sat_calls = 11;
  s.minimizations = 7;
  s.cegar_iterations = 5;
  s.models_enumerated = 3;
  s.hcf_checks = 2;
  obs::MetricsRegistry reg;
  obs::Publish(s, &reg);
  EXPECT_EQ(reg.Snapshot().counters,
            (Counters{{"dd.minimal.sat_calls", 11},
                      {"dd.minimal.minimizations", 7},
                      {"dd.minimal.cegar_iterations", 5},
                      {"dd.minimal.models_enumerated", 3},
                      {"dd.minimal.hcf_checks", 2}}));
}

TEST(StatsPublish, DispatchWritesEveryField) {
  analysis::DispatchStats d;
  d.generic = 4;
  d.fixpoint_literal = 3;
  d.horn_least_model = 2;
  d.certain_fact = 1;
  d.const_answer = 6;
  d.slice_literal = 7;
  d.module_formula = 8;
  d.hcf_unfounded = 9;
  obs::MetricsRegistry reg;
  obs::Publish(d, &reg);
  EXPECT_EQ(reg.Snapshot().counters,
            (Counters{{"dd.dispatch.generic", 4},
                      {"dd.dispatch.fixpoint_literal", 3},
                      {"dd.dispatch.horn_least_model", 2},
                      {"dd.dispatch.certain_fact", 1},
                      {"dd.dispatch.const_answer", 6},
                      {"dd.dispatch.slice", 7},
                      {"dd.dispatch.module", 8},
                      {"dd.dispatch.hcf", 9}}));
}

TEST(StatsPublish, SessionWritesEveryField) {
  oracle::SessionStats s;
  s.base_loads = 1;
  s.solves = 2;
  s.contexts_opened = 3;
  s.contexts_retired = 4;
  s.guarded_clauses = 5;
  s.cache_hits = 6;
  s.cache_misses = 7;
  s.projections_replayed = 8;
  s.projections_discovered = 9;
  s.cache_evictions = 10;
  obs::MetricsRegistry reg;
  obs::Publish(s, &reg);
  EXPECT_EQ(reg.Snapshot().counters,
            (Counters{{"dd.session.base_loads", 1},
                      {"dd.session.solves", 2},
                      {"dd.session.contexts_opened", 3},
                      {"dd.session.contexts_retired", 4},
                      {"dd.session.guarded_clauses", 5},
                      {"dd.session.cache_hits", 6},
                      {"dd.session.cache_misses", 7},
                      {"dd.session.projections_replayed", 8},
                      {"dd.session.projections_discovered", 9},
                      {"dd.oracle.cache_evictions", 10}}));
}

TEST(StatsPublish, QbfWritesEveryField) {
  QbfStats q;
  q.candidate_calls = 10;
  q.verification_calls = 9;
  q.refinements = 8;
  obs::MetricsRegistry reg;
  obs::Publish(q, &reg);
  EXPECT_EQ(reg.Snapshot().counters,
            (Counters{{"dd.qbf.candidate_calls", 10},
                      {"dd.qbf.verification_calls", 9},
                      {"dd.qbf.refinements", 8}}));
}

TEST(StatsPublish, BudgetRecordsConsumptionAndReason) {
  Budget::Limits lim;
  lim.oracle_call_budget = 1;
  auto b = Budget::Make(lim);
  EXPECT_TRUE(b->ConsumeOracleCall());
  EXPECT_FALSE(b->ConsumeOracleCall());  // latches kOracleCalls
  obs::MetricsRegistry reg;
  obs::Publish(*b, &reg);
  obs::MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.Value("dd.budget.oracle_calls_consumed"),
            b->oracle_calls_consumed());
  EXPECT_EQ(snap.Value("dd.budget.conflicts_consumed"),
            b->conflicts_consumed());
  // Exactly one dd.budget.exhausted.<reason> increment.
  int64_t exhausted = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("dd.budget.exhausted.", 0) == 0) exhausted += value;
  }
  EXPECT_EQ(exhausted, 1);
}

// The combined FormatStats overload renders all three sections verbatim.
TEST(FormatStatsTest, CombinedRendersAllSections) {
  MinimalStats s;
  s.sat_calls = 20;
  analysis::DispatchStats d;
  d.generic = 2;
  oracle::SessionStats sess;
  sess.base_loads = 1;
  sess.cache_hits = 4;
  std::string line = FormatStats(s, d, sess);
  EXPECT_NE(line.find(FormatStats(s)), std::string::npos) << line;
  EXPECT_NE(line.find(d.ToString()), std::string::npos) << line;
  EXPECT_NE(line.find("session:"), std::string::npos) << line;
  // All-zero session renders the explicit "off" marker, not silence.
  EXPECT_NE(FormatStats(s, d, oracle::SessionStats{}).find("session: off"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// The exactness contract: reasoner-layer span sums == legacy totals

// Runs a representative query mix for `kind` against `r`. The fresh atom
// `fresh_q` grows the vocabulary mid-mix, which drops every cached engine
// (Reasoner::InvalidateCaches) after the first queries did their work.
void RunQueryMix(Reasoner* r, SemanticsKind kind) {
  ASSERT_TRUE(r->InfersFormula(kind, "a | b").ok());
  ASSERT_TRUE(r->InfersLiteral(kind, "not c").ok());
  ASSERT_TRUE(r->InfersLiteral(kind, "not fresh_q").ok());
  ASSERT_TRUE(r->HasModel(kind).ok());
  ASSERT_TRUE(r->Models(kind).ok());
  // Budgeted (unlimited) + credulous entry points cross the same span gate.
  ASSERT_TRUE(r->InfersFormula(kind, "a | b", QueryOptions{}).ok());
  ASSERT_TRUE(r->InfersCredulously(kind, "a").ok());
}

// One reasoner-layer span per entry point, each carrying its query's
// engine reports — so the sums reproduce the running totals exactly.
void ExpectSpanSumsMatchTotals(const obs::TraceContext& trace,
                               const Reasoner& r, SemanticsKind kind) {
  const MinimalStats totals = r.TotalStats();
  EXPECT_EQ(trace.SumCounter("oracle_calls", "reasoner"), totals.sat_calls)
      << SemanticsKindName(kind);
  EXPECT_EQ(trace.SumCounter("minimizations", "reasoner"),
            totals.minimizations)
      << SemanticsKindName(kind);
  EXPECT_EQ(trace.SumCounter("cegar_iterations", "reasoner"),
            totals.cegar_iterations)
      << SemanticsKindName(kind);
  EXPECT_EQ(trace.SumCounter("models_enumerated", "reasoner"),
            totals.models_enumerated)
      << SemanticsKindName(kind);
  const oracle::SessionStats sess = r.TotalSessionStats();
  EXPECT_EQ(trace.SumCounter("cache_hits", "reasoner"), sess.cache_hits)
      << SemanticsKindName(kind);
  EXPECT_EQ(trace.SumCounter("cache_misses", "reasoner"), sess.cache_misses)
      << SemanticsKindName(kind);
}

TEST(TraceExactness, ReasonerSpanSumsMatchTotalsOnAllSemantics) {
  Database db = testing::Db("a | b. c :- a. e | f :- c. d :- b.");
  for (SemanticsKind kind : kAllKinds) {
    obs::TraceContext trace;
    Reasoner r(db);
    r.set_trace(&trace);
    if (kind == SemanticsKind::kCcwa || kind == SemanticsKind::kEcwa) {
      ASSERT_TRUE(r.SetPartition({}, {}, {}, 'p').ok());
    }
    RunQueryMix(&r, kind);
    ExpectSpanSumsMatchTotals(trace, r, kind);
    // Every reasoner span names its semantics.
    int reasoner_spans = 0;
    for (const obs::Span& s : trace.Snapshot()) {
      if (s.layer != "reasoner") continue;
      ++reasoner_spans;
      ASSERT_NE(s.Attr("semantics"), nullptr) << SemanticsKindName(kind);
      EXPECT_EQ(*s.Attr("semantics"), SemanticsKindName(kind));
      EXPECT_GE(s.end_us, s.start_us);
    }
    EXPECT_EQ(reasoner_spans, 7) << SemanticsKindName(kind);
  }
}

// A new CCWA/ECWA partition and a certification toggle drop cached
// engines too; the work those engines already did stays in the totals,
// which never decrease from one call to the next.
TEST(TraceExactness, TotalsSurviveEngineDropsAndNeverDecrease) {
  Database db = testing::Db("a | b. c :- a. e | f :- c. d :- b.");
  for (SemanticsKind kind : kAllKinds) {
    obs::TraceContext trace;
    Reasoner r(db);
    r.set_trace(&trace);
    MinimalStats last;
    oracle::SessionStats last_sess;
    auto expect_monotone = [&](const char* step) {
      const MinimalStats now = r.TotalStats();
      const oracle::SessionStats sess = r.TotalSessionStats();
      const std::string where =
          std::string(SemanticsKindName(kind)) + " after " + step;
      EXPECT_GE(now.sat_calls, last.sat_calls) << where;
      EXPECT_GE(now.minimizations, last.minimizations) << where;
      EXPECT_GE(now.cegar_iterations, last.cegar_iterations) << where;
      EXPECT_GE(now.models_enumerated, last.models_enumerated) << where;
      EXPECT_GE(sess.base_loads, last_sess.base_loads) << where;
      EXPECT_GE(sess.solves, last_sess.solves) << where;
      EXPECT_GE(sess.cache_hits, last_sess.cache_hits) << where;
      EXPECT_GE(sess.cache_misses, last_sess.cache_misses) << where;
      last = now;
      last_sess = sess;
    };
    ASSERT_TRUE(r.Models(kind).ok());
    expect_monotone("Models");
    ASSERT_TRUE(r.InfersFormula(kind, "a | b").ok());
    expect_monotone("InfersFormula");
    ASSERT_TRUE(r.SetPartition({"a", "b"}, {}, {}, 'z').ok());
    expect_monotone("SetPartition");
    ASSERT_TRUE(r.InfersFormula(kind, "c | d").ok());
    expect_monotone("InfersFormula under the partition");
    r.EnableCertification(true);
    expect_monotone("EnableCertification(true)");
    ASSERT_TRUE(r.InfersLiteral(kind, "not e").ok());
    expect_monotone("certified InfersLiteral");
    r.EnableCertification(false);
    expect_monotone("EnableCertification(false)");
    ASSERT_TRUE(r.Models(kind).ok());
    expect_monotone("second Models");
    ExpectSpanSumsMatchTotals(trace, r, kind);
  }
}

TEST(TraceExactness, BatchSpanCountsGroupEngineWidth) {
  // Two modules of three atoms each: a module group's engine runs on its
  // compact sub-database (3 atoms, 4 with a query-only atom), a store hit
  // runs no engine (0), a whole-database group (CWA) runs on every atom.
  // The first step asks two queries per module, so both groups build and
  // store the banks the second step hits.
  // The span counter, the BatchStats field and the published metric agree.
  Database db = testing::Db("a | b. c :- a. x | y. z :- x.");
  obs::TraceContext trace;
  Reasoner r(db);
  r.set_trace(&trace);
  batch::BatchOptions opts;
  opts.use_answer_cache = false;
  batch::BatchOptions no_banks = opts;
  no_banks.model_bank_cap = 0;
  struct Step {
    SemanticsKind kind;
    std::vector<batch::BatchQuery> qs;
    const batch::BatchOptions* opts;
    int64_t want_atoms;
  };
  const std::vector<Step> steps = {
      {SemanticsKind::kGcwa,
       {{"a", true}, {"not b", true}, {"y", true}, {"x", true}},
       &opts,
       3 + 3},
      {SemanticsKind::kGcwa, {{"b", true}, {"not z", true}}, &opts, 0},
      {SemanticsKind::kGcwa, {{"c | q", false}}, &no_banks, 4},
      {SemanticsKind::kCwa, {{"a", true}}, &opts, 7},
  };
  int64_t total = 0;
  for (size_t i = 0; i < steps.size(); ++i) {
    const int64_t before = trace.SumCounter("batch_group_atoms", "reasoner");
    Result<batch::BatchAnswer> got =
        r.AnswerBatch(steps[i].kind, steps[i].qs, *steps[i].opts);
    ASSERT_TRUE(got.ok()) << "step " << i;
    EXPECT_EQ(got->stats.group_atoms, steps[i].want_atoms) << "step " << i;
    EXPECT_EQ(trace.SumCounter("batch_group_atoms", "reasoner") - before,
              steps[i].want_atoms)
        << "step " << i;
    total += steps[i].want_atoms;
  }
  EXPECT_EQ(r.batch_stats().group_atoms, total);
  obs::MetricsRegistry reg;
  r.PublishMetrics(&reg);
  EXPECT_EQ(reg.Snapshot().Value("dd.batch.group_atoms"), total);
}

TEST(TraceExactness, EngineLayersNestBelowReasonerSpans) {
  Database db = testing::Db("a | b. c :- a. e | f :- c. d :- b.");
  obs::TraceContext trace;
  Reasoner r(db);
  r.set_trace(&trace);
  r.set_analysis_dispatch(false);  // force the oracle-backed generic engine
  ASSERT_TRUE(r.InfersFormula(SemanticsKind::kGcwa, "~c | a | b").ok());
  std::vector<obs::Span> spans = trace.Snapshot();
  bool saw_minimal_child = false;
  for (const obs::Span& s : spans) {
    if (s.layer != "minimal" || s.parent < 0) continue;
    for (const obs::Span& p : spans) {
      if (p.id == s.parent && p.layer == "reasoner") saw_minimal_child = true;
    }
  }
  EXPECT_TRUE(saw_minimal_child)
      << "expected a minimal-layer span nested under the reasoner span:\n"
      << trace.ToJsonString();
}

TEST(TraceExactness, QueryOptionsTraceOverridesReasonerTrace) {
  Database db = testing::Db("a | b. c :- a.");
  obs::TraceContext ambient;
  obs::TraceContext per_query;
  Reasoner r(db);
  r.set_trace(&ambient);
  QueryOptions q;
  q.trace = &per_query;
  ASSERT_TRUE(r.InfersFormula(SemanticsKind::kGcwa, "a | b", q).ok());
  EXPECT_EQ(ambient.span_count(), 0u);
  EXPECT_GE(per_query.span_count(), 1u);
  EXPECT_EQ(per_query.SumCounter("oracle_calls", "reasoner"),
            r.TotalStats().sat_calls);
}

TEST(TraceExactness, BudgetConsumptionAttributedToSpan) {
  Database db = testing::Db("a | b. c :- a. e | f :- c. d :- b.");
  obs::TraceContext trace;
  Reasoner r(db);
  r.set_analysis_dispatch(false);
  QueryOptions q;
  q.trace = &trace;
  q.oracle_call_budget = 0;  // starved: exhausts immediately
  auto ans = r.InfersFormula(SemanticsKind::kGcwa, "a | b", q);
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(*ans, Trilean::kUnknown);
  bool saw_exhausted_attr = false;
  for (const obs::Span& s : trace.Snapshot()) {
    if (s.layer == "reasoner" && s.Attr("exhausted") != nullptr) {
      saw_exhausted_attr = true;
    }
  }
  EXPECT_TRUE(saw_exhausted_attr) << trace.ToJsonString();
}

// ---------------------------------------------------------------------------
// Determinism: counter totals invariant across worker-thread counts

MinimalStats TotalsWithThreads(const Database& db, int threads,
                               obs::TraceContext* trace) {
  SemanticsOptions opts;
  opts.num_threads = threads;
  Reasoner r(db, opts);
  r.set_trace(trace);
  // EGCWA model enumeration is the parallel chunked path; the formula
  // queries exercise the CEGAR loops around it.
  EXPECT_TRUE(r.Models(SemanticsKind::kEgcwa).ok());
  EXPECT_TRUE(r.InfersFormula(SemanticsKind::kEgcwa, "~c | a").ok());
  EXPECT_TRUE(r.InfersFormula(SemanticsKind::kGcwa, "a | b").ok());
  return r.TotalStats();
}

TEST(Determinism, CounterTotalsInvariantAcrossThreadCounts) {
  Database db = testing::Db(
      "a | b. c | d :- a. e | f :- c. g :- b. h | i :- g. j :- e, h.");
  obs::TraceContext t1, t4;
  MinimalStats one = TotalsWithThreads(db, 1, &t1);
  MinimalStats four = TotalsWithThreads(db, 4, &t4);
  EXPECT_EQ(one.sat_calls, four.sat_calls);
  EXPECT_EQ(one.minimizations, four.minimizations);
  EXPECT_EQ(one.cegar_iterations, four.cegar_iterations);
  EXPECT_EQ(one.models_enumerated, four.models_enumerated);
  // The trace sees the same totals through the span deltas — and therefore
  // the same on both thread counts (chunk engines run untraced; their
  // counters fold into the owning operation).
  EXPECT_EQ(t1.SumCounter("oracle_calls", "reasoner"),
            t4.SumCounter("oracle_calls", "reasoner"));
  EXPECT_EQ(t1.SumCounter("oracle_calls", "reasoner"), one.sat_calls);
  EXPECT_EQ(t1.SumCounter("models_enumerated", "reasoner"),
            t4.SumCounter("models_enumerated", "reasoner"));
}

// ---------------------------------------------------------------------------
// ThreadPool::DefaultThreads strict DD_THREADS parsing

struct EnvGuard {
  explicit EnvGuard(const char* value) {
    const char* old = std::getenv("DD_THREADS");
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    if (value != nullptr) {
      ::setenv("DD_THREADS", value, 1);
    } else {
      ::unsetenv("DD_THREADS");
    }
  }
  ~EnvGuard() {
    if (had_) {
      ::setenv("DD_THREADS", saved_.c_str(), 1);
    } else {
      ::unsetenv("DD_THREADS");
    }
  }
  std::string saved_;
  bool had_ = false;
};

TEST(ThreadPoolEnv, DefaultThreadsAcceptsStrictPositiveIntegers) {
  EnvGuard guard("4");
  EXPECT_EQ(ThreadPool::DefaultThreads(), 4);
}

TEST(ThreadPoolEnv, DefaultThreadsRejectsMalformedValues) {
  int fallback;
  {
    EnvGuard guard(nullptr);  // unset: hardware fallback
    fallback = ThreadPool::DefaultThreads();
    EXPECT_GE(fallback, 1);
  }
  // Trailing garbage, non-numeric, negative, zero and overflow all fall
  // back instead of being half-parsed by atoi semantics.
  for (const char* bad :
       {"4x", "abc", "-2", "0", "99999999999999999999", ""}) {
    EnvGuard guard(bad);
    EXPECT_EQ(ThreadPool::DefaultThreads(), fallback) << "DD_THREADS=" << bad;
  }
}

}  // namespace
}  // namespace dd
