// Batched query evaluation A/B (docs/BATCHING.md), four sections:
//
//   1. literals — the same literal workload runs once through
//      Reasoner::AnswerBatch (canonicalize + dedupe + answer cache +
//      slice-grouped model banks, groups in parallel) and once through
//      the sequential one-query-at-a-time entry points, at batch sizes
//      {1, 16, 256, 4096} across all eleven semantics;
//   2. formulas — a compound-formula workload (conjunctions,
//      disjunctions, negations) A/B'd the same way, so the
//      conjunct-splitting pipeline stage faces measurement too (the
//      literal-only leg never split anything);
//   3. brave — the same formula shapes through AnswerBatchCredulous vs a
//      sequential InfersCredulously replay;
//   4. bank reuse — repeated NON-identical batches on one reasoner with
//      the cross-batch model-bank store on (warm) vs off (cold, every
//      batch rebuilds its group banks), answer cache disabled in both
//      legs so the store is the only lever. GCWA/EGCWA at batch size
//      256; the audit requires warm to beat cold by >= 2x from the
//      second round on, with byte-identical answers;
//   5. group-size sweep — one group of 1, 2, 3, 4 or 8 literal queries
//      per semantics and mode, over the largest module of the section-1
//      database, timed in five legs: the group alone through
//      batch::EvaluateGroup as a new bank ("bank") and per query
//      ("direct"), and end to end through AnswerBatch with default
//      options ("planned") and with model_bank_cap = 0 ("no_banks"),
//      and through the sequential entry points ("sequential"). This is
//      the table that sets batch::kMinBankGroup (docs/BATCHING.md §3).
//
// Repeated rows (section 5, and the batch-of-one rows of section 1) run
// every leg kReps times on fresh reasoners, reversing the leg order on
// every other repetition so host drift within a row falls on all legs
// alike, and time each call from outside with a steady clock, as
// perfbench's harness does. Their "legs" object holds each leg's median
// and quartiles; wall_ms and phases hold the medians.
//
// The printed tables report wall-clock for both legs and the amortized
// speedup; the built-in audit asserts, for every row, that (a) the batch
// answers are identical to the sequential answers wherever both are
// definite (in section 5: all five legs give equal answers) and (b) the
// answer cache holds no kUnknown entry — a violation prints
// "AUDIT FAILURE" and exits nonzero, so the harness doubles as an
// end-to-end soundness check.
//
// Flags: --seed=N --threads=N --timeout-ms=N (see bench_util.h; the
// timeout bounds each leg per row — the batch leg via the whole-batch
// budget, the sequential leg via an elapsed-time watchdog — and marks cut
// rows "timeout": true, naming the cut leg in "timeout_leg": "batch",
// "sequential", "both" or "none"). Results land in BENCH_batch.json
// (schema 2) for scripts/run_experiments.sh.
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/dispatch.h"
#include "analysis/slicer.h"
#include "bench/bench_util.h"
#include "batch/query_batch.h"
#include "core/reasoner.h"
#include "logic/parser.h"
#include "gen/generators.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace dd {
namespace {

using bench::BenchArgs;
using bench::BenchJsonWriter;
using bench::BenchRecord;
using bench::Quantile;

/// Instance shape per semantics: positive deductive databases keep all
/// eleven applicable; the Σ₂ᵖ-flavoured and enumeration-heavy kinds get
/// smaller instances so the sequential baseline finishes at 4096.
struct KindCfg {
  SemanticsKind kind;
  int vars;
  int clauses;
};

const KindCfg kKinds[] = {
    {SemanticsKind::kCwa, 14, 22},  {SemanticsKind::kGcwa, 20, 48},
    {SemanticsKind::kEgcwa, 20, 48}, {SemanticsKind::kCcwa, 14, 22},
    {SemanticsKind::kEcwa, 12, 20}, {SemanticsKind::kDdr, 18, 28},
    {SemanticsKind::kPws, 18, 28},  {SemanticsKind::kPerf, 10, 16},
    {SemanticsKind::kIcwa, 10, 16}, {SemanticsKind::kDsm, 12, 20},
    {SemanticsKind::kPdsm, 10, 16},
};

const int kBatchSizes[] = {1, 16, 256, 4096};

/// Repetitions per leg of a repeated row.
constexpr int kReps = 15;

/// Runs every leg `reps` times, reversing the leg order on odd
/// repetitions. Each leg sets itself up (a fresh Reasoner), times its own
/// measured block and returns that wall time in ms; the result holds one
/// sample vector per leg.
std::vector<std::vector<double>> Alternate(
    int reps, const std::vector<std::function<double()>>& legs) {
  std::vector<std::vector<double>> ms(legs.size());
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t k = 0; k < legs.size(); ++k) {
      const size_t leg = rep % 2 == 0 ? k : legs.size() - 1 - k;
      ms[leg].push_back(legs[leg]());
    }
  }
  return ms;
}

/// "none", "batch", "sequential" or "both": which legs the watchdog cut.
const char* TimeoutLeg(bool batch, bool sequential) {
  if (batch && sequential) return "both";
  if (batch) return "batch";
  return sequential ? "sequential" : "none";
}

/// A random literal workload: n queries drawn uniformly over both
/// polarities of the database's atoms. Large n repeats queries heavily —
/// exactly the regime batching amortizes.
std::vector<batch::BatchQuery> LiteralWorkload(int n, int vars, Rng* rng) {
  std::vector<batch::BatchQuery> qs;
  qs.reserve(n);
  for (int i = 0; i < n; ++i) {
    const int v = static_cast<int>(rng->Below(vars));
    qs.push_back({rng->Chance(0.5) ? StrFormat("p%d", v)
                                   : StrFormat("not p%d", v),
                  true});
  }
  return qs;
}

/// A compound-formula workload: conjunctions, disjunctions and negated
/// atoms over the database's vocabulary. Conjunctions exercise the
/// skeptical pipeline's conjunct splitting; disjunctions exercise the
/// brave pipeline's disjunct splitting; repeats (and commuted repeats,
/// which canonicalize equal) exercise dedupe.
std::vector<batch::BatchQuery> FormulaWorkload(int n, int vars, Rng* rng) {
  auto lit = [&]() {
    const int v = static_cast<int>(rng->Below(vars));
    return rng->Chance(0.5) ? StrFormat("p%d", v) : StrFormat("~p%d", v);
  };
  std::vector<batch::BatchQuery> qs;
  qs.reserve(n);
  for (int i = 0; i < n; ++i) {
    const double roll = rng->NextDouble();
    std::string text;
    if (roll < 0.4) {
      text = lit() + " & " + lit();
    } else if (roll < 0.7) {
      text = lit() + " | " + lit();
    } else {
      text = lit();
    }
    qs.push_back({std::move(text), false});
  }
  return qs;
}

int g_audit_failures = 0;

void Audit(bool ok, const char* what, const char* kind, int n) {
  if (!ok) {
    ++g_audit_failures;
    std::fprintf(stderr, "AUDIT FAILURE [%s n=%d]: %s\n", kind, n, what);
  }
}

/// The atoms of the database's largest module (ties: lowest module id),
/// ascending: queries over them all plan into one group.
std::vector<Var> LargestModuleAtoms(const analysis::Slicer& slicer) {
  const std::vector<int>& ids = slicer.module_ids();
  std::vector<int> sizes(slicer.num_modules(), 0);
  for (int id : ids) ++sizes[id];
  const int best = static_cast<int>(
      std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
  std::vector<Var> atoms;
  for (size_t v = 0; v < ids.size(); ++v) {
    if (ids[v] == best) atoms.push_back(static_cast<Var>(v));
  }
  return atoms;
}

/// `size` distinct literal queries over `atoms`: p, ~p for the first atom,
/// then the next, and so on.
std::vector<batch::BatchQuery> SweepQueries(const std::vector<Var>& atoms,
                                            int size, const Vocabulary& voc) {
  std::vector<batch::BatchQuery> qs;
  for (int i = 0; i < size; ++i) {
    const std::string& name = voc.Name(atoms[(i / 2) % atoms.size()]);
    qs.push_back({i % 2 == 0 ? name : "~" + name, false});
  }
  return qs;
}

/// A sweep batch's one group as batch::EvaluateGroup sees it, built as
/// the Reasoner builds it: the compact sub-database of the queries'
/// module union where slicing is sound (else the whole database), and the
/// canonical queries renamed into its numbering.
struct SweepGroup {
  std::optional<analysis::SubDatabase> sub;
  std::vector<batch::CanonicalQuery> queries;
};

SweepGroup MakeSweepGroup(const Database& db, const analysis::Slicer& slicer,
                          SemanticsKind kind,
                          const std::vector<batch::BatchQuery>& qs) {
  Database parse_db = db;
  SweepGroup g;
  std::vector<Var> roots;
  for (const batch::BatchQuery& q : qs) {
    Result<Formula> f = ParseFormula(q.text, &parse_db.vocabulary());
    DD_CHECK(f.ok());
    g.queries.push_back(batch::Canonicalize(*f, parse_db.vocabulary()));
    roots.insert(roots.end(), g.queries.back().roots.begin(),
                 g.queries.back().roots.end());
  }
  if (!analysis::SliceIsSound(analysis::Analyze(db), kind, false)) return g;
  const analysis::SliceResult slice = slicer.ModuleUnion(roots);
  if (!slice.proper) return g;
  g.sub = slicer.MakeSubDatabase(slice);
  for (batch::CanonicalQuery& q : g.queries) {
    q = batch::RenameQuery(q, g.sub->to_parent);
  }
  return g;
}

}  // namespace

int Main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  BenchJsonWriter out("batch");
  std::printf(
      "Batched vs sequential query evaluation (seed=%llu, threads=%d)\n"
      "%-6s %6s | %10s %10s %8s | %6s %6s %6s\n",
      static_cast<unsigned long long>(args.seed), args.threads, "sem", "n",
      "batch ms", "seq ms", "speedup", "uniq", "groups", "hits");

  for (const KindCfg& cfg : kKinds) {
    const char* kind_name = SemanticsKindName(cfg.kind);
    Database db = RandomPositiveDdb(
        cfg.vars, cfg.clauses, DeriveSeed(args.seed, cfg.vars * 131 + 7));
    for (int n : kBatchSizes) {
      Timer gen_timer;
      Rng rng(DeriveSeed(args.seed, static_cast<uint64_t>(n) * 211 +
                                        static_cast<uint64_t>(cfg.kind)));
      std::vector<batch::BatchQuery> qs = LiteralWorkload(n, cfg.vars, &rng);
      const double gen_ms = gen_timer.ElapsedSeconds() * 1e3;

      // Batch leg: one AnswerBatch call on a fresh reasoner. Sequential
      // leg: the one-query-at-a-time entry points on an equally fresh
      // reasoner (same engine caches and sessions as any CLI user).
      // Batch-of-one rows repeat both legs (see the header comment).
      batch::BatchOptions bo;
      bo.num_threads = args.threads;
      bo.deadline_ms = args.timeout_ms;
      std::unique_ptr<Reasoner> rb;
      std::optional<Result<batch::BatchAnswer>> batch;
      std::vector<Trilean> seq;
      bool seq_complete = true;
      bool seq_cut = false;
      const std::vector<std::vector<double>> ms = Alternate(
          n == 1 ? kReps : 1,
          {[&] {
             rb = std::make_unique<Reasoner>(db);
             Timer t;
             batch = rb->AnswerBatch(cfg.kind, qs, bo);
             return t.ElapsedSeconds() * 1e3;
           },
           [&] {
             Reasoner rs(db);
             seq.assign(qs.size(), Trilean::kUnknown);
             seq_complete = true;
             seq_cut = false;
             Timer t;
             for (size_t i = 0; i < qs.size(); ++i) {
               if (args.timeout_ms > 0 &&
                   t.ElapsedSeconds() * 1e3 > args.timeout_ms) {
                 seq_complete = false;
                 seq_cut = true;
                 break;
               }
               Result<bool> r = rs.InfersLiteral(cfg.kind, qs[i].text);
               if (!r.ok()) {
                 Audit(false, r.status().ToString().c_str(), kind_name, n);
                 seq_complete = false;
                 break;
               }
               seq[i] = TrileanFromBool(*r);
             }
             return t.ElapsedSeconds() * 1e3;
           }});
      const double batch_ms = Quantile(ms[0], 0.5);
      const double seq_ms = Quantile(ms[1], 0.5);
      if (!batch->ok()) {
        Audit(false, batch->status().ToString().c_str(), kind_name, n);
        continue;
      }
      const batch::BatchAnswer& got = **batch;
      const bool batch_cut = got.stats.unknowns > 0;
      const bool timeout = batch_cut || seq_cut;

      // Audit (a): batch answers equal sequential answers wherever both
      // legs produced a definite verdict.
      if (seq_complete) {
        for (size_t i = 0; i < qs.size(); ++i) {
          if (got.answers[i] == Trilean::kUnknown) continue;
          Audit(got.answers[i] == seq[i],
                "batch/sequential answer mismatch", kind_name, n);
          if (got.answers[i] != seq[i]) break;
        }
      }
      // Audit (b): "Unknown is never cached".
      if (rb->answer_cache() != nullptr) {
        rb->answer_cache()->ForEach([&](const std::string&, Trilean t) {
          Audit(t != Trilean::kUnknown, "kUnknown found in answer cache",
                kind_name, n);
        });
      }

      const double speedup = batch_ms > 0 ? seq_ms / batch_ms : 0.0;
      std::printf("%-6s %6d | %10.2f %10.2f %7.2fx | %6lld %6lld %6lld%s\n",
                  kind_name, n, batch_ms, seq_ms, speedup,
                  static_cast<long long>(got.stats.unique_queries),
                  static_cast<long long>(got.stats.groups),
                  static_cast<long long>(got.stats.cache_hits),
                  timeout ? "  (timeout)" : "");

      BenchRecord rec;
      rec.name = StrFormat("%s/literals", kind_name);
      rec.n = n;
      rec.wall_ms = batch_ms;
      rec.oracle_calls = rb->TotalStats().sat_calls;
      rec.cache_hits = got.stats.cache_hits;
      rec.timeout = timeout;
      rec.timeout_leg = TimeoutLeg(batch_cut, seq_cut);
      rec.AddPhase("generate", gen_ms)
          .AddPhase("batch", batch_ms)
          .AddPhase("sequential", seq_ms);
      if (ms[0].size() > 1) {
        rec.AddLeg("batch", ms[0]).AddLeg("sequential", ms[1]);
      }
      obs::MetricsRegistry reg;
      rb->PublishMetrics(&reg);
      rec.metrics = reg.Snapshot();
      out.Add(std::move(rec));
    }
  }

  // --- Formula + brave workloads -------------------------------------------
  // The literal section never splits a connective; these legs put the
  // conjunct-splitting (skeptical) and disjunct-splitting (brave) pipeline
  // stages under measurement, auditing both against sequential replays.
  const int kFormulaSizes[] = {16, 256};
  std::printf(
      "\nFormula workloads (skeptical vs brave, batch vs sequential)\n"
      "%-6s %-6s %6s | %10s %10s %8s | %6s %6s\n",
      "sem", "mode", "n", "batch ms", "seq ms", "speedup", "uniq", "split");
  for (const KindCfg& cfg : kKinds) {
    const char* kind_name = SemanticsKindName(cfg.kind);
    Database db = RandomPositiveDdb(
        cfg.vars, cfg.clauses, DeriveSeed(args.seed, cfg.vars * 131 + 7));
    for (int n : kFormulaSizes) {
      for (int brave = 0; brave <= 1; ++brave) {
        Rng rng(DeriveSeed(args.seed, static_cast<uint64_t>(n) * 977 +
                                          static_cast<uint64_t>(cfg.kind) * 2 +
                                          static_cast<uint64_t>(brave)));
        std::vector<batch::BatchQuery> qs =
            FormulaWorkload(n, cfg.vars, &rng);

        Reasoner rb(db);
        batch::BatchOptions bo;
        bo.num_threads = args.threads;
        bo.deadline_ms = args.timeout_ms;
        Timer batch_timer;
        Result<batch::BatchAnswer> batch =
            brave ? rb.AnswerBatchCredulous(cfg.kind, qs, bo)
                  : rb.AnswerBatch(cfg.kind, qs, bo);
        const double batch_ms = batch_timer.ElapsedSeconds() * 1e3;
        if (!batch.ok()) {
          Audit(false, batch.status().ToString().c_str(), kind_name, n);
          continue;
        }
        const bool batch_cut = batch->stats.unknowns > 0;
        bool seq_cut = false;

        Reasoner rs(db);
        std::vector<Trilean> seq(qs.size(), Trilean::kUnknown);
        bool seq_complete = true;
        Timer seq_timer;
        for (size_t i = 0; i < qs.size(); ++i) {
          if (args.timeout_ms > 0 &&
              seq_timer.ElapsedSeconds() * 1e3 > args.timeout_ms) {
            seq_complete = false;
            seq_cut = true;
            break;
          }
          if (brave) {
            Result<Trilean> r =
                rs.InfersCredulously(cfg.kind, qs[i].text, QueryOptions());
            if (!r.ok()) {
              Audit(false, r.status().ToString().c_str(), kind_name, n);
              seq_complete = false;
              break;
            }
            seq[i] = *r;
          } else {
            Result<bool> r = rs.InfersFormula(cfg.kind, qs[i].text);
            if (!r.ok()) {
              Audit(false, r.status().ToString().c_str(), kind_name, n);
              seq_complete = false;
              break;
            }
            seq[i] = TrileanFromBool(*r);
          }
        }
        const double seq_ms = seq_timer.ElapsedSeconds() * 1e3;
        const bool timeout = batch_cut || seq_cut;

        if (seq_complete) {
          for (size_t i = 0; i < qs.size(); ++i) {
            if (batch->answers[i] == Trilean::kUnknown) continue;
            Audit(batch->answers[i] == seq[i],
                  brave ? "brave batch/sequential answer mismatch"
                        : "formula batch/sequential answer mismatch",
                  kind_name, n);
            if (batch->answers[i] != seq[i]) break;
          }
        }
        if (rb.answer_cache() != nullptr) {
          rb.answer_cache()->ForEach([&](const std::string&, Trilean t) {
            Audit(t != Trilean::kUnknown, "kUnknown found in answer cache",
                  kind_name, n);
          });
        }

        const double speedup = batch_ms > 0 ? seq_ms / batch_ms : 0.0;
        const int64_t splits = brave ? batch->stats.disjunct_splits
                                     : batch->stats.conjunct_splits;
        std::printf("%-6s %-6s %6d | %10.2f %10.2f %7.2fx | %6lld %6lld%s\n",
                    kind_name, brave ? "brave" : "skept", n, batch_ms, seq_ms,
                    speedup,
                    static_cast<long long>(batch->stats.unique_queries),
                    static_cast<long long>(splits),
                    timeout ? "  (timeout)" : "");

        BenchRecord rec;
        rec.name = StrFormat("%s/%s", kind_name,
                             brave ? "brave_formulas" : "formulas");
        rec.n = n;
        rec.wall_ms = batch_ms;
        rec.oracle_calls = rb.TotalStats().sat_calls;
        rec.cache_hits = batch->stats.cache_hits;
        rec.timeout = timeout;
        rec.timeout_leg = TimeoutLeg(batch_cut, seq_cut);
        rec.AddPhase("batch", batch_ms).AddPhase("sequential", seq_ms);
        out.Add(std::move(rec));
      }
    }
  }

  // --- Cross-batch bank reuse ----------------------------------------------
  // Repeated NON-identical batches on one reasoner: the warm leg keeps the
  // model-bank store, the cold leg disables it and rebuilds every group
  // bank per batch. The answer cache is off in BOTH legs, so the store is
  // the only cross-batch lever. From the second round on, warm must beat
  // cold by >= 2x (the acceptance bar) with identical answers.
  // Dedicated instance shape: harder than the A/B sections' so that bank
  // construction (what the store amortizes) dominates the per-batch
  // parse/canonicalize costs both legs share.
  const KindCfg kReuseKinds[] = {{SemanticsKind::kGcwa, 26, 60},
                                 {SemanticsKind::kEgcwa, 26, 34}};
  constexpr int kReuseN = 256;
  constexpr int kRounds = 4;
  std::printf(
      "\nCross-batch bank reuse (warm store vs cold rebuild, %d rounds of "
      "%d, cache off)\n"
      "%-6s | %10s %10s %8s | %6s %6s\n",
      kRounds, kReuseN, "sem", "warm ms", "cold ms", "speedup", "hits",
      "ins");
  for (const KindCfg& cfg : kReuseKinds) {
    const SemanticsKind kind = cfg.kind;
    const char* kind_name = SemanticsKindName(kind);
    Database db = RandomPositiveDdb(
        cfg.vars, cfg.clauses, DeriveSeed(args.seed, cfg.vars * 131 + 7));

    Reasoner warm(db);
    Reasoner cold(db);
    batch::BatchOptions wo;
    wo.num_threads = args.threads;
    wo.use_answer_cache = false;
    batch::BatchOptions co = wo;
    co.use_bank_store = false;

    double warm_ms = 0.0;
    double cold_ms = 0.0;
    int64_t store_hits = 0;
    int64_t store_insertions = 0;
    bool rounds_ok = true;
    for (int round = 0; round < kRounds; ++round) {
      Rng rng(DeriveSeed(args.seed, 4099 + static_cast<uint64_t>(kind) * 31 +
                                        static_cast<uint64_t>(round)));
      std::vector<batch::BatchQuery> qs =
          LiteralWorkload(kReuseN, cfg.vars, &rng);

      Timer wt;
      Result<batch::BatchAnswer> wr = warm.AnswerBatch(kind, qs, wo);
      const double w_ms = wt.ElapsedSeconds() * 1e3;
      Timer ct;
      Result<batch::BatchAnswer> cr = cold.AnswerBatch(kind, qs, co);
      const double c_ms = ct.ElapsedSeconds() * 1e3;
      if (!wr.ok() || !cr.ok()) {
        Audit(false, "bank-reuse leg failed", kind_name, kReuseN);
        rounds_ok = false;
        break;
      }
      for (size_t i = 0; i < qs.size(); ++i) {
        Audit(wr->answers[i] == cr->answers[i],
              "warm/cold answer mismatch", kind_name, kReuseN);
        if (wr->answers[i] != cr->answers[i]) break;
      }
      // Round 0 builds the banks in both legs; the reuse economics start
      // at round 1.
      if (round > 0) {
        warm_ms += w_ms;
        cold_ms += c_ms;
        store_hits += wr->stats.bank_store_hits;
      } else {
        store_insertions = wr->stats.bank_store_insertions;
      }
    }
    if (!rounds_ok) continue;

    Audit(store_hits > 0, "warm leg never hit the bank store", kind_name,
          kReuseN);
    if (warm.bank_store() != nullptr) {
      warm.bank_store()->ForEach(
          [&](const std::string&, const auto& bank) {
            Audit(bank->complete, "incomplete bank found in store", kind_name,
                  kReuseN);
          });
    }
    const double speedup = warm_ms > 0 ? cold_ms / warm_ms : 0.0;
    Audit(speedup >= 2.0, "bank reuse speedup below 2x", kind_name, kReuseN);
    std::printf("%-6s | %10.2f %10.2f %7.2fx | %6lld %6lld\n", kind_name,
                warm_ms, cold_ms, speedup,
                static_cast<long long>(store_hits),
                static_cast<long long>(store_insertions));

    BenchRecord rec;
    rec.name = StrFormat("%s/bank_reuse", kind_name);
    rec.n = kReuseN;
    rec.wall_ms = warm_ms;
    rec.oracle_calls = warm.TotalStats().sat_calls;
    rec.cache_hits = store_hits;
    rec.timeout = false;
    rec.AddPhase("warm", warm_ms).AddPhase("cold", cold_ms);
    out.Add(std::move(rec));
  }

  // --- Group-size sweep ----------------------------------------------------
  // One group of `size` unique literal queries per semantics and mode.
  // "bank" and "direct" time the group alone (batch::EvaluateGroup as a
  // new bank, and per query on a fresh engine), which is the choice
  // kMinBankGroup makes; "planned", "no_banks" (model_bank_cap = 0) and
  // "sequential" time the same queries end to end on fresh reasoners.
  // Every leg must give the same answers.
  const int kSweepSizes[] = {1, 2, 3, 4, 8};
  std::printf(
      "\nGroup-size sweep (median ms of %d; one group of `size` queries)\n"
      "%-6s %-6s %4s | %8s %8s %6s | %8s %8s %8s | %4s %4s\n",
      kReps, "sem", "mode", "size", "bank", "direct", "b/d", "planned",
      "no_banks", "seq", "uniq", "grp");
  for (const KindCfg& cfg : kKinds) {
    const char* kind_name = SemanticsKindName(cfg.kind);
    Database db = RandomPositiveDdb(
        cfg.vars, cfg.clauses, DeriveSeed(args.seed, cfg.vars * 131 + 7));
    const analysis::Slicer slicer(db);
    const std::vector<Var> atoms = LargestModuleAtoms(slicer);
    for (int brave = 0; brave <= 1; ++brave) {
      const batch::BatchMode mode =
          brave ? batch::BatchMode::kBrave : batch::BatchMode::kSkeptical;
      for (int size : kSweepSizes) {
        const std::vector<batch::BatchQuery> qs =
            SweepQueries(atoms, size, db.vocabulary());
        const SweepGroup group = MakeSweepGroup(db, slicer, cfg.kind, qs);
        batch::GroupRequest req;
        req.db = group.sub.has_value() ? &group.sub->db : &db;
        req.kind = cfg.kind;
        req.mode = mode;
        req.opts.hcf_minimality = group.sub.has_value();
        for (const batch::CanonicalQuery& q : group.queries) {
          req.queries.push_back(&q);
        }
        batch::GroupRequest direct_req = req;
        direct_req.eval = batch::GroupEval::kDirect;
        batch::GroupRequest bank_req = req;
        bank_req.eval = batch::GroupEval::kNewBank;

        batch::BatchOptions planned_opts;
        planned_opts.num_threads = args.threads;
        planned_opts.use_answer_cache = false;
        batch::BatchOptions no_banks_opts = planned_opts;
        no_banks_opts.model_bank_cap = 0;

        // PDSM's bank gate forbids banks: its "bank" leg is the direct one.
        const bool bank_sound = brave ? batch::BraveBankIsSound(cfg.kind)
                                      : batch::BankIsSound(cfg.kind);
        if (!bank_sound) bank_req.eval = batch::GroupEval::kDirect;
        batch::GroupResult bank_res, direct_res;
        std::optional<Result<batch::BatchAnswer>> planned, no_banks;
        std::vector<Trilean> seq(qs.size(), Trilean::kUnknown);
        auto run_group = [](const batch::GroupRequest& r,
                            batch::GroupResult* res) {
          Timer t;
          *res = batch::EvaluateGroup(r);
          return t.ElapsedSeconds() * 1e3;
        };
        auto run_batch = [&](const batch::BatchOptions& o,
                             std::optional<Result<batch::BatchAnswer>>* res) {
          Reasoner r(db);
          Timer t;
          *res = brave ? r.AnswerBatchCredulous(cfg.kind, qs, o)
                       : r.AnswerBatch(cfg.kind, qs, o);
          return t.ElapsedSeconds() * 1e3;
        };
        const std::vector<std::vector<double>> ms = Alternate(
            kReps,
            {[&] { return run_group(bank_req, &bank_res); },
             [&] { return run_group(direct_req, &direct_res); },
             [&] { return run_batch(planned_opts, &planned); },
             [&] { return run_batch(no_banks_opts, &no_banks); },
             [&] {
               Reasoner r(db);
               Timer t;
               for (size_t i = 0; i < qs.size(); ++i) {
                 if (brave) {
                   Result<Trilean> a = r.InfersCredulously(cfg.kind, qs[i].text);
                   seq[i] = a.ok() ? *a : Trilean::kUnknown;
                 } else {
                   Result<bool> a = r.InfersFormula(cfg.kind, qs[i].text);
                   seq[i] = a.ok() ? TrileanFromBool(*a) : Trilean::kUnknown;
                 }
               }
               return t.ElapsedSeconds() * 1e3;
             }});

        // Audit: the five legs answer alike, and definitely.
        const bool legs_ok = bank_res.error.ok() && direct_res.error.ok() &&
                             planned->ok() && no_banks->ok();
        Audit(legs_ok, "sweep leg failed", kind_name, size);
        if (!legs_ok) continue;
        Audit((*planned)->answers == seq && (*no_banks)->answers == seq &&
                  bank_res.answers == seq && direct_res.answers == seq,
              "sweep legs disagree", kind_name, size);
        for (Trilean t : seq) {
          Audit(t != Trilean::kUnknown, "sweep answer unknown", kind_name,
                size);
        }

        const batch::BatchStats& st = (*planned)->stats;
        const double bank_ms = Quantile(ms[0], 0.5);
        const double direct_ms = Quantile(ms[1], 0.5);
        std::printf(
            "%-6s %-6s %4d | %8.3f %8.3f %5.2fx | %8.3f %8.3f %8.3f | %4lld "
            "%4lld\n",
            kind_name, brave ? "brave" : "skept", size, bank_ms, direct_ms,
            direct_ms > 0 ? bank_ms / direct_ms : 0.0, Quantile(ms[2], 0.5),
            Quantile(ms[3], 0.5), Quantile(ms[4], 0.5),
            static_cast<long long>(st.unique_queries),
            static_cast<long long>(st.groups));

        BenchRecord rec;
        rec.name = StrFormat("%s/sweep_%s", kind_name,
                             brave ? "brave" : "skeptical");
        rec.n = size;
        rec.wall_ms = Quantile(ms[2], 0.5);
        rec.oracle_calls = direct_res.stats.sat_calls;
        rec.cache_hits = 0;
        rec.AddLeg("bank", ms[0])
            .AddLeg("direct", ms[1])
            .AddLeg("planned", ms[2])
            .AddLeg("no_banks", ms[3])
            .AddLeg("sequential", ms[4]);
        rec.AddPhase("bank", bank_ms)
            .AddPhase("direct", direct_ms)
            .AddPhase("planned", Quantile(ms[2], 0.5))
            .AddPhase("no_banks", Quantile(ms[3], 0.5))
            .AddPhase("sequential", Quantile(ms[4], 0.5));
        obs::MetricsRegistry reg;
        batch::Publish(st, &reg);
        rec.metrics = reg.Snapshot();
        out.Add(std::move(rec));
      }
    }
  }

  if (!out.Write()) {
    std::fprintf(stderr, "cannot write BENCH_batch.json\n");
    return 1;
  }
  if (g_audit_failures > 0) {
    std::fprintf(stderr, "%d audit failure(s)\n", g_audit_failures);
    return 1;
  }
  std::printf("audit: batch == sequential, no kUnknown cached\n");
  return 0;
}

}  // namespace dd

int main(int argc, char** argv) { return dd::Main(argc, argv); }
