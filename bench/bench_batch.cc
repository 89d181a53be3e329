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
//      second round on, with byte-identical answers.
//
// The printed tables report wall-clock for both legs and the amortized
// speedup; the built-in audit asserts, for every row, that (a) the batch
// answers are identical to the sequential answers wherever both are
// definite and (b) the answer cache holds no kUnknown entry — a violation
// exits nonzero, so the harness doubles as an end-to-end soundness check.
//
// Flags: --seed=N --threads=N --timeout-ms=N (see bench_util.h; the
// timeout bounds each leg per row — the batch leg via the whole-batch
// budget, the sequential leg via an elapsed-time watchdog — and marks cut
// rows "timeout": true). Results land in BENCH_batch.json (schema 2) for
// scripts/run_experiments.sh.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "batch/query_batch.h"
#include "core/reasoner.h"
#include "gen/generators.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace dd {
namespace {

using bench::BenchArgs;
using bench::BenchJsonWriter;
using bench::BenchRecord;

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

      // Batch leg: one AnswerBatch call on a fresh reasoner.
      Reasoner rb(db);
      batch::BatchOptions bo;
      bo.num_threads = args.threads;
      bo.deadline_ms = args.timeout_ms;
      Timer batch_timer;
      Result<batch::BatchAnswer> batch = rb.AnswerBatch(cfg.kind, qs, bo);
      const double batch_ms = batch_timer.ElapsedSeconds() * 1e3;
      if (!batch.ok()) {
        Audit(false, batch.status().ToString().c_str(), kind_name, n);
        continue;
      }
      bool timeout = batch->stats.unknowns > 0;

      // Sequential leg: the one-query-at-a-time entry points on an equally
      // fresh reasoner (same engine caches and sessions as any CLI user).
      Reasoner rs(db);
      std::vector<Trilean> seq(qs.size(), Trilean::kUnknown);
      bool seq_complete = true;
      Timer seq_timer;
      for (size_t i = 0; i < qs.size(); ++i) {
        if (args.timeout_ms > 0 &&
            seq_timer.ElapsedSeconds() * 1e3 > args.timeout_ms) {
          seq_complete = false;
          timeout = true;
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
      const double seq_ms = seq_timer.ElapsedSeconds() * 1e3;

      // Audit (a): batch answers equal sequential answers wherever both
      // legs produced a definite verdict.
      if (seq_complete) {
        for (size_t i = 0; i < qs.size(); ++i) {
          if (batch->answers[i] == Trilean::kUnknown) continue;
          Audit(batch->answers[i] == seq[i],
                "batch/sequential answer mismatch", kind_name, n);
          if (batch->answers[i] != seq[i]) break;
        }
      }
      // Audit (b): "Unknown is never cached".
      if (rb.answer_cache() != nullptr) {
        rb.answer_cache()->ForEach([&](const std::string&, Trilean t) {
          Audit(t != Trilean::kUnknown, "kUnknown found in answer cache",
                kind_name, n);
        });
      }

      const double speedup = batch_ms > 0 ? seq_ms / batch_ms : 0.0;
      std::printf("%-6s %6d | %10.2f %10.2f %7.2fx | %6lld %6lld %6lld%s\n",
                  kind_name, n, batch_ms, seq_ms, speedup,
                  static_cast<long long>(batch->stats.unique_queries),
                  static_cast<long long>(batch->stats.groups),
                  static_cast<long long>(batch->stats.cache_hits),
                  timeout ? "  (timeout)" : "");

      BenchRecord rec;
      rec.name = StrFormat("%s/literals", kind_name);
      rec.n = n;
      rec.wall_ms = batch_ms;
      rec.oracle_calls = rb.TotalStats().sat_calls;
      rec.cache_hits = batch->stats.cache_hits;
      rec.timeout = timeout;
      rec.AddPhase("generate", gen_ms)
          .AddPhase("batch", batch_ms)
          .AddPhase("sequential", seq_ms);
      obs::MetricsRegistry reg;
      rb.PublishMetrics(&reg);
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
        bool timeout = batch->stats.unknowns > 0;

        Reasoner rs(db);
        std::vector<Trilean> seq(qs.size(), Trilean::kUnknown);
        bool seq_complete = true;
        Timer seq_timer;
        for (size_t i = 0; i < qs.size(); ++i) {
          if (args.timeout_ms > 0 &&
              seq_timer.ElapsedSeconds() * 1e3 > args.timeout_ms) {
            seq_complete = false;
            timeout = true;
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
