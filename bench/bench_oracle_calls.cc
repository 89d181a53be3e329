// Section 3.1 algorithm: GCWA/CCWA formula inference with O(log n) calls
// to a Σ₂ᵖ oracle — plus the oracle-session A/B experiment.
//
// The first harness runs the binary-search counting algorithm and prints
// the counted oracle calls next to ceil(log2(|P|+1)) + 1 — the two columns
// should track each other as |P| doubles, which is precisely the
// P^Sigma2p[O(log n)] upper bound of the paper (and of [Eiter & Gottlob,
// TCS], whose method Section 3.1 cites).
//
// The A/B harness at the bottom measures what oracle sessions
// (src/oracle/) buy: the same GCWA/EGCWA workload runs once with the
// persistent incremental session (default) and once with a fresh solver
// per oracle call (--no-sessions semantics), and the table reports the
// wall-clock ratio next to the *semantic* oracle-call counts, which must
// be identical in both modes — the sessions change how fast the oracle
// answers, never how often the algorithm asks. A row whose counts differ
// prints "NO!" and makes the run exit 1.
//
// Flags: --seed=N --threads=N --no-sessions (see bench_util.h). Results
// land in BENCH_oracle_calls.json for scripts/run_experiments.sh.
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "gen/generators.h"
#include "semantics/ccwa.h"
#include "semantics/egcwa.h"
#include "semantics/gcwa.h"
#include "util/rng.h"
#include "util/timer.h"

namespace dd {
namespace {

using bench::BenchArgs;
using bench::BenchJsonWriter;

/// One leg of the A/B comparison.
struct Leg {
  double ms = 0;            ///< wall-clock of the measured block
  int64_t oracle_calls = 0; ///< counting-algorithm Σ₂ᵖ calls (structural)
  int64_t sat_calls = 0;    ///< solver invocations actually performed
  int64_t cache_hits = 0;   ///< answers served from session memo
  MinimalStats stats;             ///< full oracle counters of the leg
  oracle::SessionStats sess;      ///< full session-reuse counters
};

/// The A/B workload: the repeated-query pattern sessions are built for.
/// Everything below asks one fixed database many questions — the GCWA
/// counting algorithm (every binary-search step re-enumerates minimal
/// projections), the full negation set (one Σ₂ᵖ-style query per atom),
/// repeated EGCWA model enumeration, and the per-atom negative-clause
/// augmentation.
Leg RunFamily(const Database& db, bool use_sessions, int threads,
              std::shared_ptr<Budget> watchdog = nullptr) {
  SemanticsOptions opts;
  opts.use_sessions = use_sessions;
  opts.num_threads = threads;
  opts.budget = std::move(watchdog);
  Leg leg;
  Timer t;
  {
    GcwaSemantics gcwa(db, opts);
    const Var queries = std::min(4, db.num_vars());
    for (Var a = 0; a < queries; ++a) {
      auto r = gcwa.InfersFormulaViaCounting(FormulaNode::MakeAtom(a));
      if (r.ok()) leg.oracle_calls += r->oracle_calls;
    }
    auto negs = gcwa.NegatedAtoms();
    (void)negs;
    leg.sat_calls += gcwa.stats().sat_calls;
    leg.cache_hits += gcwa.session_stats().cache_hits;
    leg.stats.Add(gcwa.stats());
    leg.sess.Add(gcwa.session_stats());
  }
  {
    EgcwaSemantics egcwa(db, opts);
    for (int rep = 0; rep < 3; ++rep) {
      auto ms = egcwa.Models();
      (void)ms;
    }
    auto clauses = egcwa.EntailedNegativeClauses(2);
    (void)clauses;
    for (Var v = 0; v < db.num_vars(); ++v) {
      auto r = egcwa.InfersFormula(FormulaNode::MakeLit(Lit::Neg(v)));
      (void)r;
    }
    leg.sat_calls += egcwa.stats().sat_calls;
    leg.cache_hits += egcwa.session_stats().cache_hits;
    leg.stats.Add(egcwa.stats());
    leg.sess.Add(egcwa.session_stats());
  }
  leg.ms = t.ElapsedSeconds() * 1e3;
  return leg;
}

int main_impl(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  BenchJsonWriter json("oracle_calls");

  std::printf("GCWA formula inference via the counting algorithm%s\n",
              args.use_sessions ? "" : " [--no-sessions]");
  std::printf("%8s %14s %18s %12s %10s\n", "|P|=n", "oracle calls",
              "ceil(lg(n+1))+1", "free atoms", "time[s]");
  SemanticsOptions opts;
  opts.use_sessions = args.use_sessions;
  opts.num_threads = args.threads;
  for (int n : {4, 8, 16, 32, 64}) {
    int64_t calls = 0;
    int free_atoms = 0;
    double secs = 0;
    double gen_secs = 0;
    bool timed_out = false;
    MinimalStats row_stats;
    oracle::SessionStats row_sess;
    const int reps = 3;
    for (int i = 0; i < reps; ++i) {
      Timer gen_t;
      Database db = RandomPositiveDdb(
          n, 2 * n, DeriveSeed(args.seed * 7, static_cast<uint64_t>(n) + i));
      gen_secs += gen_t.ElapsedSeconds();
      // Per-instance watchdog (--timeout-ms): cooperative cutoff instead
      // of hanging the sweep; the row records "timeout": true.
      opts.budget = bench::MakeWatchdogBudget(args);
      GcwaSemantics gcwa(db, opts);
      Timer t;
      auto r = gcwa.InfersFormulaViaCounting(FormulaNode::MakeAtom(0));
      secs += t.ElapsedSeconds();
      row_stats.Add(gcwa.stats());
      row_sess.Add(gcwa.session_stats());
      if (r.ok()) {
        calls += r->oracle_calls;
        free_atoms += r->free_count;
      }
      if (bench::TimedOut(opts.budget)) {
        timed_out = true;
        break;
      }
    }
    opts.budget = nullptr;
    int bound = static_cast<int>(std::ceil(std::log2(n + 1))) + 1;
    std::printf("%8d %14.1f %18d %12.1f %10.4f%s\n", n,
                static_cast<double>(calls) / reps, bound,
                static_cast<double>(free_atoms) / reps, secs,
                timed_out ? "  TIMEOUT" : "");
    bench::BenchRecord row{StrFormat("gcwa_counting%s",
                                     args.use_sessions ? "" : "_no_sessions"),
                           n, secs * 1e3 / reps, calls / reps, 0, timed_out,
                           {}, {}, {}, {}};
    row.AddPhase("generate", gen_secs * 1e3).AddPhase("query", secs * 1e3);
    row.SetMetrics(row_stats, row_sess);
    json.Add(std::move(row));
  }

  std::printf("\nCCWA variant (P = first half, Q = next quarter, Z = rest)\n");
  std::printf("%8s %14s %18s %10s\n", "n", "oracle calls",
              "ceil(lg(|P|+1))+1", "time[s]");
  for (int n : {8, 16, 32, 64}) {
    int64_t calls = 0;
    double secs = 0;
    double gen_secs = 0;
    bool timed_out = false;
    MinimalStats row_stats;
    oracle::SessionStats row_sess;
    const int reps = 3;
    for (int i = 0; i < reps; ++i) {
      Timer gen_t;
      Database db = RandomPositiveDdb(
          n, 2 * n, DeriveSeed(args.seed * 13, static_cast<uint64_t>(n) + i));
      gen_secs += gen_t.ElapsedSeconds();
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
      opts.budget = bench::MakeWatchdogBudget(args);
      CcwaSemantics ccwa(db, p, opts);
      Timer t;
      auto r = ccwa.InfersFormulaViaCounting(FormulaNode::MakeAtom(0));
      secs += t.ElapsedSeconds();
      row_stats.Add(ccwa.stats());
      row_sess.Add(ccwa.session_stats());
      if (r.ok()) calls += r->oracle_calls;
      if (bench::TimedOut(opts.budget)) {
        timed_out = true;
        break;
      }
    }
    opts.budget = nullptr;
    int bound = static_cast<int>(std::ceil(std::log2(n / 2 + 1))) + 1;
    std::printf("%8d %14.1f %18d %10.4f%s\n", n,
                static_cast<double>(calls) / reps, bound, secs,
                timed_out ? "  TIMEOUT" : "");
    bench::BenchRecord row{StrFormat("ccwa_counting%s",
                                     args.use_sessions ? "" : "_no_sessions"),
                           n, secs * 1e3 / reps, calls / reps, 0, timed_out,
                           {}, {}, {}, {}};
    row.AddPhase("generate", gen_secs * 1e3).AddPhase("query", secs * 1e3);
    row.SetMetrics(row_stats, row_sess);
    json.Add(std::move(row));
  }
  std::printf(
      "\nExpected shape: the oracle-call column grows by about +1 per "
      "doubling of n — the O(log n) bound.\n");

  std::printf("\nOracle-session A/B (GCWA counting + negation set, EGCWA "
              "enumeration x3 + negative clauses)\n");
  std::printf("%8s %12s %12s %10s %12s %12s %12s %8s\n", "n", "fresh[ms]",
              "session[ms]", "speedup", "oracle =?", "sat fresh",
              "sat sess", "hits");
  bool all_same_oracle = true;
  for (int n : {8, 12, 16, 20, 24}) {
    Database db = RandomPositiveDdb(
        n, 2 * n, DeriveSeed(args.seed * 31, static_cast<uint64_t>(n)));
    auto fresh_watchdog = bench::MakeWatchdogBudget(args);
    auto sess_watchdog = bench::MakeWatchdogBudget(args);
    Leg fresh = RunFamily(db, /*use_sessions=*/false, args.threads,
                          fresh_watchdog);
    Leg sess = RunFamily(db, /*use_sessions=*/true, args.threads,
                         sess_watchdog);
    const bool fresh_to = bench::TimedOut(fresh_watchdog);
    const bool sess_to = bench::TimedOut(sess_watchdog);
    const bool same_oracle = fresh.oracle_calls == sess.oracle_calls;
    all_same_oracle = all_same_oracle && same_oracle;
    std::printf("%8d %12.2f %12.2f %9.2fx %12s %12lld %12lld %8lld\n", n,
                fresh.ms, sess.ms, fresh.ms / (sess.ms > 0 ? sess.ms : 1e-9),
                same_oracle ? "yes" : "NO!",
                static_cast<long long>(fresh.sat_calls),
                static_cast<long long>(sess.sat_calls),
                static_cast<long long>(sess.cache_hits));
    bench::BenchRecord fresh_row{"ab_fresh", n, fresh.ms, fresh.oracle_calls,
                                 fresh.cache_hits, fresh_to, {}, {}, {}, {}};
    fresh_row.AddPhase("workload", fresh.ms);
    fresh_row.SetMetrics(fresh.stats, fresh.sess);
    json.Add(std::move(fresh_row));
    bench::BenchRecord sess_row{"ab_session", n, sess.ms, sess.oracle_calls,
                                sess.cache_hits, sess_to, {}, {}, {}, {}};
    sess_row.AddPhase("workload", sess.ms);
    sess_row.SetMetrics(sess.stats, sess.sess);
    json.Add(std::move(sess_row));
  }
  std::printf(
      "\nExpected shape: identical oracle-call counts in both columns — the "
      "session only removes rebuild/replay work (sat calls drop, hits "
      "climb), never a semantic oracle invocation.\n");
  json.Write();
  if (!all_same_oracle) {
    std::fprintf(stderr,
                 "bench_oracle_calls: the A/B oracle-call counts differ "
                 "between modes\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dd

int main(int argc, char** argv) { return dd::main_impl(argc, argv); }
