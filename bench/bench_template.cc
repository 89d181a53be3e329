// Template-answering A/B (docs/TEMPLATES.md): one first-order template,
// three evaluation strategies over the same grounded database:
//
//   batched   tmpl::AnswerTemplate — every instantiation compiled into ONE
//             AnswerBatch call, so the whole set shares a single database
//             fingerprint, group model bank and answer cache;
//   session   tmpl naive mode — the sequential single-query entry points
//             on one shared Reasoner (engine-level state like the GCWA
//             augmentation set is still amortized across queries, banks
//             and the answer cache are not);
//   isolated  true per-instantiation evaluation — a fresh Reasoner per
//             substitution, the cost N independent one-query runs (one
//             ddquery invocation per ground query) would pay.
//
// The instance family is a two-color propagation ring: m ring nodes with
// two color-SWAPPING edges (the swap rules merge the r- and g-SCCs, so
// the program is NOT head-cycle-free and per-query fast paths cannot
// shortcut the minimal-model work), plus a j-node ring seeded with a
// forced fact (its nodes are skeptically colored — the non-trivial yes
// answers). Bottom-up grounding yields 2m + j candidate substitutions for
// color(X,C) and exactly TWO intended models under GCWA and EGCWA — the
// regime where one shared model bank amortizes everything.
//
// The built-in audit asserts, per row: (a) all three legs return the
// identical yes-substitution set with no unknowns, (b) batched beats
// isolated by >= 5x at >= 64 instantiations (the acceptance bar for the
// grounder-to-batch pipeline), (c) the batched leg actually built a
// complete bank. A violation exits nonzero.
//
// Flags: --seed=N (accepted for driver uniformity; the family is
// deterministic) --threads=N --timeout-ms=N (cooperative per-leg cutoff;
// cut rows are written with "timeout": true and skip the speedup audit).
// Results land in BENCH_template.json (schema 2) for
// scripts/run_experiments.sh.
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/reasoner.h"
#include "ground/grounder.h"
#include "ground/join.h"
#include "ground/parser.h"
#include "tmpl/answer.h"
#include "tmpl/enumerate.h"
#include "tmpl/template.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace dd {
namespace {

using bench::BenchArgs;
using bench::BenchJsonWriter;
using bench::BenchRecord;

/// Ring sizes per row: 2m + j candidate substitutions.
struct SizeCfg {
  int m;  ///< swap-ring nodes (choice propagates, 2 intended models)
  int j;  ///< forced-ring nodes (skeptical yes answers)
};

const SizeCfg kSizes[] = {{28, 8}, {64, 16}, {116, 24}};

const SemanticsKind kKinds[] = {SemanticsKind::kGcwa, SemanticsKind::kEgcwa};

/// The two-ring program (header comment): a swap ring whose color choice
/// is genuinely disjunctive and a forced ring pinned to r.
std::string TwoRingProgram(int m, int j) {
  std::string p = "color(x1,r) | color(x1,g).\n";
  for (int i = 1; i < m; ++i) {
    p += StrFormat(i == m / 2 ? "sedge(x%d,x%d).\n" : "edge(x%d,x%d).\n", i,
                   i + 1);
  }
  p += StrFormat("sedge(x%d,x1).\n", m);
  p += "color(y1,r).\n";
  for (int i = 1; i < j; ++i) p += StrFormat("edge(y%d,y%d).\n", i, i + 1);
  p += StrFormat("edge(y%d,y1).\n", j);
  p += "color(Y,C) :- edge(X,Y), color(X,C).\n";
  p += "color(Y,r) :- sedge(X,Y), color(X,g).\n";
  p += "color(Y,g) :- sedge(X,Y), color(X,r).\n";
  p += ":- color(X,r), color(X,g).\n";
  return p;
}

int g_audit_failures = 0;

void Audit(bool ok, const char* what, const char* kind, const char* mode,
           int n) {
  if (!ok) {
    ++g_audit_failures;
    std::fprintf(stderr, "AUDIT FAILURE [%s %s n=%d]: %s\n", kind, mode, n,
                 what);
  }
}

using BindingSet = std::set<std::vector<std::string>>;

BindingSet ToSet(const std::vector<std::vector<std::string>>& rows) {
  return BindingSet(rows.begin(), rows.end());
}

}  // namespace

int Main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  BenchJsonWriter out("template");
  std::printf(
      "Template answering: batched (shared bank) vs session vs isolated "
      "(threads=%d)\n"
      "%-6s %-5s %5s | %9s %9s %9s %9s | %7s %7s\n",
      args.threads, "sem", "mode", "cand", "ground ms", "batch ms", "sess ms",
      "iso ms", "iso x", "sess x");

  for (const SizeCfg& size : kSizes) {
    // Ground once per size; the phase is charged to every row of the size
    // (all legs consume the same propositional database).
    Timer ground_timer;
    Result<ground::FoProgram> fo =
        ground::ParseProgram(TwoRingProgram(size.m, size.j));
    if (!fo.ok()) {
      std::fprintf(stderr, "parse: %s\n", fo.status().ToString().c_str());
      return 1;
    }
    Result<Database> db = ground::GroundBottomUp(*fo);
    if (!db.ok()) {
      std::fprintf(stderr, "ground: %s\n", db.status().ToString().c_str());
      return 1;
    }
    const double ground_ms = ground_timer.ElapsedSeconds() * 1e3;

    Result<tmpl::Template> t = tmpl::ParseTemplate("color(X,C)");
    if (!t.ok()) {
      std::fprintf(stderr, "template: %s\n", t.status().ToString().c_str());
      return 1;
    }

    for (SemanticsKind kind : kKinds) {
      const char* kind_name = SemanticsKindName(kind);
      for (batch::BatchMode mode :
           {batch::BatchMode::kSkeptical, batch::BatchMode::kBrave}) {
        const char* mode_name =
            mode == batch::BatchMode::kBrave ? "brave" : "skep";
        bool timeout = false;

        // Batched leg: one AnswerTemplate call.
        tmpl::TemplateOptions topts;
        topts.batch.num_threads = args.threads;
        if (args.timeout_ms > 0) topts.batch.deadline_ms = args.timeout_ms;
        Timer batch_timer;
        Reasoner batched_r(*db);
        Result<tmpl::TemplateAnswer> batched =
            tmpl::AnswerTemplate(&batched_r, kind, *t, mode, topts);
        const double batch_ms = batch_timer.ElapsedSeconds() * 1e3;
        if (!batched.ok()) {
          Audit(false, batched.status().ToString().c_str(), kind_name,
                mode_name, 0);
          continue;
        }
        const int cand = static_cast<int>(batched->candidates);
        timeout = timeout || !batched->unknown.empty();

        // Session leg: tmpl naive mode (sequential entry points, one
        // shared Reasoner).
        tmpl::TemplateOptions nopts = topts;
        nopts.naive = true;
        Timer session_timer;
        Reasoner session_r(*db);
        Result<tmpl::TemplateAnswer> session =
            tmpl::AnswerTemplate(&session_r, kind, *t, mode, nopts);
        const double session_ms = session_timer.ElapsedSeconds() * 1e3;
        if (!session.ok()) {
          Audit(false, session.status().ToString().c_str(), kind_name,
                mode_name, cand);
          continue;
        }
        timeout = timeout || !session->unknown.empty();

        // Isolated leg: a fresh Reasoner per substitution — zero shared
        // state, the true per-instantiation baseline.
        Result<std::vector<std::vector<std::string>>> bindings =
            tmpl::EnumerateBindings(*t, ground::IndexDatabase(*db), {});
        if (!bindings.ok()) {
          Audit(false, bindings.status().ToString().c_str(), kind_name,
                mode_name, cand);
          continue;
        }
        BindingSet isolated_yes;
        bool isolated_error = false;
        Timer isolated_timer;
        for (const std::vector<std::string>& b : *bindings) {
          if (args.timeout_ms > 0 &&
              isolated_timer.ElapsedSeconds() * 1e3 > args.timeout_ms) {
            timeout = true;
            break;
          }
          Reasoner iso(*db);
          batch::BatchQuery q = tmpl::InstantiateQuery(*t, b, mode);
          Result<bool> v =
              mode == batch::BatchMode::kBrave
                  ? [&]() -> Result<bool> {
                      Result<Trilean> c = iso.InfersCredulously(kind, q.text);
                      if (!c.ok()) return c.status();
                      return *c == Trilean::kYes;
                    }()
              : q.is_literal ? iso.InfersLiteral(kind, q.text)
                             : iso.InfersFormula(kind, q.text);
          if (!v.ok()) {
            Audit(false, v.status().ToString().c_str(), kind_name, mode_name,
                  cand);
            isolated_error = true;
            break;
          }
          if (*v) isolated_yes.insert(b);
        }
        const double isolated_ms = isolated_timer.ElapsedSeconds() * 1e3;
        if (isolated_error) continue;

        // Audits: identical answer-substitution sets across all three
        // legs, a complete shared bank, and the 5x acceptance bar.
        if (!timeout) {
          Audit(ToSet(batched->yes) == ToSet(session->yes),
                "batched/session yes-set mismatch", kind_name, mode_name,
                cand);
          Audit(ToSet(batched->yes) == isolated_yes,
                "batched/isolated yes-set mismatch", kind_name, mode_name,
                cand);
          Audit(batched->batch_stats.bank_models > 0,
                "batched leg did not build a model bank", kind_name,
                mode_name, cand);
          if (cand >= 64) {
            Audit(isolated_ms >= 5.0 * batch_ms,
                  "batched speedup over isolated below 5x", kind_name,
                  mode_name, cand);
          }
        }

        const double iso_x = batch_ms > 0 ? isolated_ms / batch_ms : 0.0;
        const double sess_x = batch_ms > 0 ? session_ms / batch_ms : 0.0;
        std::printf(
            "%-6s %-5s %5d | %9.2f %9.2f %9.2f %9.2f | %6.1fx %6.1fx%s\n",
            kind_name, mode_name, cand, ground_ms, batch_ms, session_ms,
            isolated_ms, iso_x, sess_x, timeout ? "  (timeout)" : "");

        BenchRecord rec;
        rec.name = StrFormat("%s/template/%s", kind_name, mode_name);
        rec.n = cand;
        rec.wall_ms = batch_ms;
        rec.cache_hits = batched->batch_stats.cache_hits;
        rec.timeout = timeout;
        rec.AddPhase("ground", ground_ms)
            .AddPhase("batched", batch_ms)
            .AddPhase("session", session_ms)
            .AddPhase("isolated", isolated_ms);
        obs::MetricsRegistry reg;
        tmpl::Publish(batched->stats, &reg);
        rec.metrics = reg.Snapshot();
        out.Add(std::move(rec));
      }
    }
  }

  if (!out.Write()) {
    std::fprintf(stderr, "cannot write BENCH_template.json\n");
    return 1;
  }
  if (g_audit_failures > 0) {
    std::fprintf(stderr, "%d audit failure(s)\n", g_audit_failures);
    return 1;
  }
  std::printf(
      "audit: batched == session == isolated answer sets, shared bank "
      "built, >=5x over isolated at >=64 instantiations\n");
  return 0;
}

}  // namespace dd

int main(int argc, char** argv) { return dd::Main(argc, argv); }
