// ddquery: an interactive / scriptable query shell over the library.
//
//   ddquery <program.ddb>          load a database and read commands from
//                                  stdin (or pipe a script in). First-order
//                                  programs (any rule with a variable) are
//                                  auto-detected and grounded on load
//                                  (ground/grounder.h); --first-order
//                                  forces the grounding path
//   ddquery --batch=FILE <prog>    batched mode: FILE holds one query per
//                                  line ("lit <SEM> <literal>",
//                                  "infer <SEM> <formula>",
//                                  "brave <SEM> <formula>",
//                                  "answers <SEM> <template>" or
//                                  "banswers <SEM> <template>"; blank lines
//                                  and # comments are skipped); answers
//                                  print in input order (template lines as
//                                  multi-line answer blocks), identical
//                                  for every --threads value
//   ddquery --serve <prog>         serving mode (docs/SERVING.md): a
//                                  line protocol on stdin/stdout over a
//                                  long-lived QueryServer — answer cache,
//                                  budget-escalation retry ladder,
//                                  admission control, hot reload
//   ddquery                        start with an empty database
//
// Commands:
//   load <file>                    replace the database from a file (first-
//                                  order programs ground automatically)
//   loadg <file>                   load a first-order program and ground it
//                                  (forced, even for variable-free text)
//   add <clause.>                  append one clause (same syntax as files)
//   show                           print the database
//   strata                         print the stratification (if any)
//   models <SEM> [cap]             list the intended models under SEM
//   infer <SEM> <formula>          skeptical formula inference
//   brave <SEM> <formula>          credulous inference (some model)
//   why <SEM> <formula>            verdict + counter-model when it fails
//   lit <SEM> <literal>            skeptical literal inference
//   answers <SEM> <template>       skeptical template answers: the variable
//                                  substitutions making the template true
//                                  in every intended model (docs/TEMPLATES.md)
//   banswers <SEM> <template>      brave template answers (some model)
//   exists <SEM>                   model existence
//   partition p=a,b q=c rest=z     set the CCWA/ECWA partition
//   stats                          cumulative oracle counters
//   help | quit
//
// Serve-mode protocol (one request line -> one response line):
//   QUERY <SEM> <lit|infer> <q>    -> ANSWER yes|no|unknown rungs=N cached=B
//                                     | UNAVAILABLE <why> | ERR <why>
//   BRAVE <SEM> <formula>          -> same responses, credulous inference
//   ANSWERS <SEM> <skeptical|brave> <template>
//                                  -> ANSWERS yes=N unknown=M candidates=K
//                                     rungs=R [vacuous=1] [X=n1,C=r ...]
//                                     | UNAVAILABLE <why> | ERR <why>
//   RELOAD <file>                  -> RELOADED fp=<hex> <summary>
//   SAVE                           -> SAVED <path> entries=N
//   STATS                          -> STATS <dd.serve.* JSON>
//   QUIT                           -> BYE
// EOF (even mid-line) is a clean shutdown; SIGPIPE is ignored, a closed
// peer ends the loop instead of killing the process.
//
// SEM is one of: cwa gcwa egcwa ccwa ecwa ddr pws perf icwa dsm pdsm
// (plus the paper's aliases circ = ecwa, wgcwa = ddr, pms = pws).
//
// Budget options (apply to every query command; in --batch mode they bound
// the whole batch as one shared budget; in --serve mode they set the retry
// ladder's per-request ceilings):
//   --timeout-ms=N        per-query wall-clock deadline
//   --conflict-budget=N   per-query total CDCL conflict budget
//   --retry-rungs=N       serve mode: ladder attempts per request (def. 3)
//
// Batch options (docs/BATCHING.md):
//   --batch=FILE          evaluate FILE's queries via Reasoner::AnswerBatch
//                         (dedupe, answer cache, slice-grouped model banks)
//   --threads=N           worker threads for parallel group evaluation
//
// First-order / template options (docs/TEMPLATES.md):
//   --first-order         force the grounding path for the program file
//                         (auto-detection only grounds when a rule has a
//                         variable, so variable-free FO text keeps the
//                         propositional parser's clause multiset)
//   --ground-max-clauses=N  grounding clause cap (exit 1 beyond; default
//                         1000000)
//   --ground-relevance    atom-level relevance filter during grounding
//                         (GroundOptions::relevance_filter; sound for the
//                         GCWA/EGCWA fixpoint family, auto-disabled under
//                         negation)
//   --naive-templates     A/B baseline: answer template lines through the
//                         sequential entry points instead of one batch
//                         (same answers, no shared model banks)
//
// Persistence (docs/SERVING.md):
//   --cache-file=PATH     crash-safe answer-cache snapshot: warm-start from
//                         PATH (stale/corrupt files degrade to a cold
//                         start) and save atomically on exit / SAVE.
//                         Composes with --batch, --serve and the shell.
//
// Observability options (see docs/OBSERVABILITY.md):
//   --trace-json=FILE     write the session's span tree as JSON on exit
//   --metrics             print the metrics-registry snapshot as JSON on
//                         exit (counters under the canonical dd.* names)
//   --certify             certificate-checked mode (docs/ANALYSIS.md):
//                         every HCF fast-path minimality verdict and every
//                         slice/module routing emits a machine-checkable
//                         witness, re-verified by the independent certifier;
//                         the tally prints on exit and any rejection (an
//                         engine/certifier disagreement, i.e. a bug) fails
//                         the run
//
// Exit status (audited; docs/ROBUSTNESS.md §CLI): 0 on success, 1 on a
// load/parse/grounding failure of the initial program (including a blown
// --ground-max-clauses cap) or a --batch file (or an unwritable
// --trace-json / --cache-file, or a rejected --certify certificate), 2 if
// any query degraded — out of budget (deadline, conflicts, oracle calls,
// external kCancelled), a template substitution left kUnknown, or in serve
// mode answered kUnknown after the full ladder or shed with kUnavailable.
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "batch/queries_file.h"
#include "core/oracle_stats.h"
#include "core/reasoner.h"
#include "ground/grounder.h"
#include "ground/parser.h"
#include "logic/printer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "strat/stratifier.h"
#include "tmpl/answer.h"
#include "util/string_util.h"

namespace {

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Loads program text, auto-detecting the language: when the text parses
/// as a first-order program AND some rule carries a variable (or
/// `force_fo` — the --first-order flag / loadg command), it grounds via
/// ground::Ground under `gopts`; otherwise the propositional parser reads
/// it directly. The variable test matters: variable-free FO text is also
/// valid propositional text, and the propositional parser preserves the
/// clause multiset (duplicates and all) where the grounder dedupes — so
/// only programs that NEED grounding take the grounding path.
dd::Result<dd::Database> LoadProgram(const std::string& text, bool force_fo,
                                     const dd::ground::GroundOptions& gopts) {
  auto fo = dd::ground::ParseProgram(text);
  bool is_fo = force_fo;
  if (!is_fo && fo.ok()) {
    for (const auto& r : fo->rules) {
      if (!r.Variables().empty()) {
        is_fo = true;
        break;
      }
    }
  }
  if (!is_fo) return dd::ParseDatabase(text);
  if (!fo.ok()) return fo.status();
  return dd::ground::Ground(*fo, gopts);
}

void PrintHelp() {
  std::printf(
      "commands: load <file> | loadg <file> | add <clause.> | show |\n"
      "          strata | models <sem> [cap] | infer <sem> <formula> |\n"
      "          lit <sem> <literal> | brave <sem> <formula> |\n"
      "          why <sem> <formula> | answers <sem> <template> |\n"
      "          banswers <sem> <template> | exists <sem> |\n"
      "          partition p=a,b q=c rest=z | stats | help | quit\n"
      "semantics: cwa gcwa egcwa ccwa ecwa ddr pws perf icwa dsm pdsm\n"
      "flags: --timeout-ms=N --conflict-budget=N (budgeted queries; exit 2\n"
      "       if any query runs out of budget)\n"
      "       --batch=FILE --threads=N (batched evaluation; one\n"
      "       'lit <sem> <literal>', 'infer <sem> <formula>',\n"
      "       'brave <sem> <formula>', 'answers <sem> <template>' or\n"
      "       'banswers <sem> <template>' per line)\n"
      "       --first-order --ground-max-clauses=N --ground-relevance\n"
      "       --naive-templates (grounding + templates; docs/TEMPLATES.md)\n"
      "       --serve --retry-rungs=N (line-protocol serving mode:\n"
      "       QUERY/ANSWERS/RELOAD/SAVE/STATS/QUIT -- docs/SERVING.md)\n"
      "       --cache-file=PATH (crash-safe answer-cache snapshot)\n"
      "       --trace-json=FILE --metrics (observability exports)\n"
      "       --certify (verify every fast-path answer's certificate;\n"
      "       rejections fail the run)\n");
}

/// Parses "--name=123" / "--name 123" style int64 flags; advances *i when
/// the value is a separate argv entry. Returns false (with a message) on a
/// malformed value.
bool ParseInt64Flag(int argc, char** argv, int* i, const std::string& name,
                    int64_t* out, bool* matched) {
  std::string arg = argv[*i];
  std::string prefix = name + "=";
  std::string value;
  if (arg == name) {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "ddquery: %s needs a value\n", name.c_str());
      return false;
    }
    value = argv[++*i];
  } else if (arg.rfind(prefix, 0) == 0) {
    value = arg.substr(prefix.size());
  } else {
    *matched = false;
    return true;
  }
  *matched = true;
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(value.c_str(), &end, 10);
  if (errno != 0 || end == value.c_str() || *end != '\0' || v < 0) {
    std::fprintf(stderr, "ddquery: bad value for %s: '%s'\n", name.c_str(),
                 value.c_str());
    return false;
  }
  *out = v;
  return true;
}

/// Parses "--name=PATH" / "--name PATH" style string flags.
bool ParseStringFlag(int argc, char** argv, int* i, const std::string& name,
                     std::string* out, bool* matched) {
  std::string arg = argv[*i];
  std::string prefix = name + "=";
  if (arg == name) {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "ddquery: %s needs a value\n", name.c_str());
      return false;
    }
    *out = argv[++*i];
    *matched = true;
  } else if (arg.rfind(prefix, 0) == 0) {
    *out = arg.substr(prefix.size());
    *matched = true;
  } else {
    *matched = false;
    return true;
  }
  if (out->empty()) {
    std::fprintf(stderr, "ddquery: %s needs a value\n", name.c_str());
    return false;
  }
  return true;
}

// Parses "p=a,b" style partition arguments.
bool ParsePartitionArgs(const std::string& rest_of_line, dd::Reasoner* r) {
  std::vector<std::string> p, q, z;
  char rest = 'z';
  std::istringstream in(rest_of_line);
  std::string tok;
  while (in >> tok) {
    auto eq = tok.find('=');
    if (eq == std::string::npos) {
      std::printf("bad partition token '%s'\n", tok.c_str());
      return false;
    }
    std::string key = tok.substr(0, eq);
    std::string val = tok.substr(eq + 1);
    if (key == "rest") {
      if (val.size() != 1) {
        std::printf("rest must be one of p/q/z\n");
        return false;
      }
      rest = val[0];
      continue;
    }
    std::vector<std::string>* side = key == "p"   ? &p
                                     : key == "q" ? &q
                                     : key == "z" ? &z
                                                  : nullptr;
    if (side == nullptr) {
      std::printf("unknown partition part '%s'\n", key.c_str());
      return false;
    }
    for (const auto& name : dd::Split(val, ',')) {
      if (!name.empty()) side->push_back(name);
    }
  }
  dd::Status s = r->SetPartition(p, q, z, rest);
  if (!s.ok()) {
    std::printf("%s\n", s.ToString().c_str());
    return false;
  }
  std::printf("partition set\n");
  return true;
}

/// Wraps an unbudgeted verdict for Verdict below (it is never kUnknown).
dd::Result<dd::Trilean> Definite(const dd::Result<bool>& r) {
  if (!r.ok()) return r.status();
  return dd::TrileanFromBool(*r);
}

/// The printed answer to one ground query ("yes", "no", "unknown (out of
/// budget)" or the error), newline-terminated; kUnknown sets *worst_exit
/// to 2. --batch and the shell print the same strings, so
/// `ddquery --batch=F prog` and `ddquery prog < F` agree line for line.
std::string Verdict(const dd::Result<dd::Trilean>& r, int* worst_exit) {
  if (!r.ok()) return r.status().ToString() + "\n";
  if (*r == dd::Trilean::kUnknown) {
    *worst_exit = 2;
    return "unknown (out of budget)\n";
  }
  return *r == dd::Trilean::kYes ? "yes\n" : "no\n";
}

/// Answers one template request (a --batch line or a shell verb) as its
/// tmpl::FormatAnswer block, under the session's batch options. Template
/// stats accumulate into `stats` for the --metrics epilogue; a residual
/// kUnknown substitution sets *worst_exit to 2.
dd::Result<std::string> AnswerTemplate(dd::Reasoner* reasoner,
                                       const dd::batch::Request& req,
                                       const dd::batch::BatchOptions& bo,
                                       bool naive,
                                       dd::tmpl::TemplateStats* stats,
                                       int* worst_exit) {
  dd::tmpl::TemplateOptions topts;
  topts.naive = naive;
  topts.batch = bo;
  auto a = dd::tmpl::AnswerTemplateText(
      reasoner, req.kind, req.query.text,
      req.brave ? dd::batch::BatchMode::kBrave
                : dd::batch::BatchMode::kSkeptical,
      topts);
  if (!a.ok()) return a.status();
  stats->Add(a->stats);
  if (!a->unknown.empty()) *worst_exit = 2;
  return dd::tmpl::FormatAnswer(*a);
}

/// Runs --batch mode through the hardened .queries parser
/// (batch/queries_file.h): one Reasoner::AnswerBatch (or, for `brave`
/// lines, AnswerBatchCredulous) call per (semantics, mode) group, plus one
/// AnswerTemplate call per `answers`/`banswers` line (each template fans
/// out into a batch of its own). Output prints in input-line order — one
/// Verdict line per plain query, a FormatAnswer block per template.
/// Returns false on a read/parse failure (exit 1); any kUnknown answer
/// sets *worst_exit to 2.
bool RunBatch(dd::Reasoner* reasoner, const std::string& path,
              const dd::batch::BatchOptions& bo, bool naive_templates,
              dd::tmpl::TemplateStats* tmpl_stats, int* worst_exit) {
  auto text = ReadFile(path);
  if (!text) {
    std::fprintf(stderr, "ddquery: cannot read %s\n", path.c_str());
    return false;
  }
  auto parsed = dd::batch::ParseQueriesFile(*text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "ddquery: %s: %s\n", path.c_str(),
                 parsed.status().ToString().c_str());
    return false;
  }

  std::vector<std::string> outputs(parsed->queries.size());
  for (const auto& g : parsed->groups) {
    auto r = g.brave ? reasoner->AnswerBatchCredulous(g.kind, g.queries, bo)
                     : reasoner->AnswerBatch(g.kind, g.queries, bo);
    if (!r.ok()) {
      std::fprintf(stderr, "ddquery: %s\n", r.status().ToString().c_str());
      return false;
    }
    for (size_t k = 0; k < g.slots.size(); ++k) {
      outputs[g.slots[k]] = Verdict(r->answers[k], worst_exit);
    }
  }
  for (size_t i = 0; i < parsed->queries.size(); ++i) {
    const dd::batch::ParsedQuery& q = parsed->queries[i];
    if (!q.is_template) continue;
    auto block = AnswerTemplate(reasoner, q, bo, naive_templates, tmpl_stats,
                                worst_exit);
    if (!block.ok()) {
      std::fprintf(stderr, "ddquery: %s line %d: %s\n", path.c_str(), q.line,
                   block.status().ToString().c_str());
      return false;
    }
    outputs[i] = std::move(*block);
  }
  for (const std::string& out : outputs) {
    std::printf("%s", out.c_str());
  }
  return true;
}

/// Runs --serve mode: the QUERY/RELOAD/SAVE/STATS/QUIT line protocol on
/// stdin/stdout over a serve::QueryServer. I/O robustness contract
/// (docs/SERVING.md): SIGPIPE is ignored and a failed write (peer closed
/// the pipe) ends the loop; EOF — even mid-line — is a clean shutdown.
/// Returns the audited exit code: 1 only for an unwritable --trace-json
/// file, else QueryServer::ExitCode() (0 clean, 2 degraded).
int RunServe(dd::Database db, const dd::serve::ServeOptions& sopts,
             const std::string& trace_path, bool print_metrics) {
  std::signal(SIGPIPE, SIG_IGN);
  dd::serve::QueryServer server(std::move(db), sopts);
  bool io_ok =
      std::printf("READY fp=%016llx %s\n",
                  static_cast<unsigned long long>(server.fingerprint()),
                  server.DbSummary().c_str()) >= 0 &&
      std::fflush(stdout) == 0;
  std::string line;
  bool quit = false;
  while (io_ok && !quit && std::getline(std::cin, line)) {
    std::string resp = server.HandleLine(line, &quit);
    if (resp.empty()) continue;
    io_ok = std::printf("%s\n", resp.c_str()) >= 0 &&
            std::fflush(stdout) == 0;
  }
  server.Shutdown();
  if (!sopts.cache_path.empty()) {
    // Best-effort warm exit; an explicit SAVE already reported its Status.
    dd::Status s = server.SaveCache();
    if (!s.ok()) {
      std::fprintf(stderr, "ddquery: cache save failed: %s\n",
                   s.ToString().c_str());
    }
  }
  if (sopts.trace != nullptr) {
    std::ofstream out(trace_path);
    if (!out) {
      std::fprintf(stderr, "ddquery: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    sopts.trace->WriteJson(out);
    out << "\n";
  }
  if (print_metrics) {
    dd::obs::MetricsRegistry& reg = dd::obs::MetricsRegistry::Global();
    dd::serve::Publish(server.stats(), &reg);
    dd::obs::WriteJson(std::cout, reg.Snapshot());
    std::cout << "\n";
  }
  return server.ExitCode();
}

}  // namespace

int main(int argc, char** argv) {
  dd::QueryOptions query_opts;
  std::string trace_path;
  std::string batch_path;
  std::string cache_path;
  int64_t num_threads = 1;
  int64_t retry_rungs = 3;
  bool print_metrics = false;
  bool certify = false;
  bool serve = false;
  bool first_order = false;
  bool naive_templates = false;
  dd::ground::GroundOptions ground_opts;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    bool matched = false;
    if (!ParseInt64Flag(argc, argv, &i, "--timeout-ms",
                        &query_opts.deadline_ms, &matched)) {
      return 1;
    }
    if (matched) continue;
    if (!ParseInt64Flag(argc, argv, &i, "--conflict-budget",
                        &query_opts.conflict_budget, &matched)) {
      return 1;
    }
    if (matched) continue;
    if (!ParseInt64Flag(argc, argv, &i, "--threads", &num_threads, &matched)) {
      return 1;
    }
    if (matched) continue;
    if (!ParseInt64Flag(argc, argv, &i, "--retry-rungs", &retry_rungs,
                        &matched)) {
      return 1;
    }
    if (matched) continue;
    if (!ParseInt64Flag(argc, argv, &i, "--ground-max-clauses",
                        &ground_opts.max_clauses, &matched)) {
      return 1;
    }
    if (matched) continue;
    if (!ParseStringFlag(argc, argv, &i, "--batch", &batch_path, &matched)) {
      return 1;
    }
    if (matched) continue;
    if (!ParseStringFlag(argc, argv, &i, "--cache-file", &cache_path,
                         &matched)) {
      return 1;
    }
    if (matched) continue;
    if (!ParseStringFlag(argc, argv, &i, "--trace-json", &trace_path,
                         &matched)) {
      return 1;
    }
    if (matched) continue;
    std::string arg = argv[i];
    if (arg == "--metrics") {
      print_metrics = true;
      continue;
    }
    if (arg == "--certify") {
      certify = true;
      continue;
    }
    if (arg == "--serve") {
      serve = true;
      continue;
    }
    if (arg == "--first-order") {
      first_order = true;
      continue;
    }
    if (arg == "--ground-relevance") {
      ground_opts.relevance_filter = true;
      continue;
    }
    if (arg == "--naive-templates") {
      naive_templates = true;
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      PrintHelp();
      return 0;
    }
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "ddquery: unknown flag '%s' (try --help)\n",
                   arg.c_str());
      return 1;
    }
    positional.push_back(argv[i]);
  }

  // One span tree for the whole session: every query command records one
  // "reasoner"-layer span (in serve mode, a "serve"-layer request span
  // with the reasoner spans nested below).
  dd::obs::TraceContext trace;
  dd::obs::TraceContext* trace_ptr = trace_path.empty() ? nullptr : &trace;

  // Parse the program file exactly once, BEFORE constructing the reasoner,
  // so a single instance is configured (trace, certification) one time —
  // no throwaway empty reasoner, no double setup.
  dd::Database initial_db;
  if (!positional.empty()) {
    auto text = ReadFile(positional[0]);
    if (!text) {
      std::fprintf(stderr, "cannot read %s\n", positional[0].c_str());
      return 1;
    }
    auto db = LoadProgram(*text, first_order, ground_opts);
    if (!db.ok()) {
      std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
      return 1;
    }
    initial_db = std::move(db).value();
  }

  if (serve) {
    dd::serve::ServeOptions sopts;
    sopts.cache_path = cache_path;
    sopts.num_threads = static_cast<int>(num_threads);
    sopts.trace = trace_ptr;
    sopts.retry.max_rungs = static_cast<int>(retry_rungs);
    // The one-shot budget flags become the ladder's per-request ceilings
    // (rung 0 stays small; escalation is clamped at the ceiling).
    if (query_opts.conflict_budget >= 0) {
      sopts.retry.conflict_ceiling = query_opts.conflict_budget;
    }
    if (query_opts.deadline_ms >= 0) {
      sopts.retry.initial_deadline_ms = query_opts.deadline_ms;
      sopts.retry.deadline_ceiling_ms = query_opts.deadline_ms;
    }
    return RunServe(std::move(initial_db), sopts, trace_path, print_metrics);
  }

  dd::Reasoner reasoner{std::move(initial_db)};
  reasoner.set_trace(trace_ptr);
  reasoner.EnableCertification(certify);
  if (!positional.empty() && batch_path.empty()) {
    std::printf("loaded %s (%s)\n", positional[0].c_str(),
                dd::DatabaseSummary(reasoner.db()).c_str());
  }

  // --cache-file outside serve mode: one external cache shared by --batch
  // and the shell's lit/infer commands, warm-started here and snapshotted
  // at exit. Stale and corrupt files degrade to a cold start (the latter
  // with a notice), per the snapshot contract.
  std::unique_ptr<dd::batch::AnswerCache> answer_cache;
  if (!cache_path.empty()) {
    answer_cache = std::make_unique<dd::batch::AnswerCache>();
    dd::serve::SnapshotLoad outcome = dd::serve::SnapshotLoad::kMissing;
    dd::serve::LoadAnswerCache(cache_path, reasoner.fingerprint(),
                               answer_cache.get(), &outcome);
    if (outcome == dd::serve::SnapshotLoad::kCorrupt) {
      std::fprintf(stderr,
                   "ddquery: cache file %s failed integrity checks; "
                   "starting cold\n",
                   cache_path.c_str());
    }
  }

  // The one set of batch options every batched path shares: --batch
  // groups and templates, the shell's template verbs and, under
  // --cache-file, its lit/infer verbs.
  dd::batch::BatchOptions batch_opts;
  batch_opts.num_threads = static_cast<int>(num_threads);
  batch_opts.cache = answer_cache.get();
  batch_opts.deadline_ms = query_opts.deadline_ms;
  batch_opts.conflict_budget = query_opts.conflict_budget;
  batch_opts.oracle_call_budget = query_opts.oracle_call_budget;
  batch_opts.cancel = query_opts.cancel;

  // Set to 2 when any budgeted query exhausts its budget; distinct from the
  // load/parse failure exit (1) above.
  int worst_exit = 0;
  dd::tmpl::TemplateStats tmpl_stats;
  if (!batch_path.empty() &&
      !RunBatch(&reasoner, batch_path, batch_opts, naive_templates,
                &tmpl_stats, &worst_exit)) {
    return 1;
  }
  std::string line;
  const bool interactive = batch_path.empty() && isatty(fileno(stdin)) != 0;
  // Batch mode replaces the shell; the observability epilogue below still
  // runs, so --metrics / --trace-json compose with --batch.
  while (batch_path.empty()) {
    if (interactive) {
      std::printf("ddq> ");
      std::fflush(stdout);
    }
    if (!std::getline(std::cin, line)) break;
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd)) continue;
    if (cmd[0] == '#') continue;  // comment lines, as in --batch files
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      PrintHelp();
      continue;
    }
    if (cmd == "show") {
      std::printf("%s", reasoner.db().ToString().c_str());
      continue;
    }
    if (cmd == "stats") {
      // The combined rendering: oracle counters | dispatch downgrades |
      // session reuse, reconstructed from a registry snapshot.
      const dd::oracle::SessionStats sess = reasoner.TotalSessionStats();
      std::printf("%s\n", dd::FormatStats(reasoner.TotalStats(),
                                          reasoner.dispatch_stats(), sess)
                              .c_str());
      if (reasoner.certification_enabled()) {
        std::printf("%s\n", reasoner.certification_stats().ToString().c_str());
      }
      continue;
    }
    if (cmd == "load" || cmd == "loadg") {
      std::string path;
      in >> path;
      auto text = ReadFile(path);
      if (!text) {
        std::printf("cannot read %s\n", path.c_str());
        continue;
      }
      // "load" auto-detects first-order text (any rule with a variable)
      // exactly like the program-file argument; "loadg" forces grounding.
      auto db = LoadProgram(*text, first_order || cmd == "loadg",
                            ground_opts);
      if (!db.ok()) {
        std::printf("%s\n", db.status().ToString().c_str());
        continue;
      }
      reasoner = dd::Reasoner(std::move(db).value());
      reasoner.set_trace(trace_ptr);
      reasoner.EnableCertification(certify);
      std::printf("loaded (%s)\n",
                  dd::DatabaseSummary(reasoner.db()).c_str());
      continue;
    }
    if (cmd == "add") {
      std::string clause;
      std::getline(in, clause);
      // Re-parse the whole program plus the new clause (keeps ids stable
      // enough for interactive use and reuses one parser).
      auto r = dd::Reasoner::FromProgram(reasoner.db().ToString() + clause);
      if (!r.ok()) {
        std::printf("%s\n", r.status().ToString().c_str());
        continue;
      }
      reasoner = std::move(r).value();
      reasoner.set_trace(trace_ptr);
      reasoner.EnableCertification(certify);
      std::printf("ok (%s)\n", dd::DatabaseSummary(reasoner.db()).c_str());
      continue;
    }
    if (cmd == "strata") {
      auto s = dd::Stratify(reasoner.db());
      if (!s.ok()) {
        std::printf("%s\n", s.status().ToString().c_str());
      } else {
        std::printf("%s", s->ToString(reasoner.db().vocabulary()).c_str());
      }
      continue;
    }
    if (cmd == "partition") {
      std::string rest;
      std::getline(in, rest);
      ParsePartitionArgs(rest, &reasoner);
      continue;
    }

    // The query verbs share the .queries grammar (batch::ParseRequest).
    if (cmd == "lit" || cmd == "infer" || cmd == "brave" || cmd == "answers" ||
        cmd == "banswers") {
      std::string args;
      std::getline(in, args);
      std::string_view rest = args;
      const std::string_view sem = dd::batch::NextToken(&rest);
      auto req = dd::batch::ParseRequest(cmd, sem, rest);
      if (!req.ok()) {
        std::printf("%s\n", req.status().message().c_str());
        continue;
      }
      const std::string& text = req->query.text;
      if (req->is_template) {
        // The same function and options as --batch template lines, so
        // replaying a .queries file through the shell prints byte-identical
        // blocks.
        auto block = AnswerTemplate(&reasoner, *req, batch_opts,
                                    naive_templates, &tmpl_stats, &worst_exit);
        if (block.ok()) {
          std::printf("%s", block->c_str());
        } else {
          std::printf("%s\n", block.status().ToString().c_str());
          if (block.status().IsBudgetExhaustion()) worst_exit = 2;
        }
        continue;
      }
      dd::Result<dd::Trilean> verdict = dd::Trilean::kUnknown;
      if (req->brave) {
        // Routed through the Reasoner wrapper so the budget flags and the
        // trace apply to credulous queries too.
        verdict = reasoner.InfersCredulously(req->kind, text, query_opts);
      } else if (answer_cache != nullptr) {
        // --cache-file: route through AnswerBatch so the persistent cache
        // applies (a one-query batch answers identically to the plain path
        // — docs/BATCHING.md).
        auto r = reasoner.AnswerBatch(req->kind, {req->query}, batch_opts);
        verdict = r.ok() ? dd::Result<dd::Trilean>(r->answers[0])
                         : dd::Result<dd::Trilean>(r.status());
      } else if (!query_opts.unlimited()) {
        verdict = req->query.is_literal
                      ? reasoner.InfersLiteral(req->kind, text, query_opts)
                      : reasoner.InfersFormula(req->kind, text, query_opts);
      } else {
        verdict = Definite(req->query.is_literal
                               ? reasoner.InfersLiteral(req->kind, text)
                               : reasoner.InfersFormula(req->kind, text));
      }
      std::printf("%s", Verdict(verdict, &worst_exit).c_str());
      continue;
    }

    // Remaining commands start with a semantics name.
    if (cmd == "models" || cmd == "exists" || cmd == "why") {
      std::string sem_name;
      if (!(in >> sem_name)) {
        std::printf("missing semantics name\n");
        continue;
      }
      auto kind = dd::SemanticsKindFromName(sem_name);
      if (!kind) {
        std::printf("unknown semantics '%s'\n", sem_name.c_str());
        continue;
      }
      if (cmd == "models") {
        int64_t cap = 32;
        in >> cap;
        if (!query_opts.unlimited()) {
          auto ans = reasoner.Models(*kind, cap, query_opts);
          if (!ans.ok()) {
            std::printf("%s\n", ans.status().ToString().c_str());
            continue;
          }
          std::printf("%s(%zu models%s)\n",
                      dd::ModelsToString(ans->models,
                                         reasoner.db().vocabulary())
                          .c_str(),
                      ans->models.size(),
                      ans->truncated ? ", truncated: out of budget" : "");
          if (ans->truncated) worst_exit = 2;
          continue;
        }
        auto models = reasoner.Models(*kind, cap);
        if (!models.ok()) {
          std::printf("%s\n", models.status().ToString().c_str());
          continue;
        }
        std::printf("%s(%zu models)\n",
                    dd::ModelsToString(*models,
                                       reasoner.db().vocabulary())
                        .c_str(),
                    models->size());
      } else if (cmd == "exists") {
        std::printf("%s", Verdict(query_opts.unlimited()
                                      ? Definite(reasoner.HasModel(*kind))
                                      : reasoner.HasModel(*kind, query_opts),
                                  &worst_exit)
                              .c_str());
      } else {
        std::string rest;
        std::getline(in, rest);
        auto ce = reasoner.FindCounterexample(*kind, rest, query_opts);
        if (!ce.ok()) {
          std::printf("%s\n", ce.status().ToString().c_str());
          // Budget exhaustion (deadline/conflicts/oracle calls or
          // external kCancelled) keeps the budget exit code.
          if (ce.status().IsBudgetExhaustion()) worst_exit = 2;
        } else if (!ce->has_value()) {
          std::printf("inferred: true in every %s model\n",
                      sem_name.c_str());
        } else {
          std::printf("not inferred: counter-model %s\n",
                      (*ce)->ToString(reasoner.db().vocabulary()).c_str());
        }
      }
      continue;
    }
    std::printf("unknown command '%s' (try 'help')\n", cmd.c_str());
  }

  if (answer_cache != nullptr) {
    dd::Status s = dd::serve::SaveAnswerCache(
        *answer_cache, reasoner.fingerprint(), cache_path);
    if (!s.ok()) {
      std::fprintf(stderr, "ddquery: cannot write %s: %s\n",
                   cache_path.c_str(), s.ToString().c_str());
      if (worst_exit == 0) worst_exit = 1;
    }
  }
  if (trace_ptr != nullptr) {
    std::ofstream out(trace_path);
    if (!out) {
      std::fprintf(stderr, "ddquery: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    trace.WriteJson(out);
    out << "\n";
  }
  if (print_metrics) {
    // Publish once at exit (registry counters are monotonic) and emit the
    // snapshot under the canonical dd.* names.
    dd::obs::MetricsRegistry& reg = dd::obs::MetricsRegistry::Global();
    reasoner.PublishMetrics(&reg);
    dd::tmpl::Publish(tmpl_stats, &reg);
    dd::obs::WriteJson(std::cout, reg.Snapshot());
    std::cout << "\n";
  }
  if (certify) {
    const dd::analysis::CertificationStats& cs =
        reasoner.certification_stats();
    std::printf("%s\n", cs.ToString().c_str());
    if (cs.rejected > 0) {
      for (const std::string& why : reasoner.certification_failures()) {
        std::fprintf(stderr, "ddquery: %s\n", why.c_str());
      }
      if (worst_exit == 0) worst_exit = 1;
    }
  }
  return worst_exit;
}
