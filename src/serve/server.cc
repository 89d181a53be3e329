#include "serve/server.h"

#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "logic/parser.h"
#include "logic/printer.h"
#include "util/string_util.h"

namespace dd {
namespace serve {

namespace {

/// Protocol lines beyond this are refused (the serve-mode analogue of the
/// .queries line cap — docs/SERVING.md §protocol).
constexpr size_t kMaxProtocolLine = 1 << 20;

/// Attribute-sized view of a query (trace attrs should not embed a
/// megabyte formula).
std::string QueryPreview(const std::string& text) {
  constexpr size_t kCap = 120;
  if (text.size() <= kCap) return text;
  return text.substr(0, kCap) + "...";
}

}  // namespace

void Publish(const ServeStats& s, obs::MetricsRegistry* reg) {
  reg->Add("dd.serve.requests", s.requests);
  reg->Add("dd.serve.admitted", s.admitted);
  reg->Add("dd.serve.shed", s.shed);
  reg->Add("dd.serve.queued", s.queued);
  reg->Add("dd.serve.cache_hits", s.cache_hits);
  reg->Add("dd.serve.cache_misses", s.cache_misses);
  reg->Add("dd.serve.brave_requests", s.brave_requests);
  reg->Add("dd.serve.template_requests", s.template_requests);
  reg->Add("dd.serve.bank_reuses", s.bank_reuses);
  reg->Add("dd.serve.rungs", s.rungs);
  reg->Add("dd.serve.escalations", s.escalations);
  reg->Add("dd.serve.retry_successes", s.retry_successes);
  reg->Add("dd.serve.unknowns", s.unknowns);
  reg->Add("dd.serve.errors", s.errors);
  reg->Add("dd.serve.reloads", s.reloads);
  reg->Add("dd.serve.cache_loads", s.cache_loads);
  reg->Add("dd.serve.cache_stale", s.cache_stale);
  reg->Add("dd.serve.cache_load_failures", s.cache_load_failures);
  reg->Add("dd.serve.cache_saves", s.cache_saves);
  reg->Add("dd.serve.cache_save_failures", s.cache_save_failures);
}

std::string ToJson(const ServeStats& s) {
  // Render through the registry serializer: same dd.serve.* names, same
  // sorted-key determinism as ddquery --metrics.
  obs::MetricsRegistry reg;
  Publish(s, &reg);
  return obs::ToJsonString(reg.Snapshot());
}

QueryServer::QueryServer(Database db, ServeOptions opts)
    : opts_(std::move(opts)), gate_(opts_.gate) {
  session_ = MakeSession(std::move(db));
}

std::shared_ptr<QueryServer::Session> QueryServer::MakeSession(Database db) {
  auto session = std::make_shared<Session>(std::move(db), opts_.engine,
                                           opts_.cache_capacity);
  session->fp = session->reasoner.fingerprint();
  if (!opts_.cache_path.empty()) {
    SnapshotLoad outcome = SnapshotLoad::kMissing;
    Status s = LoadAnswerCache(opts_.cache_path, session->fp, &session->cache,
                               &outcome);
    std::lock_guard<std::mutex> lock(stats_mu_);
    switch (outcome) {
      case SnapshotLoad::kLoaded:
        ++stats_.cache_loads;
        break;
      case SnapshotLoad::kStale:
        ++stats_.cache_stale;
        break;
      case SnapshotLoad::kCorrupt:
        // The contract: corruption degrades to a cold start — counted
        // here, surfaced in STATS, never fatal and never a wrong answer.
        ++stats_.cache_load_failures;
        break;
      case SnapshotLoad::kMissing:
        break;
    }
    (void)s;  // classification above carries everything the server needs
  }
  return session;
}

std::shared_ptr<QueryServer::Session> QueryServer::CurrentSession() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return session_;
}

QueryServer::Answer QueryServer::Submit(SemanticsKind kind,
                                        const batch::BatchQuery& query,
                                        batch::BatchMode mode) {
  const bool brave = mode == batch::BatchMode::kBrave;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.requests;
    if (brave) ++stats_.brave_requests;
  }
  Result<RequestGate::Ticket> ticket = gate_.Enter();
  if (!ticket.ok()) {
    Answer a;
    a.status = ticket.status();
    return a;
  }

  obs::ScopedSpan request_span(opts_.trace, "serve_request", "serve");
  request_span.Attr("semantics", SemanticsKindName(kind));
  request_span.Attr("mode", brave ? "brave" : "skeptical");
  request_span.Attr("query", QueryPreview(query.text));

  // In-flight requests pin their session: a concurrent Reload swaps the
  // server's pointer but cannot pull this database out from under us.
  std::shared_ptr<Session> session = CurrentSession();
  std::lock_guard<std::mutex> eval(session->eval_mu);

  bool cache_hit = false;
  int64_t first_rung_misses = 0;
  int64_t bank_reuses = 0;
  int rung_index = 0;
  LadderResult lr = RunLadder(
      opts_.retry, [&](const Budget::Limits& lim, Status* why) -> Trilean {
        obs::ScopedSpan rung_span(opts_.trace, "serve_rung", "serve");
        rung_span.Counter("rung", rung_index);
        rung_span.Counter("conflict_limit", lim.conflict_budget);
        batch::BatchOptions bo;
        bo.num_threads = opts_.num_threads;
        bo.model_bank_cap = opts_.model_bank_cap;
        bo.cache = &session->cache;
        // The session Reasoner's own bank store spans requests AND rungs:
        // a retried query reuses every complete bank an earlier rung (or
        // an earlier request) built instead of re-enumerating it — the
        // ladder never rebuilds a bank it just finished.
        bo.use_bank_store = opts_.bank_store_capacity > 0;
        bo.bank_store_capacity = opts_.bank_store_capacity;
        bo.deadline_ms = lim.deadline_ms;
        bo.conflict_budget = lim.conflict_budget;
        bo.oracle_call_budget = lim.oracle_call_budget;
        bo.trace = opts_.trace;
        auto r = brave
                     ? session->reasoner.AnswerBatchCredulous(kind, {query}, bo)
                     : session->reasoner.AnswerBatch(kind, {query}, bo);
        if (!r.ok()) {
          *why = r.status();
          rung_span.Attr("status", r.status().ToString());
          ++rung_index;
          return Trilean::kUnknown;
        }
        if (rung_index == 0) {
          cache_hit = r->stats.cache_hits > 0;
          first_rung_misses = r->stats.cache_misses;
        }
        bank_reuses += r->stats.bank_store_hits;
        rung_span.Counter("bank_reuses", r->stats.bank_store_hits);
        rung_span.Attr("result", TrileanName(r->answers[0]));
        ++rung_index;
        return r->answers[0];
      });

  Answer a;
  a.verdict = lr.answer;
  a.rungs = lr.rungs;
  a.cache_hit = cache_hit;
  if (lr.answer == Trilean::kUnknown && !lr.exhausted.ok() &&
      !lr.exhausted.IsBudgetExhaustion()) {
    a.status = lr.exhausted;  // hard failure (parse error, precondition)
  }
  request_span.Counter("rungs", lr.rungs);
  request_span.Counter("cache_hit", cache_hit ? 1 : 0);
  request_span.Attr("result", TrileanName(lr.answer));

  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.rungs += lr.rungs;
  stats_.escalations += lr.rungs - 1;
  if (cache_hit) ++stats_.cache_hits;
  stats_.cache_misses += first_rung_misses;
  stats_.bank_reuses += bank_reuses;
  if (!a.status.ok()) {
    ++stats_.errors;
  } else if (lr.answer == Trilean::kUnknown) {
    ++stats_.unknowns;
  } else if (lr.escalated) {
    ++stats_.retry_successes;
  }
  return a;
}

QueryServer::TemplateResult QueryServer::SubmitTemplate(
    SemanticsKind kind, std::string_view template_text,
    batch::BatchMode mode) {
  const bool brave = mode == batch::BatchMode::kBrave;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.requests;
    ++stats_.template_requests;
    if (brave) ++stats_.brave_requests;
  }
  TemplateResult out;
  Result<RequestGate::Ticket> ticket = gate_.Enter();
  if (!ticket.ok()) {
    out.status = ticket.status();
    return out;
  }

  obs::ScopedSpan request_span(opts_.trace, "serve_request", "serve");
  request_span.Attr("semantics", SemanticsKindName(kind));
  request_span.Attr("mode", brave ? "brave" : "skeptical");
  request_span.Attr("template", QueryPreview(std::string(template_text)));

  std::shared_ptr<Session> session = CurrentSession();
  std::lock_guard<std::mutex> eval(session->eval_mu);

  int64_t bank_reuses = 0;
  int64_t first_rung_hits = 0;
  int64_t first_rung_misses = 0;
  int rung_index = 0;
  bool have_answer = false;
  LadderResult lr = RunLadder(
      opts_.retry, [&](const Budget::Limits& lim, Status* why) -> Trilean {
        obs::ScopedSpan rung_span(opts_.trace, "serve_rung", "serve");
        rung_span.Counter("rung", rung_index);
        rung_span.Counter("conflict_limit", lim.conflict_budget);
        tmpl::TemplateOptions topts;
        topts.batch.num_threads = opts_.num_threads;
        topts.batch.model_bank_cap = opts_.model_bank_cap;
        topts.batch.cache = &session->cache;
        topts.batch.use_bank_store = opts_.bank_store_capacity > 0;
        topts.batch.bank_store_capacity = opts_.bank_store_capacity;
        topts.batch.deadline_ms = lim.deadline_ms;
        topts.batch.conflict_budget = lim.conflict_budget;
        topts.batch.oracle_call_budget = lim.oracle_call_budget;
        topts.batch.trace = opts_.trace;
        auto r = tmpl::AnswerTemplateText(&session->reasoner, kind,
                                          template_text, mode, topts);
        if (!r.ok()) {
          *why = r.status();
          rung_span.Attr("status", r.status().ToString());
          ++rung_index;
          return Trilean::kUnknown;
        }
        have_answer = true;
        out.answer = *std::move(r);
        if (rung_index == 0) {
          first_rung_hits = out.answer.batch_stats.cache_hits;
          first_rung_misses = out.answer.batch_stats.cache_misses;
        }
        bank_reuses += out.answer.batch_stats.bank_store_hits;
        rung_span.Counter("bank_reuses", out.answer.batch_stats.bank_store_hits);
        rung_span.Counter("yes", static_cast<int64_t>(out.answer.yes.size()));
        rung_span.Counter("unknown",
                          static_cast<int64_t>(out.answer.unknown.size()));
        ++rung_index;
        // A rung is definite when every substitution answered; residual
        // kUnknown substitutions escalate (the cache carries the definite
        // ones forward, so the next rung only re-evaluates the residue).
        if (!out.answer.unknown.empty()) {
          *why = Status::ResourceExhausted(
              StrFormat("%lld substitutions out of budget",
                        static_cast<long long>(out.answer.unknown.size())));
          return Trilean::kUnknown;
        }
        return Trilean::kYes;
      });

  out.rungs = lr.rungs;
  if (!have_answer) {
    // No rung produced an answer at all: the hard Status (parse error,
    // candidate-cap ResourceExhausted, precondition) is the outcome.
    out.status = !lr.exhausted.ok()
                     ? lr.exhausted
                     : Status::Internal("template ladder produced no answer");
  }
  request_span.Counter("rungs", lr.rungs);
  request_span.Attr("result",
                    !out.status.ok()             ? "error"
                    : out.answer.unknown.empty() ? "complete"
                                                 : "degraded");

  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.rungs += lr.rungs;
  stats_.escalations += lr.rungs - 1;
  stats_.cache_hits += first_rung_hits;
  stats_.cache_misses += first_rung_misses;
  stats_.bank_reuses += bank_reuses;
  if (!out.status.ok()) {
    ++stats_.errors;
  } else if (!out.answer.unknown.empty()) {
    ++stats_.unknowns;
  } else if (lr.escalated) {
    ++stats_.retry_successes;
  }
  return out;
}

Status QueryServer::Reload(Database db) {
  std::shared_ptr<Session> fresh = MakeSession(std::move(db));
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    session_ = std::move(fresh);
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.reloads;
  return Status::OK();
}

Status QueryServer::SaveCache() {
  if (opts_.cache_path.empty()) {
    return Status::FailedPrecondition("no cache file configured");
  }
  std::shared_ptr<Session> session = CurrentSession();
  // Hold the evaluation lock so the snapshot sees a quiescent cache.
  std::lock_guard<std::mutex> eval(session->eval_mu);
  Status s = SaveAnswerCache(session->cache, session->fp, opts_.cache_path);
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (s.ok()) {
    ++stats_.cache_saves;
  } else {
    ++stats_.cache_save_failures;
  }
  return s;
}

void QueryServer::Shutdown() { gate_.Shutdown(); }

uint64_t QueryServer::fingerprint() const { return CurrentSession()->fp; }

std::string QueryServer::DbSummary() const {
  std::shared_ptr<Session> session = CurrentSession();
  std::lock_guard<std::mutex> eval(session->eval_mu);
  return DatabaseSummary(session->reasoner.db());
}

ServeStats QueryServer::stats() const {
  ServeStats s;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s = stats_;
  }
  // Admission counters live in the gate; merging here keeps one source of
  // truth per counter.
  RequestGate::Stats g = gate_.stats();
  s.admitted = g.admitted;
  s.shed = g.shed;
  s.queued = g.queued;
  return s;
}

int QueryServer::ExitCode() const {
  ServeStats s = stats();
  return (s.unknowns > 0 || s.shed > 0) ? 2 : 0;
}

std::string QueryServer::HandleLine(std::string_view line, bool* quit) {
  *quit = false;
  if (line.size() > kMaxProtocolLine) return "ERR line too long";
  // CRLF clients are accepted; the protocol is LF-terminated.
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  std::istringstream in{std::string(line)};
  std::string cmd;
  if (!(in >> cmd) || cmd[0] == '#') return "";

  if (cmd == "QUIT") {
    *quit = true;
    return "BYE";
  }
  if (cmd == "STATS") return "STATS " + ToJson(stats());
  if (cmd == "SAVE") {
    Status s = SaveCache();
    if (!s.ok()) return "ERR " + s.ToString();
    std::shared_ptr<Session> session = CurrentSession();
    std::lock_guard<std::mutex> eval(session->eval_mu);
    return StrFormat("SAVED %s entries=%lld", opts_.cache_path.c_str(),
                     static_cast<long long>(session->cache.size()));
  }
  if (cmd == "RELOAD") {
    std::string path;
    if (!(in >> path)) return "ERR RELOAD needs a file path";
    std::ifstream f(path);
    if (!f) return "ERR cannot read " + path;
    std::ostringstream buf;
    buf << f.rdbuf();
    auto db = ParseDatabase(buf.str());
    if (!db.ok()) return "ERR " + db.status().ToString();
    Status s = Reload(std::move(db).value());
    if (!s.ok()) return "ERR " + s.ToString();
    return StrFormat("RELOADED fp=%016llx %s",
                     static_cast<unsigned long long>(fingerprint()),
                     DbSummary().c_str());
  }
  if (cmd == "QUERY") {
    std::string sem_name;
    std::string mode;
    in >> sem_name >> mode;
    auto kind = SemanticsKindFromName(sem_name);
    const bool is_lit = mode == "lit";
    if (!kind || (!is_lit && mode != "infer")) {
      return "ERR usage: QUERY <semantics> <lit|infer> <query>";
    }
    std::string rest;
    std::getline(in, rest);
    const std::string_view trimmed = Trim(rest);
    if (trimmed.empty()) return "ERR empty query";
    Answer a = Submit(*kind, batch::BatchQuery{std::string(trimmed), is_lit});
    if (a.status.code() == StatusCode::kUnavailable) {
      return "UNAVAILABLE " + a.status.message();
    }
    if (!a.status.ok()) return "ERR " + a.status.ToString();
    return StrFormat("ANSWER %s rungs=%d cached=%d", TrileanName(a.verdict),
                     a.rungs, a.cache_hit ? 1 : 0);
  }
  if (cmd == "ANSWERS") {
    // First-order template answers (docs/TEMPLATES.md), one response line:
    //   ANSWERS <SEM> <skeptical|brave> <template>
    //     -> ANSWERS yes=N unknown=M candidates=K rungs=R [vacuous=1]
    //        [X=n1,C=r X=n2,C=g ...]
    // Yes-tuples print comma-joined and lexicographically sorted; residual
    // kUnknown substitutions are counted (degrading the exit code), not
    // listed.
    std::string sem_name;
    std::string mode_name;
    in >> sem_name >> mode_name;
    auto kind = SemanticsKindFromName(sem_name);
    const bool is_brave = mode_name == "brave";
    if (!kind || (!is_brave && mode_name != "skeptical")) {
      return "ERR usage: ANSWERS <semantics> <skeptical|brave> <template>";
    }
    std::string rest;
    std::getline(in, rest);
    const std::string_view trimmed = Trim(rest);
    if (trimmed.empty()) return "ERR empty template";
    TemplateResult r = SubmitTemplate(
        *kind, trimmed,
        is_brave ? batch::BatchMode::kBrave : batch::BatchMode::kSkeptical);
    if (r.status.code() == StatusCode::kUnavailable) {
      return "UNAVAILABLE " + r.status.message();
    }
    if (!r.status.ok()) return "ERR " + r.status.ToString();
    std::string resp = StrFormat(
        "ANSWERS yes=%lld unknown=%lld candidates=%lld rungs=%d",
        static_cast<long long>(r.answer.yes.size()),
        static_cast<long long>(r.answer.unknown.size()),
        static_cast<long long>(r.answer.candidates), r.rungs);
    if (r.answer.vacuous) resp += " vacuous=1";
    for (const auto& binding : r.answer.yes) {
      resp += " ";
      for (size_t i = 0; i < binding.size(); ++i) {
        if (i) resp += ",";
        resp += r.answer.vars[i] + "=" + binding[i];
      }
    }
    return resp;
  }
  if (cmd == "BRAVE") {
    // Brave/credulous inference, same response shape as QUERY. Formulas
    // only: a literal is its own formula, so no lit|infer discriminator.
    std::string sem_name;
    in >> sem_name;
    auto kind = SemanticsKindFromName(sem_name);
    if (!kind) return "ERR usage: BRAVE <semantics> <formula>";
    std::string rest;
    std::getline(in, rest);
    const std::string_view trimmed = Trim(rest);
    if (trimmed.empty()) return "ERR empty query";
    Answer a = Submit(*kind, batch::BatchQuery{std::string(trimmed), false},
                      batch::BatchMode::kBrave);
    if (a.status.code() == StatusCode::kUnavailable) {
      return "UNAVAILABLE " + a.status.message();
    }
    if (!a.status.ok()) return "ERR " + a.status.ToString();
    return StrFormat("ANSWER %s rungs=%d cached=%d", TrileanName(a.verdict),
                     a.rungs, a.cache_hit ? 1 : 0);
  }
  return "ERR unknown command '" + cmd + "'";
}

}  // namespace serve
}  // namespace dd
