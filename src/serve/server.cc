#include "serve/server.h"

#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "batch/queries_file.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "util/string_util.h"

namespace dd {
namespace serve {

namespace {

/// Attribute-sized view of a query (trace attrs should not embed a
/// megabyte formula).
std::string QueryPreview(std::string_view text) {
  constexpr size_t kCap = 120;
  if (text.size() <= kCap) return std::string(text);
  return std::string(text.substr(0, kCap)) + "...";
}

/// The response to a request that did not answer: shed requests are
/// UNAVAILABLE, everything else is an ERR.
std::string FailureResponse(const Status& s) {
  if (s.code() == StatusCode::kUnavailable) return "UNAVAILABLE " + s.message();
  return "ERR " + s.ToString();
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

class QueryServer::Rung {
 public:
  /// What one request's rungs feed into ServeStats.
  struct Tally {
    int64_t cache_hits = 0;    ///< first rung, under the kind's rule
    int64_t cache_misses = 0;  ///< first rung
    int64_t bank_reuses = 0;   ///< every rung
    bool answered = false;     ///< some rung produced an answer
  };

  Rung(obs::TraceContext* trace, int index, const Budget::Limits& lim,
       Status* why, Tally* tally)
      : span_(trace, "serve_rung", "serve"),
        index_(index),
        why_(why),
        tally_(tally) {
    span_.Counter("rung", index);
    span_.Counter("conflict_limit", lim.conflict_budget);
  }

  obs::ScopedSpan& span() { return span_; }

  /// The attempt failed with `s`: a budget status escalates to the next
  /// rung, a hard error stops the ladder.
  Trilean Fail(Status s) {
    span_.Attr("status", s.ToString());
    return Escalate(std::move(s));
  }
  /// The attempt answered but left work for a larger budget.
  Trilean Escalate(Status why) {
    *why_ = std::move(why);
    return Trilean::kUnknown;
  }
  /// The attempt answered with batch stats `st`. `hits` is the kind's
  /// cache-hit count for the request (counted on the first rung only).
  void Answered(const batch::BatchStats& st, int64_t hits) {
    tally_->answered = true;
    if (index_ == 0) {
      tally_->cache_hits = hits;
      tally_->cache_misses = st.cache_misses;
    }
    tally_->bank_reuses += st.bank_store_hits;
    span_.Counter("bank_reuses", st.bank_store_hits);
  }

 private:
  obs::ScopedSpan span_;
  int index_;
  Status* why_;
  Tally* tally_;
};

QueryServer::Outcome QueryServer::Serve(SemanticsKind kind,
                                        batch::BatchMode mode,
                                        bool is_template,
                                        std::string_view text,
                                        const RungFn& rung_fn) {
  const bool brave = mode == batch::BatchMode::kBrave;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.requests;
    if (is_template) ++stats_.template_requests;
    if (brave) ++stats_.brave_requests;
  }
  Outcome out;
  Result<RequestGate::Ticket> ticket = gate_.Enter();
  if (!ticket.ok()) {
    out.status = ticket.status();
    return out;
  }

  obs::ScopedSpan request_span(opts_.trace, "serve_request", "serve");
  if (request_span) {
    request_span.Attr("semantics", SemanticsKindName(kind));
    request_span.Attr("mode", brave ? "brave" : "skeptical");
    request_span.Attr(is_template ? "template" : "query", QueryPreview(text));
  }

  // In-flight requests pin their session: a concurrent Reload swaps the
  // server's pointer but cannot pull this database out from under us.
  std::shared_ptr<Session> session = CurrentSession();
  std::lock_guard<std::mutex> eval(session->eval_mu);

  batch::BatchOptions bo;
  bo.num_threads = opts_.num_threads;
  bo.model_bank_cap = opts_.model_bank_cap;
  bo.cache = &session->cache;
  // The session Reasoner's own bank store spans requests AND rungs: a
  // retried query reuses every complete bank an earlier rung (or an
  // earlier request) built instead of re-enumerating it — the ladder
  // never rebuilds a bank it just finished.
  bo.use_bank_store = opts_.bank_store_capacity > 0;
  bo.bank_store_capacity = opts_.bank_store_capacity;
  bo.trace = opts_.trace;

  Rung::Tally tally;
  int rung_index = 0;
  const LadderResult lr = RunLadder(
      opts_.retry, [&](const Budget::Limits& lim, Status* why) -> Trilean {
        Rung rung(opts_.trace, rung_index++, lim, why, &tally);
        bo.deadline_ms = lim.deadline_ms;
        bo.conflict_budget = lim.conflict_budget;
        bo.oracle_call_budget = lim.oracle_call_budget;
        return rung_fn(*session, bo, &rung);
      });

  out.ladder = lr;
  out.cache_hit = tally.cache_hits > 0;
  // A ground query fails when its ladder ends on a hard error; a template
  // fails only when no rung answered at all (parse error, candidate cap).
  const bool failed = is_template ? !tally.answered
                                  : lr.answer == Trilean::kUnknown &&
                                        !lr.exhausted.ok() &&
                                        !lr.exhausted.IsBudgetExhaustion();
  if (failed) {
    out.status = !lr.exhausted.ok()
                     ? lr.exhausted
                     : Status::Internal("template ladder produced no answer");
  }
  request_span.Counter("rungs", lr.rungs);
  if (is_template) {
    request_span.Attr("result", !out.status.ok()                ? "error"
                                : lr.answer == Trilean::kUnknown ? "degraded"
                                                                 : "complete");
  } else {
    request_span.Counter("cache_hit", out.cache_hit ? 1 : 0);
    request_span.Attr("result", TrileanName(lr.answer));
  }

  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.rungs += lr.rungs;
  stats_.escalations += lr.rungs - 1;
  stats_.cache_hits += tally.cache_hits;
  stats_.cache_misses += tally.cache_misses;
  stats_.bank_reuses += tally.bank_reuses;
  if (!out.status.ok()) {
    ++stats_.errors;
  } else if (lr.answer == Trilean::kUnknown) {
    ++stats_.unknowns;
  } else if (lr.escalated) {
    ++stats_.retry_successes;
  }
  return out;
}

QueryServer::Answer QueryServer::Submit(SemanticsKind kind,
                                        const batch::BatchQuery& query,
                                        batch::BatchMode mode) {
  Outcome o = Serve(
      kind, mode, /*is_template=*/false, query.text,
      [&query, kind, mode](Session& session, const batch::BatchOptions& bo,
                           Rung* rung) -> Trilean {
        auto r = mode == batch::BatchMode::kBrave
                     ? session.reasoner.AnswerBatchCredulous(kind, {query}, bo)
                     : session.reasoner.AnswerBatch(kind, {query}, bo);
        if (!r.ok()) return rung->Fail(r.status());
        // One hit per request, even when the query split into conjuncts.
        rung->Answered(r->stats, r->stats.cache_hits > 0 ? 1 : 0);
        rung->span().Attr("result", TrileanName(r->answers[0]));
        return r->answers[0];
      });
  Answer a;
  a.verdict = o.ladder.answer;
  a.rungs = o.ladder.rungs;
  a.cache_hit = o.cache_hit;
  a.status = std::move(o.status);
  return a;
}

QueryServer::TemplateResult QueryServer::SubmitTemplate(
    SemanticsKind kind, std::string_view template_text,
    batch::BatchMode mode) {
  TemplateResult out;
  Outcome o = Serve(
      kind, mode, /*is_template=*/true, template_text,
      [&out, kind, mode, template_text](Session& session,
                                        const batch::BatchOptions& bo,
                                        Rung* rung) -> Trilean {
        tmpl::TemplateOptions topts;
        topts.batch = bo;
        auto r = tmpl::AnswerTemplateText(&session.reasoner, kind,
                                          template_text, mode, topts);
        if (!r.ok()) return rung->Fail(r.status());
        out.answer = std::move(*r);
        // Every instantiation's hit counts (ServeStats::cache_hits).
        rung->Answered(out.answer.batch_stats,
                       out.answer.batch_stats.cache_hits);
        rung->span().Counter("yes",
                             static_cast<int64_t>(out.answer.yes.size()));
        rung->span().Counter("unknown",
                             static_cast<int64_t>(out.answer.unknown.size()));
        // A rung is definite when every substitution answered; residual
        // kUnknown substitutions escalate (the cache carries the definite
        // ones forward, so the next rung only re-evaluates the residue).
        if (!out.answer.unknown.empty()) {
          return rung->Escalate(Status::ResourceExhausted(
              StrFormat("%lld substitutions out of budget",
                        static_cast<long long>(out.answer.unknown.size()))));
        }
        return Trilean::kYes;
      });
  out.rungs = o.ladder.rungs;
  out.status = std::move(o.status);
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
  if (line.size() > batch::kMaxQueryLine) return "ERR line too long";
  // CRLF clients are accepted; the protocol is LF-terminated.
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  std::string_view rest = line;
  const std::string_view cmd = batch::NextToken(&rest);
  if (cmd.empty() || cmd[0] == '#') return "";

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
    const std::string path(batch::NextToken(&rest));
    if (path.empty()) return "ERR RELOAD needs a file path";
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

  // The query verbs map onto the .queries grammar (batch::ParseRequest):
  //   QUERY <SEM> <lit|infer> <q>               -> lit|infer <SEM> <q>
  //   BRAVE <SEM> <formula>                     -> brave <SEM> <formula>
  //   ANSWERS <SEM> <skeptical|brave> <template> -> answers|banswers ...
  std::string_view sem = batch::NextToken(&rest);
  std::string_view verb;
  if (cmd == "QUERY") {
    verb = batch::NextToken(&rest);
    if (verb != "lit" && verb != "infer") {
      return "ERR usage: QUERY <semantics> <lit|infer> <query>";
    }
  } else if (cmd == "BRAVE") {
    verb = "brave";
  } else if (cmd == "ANSWERS") {
    const std::string_view mode = batch::NextToken(&rest);
    verb = mode == "skeptical" ? "answers" : mode == "brave" ? "banswers" : "";
    if (verb.empty()) {
      return "ERR usage: ANSWERS <semantics> <skeptical|brave> <template>";
    }
  } else {
    return "ERR unknown command '" + std::string(cmd) + "'";
  }
  Result<batch::Request> req = batch::ParseRequest(verb, sem, rest);
  if (!req.ok()) return "ERR " + req.status().message();
  const batch::BatchMode mode =
      req->brave ? batch::BatchMode::kBrave : batch::BatchMode::kSkeptical;

  if (!req->is_template) {
    Answer a = Submit(req->kind, req->query, mode);
    if (!a.status.ok()) return FailureResponse(a.status);
    return StrFormat("ANSWER %s rungs=%d cached=%d", TrileanName(a.verdict),
                     a.rungs, a.cache_hit ? 1 : 0);
  }
  // One response line per template:
  //   ANSWERS yes=N unknown=M candidates=K rungs=R [vacuous=1]
  //     [X=n1,C=r X=n2,C=g ...]
  // Yes-tuples print comma-joined and lexicographically sorted; residual
  // kUnknown substitutions are counted (degrading the exit code), not
  // listed.
  TemplateResult r = SubmitTemplate(req->kind, req->query.text, mode);
  if (!r.status.ok()) return FailureResponse(r.status);
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

}  // namespace serve
}  // namespace dd
