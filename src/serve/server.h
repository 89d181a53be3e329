// QueryServer: the resilient long-lived serving layer over
// Reasoner::AnswerBatch (docs/SERVING.md).
//
// One QueryServer owns one *session* at a time — a Reasoner plus its
// fingerprint-epoch-pinned AnswerCache — and composes the serve-layer
// machinery around every request:
//
//   Submit(kind, query)
//     └─ RequestGate        admission: concurrency cap, bounded queue,
//        │                  kUnavailable load shedding
//     └─ RetryLadder        rung 0 runs on a small budget; kUnknown
//        │                  answers re-run under geometrically escalated
//        │                  budgets up to the policy ceiling
//     └─ AnswerBatch        one-query batches: canonicalization, the
//                           answer cache (hits skip the ladder entirely),
//                           slice-grouped evaluation
//
// Degradation ladder (docs/ROBUSTNESS.md §degradation ladder): a request
// is answered definitely, or kUnknown after the full ladder, or
// kUnavailable without starting — never wrongly. kUnknown is never cached.
//
// SubmitTemplate (the ANSWERS verb) runs a first-order template
// (tmpl/answer.h) through the same gate and ladder: each rung answers the
// whole instantiation set as ONE batch against the session cache, so
// escalated rungs re-evaluate only the previously-kUnknown substitutions.
// Both are thin entry points over one private request loop (Serve); each
// kind supplies only its rung's evaluation call and its cache-hit rule.
//
// Hot reload: Reload() builds a NEW session and atomically swaps it in.
// In-flight requests keep a shared_ptr to the old session and finish
// against the database they started with; the new session's cache is
// pinned to the new fingerprint (and warm-started from the snapshot file
// when it matches), so no answer computed against the old database can
// serve a query against the new one.
//
// Persistence: with a cache_path configured, construction and Reload()
// warm-start from the snapshot (corruption and stale epochs degrade to a
// cold start — counted, never fatal) and SaveCache() persists atomically
// (serve/snapshot.h).
//
// Thread safety: Submit/Reload/SaveCache/stats may be called from any
// thread. Evaluation on one session is serialized (the Reasoner is not
// thread-safe; parallelism lives inside AnswerBatch's group evaluation) —
// the gate's queue bounds how many requests may be waiting for the
// session, which is the admission-control contract.
#ifndef DD_SERVE_SERVER_H_
#define DD_SERVE_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "batch/query_batch.h"
#include "core/reasoner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/request_gate.h"
#include "serve/retry_ladder.h"
#include "serve/snapshot.h"
#include "tmpl/answer.h"

namespace dd {
namespace serve {

struct ServeOptions {
  RequestGate::Options gate;
  RetryPolicy retry;

  /// Snapshot file for crash-safe cache persistence; empty = in-memory
  /// only. Loaded on construction and Reload, written by SaveCache.
  std::string cache_path;
  int64_t cache_capacity = 4096;

  /// Forwarded to AnswerBatch (per-request one-query batches).
  int num_threads = 1;
  int64_t model_bank_cap = 4096;

  /// Capacity of the session Reasoner's cross-batch model-bank store
  /// (batch/model_bank_store.h): complete banks built by one request —
  /// or one ladder rung — are reused by later requests and rungs on the
  /// same module, so a retry never rebuilds a bank an earlier rung
  /// already completed. <= 0 disables reuse. ServeStats::bank_reuses
  /// counts the hits.
  int64_t bank_store_capacity = 32;

  /// Base engine options for every session's Reasoner.
  SemanticsOptions engine;

  /// Optional trace: each request records a "serve"-layer request span
  /// with one child span per ladder rung (plus the nested reasoner spans).
  obs::TraceContext* trace = nullptr;
};

/// Serve-layer accounting, published under dd.serve.* (Publish below).
struct ServeStats {
  int64_t requests = 0;     ///< Submit calls
  int64_t admitted = 0;     ///< past the gate
  int64_t shed = 0;         ///< kUnavailable (queue full / shutdown)
  int64_t queued = 0;       ///< admitted after waiting
  /// Answer-cache lookups on a request's first rung. Misses count every
  /// lookup; hits count a Submit request once, and every hit lookup of a
  /// SubmitTemplate request's instantiations.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t brave_requests = 0;   ///< Submit calls in brave/credulous mode
  int64_t template_requests = 0;  ///< SubmitTemplate calls (ANSWERS verb)
  int64_t bank_reuses = 0;      ///< groups answered from a stored bank
  int64_t rungs = 0;            ///< ladder attempts run
  int64_t escalations = 0;      ///< rungs beyond the first
  int64_t retry_successes = 0;  ///< definite answers from an escalated rung
  int64_t unknowns = 0;         ///< requests ending kUnknown
  int64_t errors = 0;           ///< requests ending in a hard Status
  int64_t reloads = 0;          ///< successful hot reloads
  int64_t cache_loads = 0;          ///< snapshots restored
  int64_t cache_stale = 0;          ///< snapshots skipped: epoch mismatch
  int64_t cache_load_failures = 0;  ///< snapshots rejected: corruption
  int64_t cache_saves = 0;
  int64_t cache_save_failures = 0;
};

/// Folds the counters into `reg` under dd.serve.* (monotonic registry:
/// publish once per server, e.g. at exit).
void Publish(const ServeStats& s, obs::MetricsRegistry* reg);

/// Renders the counters as one JSON object line (the STATS protocol
/// response; keys sorted, byte-deterministic for a given value set).
std::string ToJson(const ServeStats& s);

class QueryServer {
 public:
  /// One request's outcome. `status` is OK for definite and kUnknown
  /// verdicts, kUnavailable when shed, and a hard error otherwise.
  struct Answer {
    Trilean verdict = Trilean::kUnknown;
    int rungs = 0;
    bool cache_hit = false;
    Status status;
  };

  QueryServer(Database db, ServeOptions opts);

  /// Serves one query through gate + cache + retry ladder: skeptical by
  /// default, brave/credulous with BatchMode::kBrave (the BRAVE protocol
  /// verb). Both modes share the session's answer cache (mode-tagged
  /// keys) and model-bank store; snapshots persist skeptical entries
  /// only (docs/SERVING.md).
  Answer Submit(SemanticsKind kind, const batch::BatchQuery& query,
                batch::BatchMode mode = batch::BatchMode::kSkeptical);

  /// One template request's outcome (the ANSWERS protocol verb). `status`
  /// is OK when the template was answered (possibly with residual
  /// kUnknown substitutions, listed in answer.unknown), kUnavailable when
  /// shed, and a hard error (e.g. a template parse failure) otherwise.
  struct TemplateResult {
    tmpl::TemplateAnswer answer;
    int rungs = 0;
    Status status;
  };

  /// Serves one first-order template through the same gate + ladder as
  /// Submit: every rung routes ALL instantiations through one AnswerBatch
  /// call against the session cache (tmpl/answer.h), so an escalated rung
  /// re-evaluates only the substitutions the previous rung left kUnknown —
  /// the definite ones answer from the cache. A rung counts as complete
  /// (no retry) when no substitution is kUnknown; residual unknowns after
  /// the full ladder degrade the exit code exactly like a kUnknown Submit.
  TemplateResult SubmitTemplate(
      SemanticsKind kind, std::string_view template_text,
      batch::BatchMode mode = batch::BatchMode::kSkeptical);

  /// Swaps in a new database without dropping in-flight requests (they
  /// finish on the old session). The new session's cache is epoch-pinned
  /// to the new fingerprint and warm-started from the snapshot file.
  Status Reload(Database db);

  /// Atomically persists the current session's cache. Fails with
  /// FailedPrecondition when no cache_path is configured.
  Status SaveCache();

  /// Sheds all queued and future requests (used on shutdown paths).
  void Shutdown();

  /// Handles one line of the serve protocol (QUERY / BRAVE / ANSWERS /
  /// RELOAD / SAVE / STATS / QUIT — docs/SERVING.md). The query verbs map
  /// onto the .queries grammar and parse through batch::ParseRequest.
  /// Returns the response line ("" for blank/comment input) and sets
  /// *quit on QUIT. Robust to oversized lines, CRLF endings and arbitrary
  /// bytes: malformed input yields an "ERR ..." response, never a crash.
  std::string HandleLine(std::string_view line, bool* quit);

  /// Exit-code audit for serve mode (docs/ROBUSTNESS.md §CLI): 0 when
  /// every request was answered definitely, 2 when any request degraded
  /// (kUnknown after the ladder, or shed as kUnavailable).
  int ExitCode() const;

  /// Current database fingerprint (the cache epoch).
  uint64_t fingerprint() const;
  /// Summary of the current database (protocol responses, banners).
  std::string DbSummary() const;

  ServeStats stats() const;
  const ServeOptions& options() const { return opts_; }

 private:
  struct Session {
    Session(Database db, const SemanticsOptions& engine_opts,
            int64_t cache_capacity)
        : reasoner(std::move(db), engine_opts), cache(cache_capacity) {}
    Reasoner reasoner;
    uint64_t fp = 0;
    batch::AnswerCache cache;
    /// Serializes evaluation AND cache access (neither is thread-safe).
    std::mutex eval_mu;
  };

  std::shared_ptr<Session> MakeSession(Database db);
  std::shared_ptr<Session> CurrentSession() const;

  /// One ladder attempt as a request kind's rung callback sees it: the
  /// rung span and the hooks that report the attempt (server.cc).
  class Rung;
  /// A request kind's rung: evaluates the request once under `bo` (the
  /// rung's limits already applied) against the pinned, locked session.
  using RungFn = std::function<Trilean(Session& session,
                                       const batch::BatchOptions& bo,
                                       Rung* rung)>;
  struct Outcome {
    LadderResult ladder;
    Status status;  ///< kUnavailable when shed, a hard error, or OK
    bool cache_hit = false;
  };
  /// The one request loop behind Submit and SubmitTemplate: gate entry,
  /// request span, session pin and lock, the BatchOptions build, the
  /// ladder with one span per rung, and the ServeStats tally. `text` is
  /// the query or template, for the request span.
  Outcome Serve(SemanticsKind kind, batch::BatchMode mode, bool is_template,
                std::string_view text, const RungFn& rung_fn);

  ServeOptions opts_;
  RequestGate gate_;

  mutable std::mutex state_mu_;  ///< guards session_ swap
  std::shared_ptr<Session> session_;

  mutable std::mutex stats_mu_;
  ServeStats stats_;
};

}  // namespace serve
}  // namespace dd

#endif  // DD_SERVE_SERVER_H_
