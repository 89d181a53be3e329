// Hardened parser for .queries files (the ddquery --batch input format)
// and the one verb grammar behind it, ParseRequest, which the ddquery
// shell and the serve protocol's QUERY/BRAVE/ANSWERS verbs share.
//
// Format, one query per line:
//
//   lit      <SEM> <literal>     # skeptical literal inference
//   infer    <SEM> <formula>     # skeptical formula inference
//   brave    <SEM> <formula>     # brave (credulous) formula inference
//   answers  <SEM> <template>    # skeptical template answers (tmpl/)
//   banswers <SEM> <template>    # brave template answers
//   # comment                    — skipped, as are blank lines
//
// SEM is any name SemanticsKindFromName accepts (all 11 semantics plus
// the paper's aliases circ/wgcwa/pms). Template lines hold a first-order
// conjunctive template like "color(X, red), not bad(X)" (docs/TEMPLATES.md);
// they are answered one template per line (each template IS a batch), so
// they join no (semantics, mode) group.
//
// Hardening contract (the .queries twin of sat/dimacs.cc's DIMACS
// hardening, docs/ROBUSTNESS.md): hostile bytes yield a line-numbered
// InvalidArgument Status, never a crash, hang, or silent misparse —
//   * lines longer than kMaxQueryLine are rejected (no unbounded token
//     growth from a file of a gigabyte on one line);
//   * CRLF line endings are accepted (the trailing '\r' is stripped);
//   * an unterminated final line (no trailing '\n') parses normally;
//   * non-UTF8 / NUL / control bytes never crash the parser: they are
//     plain bytes — a query containing them simply fails downstream
//     formula parsing with a Status;
//   * files larger than kMaxQueriesFile are rejected up front.
#ifndef DD_BATCH_QUERIES_FILE_H_
#define DD_BATCH_QUERIES_FILE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "batch/query_batch.h"
#include "semantics/semantics.h"
#include "util/status.h"

namespace dd {
namespace batch {

/// Longest accepted .queries line or serve protocol line, in bytes
/// (excluding the newline).
constexpr size_t kMaxQueryLine = 1 << 20;
/// Largest accepted .queries file, in bytes.
constexpr size_t kMaxQueriesFile = size_t{1} << 30;

/// One request in the verb grammar shared by .queries lines, the ddquery
/// shell's query verbs and the serve protocol (ParseRequest below).
struct Request {
  SemanticsKind kind = SemanticsKind::kGcwa;
  bool brave = false;  ///< credulous mode ("brave"/"banswers" verbs)
  /// Template request ("answers"/"banswers"): `query.text` holds the raw
  /// template for tmpl::AnswerTemplateText, and a .queries line of this
  /// kind joins no group — a template already fans out into one batch of
  /// its own.
  bool is_template = false;
  BatchQuery query;
};

/// One parsed .queries line, tagged with its input position.
struct ParsedQuery : Request {
  int line = 0;  ///< 1-based source line, for error attribution
};

/// The whole file, plus the queries regrouped per (semantics, mode) in
/// first-appearance order — the shape the Reasoner's batch entry points
/// consume (one AnswerBatch/AnswerBatchCredulous call per group), with
/// `slots` mapping each group member back to its input position so
/// answers print in input-line order.
struct QueriesFile {
  std::vector<ParsedQuery> queries;  ///< input order
  struct Group {
    SemanticsKind kind = SemanticsKind::kGcwa;
    bool brave = false;  ///< routes to AnswerBatchCredulous
    std::vector<int> slots;  ///< input positions, input order
    std::vector<BatchQuery> queries;
  };
  std::vector<Group> groups;
};

/// Splits off the first whitespace-delimited token of `*s` (which may
/// contain NUL or arbitrary bytes — only ' ' and '\t' delimit) and
/// advances `*s` past it; empty when `*s` holds no token.
std::string_view NextToken(std::string_view* s);

/// The one verb grammar: turns a verb (lit, infer, brave, answers or
/// banswers), a semantics name and the query payload into a Request.
/// Unknown verbs, a missing or unknown semantics name and an empty
/// payload (after trimming) are InvalidArgument. The serve protocol maps
/// its QUERY/BRAVE/ANSWERS verbs onto these (serve/server.h).
Result<Request> ParseRequest(std::string_view verb, std::string_view sem,
                             std::string_view payload);

/// Parses .queries text, one ParseRequest per line. Any malformed line —
/// unknown command, unknown semantics, empty query, overlong line — fails
/// the whole parse with a line-numbered InvalidArgument (batch answers
/// are positional; skipping bad lines silently would shift every answer
/// after them).
Result<QueriesFile> ParseQueriesFile(std::string_view text);

}  // namespace batch
}  // namespace dd

#endif  // DD_BATCH_QUERIES_FILE_H_
