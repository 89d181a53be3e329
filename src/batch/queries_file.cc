#include "batch/queries_file.h"

#include <map>
#include <utility>

#include "util/string_util.h"

namespace dd {
namespace batch {

namespace {

Status BadLine(int lineno, const std::string& why) {
  return Status::InvalidArgument(StrFormat("queries line %d: %s", lineno,
                                           why.c_str()));
}

}  // namespace

std::string_view NextToken(std::string_view* s) {
  size_t start = s->find_first_not_of(" \t");
  if (start == std::string_view::npos) {
    *s = std::string_view();
    return std::string_view();
  }
  size_t end = s->find_first_of(" \t", start);
  std::string_view tok = s->substr(start, end - start);
  *s = end == std::string_view::npos ? std::string_view() : s->substr(end);
  return tok;
}

Result<Request> ParseRequest(std::string_view verb, std::string_view sem,
                             std::string_view payload) {
  const bool is_lit = verb == "lit";
  const bool is_template = verb == "answers" || verb == "banswers";
  const bool is_brave = verb == "brave" || verb == "banswers";
  if (!is_lit && !is_brave && !is_template && verb != "infer") {
    return Status::InvalidArgument(
        "expected 'lit', 'infer', 'brave', 'answers' or 'banswers', got '" +
        std::string(verb) + "'");
  }
  if (sem.empty()) return Status::InvalidArgument("missing semantics name");
  auto kind = SemanticsKindFromName(sem);
  if (!kind) {
    return Status::InvalidArgument("unknown semantics '" + std::string(sem) +
                                   "'");
  }
  payload = Trim(payload);
  if (payload.empty()) {
    return Status::InvalidArgument(is_template ? "empty template"
                                               : "empty query");
  }
  return Request{*kind, is_brave, is_template,
                 BatchQuery{std::string(payload), is_lit}};
}

Result<QueriesFile> ParseQueriesFile(std::string_view text) {
  if (text.size() > kMaxQueriesFile) {
    return Status::InvalidArgument("queries file too large");
  }
  QueriesFile out;
  std::map<std::pair<SemanticsKind, bool>, int> group_of;
  int lineno = 0;
  // Manual line walk (not getline on a stream): it preserves NUL bytes,
  // costs one pass, and naturally handles a missing final newline.
  size_t pos = 0;
  while (pos <= text.size()) {
    if (pos == text.size() && lineno > 0 && text.back() == '\n') break;
    size_t nl = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, nl == std::string_view::npos ? std::string_view::npos
                                          : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++lineno;
    if (line.size() > kMaxQueryLine) return BadLine(lineno, "line too long");
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);

    std::string_view rest = line;
    std::string_view cmd = NextToken(&rest);
    if (cmd.empty() || cmd[0] == '#') continue;
    std::string_view sem = NextToken(&rest);
    Result<Request> req = ParseRequest(cmd, sem, rest);
    if (!req.ok()) return BadLine(lineno, req.status().message());

    const int slot = static_cast<int>(out.queries.size());
    out.queries.push_back(ParsedQuery{std::move(*req), lineno});
    const ParsedQuery& q = out.queries.back();
    // Template lines are answered per line (tmpl::AnswerTemplate issues its
    // own batch over the instantiations), so they join no group.
    if (q.is_template) continue;
    auto [it, inserted] = group_of.emplace(std::make_pair(q.kind, q.brave),
                                           static_cast<int>(out.groups.size()));
    if (inserted) {
      out.groups.push_back(QueriesFile::Group{q.kind, q.brave, {}, {}});
    }
    QueriesFile::Group& g = out.groups[it->second];
    g.slots.push_back(slot);
    g.queries.push_back(q.query);
  }
  return out;
}

}  // namespace batch
}  // namespace dd
