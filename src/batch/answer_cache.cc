#include "batch/answer_cache.h"

#include "util/string_util.h"

namespace dd {
namespace batch {

std::string AnswerCache::MakeKey(uint64_t fingerprint, SemanticsKind kind,
                                 const std::string& canonical_query,
                                 bool brave) {
  return StrFormat("%016llx|%s%s|",
                   static_cast<unsigned long long>(fingerprint),
                   SemanticsKindName(kind), brave ? "~brave" : "") +
         canonical_query;
}

bool AnswerCache::IsBraveKey(const std::string& key) {
  // The mode tag lives in the kind segment (between the first and second
  // '|'); the query segment after it may contain arbitrary bytes and is
  // never inspected.
  const size_t first = key.find('|');
  if (first == std::string::npos) return false;
  const size_t second = key.find('|', first + 1);
  if (second == std::string::npos) return false;
  return key.find('~', first + 1) < second;
}

std::optional<Trilean> AnswerCache::Lookup(const std::string& key) {
  const Trilean* hit = Find(key, [](Trilean) { return true; });
  if (hit == nullptr) return std::nullopt;
  return *hit;
}

AnswerCache::Inserted AnswerCache::Insert(const std::string& key,
                                          Trilean answer) {
  // "Unknown is never cached": exhaustion is a property of the budget,
  // not of the query.
  return Put(key, answer, answer != Trilean::kUnknown);
}

}  // namespace batch
}  // namespace dd
