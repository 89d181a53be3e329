#include "tmpl/enumerate.h"

#include <limits>
#include <set>

namespace dd {
namespace tmpl {

int64_t SaturatingPow(int64_t base, size_t exp) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  int64_t r = 1;
  for (size_t i = 0; i < exp; ++i) {
    if (base != 0 && r > kMax / base) return kMax;
    r *= base;
  }
  return r;
}

Result<std::vector<std::vector<std::string>>> EnumerateBindings(
    const Template& t, const ground::MentionIndex& idx,
    const EnumerateOptions& opts) {
  if (t.vars.empty()) {
    // One ground candidate; answering it is the batch layer's job.
    return std::vector<std::vector<std::string>>{{}};
  }
  // The join runs over the tuples the CLAUSES mention rather than the
  // derivable closure: an intended model can satisfy body atoms the
  // fixpoint never derives (e.g. from a disjunctive head), so
  // clause-mention is the sound upper bound here.
  const std::vector<ground::PredAtom> no_atoms;
  const ground::Join join(opts.prune ? t.pos : no_atoms, t.vars);
  std::set<std::vector<std::string>> out;  // sorted + deduplicated
  const bool within =
      join.Run(idx.tuples, idx.universe, [&](const ground::Binding& b) {
        std::vector<std::string> binding;
        binding.reserve(b.size());
        for (const std::string* c : b) binding.push_back(*c);
        out.insert(std::move(binding));
        return static_cast<int64_t>(out.size()) <= opts.max_candidates;
      });
  if (!within) {
    return Status::ResourceExhausted(
        "template enumeration exceeded max_candidates");
  }
  return std::vector<std::vector<std::string>>(out.begin(), out.end());
}

}  // namespace tmpl
}  // namespace dd
