#include "util/fingerprint.h"

#include <algorithm>
#include <string>
#include <vector>

#include "logic/database.h"

namespace dd {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvAccumulate(uint64_t h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

/// splitmix64 finalizer: avalanches every input bit over the whole word, so
/// the commutative sum below does not degenerate on near-identical clauses.
uint64_t Avalanche(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Hashes one atom-name list in sorted order under a part tag, so heads,
/// positive bodies and negative bodies can never alias each other.
uint64_t HashPart(char tag, const std::vector<Var>& atoms,
                  const Vocabulary& voc) {
  std::vector<std::string> names;
  names.reserve(atoms.size());
  for (Var v : atoms) names.push_back(voc.Name(v));
  std::sort(names.begin(), names.end());
  uint64_t h = FnvAccumulate(kFnvOffset, std::string_view(&tag, 1));
  for (const std::string& n : names) {
    h = FnvAccumulate(h, n);
    h = FnvAccumulate(h, std::string_view("\0", 1));  // name separator
  }
  return h;
}

uint64_t ClauseHash(const Clause& c, const Vocabulary& voc) {
  uint64_t h = kFnvOffset;
  h = h * kFnvPrime + HashPart('H', c.heads(), voc);
  h = h * kFnvPrime + HashPart('+', c.pos_body(), voc);
  h = h * kFnvPrime + HashPart('-', c.neg_body(), voc);
  return Avalanche(h);
}

/// Fold in the clause count so the empty database is distinguishable and
/// adding a hash-zero clause (however unlikely) still changes the result.
uint64_t FinishClauseSum(uint64_t sum, size_t num_clauses) {
  return Avalanche(sum ^ Avalanche(num_clauses));
}

}  // namespace

uint64_t FingerprintBytes(std::string_view bytes) {
  return Avalanche(FnvAccumulate(kFnvOffset, bytes));
}

uint64_t DatabaseFingerprint(const Database& db) {
  uint64_t sum = 0;
  for (const Clause& c : db.clauses()) {
    sum += ClauseHash(c, db.vocabulary());  // commutative: order-free
  }
  return FinishClauseSum(sum, db.clauses().size());
}

uint64_t ClauseSubsetFingerprint(const Database& db,
                                 const std::vector<int>& clause_indices) {
  uint64_t sum = 0;
  for (int ci : clause_indices) {
    sum += ClauseHash(db.clause(ci), db.vocabulary());
  }
  return FinishClauseSum(sum, clause_indices.size());
}

uint64_t AtomOrderFingerprint(const Vocabulary& voc,
                              const std::vector<Var>& atoms) {
  uint64_t h = kFnvOffset;
  for (Var v : atoms) {
    h = FnvAccumulate(h, voc.Name(v));
    h = FnvAccumulate(h, std::string_view("\0", 1));  // name separator
  }
  return Avalanche(h);
}

}  // namespace dd
