// Stable 64-bit fingerprints of databases.
//
// The batch answer cache (src/batch/answer_cache.h) keys cached verdicts on
// "which database was this answer computed against?". The fingerprint here
// is that key: a 64-bit hash over the *canonicalized* clause set —
//
//   * per clause, the head / positive-body / negative-body atom NAME lists
//     are hashed in sorted order, so atom-listing order inside a clause and
//     the vocabulary's interning order (i.e. variable ids) are irrelevant;
//   * per database, the clause hashes are combined commutatively, so clause
//     order is irrelevant (multiset semantics: duplicate clauses count);
//   * atoms interned by query parsing but mentioned in no clause do not
//     contribute, so answering queries never changes the fingerprint.
//
// Two databases with the same fingerprint are treated as equal by the
// answer cache; collisions are possible in principle (it is a 64-bit hash)
// but the cache is an optimization layer — a collision costs a wrong cached
// answer with probability ~2^-64 per pair, the same trust model as content-
// addressed build caches.
#ifndef DD_UTIL_FINGERPRINT_H_
#define DD_UTIL_FINGERPRINT_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "logic/types.h"

namespace dd {

class Database;
class Vocabulary;

/// FNV-1a over `bytes`, finalized with a splitmix64-style avalanche.
uint64_t FingerprintBytes(std::string_view bytes);

/// Order-independent fingerprint of `db`'s clause multiset (see above).
uint64_t DatabaseFingerprint(const Database& db);

/// DatabaseFingerprint(db.SelectClauses(clause_indices)) without building
/// the sub-database: the fingerprint of a slice's clauses, which equals
/// that of any renumbered copy of them (names, not Vars, are hashed).
uint64_t ClauseSubsetFingerprint(const Database& db,
                                 const std::vector<int>& clause_indices);

/// Digest of the names of `atoms` in the given order. Where the clause
/// fingerprint ignores numbering, this pins it: two vocabularies give
/// equal digests for their lists exactly when (up to hash collisions) the
/// i-th atom of each has the same name, so an interpretation numbered
/// over one list reads the same atoms over the other.
uint64_t AtomOrderFingerprint(const Vocabulary& voc,
                              const std::vector<Var>& atoms);

}  // namespace dd

#endif  // DD_UTIL_FINGERPRINT_H_
