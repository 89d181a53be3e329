// Unit tests for the relevance slicer and module decomposer
// (analysis/slicer). The routing-level guarantees (sliced answers equal
// generic answers) live in dispatch_test.cc; here we pin the structural
// contracts: cone contents, head-closure, clause selection, module ids.
#include "analysis/slicer.h"

#include <algorithm>

#include <set>
#include <string>
#include <vector>

#include "analysis/program_properties.h"
#include "batch/query_batch.h"
#include "core/brute_force.h"
#include "core/reasoner.h"
#include "gen/generators.h"
#include "gtest/gtest.h"
#include "logic/database.h"
#include "minimal/pqz.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace dd {
namespace {

using ::dd::analysis::SliceResult;
using ::dd::analysis::Slicer;
using ::dd::analysis::SubDatabase;
using ::dd::testing::Db;

// Head-closure invariant shared by Cone and ModuleUnion results: the
// clause list is exactly the clauses with a head in `relevant`, and every
// atom of a selected clause lies in `relevant`.
void ExpectHeadClosed(const Database& db, const SliceResult& s) {
  std::vector<bool> selected(static_cast<size_t>(db.num_clauses()), false);
  for (int ci : s.clause_indices) {
    ASSERT_GE(ci, 0);
    ASSERT_LT(ci, db.num_clauses());
    selected[static_cast<size_t>(ci)] = true;
  }
  for (int ci = 0; ci < db.num_clauses(); ++ci) {
    const Clause& cl = db.clause(ci);
    bool head_in = false;
    for (Var h : cl.heads()) head_in |= s.relevant.Contains(h);
    EXPECT_EQ(head_in, selected[static_cast<size_t>(ci)]) << "clause " << ci;
    if (!head_in) continue;
    for (Var h : cl.heads()) EXPECT_TRUE(s.relevant.Contains(h));
    for (Var b : cl.pos_body()) EXPECT_TRUE(s.relevant.Contains(b));
  }
  EXPECT_TRUE(std::is_sorted(s.clause_indices.begin(),
                             s.clause_indices.end()));
}

TEST(Slicer, ConeFollowsDerivations) {
  Database db = Db(
      "a :- b.\n"
      "b | c.\n"
      "d.\n"
      "e :- d.\n");
  Slicer slicer(db);
  Var a = db.vocabulary().Find("a");
  SliceResult s = slicer.Cone({a});
  // Deriving a needs b; b's clause also mentions c; d/e are unreachable.
  EXPECT_TRUE(s.relevant.Contains(a));
  EXPECT_TRUE(s.relevant.Contains(db.vocabulary().Find("b")));
  EXPECT_TRUE(s.relevant.Contains(db.vocabulary().Find("c")));
  EXPECT_FALSE(s.relevant.Contains(db.vocabulary().Find("d")));
  EXPECT_FALSE(s.relevant.Contains(db.vocabulary().Find("e")));
  EXPECT_EQ(s.clause_indices, (std::vector<int>{0, 1}));
  EXPECT_TRUE(s.proper);
  ExpectHeadClosed(db, s);
}

TEST(Slicer, ConeOfSinkAtomIsImproper) {
  Database db = Db(
      "a :- b.\n"
      "b :- e.\n"
      "e.\n");
  Slicer slicer(db);
  // a pulls in the whole chain: no clause is dropped.
  SliceResult s = slicer.Cone({db.vocabulary().Find("a")});
  EXPECT_EQ(static_cast<int>(s.clause_indices.size()), db.num_clauses());
  EXPECT_FALSE(s.proper);
  ExpectHeadClosed(db, s);
}

TEST(Slicer, ConeIgnoresBodyOnlyOccurrences) {
  // b occurs in the body of the e-clause; slicing for b must not drag the
  // e-clause in (only clauses that can *derive* a cone atom count).
  Database db = Db(
      "b.\n"
      "e :- b.\n");
  Slicer slicer(db);
  SliceResult s = slicer.Cone({db.vocabulary().Find("b")});
  EXPECT_EQ(s.clause_indices, (std::vector<int>{0}));
  EXPECT_FALSE(s.relevant.Contains(db.vocabulary().Find("e")));
  EXPECT_TRUE(s.proper);
  ExpectHeadClosed(db, s);
}

TEST(Slicer, ModuleIdsPartitionConnectedComponents) {
  Database db = Db(
      "a | b.\n"
      "c :- a.\n"
      "x :- y.\n"
      "y.\n");
  Slicer slicer(db);
  EXPECT_EQ(slicer.num_modules(), 2);
  const std::vector<int>& id = slicer.module_ids();
  Var a = db.vocabulary().Find("a"), b = db.vocabulary().Find("b");
  Var c = db.vocabulary().Find("c"), x = db.vocabulary().Find("x");
  Var y = db.vocabulary().Find("y");
  EXPECT_EQ(id[a], id[b]);
  EXPECT_EQ(id[a], id[c]);
  EXPECT_EQ(id[x], id[y]);
  EXPECT_NE(id[a], id[x]);
}

TEST(Slicer, ModuleUnionContainsConeAndIsHeadClosed) {
  Database db = Db(
      "a | b.\n"
      "c :- a.\n"
      "x :- y.\n"
      "y.\n");
  Slicer slicer(db);
  Var a = db.vocabulary().Find("a");
  SliceResult cone = slicer.Cone({a});
  SliceResult mod = slicer.ModuleUnion({a});
  EXPECT_TRUE(cone.relevant.SubsetOf(mod.relevant));
  // a's module additionally holds c (connected via the c :- a clause),
  // which the cone of a omits.
  EXPECT_FALSE(cone.relevant.Contains(db.vocabulary().Find("c")));
  EXPECT_TRUE(mod.relevant.Contains(db.vocabulary().Find("c")));
  EXPECT_FALSE(mod.relevant.Contains(db.vocabulary().Find("x")));
  EXPECT_TRUE(mod.proper);
  ExpectHeadClosed(db, mod);
}

TEST(Slicer, MakeSubDatabaseIsCompactAndMonotone) {
  Database db = Db(
      "a :- b.\n"
      "b | c.\n"
      "d.\n");
  const Vocabulary& voc = db.vocabulary();
  Slicer slicer(db);
  SliceResult s = slicer.Cone({voc.Find("a")});
  SubDatabase sub = slicer.MakeSubDatabase(s);
  // Only the slice's atoms, in ascending parent order; d is gone.
  EXPECT_EQ(sub.to_parent, s.relevant.TrueAtoms());
  EXPECT_EQ(sub.to_parent,
            (std::vector<Var>{voc.Find("a"), voc.Find("b"), voc.Find("c")}));
  ASSERT_EQ(sub.db.num_vars(), 3);
  for (Var v = 0; v < sub.db.num_vars(); ++v) {
    EXPECT_EQ(sub.db.vocabulary().Name(v), voc.Name(sub.to_parent[v]));
  }
  // Exactly the selected clauses, each renamed atom for atom.
  ASSERT_EQ(sub.db.num_clauses(), static_cast<int>(s.clause_indices.size()));
  auto lift = [&](const std::vector<Var>& local) {
    std::vector<Var> out;
    for (Var v : local) out.push_back(sub.to_parent[v]);
    return out;
  };
  for (size_t i = 0; i < s.clause_indices.size(); ++i) {
    const Clause& mine = sub.db.clause(static_cast<int>(i));
    const Clause& parent = db.clause(s.clause_indices[i]);
    EXPECT_EQ(lift(mine.heads()), parent.heads());
    EXPECT_EQ(lift(mine.pos_body()), parent.pos_body());
    EXPECT_EQ(lift(mine.neg_body()), parent.neg_body());
  }
  EXPECT_EQ(analysis::LocalVar(sub.to_parent, voc.Find("d")), kInvalidVar);
  EXPECT_EQ(analysis::LocalVar(sub.to_parent, voc.Find("c")), 2);
  // A local model lifts to the parent width with every other atom false.
  Interpretation local(sub.db.num_vars());
  local.Insert(1);  // b
  Interpretation parent =
      analysis::LiftToParent(local, sub.to_parent, db.num_vars());
  EXPECT_EQ(parent.num_vars(), db.num_vars());
  EXPECT_EQ(parent.TrueAtoms(), std::vector<Var>{voc.Find("b")});
}

TEST(Slicer, MakeSubDatabaseKeepsQueryOnlyAtomsInParentOrder) {
  // x is interned between a and b but mentioned by no clause: a query
  // root's module union keeps it, at its parent-order position.
  Database db;
  const Var a = db.vocabulary().Intern("a");
  const Var x = db.vocabulary().Intern("x");
  db.AddRule({"b", "a"});
  db.AddRule({"c"});
  const Var b = db.vocabulary().Find("b");
  Slicer slicer(db);
  SliceResult s = slicer.ModuleUnion({x, a});
  SubDatabase sub = slicer.MakeSubDatabase(s);
  EXPECT_EQ(sub.to_parent, (std::vector<Var>{a, x, b}));
  EXPECT_EQ(slicer.ClauseAtoms(s.clause_indices), (std::vector<Var>{a, b}));
  ASSERT_EQ(sub.db.num_clauses(), 1);
  EXPECT_EQ(sub.db.clause(0).heads(), (std::vector<Var>{0, 2}));
  EXPECT_EQ(sub.db.vocabulary().Name(1), "x");
}

// --- generator family -----------------------------------------------------

TEST(Slicer, HcfModularFamilyHasAdvertisedStructure) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Database db = HcfModularDdb(3, 6, 4, seed);
    analysis::ProgramProperties p = analysis::Analyze(db);
    EXPECT_TRUE(p.is_positive) << "seed " << seed;
    EXPECT_TRUE(p.is_deductive);
    EXPECT_TRUE(p.is_head_cycle_free);
    EXPECT_GT(p.num_disjunctive, 0);
    // The reserved 2-cycle makes every module non-tight.
    EXPECT_FALSE(p.is_tight);

    Slicer slicer(db);
    EXPECT_EQ(slicer.num_modules(), 3);
    // A cone rooted in module 0 never leaves module 0's atoms.
    Var root = db.vocabulary().Find("m0_p0");
    ASSERT_NE(root, kInvalidVar);
    SliceResult s = slicer.Cone({root});
    for (Var v : s.relevant.TrueAtoms()) {
      EXPECT_EQ(slicer.module_ids()[v], slicer.module_ids()[root]);
    }
    EXPECT_TRUE(s.proper);
    ExpectHeadClosed(db, s);
  }
}

// --- compact slices: differential against brute force ---------------------
//
// Every path that runs on a compact slice — the single-query slice and
// module paths, batch groups with banks on and off, store hits (also by a
// group whose query-only atoms differ from the builder's), 1 and 4
// threads, witness collection — must answer exactly like the definitional
// reference on the WHOLE database, for all nine slice-sound semantics.

/// `modules` random positive modules over "m<i>_<j>" whose atoms are
/// interleaved in the interning order, with "u0" and "u1" (mentioned by
/// no clause) interned among them: each module's compact numbering is a
/// nontrivial monotone renumbering, and queries over u0/u1 carry
/// query-only atoms that sit between module atoms in the parent order.
Database InterleavedModularDdb(int modules, int vars, int clauses,
                              uint64_t seed) {
  Database db;
  auto name = [](int m, int v) { return StrFormat("m%d_%d", m, v); };
  for (int v = 0; v < vars; ++v) {
    for (int m = 0; m < modules; ++m) db.vocabulary().Intern(name(m, v));
    if (v == 1) db.vocabulary().Intern("u0");
    if (v == 2) db.vocabulary().Intern("u1");
  }
  for (int m = 0; m < modules; ++m) {
    DdbConfig cfg;
    cfg.num_vars = vars;
    cfg.num_clauses = clauses;
    cfg.max_head = 2;
    cfg.max_body = 2;
    Rng rng(DeriveSeed(seed, static_cast<uint64_t>(m)));
    Database part = RandomDdb(cfg, &rng);  // atoms "p<j>" = Var j
    auto rename = [&](const std::vector<Var>& atoms) {
      std::vector<Var> out;
      for (Var v : atoms) out.push_back(db.vocabulary().Find(name(m, v)));
      return out;
    };
    for (const Clause& c : part.clauses()) {
      db.AddClause(Clause(rename(c.heads()), rename(c.pos_body()),
                          rename(c.neg_body())));
    }
  }
  return db;
}

const SemanticsKind kSliceSoundKinds[] = {
    SemanticsKind::kGcwa, SemanticsKind::kEgcwa, SemanticsKind::kCcwa,
    SemanticsKind::kEcwa, SemanticsKind::kDdr,   SemanticsKind::kPws,
    SemanticsKind::kPerf, SemanticsKind::kIcwa,  SemanticsKind::kDsm,
};

std::vector<Interpretation> ReferenceModels(SemanticsKind kind,
                                            const Database& db) {
  const Partition all = Partition::MinimizeAll(db.num_vars());
  switch (kind) {
    case SemanticsKind::kGcwa:
      return brute::GcwaModels(db);
    case SemanticsKind::kEgcwa:
      return brute::MinimalModels(db);
    case SemanticsKind::kCcwa:
      return brute::CcwaModels(db, all);
    case SemanticsKind::kEcwa:
      return brute::PqzMinimalModels(db, all);
    case SemanticsKind::kDdr:
      return brute::DdrModels(db);
    case SemanticsKind::kPws:
      return brute::PwsModels(db);
    case SemanticsKind::kPerf:
      return brute::PerfectModels(db);
    case SemanticsKind::kIcwa:
      return brute::IcwaModels(db);
    case SemanticsKind::kDsm:
      return brute::StableModels(db);
    default:
      ADD_FAILURE() << "not slice-sound: " << SemanticsKindName(kind);
      return {};
  }
}

/// A random formula text over `atoms`.
std::string RandomFormulaText(Rng* rng, const std::vector<std::string>& atoms,
                              int depth) {
  if (depth == 0 || rng->Chance(0.3)) {
    const std::string& a = atoms[rng->Below(atoms.size())];
    return rng->Chance(0.3) ? StrFormat("~%s", a.c_str()) : a;
  }
  static const char* const kOps[] = {" & ", " | ", " -> ", " | "};
  const std::string lhs = RandomFormulaText(rng, atoms, depth - 1);
  const char* op = kOps[rng->Below(4)];
  const std::string rhs = RandomFormulaText(rng, atoms, depth - 1);
  return StrFormat("(%s%s%s)", lhs.c_str(), op, rhs.c_str());
}

/// The reference verdicts and intended models of one semantics.
struct Reference {
  std::set<Interpretation> models;
  std::vector<Formula> skeptical_f;  ///< parsed over the reference vocab
  std::vector<Formula> brave_f;
  std::vector<Trilean> skeptical;
  std::vector<Trilean> brave;
};

/// True when `w` is what a batch certifies query `f` with: a batch splits
/// f (∧ skeptical, ∨ brave) and certifies with the decisive part's
/// witness, which a module group restricts to the part's slice. So some
/// part p is decided by w (false for skeptical, true for brave), and some
/// reference intended model M contains w and agrees with it on p's atoms.
bool CertifiesPart(const Interpretation& w, const Formula& f, bool brave,
                   const std::set<Interpretation>& models) {
  const std::vector<Var> w_atoms = w.TrueAtoms();
  for (const Formula& part : brave ? batch::SplitDisjuncts(f)
                                   : batch::SplitConjuncts(f)) {
    if (part->Eval(w) != brave) continue;
    Interpretation part_atoms(std::max(w.num_vars(), part->MaxVar() + 1));
    part->CollectAtoms(&part_atoms);
    // Widths may differ: atoms interned after the batch read false.
    auto has = [](const Interpretation& i, Var v) {
      return v < i.num_vars() && i.Contains(v);
    };
    for (const Interpretation& m : models) {
      bool fits = true;
      for (Var v : w_atoms) fits &= has(m, v);
      for (Var v : part_atoms.TrueAtoms()) fits &= has(m, v) == has(w, v);
      if (fits) return true;
    }
  }
  return false;
}

/// Checks a batch answer (and its witnesses, when collected) against the
/// reference: a skeptical kNo carries a violating intended model, a brave
/// kYes a satisfying one (see CertifiesPart).
void ExpectMatches(const batch::BatchAnswer& got,
                   const std::vector<Trilean>& want,
                   const std::vector<Formula>& fs,
                   const std::set<Interpretation>& models, bool brave,
                   bool witnesses, const std::string& where) {
  ASSERT_EQ(got.answers.size(), want.size()) << where;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.answers[i], want[i]) << where << " #" << i;
    if (!witnesses) continue;
    ASSERT_EQ(got.witnesses.size(), want.size()) << where;
    const bool certified = got.answers[i] == (brave ? Trilean::kYes
                                                    : Trilean::kNo);
    ASSERT_EQ(got.witnesses[i].has_value(), certified) << where << " #" << i;
    if (!certified) continue;
    const Interpretation& w = *got.witnesses[i];
    EXPECT_TRUE(CertifiesPart(w, fs[i], brave, models))
        << where << " #" << i << ": witness certifies no part";
    EXPECT_EQ(fs[i]->Eval(w), brave) << where << " #" << i;
  }
}

TEST(CompactSlices, DifferentialAgainstBruteForceOnAllSliceSoundSemantics) {
  int64_t sliced_single = 0;
  int64_t store_hits = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const Database db = InterleavedModularDdb(3, 3, 3, seed);
    // "zz" is interned by the first query that mentions it; the reference
    // vocabulary interns it last, so both number it alike.
    Database ref = db;
    ref.vocabulary().Intern("zz");
    std::vector<std::string> atoms;
    for (Var v = 0; v < ref.num_vars(); ++v) {
      atoms.push_back(ref.vocabulary().Name(v));
    }
    Rng rng(DeriveSeed(seed, 99));
    std::vector<batch::BatchQuery> skeptical;  // literals, then formulas
    for (const std::string& a : atoms) {
      if (rng.Chance(0.5) || a == "zz" || a == "u0") {
        skeptical.push_back({a, true});
        skeptical.push_back({StrFormat("not %s", a.c_str()), true});
      }
    }
    const size_t num_literals = skeptical.size();
    std::vector<batch::BatchQuery> brave;
    for (int i = 0; i < 10; ++i) {
      skeptical.push_back({RandomFormulaText(&rng, atoms, 2), false});
      brave.push_back({RandomFormulaText(&rng, atoms, 2), false});
    }
    // One query per mode over all three generated modules: a
    // whole-database group whenever each of them is connected.
    skeptical.push_back({"m0_0 | m1_1 | m2_2 | u1", false});
    brave.push_back({"m0_2 & m1_0 & m2_1", false});

    for (SemanticsKind kind : kSliceSoundKinds) {
      const std::string sem = SemanticsKindName(kind);
      Reference r;
      r.models = testing::ModelSet(ReferenceModels(kind, ref));
      for (const batch::BatchQuery& q : skeptical) {
        Result<Formula> f =
            q.is_literal ? Result<Formula>(FormulaNode::MakeLit(
                               *ParseLiteral(q.text, &ref.vocabulary())))
                         : ParseFormula(q.text, &ref.vocabulary());
        ASSERT_TRUE(f.ok()) << q.text;
        ASSERT_EQ(ref.num_vars(), static_cast<int>(atoms.size()));
        r.skeptical_f.push_back(*f);
        bool all = true;
        for (const Interpretation& m : r.models) all &= (*f)->Eval(m);
        r.skeptical.push_back(TrileanFromBool(all));
      }
      for (const batch::BatchQuery& q : brave) {
        Result<Formula> f = ParseFormula(q.text, &ref.vocabulary());
        ASSERT_TRUE(f.ok()) << q.text;
        r.brave_f.push_back(*f);
        bool some = false;
        for (const Interpretation& m : r.models) some |= (*f)->Eval(m);
        r.brave.push_back(TrileanFromBool(some));
      }

      // Single-query entry points: literals take the cone slice, formulas
      // the module union.
      {
        Reasoner single(db);
        for (size_t i = 0; i < skeptical.size(); ++i) {
          Result<bool> got =
              i < num_literals
                  ? single.InfersLiteral(kind, skeptical[i].text)
                  : single.InfersFormula(kind, skeptical[i].text);
          ASSERT_TRUE(got.ok()) << sem << " " << skeptical[i].text;
          EXPECT_EQ(TrileanFromBool(*got), r.skeptical[i])
              << sem << " seed " << seed << " " << skeptical[i].text;
        }
        for (size_t i = 0; i < brave.size(); ++i) {
          Result<Trilean> got = single.InfersCredulously(kind, brave[i].text);
          ASSERT_TRUE(got.ok()) << sem << " " << brave[i].text;
          EXPECT_EQ(*got, r.brave[i])
              << sem << " seed " << seed << " brave " << brave[i].text;
        }
        sliced_single += single.dispatch_stats().slice_literal +
                         single.dispatch_stats().module_formula;
      }

      // Batches: banks on/off x 1/4 threads x witnesses off/on, each run
      // twice on one reasoner (the second run answers from the store).
      for (int64_t bank_cap : {int64_t{4096}, int64_t{0}}) {
        for (int threads : {1, 4}) {
          for (bool witnesses : {false, true}) {
            const std::string where =
                StrFormat("%s seed %llu cap %lld threads %d witnesses %d",
                          sem.c_str(), static_cast<unsigned long long>(seed),
                          static_cast<long long>(bank_cap), threads,
                          witnesses ? 1 : 0);
            batch::BatchOptions opts;
            opts.use_answer_cache = false;
            opts.model_bank_cap = bank_cap;
            opts.num_threads = threads;
            opts.collect_witnesses = witnesses;
            Reasoner rb(db);
            for (int pass = 0; pass < 2; ++pass) {
              Result<batch::BatchAnswer> sk =
                  rb.AnswerBatch(kind, skeptical, opts);
              ASSERT_TRUE(sk.ok()) << where;
              ExpectMatches(*sk, r.skeptical, r.skeptical_f, r.models,
                            /*brave=*/false, witnesses, where + " skeptical");
              Result<batch::BatchAnswer> br =
                  rb.AnswerBatchCredulous(kind, brave, opts);
              ASSERT_TRUE(br.ok()) << where;
              ExpectMatches(*br, r.brave, r.brave_f, r.models,
                            /*brave=*/true, witnesses, where + " brave");
              if (pass == 1 && bank_cap > 0) {
                EXPECT_GT(sk->stats.bank_store_hits, 0) << where;
                store_hits += sk->stats.bank_store_hits;
              }
              // Module groups run narrower than the whole vocabulary.
              if (pass == 0 && sk->stats.groups > 1) {
                EXPECT_LT(sk->stats.group_atoms,
                          sk->stats.groups * rb.db().num_vars())
                    << where;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(sliced_single, 0);
  EXPECT_GT(store_hits, 0);
}

TEST(CompactSlices, StoreHitAcrossDifferentQueryOnlyAtoms) {
  // A module bank is stored over the module's own atoms, so a later group
  // with the same clauses but other query-only atoms (u0 vs u1 vs none)
  // hits it, and reads those atoms as false.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const Database db = InterleavedModularDdb(3, 3, 3, seed);
    Database ref = db;
    ref.vocabulary().Intern("zz");
    const Interpretation mentioned = db.MentionedAtoms();
    ASSERT_FALSE(mentioned.TrueAtoms().empty());
    const std::string a = db.vocabulary().Name(mentioned.TrueAtoms()[0]);
    // Built with Q = {u0} (two queries, so the group pays for a bank),
    // then hit with Q = {u1}, {}, {u1, zz} and, in brave mode, {u0} and
    // {u0, zz}.
    const std::vector<std::vector<batch::BatchQuery>> skeptical_batches = {
        {{StrFormat("%s | u0", a.c_str()), false},
         {StrFormat("%s | ~u0", a.c_str()), false}},
        {{StrFormat("%s | u1", a.c_str()), false},
         {StrFormat("~u1 -> %s", a.c_str()), false}},
        {{a, true}, {StrFormat("not %s", a.c_str()), true}},
        {{StrFormat("%s | (u1 & zz)", a.c_str()), false}},
    };
    const std::vector<batch::BatchQuery> brave_batch = {
        {StrFormat("%s & ~u0", a.c_str()), false},
        {StrFormat("~(~%s & ~u0 & ~zz)", a.c_str()), false}};
    for (SemanticsKind kind : kSliceSoundKinds) {
      const std::string sem = SemanticsKindName(kind);
      const std::set<Interpretation> models =
          testing::ModelSet(ReferenceModels(kind, ref));
      auto reference = [&](const std::string& text, bool brave) {
        Result<Formula> f = ParseFormula(text, &ref.vocabulary());
        EXPECT_TRUE(f.ok()) << text;
        bool all = true, some = false;
        for (const Interpretation& m : models) {
          const bool holds = (*f)->Eval(m);
          all &= holds;
          some |= holds;
        }
        return TrileanFromBool(brave ? some : all);
      };
      for (bool witnesses : {false, true}) {
        Reasoner r(db);
        batch::BatchOptions opts;
        opts.use_answer_cache = false;
        opts.collect_witnesses = witnesses;
        for (size_t b = 0; b < skeptical_batches.size(); ++b) {
          const auto& qs = skeptical_batches[b];
          Result<batch::BatchAnswer> got = r.AnswerBatch(kind, qs, opts);
          ASSERT_TRUE(got.ok()) << sem;
          EXPECT_EQ(got->stats.groups, 1) << sem << " batch " << b;
          EXPECT_EQ(got->stats.bank_store_hits, b == 0 ? 0 : 1)
              << sem << " seed " << seed << " batch " << b;
          for (size_t i = 0; i < qs.size(); ++i) {
            const std::string text =
                qs[i].is_literal && qs[i].text.rfind("not ", 0) == 0
                    ? StrFormat("~%s", qs[i].text.c_str() + 4)
                    : qs[i].text;
            EXPECT_EQ(got->answers[i], reference(text, false))
                << sem << " seed " << seed << " " << qs[i].text;
            if (witnesses && got->answers[i] == Trilean::kNo) {
              ASSERT_TRUE(got->witnesses[i].has_value());
              Result<Formula> f = ParseFormula(text, &ref.vocabulary());
              ASSERT_TRUE(f.ok());
              EXPECT_FALSE((*f)->Eval(*got->witnesses[i])) << qs[i].text;
              EXPECT_TRUE(CertifiesPart(*got->witnesses[i], *f, false, models))
                  << sem << " " << qs[i].text;
            }
          }
        }
        Result<batch::BatchAnswer> br =
            r.AnswerBatchCredulous(kind, brave_batch, opts);
        ASSERT_TRUE(br.ok()) << sem;
        EXPECT_EQ(br->stats.bank_store_hits, br->stats.groups) << sem;
        for (size_t i = 0; i < brave_batch.size(); ++i) {
          EXPECT_EQ(br->answers[i], reference(brave_batch[i].text, true))
              << sem << " seed " << seed << " brave " << brave_batch[i].text;
          if (witnesses && br->answers[i] == Trilean::kYes) {
            ASSERT_TRUE(br->witnesses[i].has_value());
            Result<Formula> f =
                ParseFormula(brave_batch[i].text, &ref.vocabulary());
            ASSERT_TRUE(f.ok());
            EXPECT_TRUE((*f)->Eval(*br->witnesses[i]));
            EXPECT_TRUE(CertifiesPart(*br->witnesses[i], *f, true, models))
                << sem << " brave " << brave_batch[i].text;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace dd
