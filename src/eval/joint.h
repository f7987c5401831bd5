// Joint multi-relation semi-naive fixpoint for mutually recursive
// predicates — one strongly connected component of the predicate
// dependency graph closed as a unit.
//
// The paper's processing class is single-predicate linear recursion; the
// joint fixpoint lifts the same computation model to *stratified linear
// mutual recursion*: every rule consumes exactly one tuple of exactly one
// member predicate (its "recursive atom") and derives into its head
// member, so the component closes by the familiar Δ-driven rounds — one Δ
// row-range per member relation. This is the general case of the one round
// executor (eval/fixpoint.cc): the single-relation closures of
// eval/fixpoint.h are its M=1 instance. Rules compile once per closure
// (eval/apply.h CompiledRule) and every round runs serially, appending each
// member's derivations straight into its relation.

#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "datalog/rule.h"
#include "eval/index_cache.h"
#include "eval/stats.h"
#include "storage/database.h"

namespace linrec {

/// One rule of a joint closure over member predicates 0..M-1. The rule's
/// head predicate is member `head_member`; body atom `recursive_atom` is
/// the single atom reading a member relation (`recursive_member`, which
/// may equal `head_member` — plain self-recursion inside the component).
/// Every other body atom must resolve outside the component (EDB or an
/// already-materialized lower stratum): the joint fixpoint overrides only
/// the recursive atom, so a second member atom in the body would silently
/// read stale data. ValidateJointRules rejects such rules as non-linear.
struct JointRule {
  Rule rule;
  int head_member = -1;
  int recursive_atom = -1;
  int recursive_member = -1;
  /// Body atoms that read a caller-owned relation instead of `db` (atom
  /// index → relation, as in ApplyOptions::overrides). Empty for program
  /// rules; the IVM delete path pins its suspect guards here, so a guarded
  /// closure runs over the engine database without copying it. The
  /// relations must outlive the closure call, and a rule with pinned
  /// atoms must carry no equality atoms (eliminating them renumbers the
  /// body; PrepareJointRules remaps only `recursive_atom`).
  std::unordered_map<int, const Relation*> pinned = {};
};

/// The joint boundary validation, shared by Query::Validate and the
/// closure entry points below: members distinct (and not the reserved
/// equality predicate), one seed per member, every rule structurally
/// valid and headed by its member with its recursive atom reading
/// `members[recursive_member]`, head/recursive arities matching the
/// seeds, and — the linearity invariant — exactly one body atom naming
/// any member (a second member atom would resolve against `db`, where
/// members are absent, and silently compute a wrong fixpoint).
Status ValidateJointRules(const std::vector<std::string>& members,
                          const std::vector<JointRule>& rules,
                          const std::vector<Relation>& seeds);

/// Statically eliminates the equality atoms of every rule, remapping each
/// recursive atom index (elimination keeps the relative order of the other
/// atoms). Rules left unsatisfiable derive nothing and are dropped. Every
/// closure entry point runs this once up front; the IVM delta rules
/// (src/ivm) reuse it.
Result<std::vector<JointRule>> PrepareJointRules(
    std::vector<JointRule> rules);

/// Structure-only variant: everything ValidateJointRules checks except the
/// seed count and seed-arity consistency. Used for prepared joint queries
/// (Engine::Prepare), whose seeds arrive per execution via
/// BoundQuery::BindSeeds — the closure entry points re-run the full
/// validation against the actual seeds.
Status ValidateJointRuleStructure(const std::vector<std::string>& members,
                                  const std::vector<JointRule>& rules);

/// Computes the least relations P_0..P_{M-1} with P_i ⊇ seeds[i] jointly
/// closed under every rule, by multi-relation semi-naive evaluation: each
/// round applies every rule to the Δ row-range of its recursive member
/// only. members[i] names P_i (used for validation); member arities are
/// the seed arities.
///
/// Equality atoms in rule bodies are statically eliminated up front
/// (rules left unsatisfiable contribute nothing). Parameter relations are
/// read from `db`; member relations are never read from `db` — the
/// recursive atom reads the evolving member relation via its override.
Result<std::vector<Relation>> JointSemiNaiveClosure(
    const std::vector<std::string>& members,
    const std::vector<JointRule>& rules, const Database& db,
    const std::vector<Relation>& seeds, ClosureStats* stats = nullptr,
    IndexCache* cache = nullptr, const CancellationToken* cancel = nullptr);

/// In-place joint continuation — the multi-member counterpart of
/// SemiNaiveExtend (eval/fixpoint.h), used by the IVM delta engine.
/// `rels` holds one relation per member whose rows [0, delta_begin[m])
/// form a jointly closed prefix (a fixpoint of the rules) and whose rows
/// [delta_begin[m], size) are freshly appended seed/delta tuples; the call
/// extends every member to the joint fixpoint of the union, running Δ
/// rounds from exactly the appended ranges. Nothing is copied: every
/// mutation is an append, so the caller rolls a failure back by truncating
/// each member to its pre-call size (Relation::TruncateRows).
Status JointSemiNaiveExtend(const std::vector<std::string>& members,
                            const std::vector<JointRule>& rules,
                            const Database& db, std::vector<Relation>* rels,
                            const std::vector<RowId>& delta_begin,
                            ClosureStats* stats = nullptr,
                            IndexCache* cache = nullptr,
                            const CancellationToken* cancel = nullptr);

/// The same fixpoint by naive evaluation: each round re-applies every rule
/// to its recursive member's FULL relation. Reference/baseline only —
/// identical results with many more duplicate derivations.
Result<std::vector<Relation>> JointNaiveClosure(
    const std::vector<std::string>& members,
    const std::vector<JointRule>& rules, const Database& db,
    const std::vector<Relation>& seeds, ClosureStats* stats = nullptr,
    IndexCache* cache = nullptr, const CancellationToken* cancel = nullptr);

}  // namespace linrec
