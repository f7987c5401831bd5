// The closure engines of eval/fixpoint.h and eval/joint.h, over one round
// executor. Every fixpoint is the joint case over M >= 1 member relations:
// the single-relation entry points convert each LinearRule to the M=1
// JointRule{rule, 0, recursive atom, 0} and run the same rounds, loops and
// stats epilogue as the joint ones.

#include "eval/fixpoint.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <string>

#include "common/memory.h"
#include "common/strings.h"
#include "datalog/equality.h"
#include "datalog/printer.h"
#include "eval/apply.h"
#include "eval/joint.h"

namespace linrec {
namespace {

/// RAII accumulator: adds the enclosing scope's wall-clock milliseconds to
/// stats->millis (no-op when stats is null).
class ClosureTimer {
 public:
  explicit ClosureTimer(ClosureStats* stats)
      : stats_(stats), start_(std::chrono::steady_clock::now()) {}
  ~ClosureTimer() {
    if (stats_ != nullptr) {
      auto end = std::chrono::steady_clock::now();
      stats_->millis +=
          std::chrono::duration<double, std::milli>(end - start_).count();
    }
  }
  ClosureTimer(const ClosureTimer&) = delete;
  ClosureTimer& operator=(const ClosureTimer&) = delete;

 private:
  ClosureStats* stats_;
  std::chrono::steady_clock::time_point start_;
};

Status ValidateRules(const std::vector<LinearRule>& rules, const Relation& q) {
  if (rules.empty()) {
    return Status::InvalidArgument("closure requires at least one rule");
  }
  for (const LinearRule& lr : rules) {
    if (lr.arity() != q.arity()) {
      return Status::InvalidArgument(
          StrCat("rule head arity ", lr.arity(),
                 " does not match initial relation arity ", q.arity()));
    }
    if (lr.recursive_predicate() != rules[0].recursive_predicate()) {
      return Status::InvalidArgument(
          StrCat("rules mix recursive predicates '",
                 rules[0].recursive_predicate(), "' and '",
                 lr.recursive_predicate(), "'"));
    }
  }
  return Status::OK();
}

/// Single-relation rules as the M=1 joint case: every rule heads and reads
/// member 0.
std::vector<JointRule> AsJoint(const std::vector<LinearRule>& rules) {
  std::vector<JointRule> out;
  out.reserve(rules.size());
  for (const LinearRule& lr : rules) {
    out.push_back(JointRule{lr.rule(), 0, lr.recursive_atom_index(), 0});
  }
  return out;
}

std::vector<Relation*> Pointers(std::vector<Relation>* rels) {
  std::vector<Relation*> out;
  out.reserve(rels->size());
  for (Relation& r : *rels) out.push_back(&r);
  return out;
}

std::size_t TotalSize(const std::vector<Relation*>& rels) {
  std::size_t total = 0;
  for (const Relation* r : rels) total += r->size();
  return total;
}

/// Applies one prepared rule set to Δ row ranges of M member relations —
/// the engine of every round below. Compiles each rule once against its
/// recursive member's relation (the join plan and its scratch persist
/// across rounds, so the steady state allocates nothing on the hot path);
/// each Round() runs every rule over its member's Δ and emits the derived
/// rows straight into the head member's target.
class RoundExecutor {
 public:
  /// `inputs[m]` is member m's relation: every rule whose recursive member
  /// is m reads it, and row ranges passed to Round() index into it. The
  /// relations must stay at their addresses for the executor's lifetime.
  /// They may be (and for every loop but PowerSum's are) the targets
  /// Round() appends to.
  RoundExecutor(const std::vector<JointRule>& rules, const Database& db,
                std::vector<Relation*> inputs)
      : rules_(&rules), db_(&db), inputs_(std::move(inputs)) {
    by_member_.resize(inputs_.size());
    for (std::size_t k = 0; k < rules.size(); ++k) {
      by_member_[static_cast<std::size_t>(rules[k].recursive_member)]
          .push_back(static_cast<int>(k));
    }
  }

  /// True iff some rule consumes member `m` — a Δ on a member no rule
  /// reads cannot drive further derivations.
  bool Feeds(std::size_t m) const { return !by_member_[m].empty(); }

  /// Compiles every rule; every round probes parameter relations through
  /// `cache`, which must outlive the executor.
  Status Compile(IndexCache* cache) {
    compiled_.clear();
    compiled_.reserve(rules_->size());
    for (const JointRule& jr : *rules_) {
      ApplyOptions options;
      options.overrides = jr.pinned;
      options.overrides[jr.recursive_atom] =
          inputs_[static_cast<std::size_t>(jr.recursive_member)];
      options.first_atom = jr.recursive_atom;
      Result<CompiledRule> compiled = CompileRule(jr.rule, *db_, options);
      if (!compiled.ok()) return compiled.status();
      compiled_.push_back(std::move(compiled).value());
    }
    cache_ = cache;
    return Status::OK();
  }

  /// Applies every rule to its recursive member's input rows
  /// [begin[m], end[m]) and appends the derived rows missing from the head
  /// member's target to that target — one dedup probe per derivation. A
  /// non-null `cancel` is checked inside the join cursor, so one runaway
  /// round stops in milliseconds instead of running to completion.
  ///
  /// Safe even when the targets are the inputs (the semi-naive case): each
  /// Δ scan is bounded by `end`, the recursive atom is the only step
  /// reading a member relation (the rules are linear), and the join kernel
  /// re-resolves row pointers per candidate, so appends to any member —
  /// including the one being scanned — never invalidate a live read.
  Status Round(const std::vector<RowId>& begin, const std::vector<RowId>& end,
               const std::vector<Relation*>& targets, ClosureStats* stats,
               const CancellationToken* cancel) {
    for (std::size_t m = 0; m < inputs_.size(); ++m) {
      if (begin[m] >= end[m]) continue;
      PartitionView slice = inputs_[m]->View(begin[m], end[m]);
      for (int k : by_member_[m]) {
        const std::size_t head = static_cast<std::size_t>(
            (*rules_)[static_cast<std::size_t>(k)].head_member);
        LINREC_RETURN_IF_ERROR(
            compiled_[static_cast<std::size_t>(k)].RunPartition(
                slice, targets[head], stats, cache_, cancel));
      }
    }
    return Status::OK();
  }

 private:
  const std::vector<JointRule>* rules_;
  const Database* db_;
  std::vector<Relation*> inputs_;
  IndexCache* cache_ = nullptr;
  std::vector<std::vector<int>> by_member_;  // member → consuming rules
  std::vector<CompiledRule> compiled_;       // one per rule
};

/// The one stats epilogue. A record may be threaded through several calls,
/// so the call adds only its own duplicates — the derivations it made
/// minus the rows it added — to the Theorem 3.1 counter.
void Finish(ClosureStats* stats, std::size_t derivations_before,
            std::size_t seeded, std::size_t result_size) {
  if (stats == nullptr) return;
  stats->result_size = result_size;
  stats->duplicates +=
      (stats->derivations - derivations_before) - (result_size - seeded);
}

/// The body shared by every Δ-driven entry point once its member relations
/// are validated and seeded: equality elimination, the compiled executor,
/// the round loop and the stats epilogue. Rows [begin[m], size) of each
/// member are the initial Δ; the rows before them are a closed prefix.
///
/// Semi-naive feeds each round the row ranges the previous one appended,
/// so no tuple is ever copied into a separate Δ relation and the next Δ
/// materializes as a side effect of the merge. Naive re-feeds every member
/// from row 0 and stops once a full re-application adds nothing.
Status Close(std::vector<JointRule> rules, const Database& db,
             const std::vector<Relation*>& rels, std::vector<RowId> begin,
             bool naive, ClosureStats* stats, IndexCache* cache,
             const CancellationToken* cancel) {
  Result<std::vector<JointRule>> prepared =
      PrepareJointRules(std::move(rules));
  if (!prepared.ok()) return prepared.status();
  IndexCache local_cache;
  if (cache == nullptr) cache = &local_cache;
  const std::size_t derivations = stats != nullptr ? stats->derivations : 0;
  const std::size_t seeded = TotalSize(rels);

  if (!prepared->empty()) {
    RoundExecutor executor(*prepared, db, rels);
    LINREC_RETURN_IF_ERROR(executor.Compile(cache));
    std::vector<RowId> end(rels.size());
    for (;;) {
      std::size_t total_before = 0;
      std::size_t delta_rows = 0;
      for (std::size_t m = 0; m < rels.size(); ++m) {
        end[m] = static_cast<RowId>(rels[m]->size());
        total_before += end[m];
        if (executor.Feeds(m)) delta_rows += end[m] - begin[m];
      }
      if (delta_rows == 0) break;
      LINREC_RETURN_IF_ERROR(CheckCancel(cancel));
      if (stats != nullptr) ++stats->iterations;
      LINREC_RETURN_IF_ERROR(executor.Round(begin, end, rels, stats, cancel));
      if (!naive) {
        begin = end;
      } else if (TotalSize(rels) == total_before) {
        break;
      }
    }
  }
  Finish(stats, derivations, seeded, TotalSize(rels));
  return Status::OK();
}

/// Shared body of ValidateJointRules / ValidateJointRuleStructure: a null
/// `seeds` skips the seed-count and seed-arity checks (prepared queries
/// bind seeds per execution; the closure entry points re-validate fully).
Status ValidateJointImpl(const std::vector<std::string>& members,
                         const std::vector<JointRule>& rules,
                         const std::vector<Relation>* seeds) {
  if (members.empty()) {
    return Status::InvalidArgument(
        "joint closure requires at least one member");
  }
  std::map<std::string, int> index_of;
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i] == kEqualityPredicate) {
      return Status::InvalidArgument(
          StrCat("'", kEqualityPredicate,
                 "' is reserved and cannot be a joint member"));
    }
    if (!index_of.emplace(members[i], static_cast<int>(i)).second) {
      return Status::InvalidArgument(
          StrCat("joint member '", members[i], "' is not distinct"));
    }
  }
  if (seeds != nullptr && seeds->size() != members.size()) {
    return Status::InvalidArgument(StrCat("joint closure has ",
                                          seeds->size(), " seeds for ",
                                          members.size(), " members"));
  }
  const int member_count = static_cast<int>(members.size());
  for (const JointRule& jr : rules) {
    LINREC_RETURN_IF_ERROR(jr.rule.Validate());
    if (jr.head_member < 0 || jr.head_member >= member_count ||
        jr.recursive_member < 0 || jr.recursive_member >= member_count) {
      return Status::InvalidArgument(
          StrCat("joint rule member indices (", jr.head_member, ", ",
                 jr.recursive_member, ") out of range for ", member_count,
                 " members"));
    }
    const std::string& head_name =
        members[static_cast<std::size_t>(jr.head_member)];
    if (jr.rule.head().predicate != head_name) {
      return Status::InvalidArgument(
          StrCat("joint rule head '", jr.rule.head().predicate,
                 "' does not match member '", head_name, "'"));
    }
    if (jr.recursive_atom < 0 ||
        jr.recursive_atom >= static_cast<int>(jr.rule.body().size())) {
      return Status::InvalidArgument(
          StrCat("joint rule recursive atom index ", jr.recursive_atom,
                 " out of range for a body of ", jr.rule.body().size(),
                 " atoms"));
    }
    const Atom& rec =
        jr.rule.body()[static_cast<std::size_t>(jr.recursive_atom)];
    if (rec.predicate !=
        members[static_cast<std::size_t>(jr.recursive_member)]) {
      return Status::InvalidArgument(
          StrCat("joint rule recursive atom '", rec.predicate,
                 "' does not match member '",
                 members[static_cast<std::size_t>(jr.recursive_member)],
                 "'"));
    }
    // The linearity invariant: exactly one body atom may read a member.
    // The joint fixpoint overrides only the recursive atom, so a second
    // member atom would resolve against `db` — where members are absent,
    // i.e. as an empty relation — and silently compute a wrong fixpoint.
    int member_atoms = 0;
    for (const Atom& atom : jr.rule.body()) {
      if (index_of.count(atom.predicate) > 0) ++member_atoms;
    }
    if (member_atoms != 1) {
      return Status::InvalidArgument(
          StrCat("joint rule must read exactly one member atom, found ",
                 member_atoms, ": ", ToString(jr.rule)));
    }
    if (seeds != nullptr) {
      const std::size_t head_arity =
          (*seeds)[static_cast<std::size_t>(jr.head_member)].arity();
      if (jr.rule.head().arity() != head_arity) {
        return Status::InvalidArgument(
            StrCat("joint rule head arity ", jr.rule.head().arity(),
                   " does not match seed arity ", head_arity,
                   " of member '", head_name, "'"));
      }
      const std::size_t rec_arity =
          (*seeds)[static_cast<std::size_t>(jr.recursive_member)].arity();
      if (rec.arity() != rec_arity) {
        return Status::InvalidArgument(
            StrCat("joint rule recursive atom arity ", rec.arity(),
                   " does not match seed arity ", rec_arity,
                   " of member '", rec.predicate, "'"));
      }
    }
  }
  return Status::OK();
}

Result<std::vector<Relation>> CloseJoint(
    const std::vector<std::string>& members,
    const std::vector<JointRule>& rules, const Database& db,
    const std::vector<Relation>& seeds, ClosureStats* stats,
    IndexCache* cache, bool naive, const CancellationToken* cancel) {
  return GuardAllocFailures([&]() -> Result<std::vector<Relation>> {
    LINREC_RETURN_IF_ERROR(ValidateJointRules(members, rules, seeds));
    ClosureTimer timer(stats);
    std::vector<Relation> rels = seeds;
    LINREC_RETURN_IF_ERROR(Close(rules, db, Pointers(&rels),
                                 std::vector<RowId>(rels.size(), 0), naive,
                                 stats, cache, cancel));
    return rels;
  });
}

}  // namespace

Result<std::vector<JointRule>> PrepareJointRules(
    std::vector<JointRule> rules) {
  std::vector<JointRule> out;
  out.reserve(rules.size());
  for (JointRule& jr : rules) {
    if (!HasEqualities(jr.rule)) {
      out.push_back(std::move(jr));
      continue;
    }
    int eq_before = 0;
    for (int i = 0; i < jr.recursive_atom; ++i) {
      if (jr.rule.body()[static_cast<std::size_t>(i)].predicate ==
          kEqualityPredicate) {
        ++eq_before;
      }
    }
    Result<std::optional<Rule>> eliminated = EliminateEqualities(jr.rule);
    if (!eliminated.ok()) return eliminated.status();
    if (!eliminated->has_value()) continue;
    jr.rule = std::move(**eliminated);
    jr.recursive_atom -= eq_before;
    out.push_back(std::move(jr));
  }
  return out;
}

Status ValidateJointRules(const std::vector<std::string>& members,
                          const std::vector<JointRule>& rules,
                          const std::vector<Relation>& seeds) {
  return ValidateJointImpl(members, rules, &seeds);
}

Status ValidateJointRuleStructure(const std::vector<std::string>& members,
                                  const std::vector<JointRule>& rules) {
  return ValidateJointImpl(members, rules, nullptr);
}

// Every public closure entry point runs under GuardAllocFailures: a denied
// budget charge (or injected allocation fault) on the calling thread throws
// ResourceExhaustedError out of the storage layer, and the guard converts it
// — like a genuine bad_alloc — into Status::ResourceExhausted.
Result<Relation> SemiNaiveClosure(const std::vector<LinearRule>& rules,
                                  const Database& db, const Relation& q,
                                  ClosureStats* stats, IndexCache* cache,
                                  const CancellationToken* cancel) {
  return GuardAllocFailures([&]() -> Result<Relation> {
    LINREC_RETURN_IF_ERROR(ValidateRules(rules, q));
    ClosureTimer timer(stats);
    Relation result = q;
    LINREC_RETURN_IF_ERROR(Close(AsJoint(rules), db, {&result}, {0},
                                 /*naive=*/false, stats, cache, cancel));
    return result;
  });
}

Result<Relation> SemiNaiveResume(const std::vector<LinearRule>& rules,
                                 const Database& db, const Relation& closed,
                                 const Relation& extra, ClosureStats* stats,
                                 IndexCache* cache,
                                 const CancellationToken* cancel) {
  return GuardAllocFailures([&]() -> Result<Relation> {
    LINREC_RETURN_IF_ERROR(ValidateRules(rules, closed));
    if (extra.arity() != closed.arity()) {
      return Status::InvalidArgument(
          StrCat("extra arity ", extra.arity(), " != closed arity ",
                 closed.arity()));
    }
    ClosureTimer timer(stats);
    // Seed the Δ with the genuinely new tuples only. Because every rule is
    // linear — each derivation consumes exactly one recursive tuple — and
    // `closed` is a fixpoint of the rules, derivations whose recursive
    // input lies in `closed` can only reproduce `closed`; they need not be
    // re-run. The new tuples are appended to `result`, so the initial Δ is
    // exactly the row range past the closed prefix.
    Relation result = closed;
    const RowId delta_begin = static_cast<RowId>(result.size());
    result.Reserve(result.size() + extra.size());
    for (TupleView t : extra) result.Insert(t);
    LINREC_RETURN_IF_ERROR(Close(AsJoint(rules), db, {&result},
                                 {delta_begin}, /*naive=*/false, stats,
                                 cache, cancel));
    return result;
  });
}

Status SemiNaiveExtend(const std::vector<LinearRule>& rules,
                       const Database& db, Relation* result,
                       RowId delta_begin, ClosureStats* stats,
                       IndexCache* cache, const CancellationToken* cancel) {
  return GuardAllocFailures([&]() -> Status {
    LINREC_RETURN_IF_ERROR(ValidateRules(rules, *result));
    if (delta_begin > result->size()) {
      return Status::InvalidArgument(
          StrCat("delta_begin ", delta_begin, " past result size ",
                 result->size()));
    }
    ClosureTimer timer(stats);
    return Close(AsJoint(rules), db, {result}, {delta_begin},
                 /*naive=*/false, stats, cache, cancel);
  });
}

Result<Relation> NaiveClosure(const std::vector<LinearRule>& rules,
                              const Database& db, const Relation& q,
                              ClosureStats* stats, IndexCache* cache,
                              const CancellationToken* cancel) {
  return GuardAllocFailures([&]() -> Result<Relation> {
    LINREC_RETURN_IF_ERROR(ValidateRules(rules, q));
    ClosureTimer timer(stats);
    Relation result = q;
    LINREC_RETURN_IF_ERROR(Close(AsJoint(rules), db, {&result}, {0},
                                 /*naive=*/true, stats, cache, cancel));
    return result;
  });
}

Result<Relation> PowerSum(const std::vector<LinearRule>& rules,
                          const Database& db, const Relation& q,
                          int max_power, ClosureStats* stats,
                          IndexCache* cache, const CancellationToken* cancel) {
  return GuardAllocFailures([&]() -> Result<Relation> {
    LINREC_RETURN_IF_ERROR(ValidateRules(rules, q));
    if (max_power < 0) {
      return Status::InvalidArgument("max_power must be >= 0");
    }
    ClosureTimer timer(stats);
    Result<std::vector<JointRule>> prepared =
        PrepareJointRules(AsJoint(rules));
    if (!prepared.ok()) return prepared.status();
    IndexCache local_cache;
    if (cache == nullptr) cache = &local_cache;
    const std::size_t derivations = stats != nullptr ? stats->derivations : 0;

    Relation result = q;  // the m = 0 term
    if (!prepared->empty()) {
      // `current` is the fixed input address the compiled rules read; the
      // executor writes each power into `next`, then the two swap.
      Relation current = q;
      Relation next(q.arity());
      RoundExecutor executor(*prepared, db, {&current});
      LINREC_RETURN_IF_ERROR(executor.Compile(cache));
      const std::vector<Relation*> targets = {&next};
      const std::vector<RowId> begin = {0};
      std::vector<RowId> end = {0};
      for (int m = 1; m <= max_power; ++m) {
        LINREC_RETURN_IF_ERROR(CheckCancel(cancel));
        if (stats != nullptr) ++stats->iterations;
        next.Clear();
        end[0] = static_cast<RowId>(current.size());
        LINREC_RETURN_IF_ERROR(
            executor.Round(begin, end, targets, stats, cancel));
        std::swap(current, next);
        if (current.empty()) break;
        result.UnionWith(current);
      }
    }
    Finish(stats, derivations, q.size(), result.size());
    return result;
  });
}

Result<std::vector<Relation>> JointSemiNaiveClosure(
    const std::vector<std::string>& members,
    const std::vector<JointRule>& rules, const Database& db,
    const std::vector<Relation>& seeds, ClosureStats* stats,
    IndexCache* cache, const CancellationToken* cancel) {
  return CloseJoint(members, rules, db, seeds, stats, cache,
                    /*naive=*/false, cancel);
}

Result<std::vector<Relation>> JointNaiveClosure(
    const std::vector<std::string>& members,
    const std::vector<JointRule>& rules, const Database& db,
    const std::vector<Relation>& seeds, ClosureStats* stats,
    IndexCache* cache, const CancellationToken* cancel) {
  return CloseJoint(members, rules, db, seeds, stats, cache,
                    /*naive=*/true, cancel);
}

Status JointSemiNaiveExtend(const std::vector<std::string>& members,
                            const std::vector<JointRule>& rules,
                            const Database& db, std::vector<Relation>* rels,
                            const std::vector<RowId>& delta_begin,
                            ClosureStats* stats, IndexCache* cache,
                            const CancellationToken* cancel) {
  return GuardAllocFailures([&]() -> Status {
    LINREC_RETURN_IF_ERROR(ValidateJointRules(members, rules, *rels));
    if (delta_begin.size() != rels->size()) {
      return Status::InvalidArgument(
          StrCat("joint extend has ", delta_begin.size(),
                 " delta offsets for ", rels->size(), " members"));
    }
    for (std::size_t m = 0; m < rels->size(); ++m) {
      if (delta_begin[m] > (*rels)[m].size()) {
        return Status::InvalidArgument(
            StrCat("delta_begin ", delta_begin[m], " past member ", m,
                   " size ", (*rels)[m].size()));
      }
    }
    ClosureTimer timer(stats);
    return Close(rules, db, Pointers(rels), delta_begin, /*naive=*/false,
                 stats, cache, cancel);
  });
}

}  // namespace linrec
