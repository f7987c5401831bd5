// The IVM delta engine: Engine::Materialize / Apply / Retract.
//
// Every view runs on the joint closure entry points: a single-predicate
// view is the M=1 case.
//
// Apply is the insert half: the closed view plus freshly appended tuples
// is handed to the in-place semi-naive continuation (JointSemiNaiveExtend),
// which runs Δ rounds from exactly the appended row ranges. The one-step
// consequences of new PARAMETER tuples are produced first by "delta
// rules" — the rule with one body atom pinned to the delta relation and
// the recursive atom pinned to the closed view — so a parameter insert
// seeds the continuation the same way a seed insert does. Every mutation
// on this path is an append; failure rollback is Relation::TruncateRows
// back to the recorded sizes, which restores the exact pre-call bytes (and
// cannot itself fail: it only deletes dedup slots, allocating nothing).
//
// Retract is the delete half — delete-and-rederive (DRed; Gupta, Mumick &
// Subrahmanian, SIGMOD 1993), with every step after the suspect closure
// bounded by the suspects rather than the view (when the suspects are at
// least half the view, the survivors are read instead — no more rows):
//   1. Over-delete: close the set of DIRECTLY damaged tuples (deleted
//      seed tuples, plus heads of derivations consuming a deleted
//      parameter tuple) under the rules — linearity makes "derivable
//      from a suspect" the same linear closure the view itself uses, so
//      the suspect set D is computed by JointSemiNaiveClosure over the
//      suspects.
//   2. Re-derive: the survivors closed \ D are sound (none of their
//      derivations touched a deleted tuple), and they stay where they
//      are. Linearity makes "re-derivable in one step from a survivor" a
//      single join per suspect: each delta rule runs with a guard atom
//      over its head pinned to D and scanned first, emitting (head,
//      recursive tuple) pairs, and a pair whose recursive tuple lies in D
//      is dropped. Those heads plus the suspects still in the seed form
//      the frontier, which JointSemiNaiveExtend closes with every rule
//      guarded by D (a head outside D is a survivor already in the view).
//      When D is at least half the view the rounds start from a copy of
//      the survivors instead, unguarded, and the first round derives the
//      frontier. The re-derived set equals D ∩ the from-scratch closure
//      of the new seed over the new database: any tuple of that closure
//      has a minimal derivation chain, and induction along the chain
//      lands it either in the survivors, in the frontier or in a round.
//   3. Commit: erase D minus the re-derived set from the view, and the
//      deleted seed tuples from the seed, in place (Relation::EraseRows —
//      order-preserving, allocation-free, so the commit cannot fail).
// The only mutation before commit is the parameter erasure, which keeps
// copies of the originals for restore-on-failure.
//
// The cost of one update. The operators are linear in the view, so a
// one-tuple update's one-step consequences are a σ on one column of the
// view joined with the delta: Apply step 2 and Retract step 1a probe the
// view once per delta row. Each version of the view lives for one update,
// so those probes are column scans (IndexCache's rent-or-buy credit is
// never spent by them) — not a HashIndex built over the whole view to
// answer one probe and be invalidated by the next append or erase. The
// Δ rounds and the suspect closure probe the parameter relations, which
// the cache indexes once a round's probe count or the spent credit says a
// build pays. The commit's EraseRows keeps the view's dedup table. So an
// INSERT costs one sequential column scan of the view plus work
// proportional to its new consequences, and a DELETE costs one scan, the
// suspect cone, and sequential erase passes over the dedup slots and the
// rows after the first erased one — no pass rehashes or indexes the view.

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/memory.h"
#include "common/status.h"
#include "common/strings.h"
#include "engine/engine.h"
#include "eval/apply.h"
#include "eval/joint.h"
#include "ivm/view.h"
#include "storage/relation.h"

namespace linrec {

namespace {

/// The view's rules in the executor's joint form. A single-predicate view
/// is the M=1 case, its member named by the plan's recursive predicate.
struct ViewRules {
  std::vector<std::string> members;
  std::vector<JointRule> rules;
};

ViewRules RulesOf(const ExecutionPlan& plan, bool joint) {
  if (joint) return {plan.members, plan.joint_rules};
  ViewRules out;
  out.members = {plan.rules.front().recursive_predicate()};
  for (const LinearRule& lr : plan.rules) {
    out.rules.push_back(JointRule{lr.rule(), 0, lr.recursive_atom_index(), 0});
  }
  return out;
}

/// `jr.rule` with one more body atom, appended last: the guard, over the
/// head's terms. Pinned to a relation, it restricts the rule to the heads
/// that relation holds. With `pair` the head also carries the recursive
/// atom's terms, so each derivation reports the tuple it consumed. The
/// guard's predicate name is not a valid identifier, so it never collides
/// with a member or a database relation.
Rule GuardedRule(const JointRule& jr, bool pair) {
  const Rule& rule = jr.rule;
  Atom head = rule.head();
  std::vector<Atom> body = rule.body();
  body.push_back(Atom{"$guard", rule.head().terms});
  if (pair) {
    const Atom& rec = rule.body()[static_cast<std::size_t>(jr.recursive_atom)];
    head.predicate = "$pair";
    head.terms.insert(head.terms.end(), rec.terms.begin(), rec.terms.end());
  }
  return Rule(std::move(head), std::move(body), rule.var_names());
}

}  // namespace

Result<MaterializedView> Engine::Materialize(const BoundQuery& bound,
                                             std::vector<std::string> names,
                                             ClosureStats* stats) {
  LINREC_RETURN_IF_ERROR(bound.Validate());
  const std::shared_ptr<const ExecutionPlan>& plan = bound.plan();
  if (bound.selection().has_value() || plan->selection.has_value()) {
    return Status::InvalidArgument(
        "cannot materialize a view over a selected (σ) query: the filtered "
        "relation is not closed under the rules, so it cannot be maintained "
        "incrementally");
  }
  const bool joint = plan->strategy == Strategy::kJointSemiNaive;
  const std::size_t members = joint ? plan->members.size() : 1;
  if (names.size() != members) {
    return Status::InvalidArgument(
        StrCat("Materialize needs one name per member: got ", names.size(),
               " names for ", members, " member(s)"));
  }

  Result<QueryResult> result = Execute(bound);
  if (!result.ok()) return result.status();
  if (stats != nullptr) *stats = result->stats;

  // Arity guard before any installation (GetOrCreate asserts on mismatch).
  for (std::size_t m = 0; m < members; ++m) {
    const Relation* existing = db_.Find(names[m]);
    if (existing != nullptr &&
        existing->arity() != result->relations[m].arity()) {
      return Status::InvalidArgument(
          StrCat("cannot install view member '", names[m], "' of arity ",
                 result->relations[m].arity(), " over existing relation of ",
                 "arity ", existing->arity()));
    }
  }

  MaterializedView view;
  view.plan_ = plan;
  view.joint_ = joint;
  view.names_ = std::move(names);
  if (joint) {
    view.seeds_ = *bound.seeds();
  } else {
    view.seeds_.push_back(*bound.seed());
  }
  for (std::size_t m = 0; m < members; ++m) {
    Relation& slot =
        db_.GetOrCreate(view.names_[m], result->relations[m].arity());
    slot = std::move(result->relations[m]);
  }
  return view;
}

Result<ApplyOutcome> Engine::Apply(MaterializedView& view,
                                   const DeltaInsert& delta,
                                   const CancellationToken* cancel,
                                   QueryBudget* budget) {
  if (view.plan_ == nullptr) {
    return Status::InvalidArgument("Apply on a default-constructed view");
  }
  const ExecutionPlan& plan = view.plan();
  const std::size_t members = view.member_count();

  // Resolve and validate everything before the first mutation.
  std::vector<Relation*> closed(members, nullptr);
  for (std::size_t m = 0; m < members; ++m) {
    closed[m] = db_.FindMutable(view.names_[m]);
    if (closed[m] == nullptr) {
      return Status::Internal(StrCat("view relation '", view.names_[m],
                                     "' missing from the database"));
    }
  }
  if (!delta.seed_inserts.empty() && delta.seed_inserts.size() != members) {
    return Status::InvalidArgument(
        StrCat("seed_inserts must have one relation per member: got ",
               delta.seed_inserts.size(), " for ", members, " member(s)"));
  }
  for (std::size_t m = 0; m < delta.seed_inserts.size(); ++m) {
    if (delta.seed_inserts[m].arity() != closed[m]->arity()) {
      return Status::InvalidArgument(
          StrCat("seed_inserts[", m, "] arity ", delta.seed_inserts[m].arity(),
                 " != member arity ", closed[m]->arity()));
    }
  }
  for (const auto& [pred, rel] : delta.param_inserts) {
    for (const std::string& name : view.names_) {
      if (pred == name) {
        return Status::InvalidArgument(
            StrCat("cannot insert into '", pred,
                   "': it is a derived member of the view, not an input"));
      }
    }
    const Relation* existing = db_.Find(pred);
    if (existing != nullptr && existing->arity() != rel.arity()) {
      return Status::InvalidArgument(
          StrCat("param_inserts['", pred, "'] arity ", rel.arity(),
                 " != database arity ", existing->arity()));
    }
  }
  const ViewRules rules = RulesOf(plan, view.joint_);
  Result<std::vector<JointRule>> delta_rules = PrepareJointRules(rules.rules);
  if (!delta_rules.ok()) return delta_rules.status();

  // Checkpoint: every relation this call may touch is append-only, so the
  // sizes are the rollback state.
  std::vector<std::size_t> closed_pre(members), seed_pre(members);
  for (std::size_t m = 0; m < members; ++m) {
    closed_pre[m] = closed[m]->size();
    seed_pre[m] = view.seeds_[m].size();
  }
  std::vector<std::pair<Relation*, std::size_t>> param_pre;

  ApplyOutcome outcome;
  outcome.appended.assign(members, {0, 0});

  ScopedQueryBudget budget_scope(budget != nullptr ? budget
                                                   : CurrentQueryBudget());
  Status status = GuardAllocFailures([&]() -> Status {
    // 1. Union the parameter deltas into the database. The given delta —
    // not the subset that was actually new — seeds the delta rules below:
    // a stale delta row only re-derives heads the closure already holds
    // (deduplicated), and taking it as-given is what lets a cascading
    // caller pre-insert facts and still pass them here.
    for (const auto& [pred, rel] : delta.param_inserts) {
      Relation& target = db_.GetOrCreate(pred, rel.arity());
      param_pre.emplace_back(&target, target.size());
      target.UnionWith(rel);
    }

    // 2. Delta rules: the one-step consequences of exactly the new
    // parameter tuples, with the recursive atom reading the closed view.
    // Other body atoms read the full post-update database, which covers
    // derivations combining several new tuples.
    std::vector<Relation> heads;
    heads.reserve(members);
    for (std::size_t m = 0; m < members; ++m) {
      heads.emplace_back(closed[m]->arity());
    }
    for (const JointRule& dr : *delta_rules) {
      for (std::size_t i = 0; i < dr.rule.body().size(); ++i) {
        if (static_cast<int>(i) == dr.recursive_atom) continue;
        auto it = delta.param_inserts.find(dr.rule.body()[i].predicate);
        if (it == delta.param_inserts.end()) continue;
        ApplyOptions options;
        options.overrides[dr.recursive_atom] = closed[dr.recursive_member];
        options.overrides[static_cast<int>(i)] = &it->second;
        options.first_atom = static_cast<int>(i);
        LINREC_RETURN_IF_ERROR(ApplyRule(dr.rule, db_, options,
                                         &heads[dr.head_member],
                                         &outcome.stats, &cache_));
      }
    }

    // 3. Append the new seed tuples (to the maintained seed too) and the
    // delta-rule heads; the appended ranges seed the continuation.
    for (std::size_t m = 0; m < members; ++m) {
      outcome.appended[m].first = static_cast<RowId>(closed[m]->size());
      if (!delta.seed_inserts.empty()) {
        view.seeds_[m].UnionWith(delta.seed_inserts[m]);
        closed[m]->UnionWith(delta.seed_inserts[m]);
      }
      closed[m]->UnionWith(heads[m]);
    }

    if (FaultFires(FaultSite::kIvmApply)) {
      return Status::Internal(
          "injected fault at ivm_apply (before the resume)");
    }

    // 4. Resume the fixpoint in place from the appended rows only.
    // JointSemiNaiveExtend works on a member vector; the members live as
    // separate database entries, so move them out, extend, move back (O(1)
    // moves — and safe: the linearity invariant means no rule body reads a
    // member through the database).
    std::vector<Relation> rels;
    rels.reserve(members);
    std::vector<RowId> begin(members);
    for (std::size_t m = 0; m < members; ++m) {
      rels.push_back(std::move(*closed[m]));
      begin[m] = outcome.appended[m].first;
    }
    Status extended =
        JointSemiNaiveExtend(rules.members, rules.rules, db_, &rels, begin,
                             &outcome.stats, &cache_, cancel);
    for (std::size_t m = 0; m < members; ++m) {
      *closed[m] = std::move(rels[m]);
    }
    LINREC_RETURN_IF_ERROR(extended);

    if (FaultFires(FaultSite::kIvmApply)) {
      return Status::Internal("injected fault at ivm_apply (at commit)");
    }

    for (std::size_t m = 0; m < members; ++m) {
      outcome.appended[m].second = static_cast<RowId>(closed[m]->size());
      outcome.added += outcome.appended[m].second - outcome.appended[m].first;
    }
    return Status::OK();
  });

  if (!status.ok()) {
    // Byte-identical rollback: every mutation above was an append, so
    // truncating to the recorded sizes restores the pre-call state exactly
    // (a parameter relation this call created stays behind empty —
    // indistinguishable from absent to every reader). Truncation never
    // grows capacity, so the rollback itself cannot be denied.
    for (std::size_t m = 0; m < members; ++m) {
      closed[m]->TruncateRows(closed_pre[m]);
      view.seeds_[m].TruncateRows(seed_pre[m]);
    }
    for (auto& [rel, size] : param_pre) rel->TruncateRows(size);
    EvictTemporaryIndexes();
    return status;
  }

  ++view.applies_;
  stats_.Accumulate(outcome.stats);
  EvictTemporaryIndexes();
  return outcome;
}

Result<RetractOutcome> Engine::Retract(MaterializedView& view,
                                       const DeltaDelete& delta,
                                       const CancellationToken* cancel,
                                       QueryBudget* budget) {
  if (view.plan_ == nullptr) {
    return Status::InvalidArgument("Retract on a default-constructed view");
  }
  const ExecutionPlan& plan = view.plan();
  const std::size_t members = view.member_count();

  std::vector<Relation*> closed(members, nullptr);
  for (std::size_t m = 0; m < members; ++m) {
    closed[m] = db_.FindMutable(view.names_[m]);
    if (closed[m] == nullptr) {
      return Status::Internal(StrCat("view relation '", view.names_[m],
                                     "' missing from the database"));
    }
  }
  if (!delta.seed_deletes.empty() && delta.seed_deletes.size() != members) {
    return Status::InvalidArgument(
        StrCat("seed_deletes must have one relation per member: got ",
               delta.seed_deletes.size(), " for ", members, " member(s)"));
  }
  for (std::size_t m = 0; m < delta.seed_deletes.size(); ++m) {
    if (delta.seed_deletes[m].arity() != closed[m]->arity()) {
      return Status::InvalidArgument(
          StrCat("seed_deletes[", m, "] arity ", delta.seed_deletes[m].arity(),
                 " != member arity ", closed[m]->arity()));
    }
  }
  for (const auto& [pred, rel] : delta.param_deletes) {
    for (const std::string& name : view.names_) {
      if (pred == name) {
        return Status::InvalidArgument(
            StrCat("cannot delete from '", pred,
                   "': it is a derived member of the view, not an input"));
      }
    }
    const Relation* existing = db_.Find(pred);
    if (existing != nullptr && existing->arity() != rel.arity()) {
      return Status::InvalidArgument(
          StrCat("param_deletes['", pred, "'] arity ", rel.arity(),
                 " != database arity ", existing->arity()));
    }
  }
  const ViewRules rules = RulesOf(plan, view.joint_);
  Result<std::vector<JointRule>> delta_rules = PrepareJointRules(rules.rules);
  if (!delta_rules.ok()) return delta_rules.status();

  // Parameter relations whose rows this call erased, with copies of the
  // originals — the rollback state (the view and the seeds mutate only at
  // commit, by erasures that cannot fail).
  std::vector<std::pair<Relation*, Relation>> displaced;

  ScopedQueryBudget budget_scope(budget != nullptr ? budget
                                                   : CurrentQueryBudget());
  Result<RetractOutcome> result =
      GuardAllocFailures([&]() -> Result<RetractOutcome> {
        RetractOutcome out;
        for (std::size_t m = 0; m < members; ++m) {
          out.removed.emplace_back(closed[m]->arity());
        }

        // Pre-delete image of each deleted parameter (current ∪ delta):
        // the delta is taken as-given, so the over-deletion pass sees the
        // same derivations whether or not a cascading caller already
        // filtered the database.
        std::map<std::string, Relation> pre;
        for (const auto& [pred, rel] : delta.param_deletes) {
          const Relation* current = db_.Find(pred);
          Relation p = current != nullptr ? *current : Relation(rel.arity());
          p.UnionWith(rel);
          pre.emplace(pred, std::move(p));
        }

        // 1a. Directly damaged tuples: deleted seed tuples still in the
        // seed, plus heads of derivations consuming a deleted parameter
        // tuple (delta rules with the deleted atom pinned to the delta,
        // every other deleted-parameter atom pinned to its pre-delete
        // image, and the recursive atom reading the closed view).
        // Intersected with the closure: a never-present "deleted" tuple
        // must not seed suspects.
        std::vector<Relation> suspects0;
        suspects0.reserve(members);
        for (std::size_t m = 0; m < members; ++m) {
          suspects0.emplace_back(closed[m]->arity());
        }
        if (!delta.seed_deletes.empty()) {
          for (std::size_t m = 0; m < members; ++m) {
            for (TupleView t : delta.seed_deletes[m]) {
              if (view.seeds_[m].Contains(t)) suspects0[m].Insert(t);
            }
          }
        }
        for (const JointRule& dr : *delta_rules) {
          for (std::size_t i = 0; i < dr.rule.body().size(); ++i) {
            if (static_cast<int>(i) == dr.recursive_atom) continue;
            auto it = delta.param_deletes.find(dr.rule.body()[i].predicate);
            if (it == delta.param_deletes.end()) continue;
            ApplyOptions options;
            options.overrides[dr.recursive_atom] =
                closed[dr.recursive_member];
            for (std::size_t j = 0; j < dr.rule.body().size(); ++j) {
              if (j == i || static_cast<int>(j) == dr.recursive_atom) {
                continue;
              }
              auto pj = pre.find(dr.rule.body()[j].predicate);
              if (pj != pre.end()) {
                options.overrides[static_cast<int>(j)] = &pj->second;
              }
            }
            options.overrides[static_cast<int>(i)] = &it->second;
            options.first_atom = static_cast<int>(i);
            Relation scratch(closed[dr.head_member]->arity());
            LINREC_RETURN_IF_ERROR(ApplyRule(dr.rule, db_, options, &scratch,
                                             &out.stats, &cache_));
            for (TupleView t : scratch) {
              if (closed[dr.head_member]->Contains(t)) {
                suspects0[dr.head_member].Insert(t);
              }
            }
          }
        }

        // 1b. Close the suspects: everything derivable FROM a suspect is
        // suspect (linear rules — one recursive tuple per derivation — so
        // this is the view's own closure seeded with the suspects).
        Result<std::vector<Relation>> closed_suspects = JointSemiNaiveClosure(
            rules.members, rules.rules, db_, suspects0, &out.stats, &cache_,
            cancel);
        if (!closed_suspects.ok()) return closed_suspects.status();
        const std::vector<Relation> suspects =
            std::move(closed_suspects).value();

        // 2. Erase the deleted parameter tuples from the database, keeping
        // a copy of each original for restore-on-failure. From here on the
        // database is post-delete.
        for (const auto& [pred, rel] : delta.param_deletes) {
          Relation* slot = db_.FindMutable(pred);
          if (slot == nullptr) continue;
          bool any = false;
          for (TupleView t : rel) {
            if (slot->Contains(t)) {
              any = true;
              break;
            }
          }
          if (!any) continue;
          displaced.emplace_back(slot, *slot);
          slot->EraseRows(rel);
        }

        bool have_suspects = false;
        for (const Relation& s : suspects) have_suspects |= !s.empty();
        if (!have_suspects) {
          // Nothing derived is affected; only the parameter erasure (if
          // any) mattered. Commit as-is.
          ++view.retracts_;
          return out;
        }

        // 3. The re-derivation base R, one relation per member: the
        // suspects that stay seed tuples, plus the frontier. For a small
        // suspect cone the frontier comes from the guarded pair join,
        // which walks the suspects, never the view; a pair whose recursive
        // tuple is itself a suspect is dropped. When the suspects are at
        // least half the view, that join (every derivation of every
        // suspect) costs more than reading the survivors: R then starts
        // with a copy of them, and the first round derives the frontier.
        std::size_t suspect_rows = 0;
        std::size_t view_rows = 0;
        for (std::size_t m = 0; m < members; ++m) {
          suspect_rows += suspects[m].size();
          view_rows += closed[m]->size();
        }
        const bool from_survivors = 2 * suspect_rows >= view_rows;
        std::vector<Relation> rederived;
        std::vector<std::size_t> survivors(members, 0);
        rederived.reserve(members);
        for (std::size_t m = 0; m < members; ++m) {
          rederived.emplace_back(closed[m]->arity());
          if (from_survivors) {
            rederived[m] = *closed[m];
            rederived[m].EraseRows(suspects[m]);
            survivors[m] = rederived[m].size();
          }
          for (TupleView t : suspects[m]) {
            if (view.seeds_[m].Contains(t) &&
                (delta.seed_deletes.empty() ||
                 !delta.seed_deletes[m].Contains(t))) {
              rederived[m].Insert(t);
            }
          }
        }
        std::vector<JointRule> guarded;
        if (!from_survivors) {
          for (const JointRule& dr : *delta_rules) {
            const int guard = static_cast<int>(dr.rule.body().size());
            const std::size_t head_arity = dr.rule.head().arity();
            const Relation& rec_suspects = suspects[dr.recursive_member];
            ApplyOptions options;
            options.overrides[dr.recursive_atom] =
                closed[dr.recursive_member];
            options.overrides[guard] = &suspects[dr.head_member];
            options.first_atom = guard;
            Relation pairs(head_arity + rec_suspects.arity());
            LINREC_RETURN_IF_ERROR(ApplyRule(GuardedRule(dr, /*pair=*/true),
                                             db_, options, &pairs,
                                             &out.stats, &cache_));
            for (TupleView t : pairs) {
              if (!rec_suspects.ContainsRow(t.data() + head_arity)) {
                rederived[dr.head_member].InsertRow(t.data());
              }
            }
            // The rounds below run the same rule guarded by its head
            // member's suspects: a head outside them is a survivor,
            // already in the view.
            guarded.push_back(dr);
            guarded.back().rule = GuardedRule(dr, /*pair=*/false);
            guarded.back().pinned[guard] = &suspects[dr.head_member];
          }
        }

        // 4. Close R on the one round executor, every row of R a Δ row.
        // The re-derived rows are exactly the suspects the post-delete
        // closure keeps: any tuple of that closure has a minimal
        // derivation chain, and induction along the chain lands each
        // suspect on it in R. (From the survivors, an unguarded head
        // outside the suspects is a survivor, so it deduplicates.)
        LINREC_RETURN_IF_ERROR(JointSemiNaiveExtend(
            rules.members, from_survivors ? *delta_rules : guarded, db_,
            &rederived, std::vector<RowId>(members, 0), &out.stats, &cache_,
            cancel));

        // 5. Outcome, then the commit: in-place erasures that keep every
        // surviving row where it was and cannot fail.
        for (std::size_t m = 0; m < members; ++m) {
          out.rederived += rederived[m].size() - survivors[m];
          for (TupleView t : suspects[m]) {
            if (!rederived[m].Contains(t)) out.removed[m].Insert(t);
          }
          out.removed_count += out.removed[m].size();
        }
        for (std::size_t m = 0; m < members; ++m) {
          closed[m]->EraseRows(out.removed[m]);
          if (!delta.seed_deletes.empty()) {
            view.seeds_[m].EraseRows(delta.seed_deletes[m]);
          }
        }
        ++view.retracts_;
        view.rederived_ += out.rederived;
        return out;
      });

  if (!result.ok()) {
    // The only pre-commit in-place mutation was the parameter erasure:
    // restore the displaced originals and the database is byte-identical.
    for (auto& [slot, original] : displaced) *slot = std::move(original);
    EvictTemporaryIndexes();
    return result.status();
  }
  stats_.Accumulate(result->stats);
  EvictTemporaryIndexes();
  return result;
}

}  // namespace linrec
