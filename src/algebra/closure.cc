#include "algebra/closure.h"

namespace linrec {

Result<Relation> DirectClosure(const std::vector<LinearRule>& rules,
                               const Database& db, const Relation& q,
                               ClosureStats* stats, IndexCache* cache,
                               const CancellationToken* cancel) {
  return SemiNaiveClosure(rules, db, q, stats, cache, cancel);
}

Result<Relation> DecomposedClosure(
    const std::vector<std::vector<LinearRule>>& groups, const Database& db,
    const Relation& q, ClosureStats* stats, IndexCache* cache,
    const CancellationToken* cancel) {
  if (groups.empty()) {
    return Status::InvalidArgument("DecomposedClosure requires >= 1 group");
  }
  IndexCache local_cache;
  if (cache == nullptr) cache = &local_cache;

  // Thread the accumulating relation through each group closure, rightmost
  // first.
  Relation current = q;
  for (auto it = groups.rbegin(); it != groups.rend(); ++it) {
    ClosureStats group_stats;
    Result<Relation> next =
        SemiNaiveClosure(*it, db, current, &group_stats, cache, cancel);
    if (!next.ok()) return next.status();
    current = std::move(next).value();
    if (stats != nullptr) stats->Accumulate(group_stats);
  }
  return current;
}

}  // namespace linrec
