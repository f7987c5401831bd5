#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <unordered_set>

namespace perfbench {
namespace {

/// splitmix64: a small deterministic generator, identical on every
/// platform (std:: distributions are not).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [0, n).
  std::uint64_t Below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

using Edge = std::pair<int, int>;
using Row = std::pair<std::int64_t, std::int64_t>;

/// A directed graph over nodes 0..n-1 with distinct, loop-free edges.
struct Graph {
  int nodes = 0;
  std::vector<Edge> edges;
};

/// `edge_count` distinct random edges (no self-loops) over `nodes` nodes.
Graph RandomGraph(int nodes, std::size_t edge_count, std::uint64_t seed);

/// Nodes reachable from `source` over one or more edges, ascending.
std::vector<int> ReachFrom(const std::vector<std::vector<int>>& adjacency,
                           int source);
std::vector<std::vector<int>> Adjacency(int nodes,
                                        const std::vector<Edge>& edges);
/// Nodes on a directed cycle (tc(X, X) holds), ascending: members of a
/// strongly connected component with more than one node, or with a loop.
std::vector<int> CycleMembers(const Graph& graph);
/// Tuples in the transitive closure of `graph`.
std::size_t ClosureSize(const Graph& graph);

constexpr char kRules[] =
    "tc(X, Y) :- e(X, Y).\n"
    "tc(X, Y) :- tc(X, Z), e(Z, Y).\n";

// Graph sizes per workload (README.md says why). Random graphs
// this sparse sit near the giant-component threshold, so their closure
// size swings by 4x from seed to seed; each workload only takes graphs
// whose closure is within kClosureTolerance of its target (the median
// over seeds), so the work per run does not depend on the seed.
constexpr int kPointNodes = 2000;
constexpr std::size_t kPointEdges = 2400;
constexpr std::size_t kPointClosure = 350000;
constexpr int kCycleNodes = 1000;
constexpr std::size_t kCycleEdges = 1500;
constexpr std::size_t kCycleClosure = 350000;
constexpr int kCyclePool = 4;
constexpr int kUpdateNodes = 1000;
constexpr std::size_t kUpdateEdges = 1200;
constexpr std::size_t kUpdateClosure = 95000;
constexpr double kClosureTolerance = 0.02;
/// Edges of the loaded graph the update stream deletes and re-inserts.
constexpr std::size_t kToggleEdges = 32;
/// Raised before the end-of-run full-view read so no row is cut.
constexpr long kFullViewRows = 10000000;

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  Rng rng(seed ^ (salt * 0x9e3779b97f4a7c15ULL));
  return rng.Next();
}

/// One row's term of the order-independent answer-set digest.
std::uint64_t RowDigest(const Row& row) {
  return Mix(static_cast<std::uint64_t>(row.first),
             static_cast<std::uint64_t>(row.second) + 1);
}

/// Strongly connected components, numbered successors-first (Tarjan's
/// emission order): an edge between two components always points to the
/// lower id.
struct Condensation {
  std::vector<int> component;      // per node
  std::vector<std::size_t> size;   // per component
  std::vector<bool> cyclic;        // per component: tc(x, x) for members
};

Condensation Condense(const Graph& graph) {
  // Iterative Tarjan.
  const std::size_t n = static_cast<std::size_t>(graph.nodes);
  const std::vector<std::vector<int>> adjacency =
      Adjacency(graph.nodes, graph.edges);
  Condensation out;
  out.component.assign(n, -1);
  std::vector<int> index(n, -1), low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<int> stack;
  int next_index = 0;
  struct Frame {
    int v;
    std::size_t edge;
  };
  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] >= 0) continue;
    std::vector<Frame> call{{static_cast<int>(root), 0}};
    index[root] = low[root] = next_index++;
    stack.push_back(static_cast<int>(root));
    on_stack[root] = true;
    while (!call.empty()) {
      Frame& frame = call.back();
      const std::size_t v = static_cast<std::size_t>(frame.v);
      if (frame.edge < adjacency[v].size()) {
        const std::size_t w =
            static_cast<std::size_t>(adjacency[v][frame.edge++]);
        if (index[w] < 0) {
          index[w] = low[w] = next_index++;
          stack.push_back(static_cast<int>(w));
          on_stack[w] = true;
          call.push_back({static_cast<int>(w), 0});  // `frame` now dangles
        } else if (on_stack[w]) {
          low[v] = std::min(low[v], index[w]);
        }
        continue;
      }
      if (low[v] == index[v]) {
        const int id = static_cast<int>(out.size.size());
        std::size_t size = 0;
        bool loop = false;
        int w = -1;
        do {
          w = stack.back();
          stack.pop_back();
          const std::size_t u = static_cast<std::size_t>(w);
          on_stack[u] = false;
          out.component[u] = id;
          loop = loop || std::find(adjacency[u].begin(), adjacency[u].end(),
                                   w) != adjacency[u].end();
          ++size;
        } while (w != static_cast<int>(v));
        out.size.push_back(size);
        out.cyclic.push_back(size > 1 || loop);
      }
      call.pop_back();
      if (!call.empty()) {
        const std::size_t parent = static_cast<std::size_t>(call.back().v);
        low[parent] = std::min(low[parent], low[v]);
      }
    }
  }
  return out;
}

/// The first seeded random graph whose closure has `closure` tuples, to
/// within kClosureTolerance.
Graph SizedGraph(int nodes, std::size_t edges, std::size_t closure,
                 std::uint64_t seed) {
  const double slack = kClosureTolerance * static_cast<double>(closure);
  for (std::uint64_t attempt = 0;; ++attempt) {
    Graph graph = RandomGraph(nodes, edges, Mix(seed, attempt));
    const double size = static_cast<double>(ClosureSize(graph));
    if (std::abs(size - static_cast<double>(closure)) <= slack) return graph;
  }
}

std::string FactLine(const Edge& edge) {
  return "e(" + std::to_string(edge.first) + ", " +
         std::to_string(edge.second) + ").";
}

Request LoadRequest(const std::vector<Edge>& edges) {
  Request request;
  request.op = Op::kLoad;
  for (const Edge& edge : edges) {
    request.program += FactLine(edge);
    request.program += '\n';
  }
  request.program += kRules;
  request.text = "LOAD\n" + request.program + "END\n";
  request.expect_line = "OK loaded rules=2 facts=" +
                        std::to_string(edges.size()) + " queries=0";
  return request;
}

Request QueryRequest(const std::string& goal, const std::vector<Row>& rows) {
  Request request;
  request.op = Op::kQuery;
  request.text = "?- " + goal + ".\n";
  request.expect_count = rows.size();
  for (const Row& row : rows) request.expect_digest += RowDigest(row);
  return request;
}

Request PointQuery(int source, const std::vector<int>& reach) {
  std::vector<Row> rows;
  rows.reserve(reach.size());
  for (int y : reach) rows.emplace_back(source, y);
  return QueryRequest("tc(" + std::to_string(source) + ", Y)", rows);
}

Request CycleQuery(const std::vector<int>& members) {
  std::vector<Row> rows;
  rows.reserve(members.size());
  for (int x : members) rows.emplace_back(x, x);
  return QueryRequest("tc(X, X)", rows);
}

Request QuitRequest() {
  Request request;
  request.op = Op::kQuit;
  request.text = "QUIT\n";
  request.expect_line = "OK bye";
  return request;
}

/// point_reach: one graph per session, then σ point reads tc(c, Y) with
/// uniform c. Reach sets are memoized per node.
class PointReachScript : public SessionScript {
 public:
  PointReachScript(std::uint64_t seed, int index)
      : graph_(SizedGraph(kPointNodes, kPointEdges, kPointClosure,
                          Mix(seed, 0x100 + static_cast<unsigned>(index)))),
        adjacency_(Adjacency(graph_.nodes, graph_.edges)),
        reach_(static_cast<std::size_t>(graph_.nodes)),
        known_(static_cast<std::size_t>(graph_.nodes), false),
        rng_(Mix(seed, 0x200 + static_cast<unsigned>(index))) {}

  std::vector<Request> Setup() override { return {LoadRequest(graph_.edges)}; }

  Exchange Next() override {
    const int source = static_cast<int>(
        rng_.Below(static_cast<std::uint64_t>(graph_.nodes)));
    const std::size_t s = static_cast<std::size_t>(source);
    if (!known_[s]) {
      reach_[s] = ReachFrom(adjacency_, source);
      known_[s] = true;
    }
    return Exchange{{PointQuery(source, reach_[s])}, false};
  }

 private:
  Graph graph_;
  std::vector<std::vector<int>> adjacency_;
  std::vector<std::vector<int>> reach_;
  std::vector<bool> known_;
  Rng rng_;
};

/// cycle_scan: every exchange is a fresh connection that LOADs the next
/// pool graph, asks tc(X, X) (materializing the full closure) and QUITs.
/// The session's own connection does the same for pool graph 0 during
/// setup, and then idles.
class CycleScanScript : public SessionScript {
 public:
  CycleScanScript(std::uint64_t seed, int index) {
    for (int g = 0; g < kCyclePool; ++g) {
      Graph graph = SizedGraph(
          kCycleNodes, kCycleEdges, kCycleClosure,
          Mix(seed, 0x300 + static_cast<unsigned>(index * kCyclePool + g)));
      loads_.push_back(LoadRequest(graph.edges));
      queries_.push_back(CycleQuery(CycleMembers(graph)));
    }
  }

  std::vector<Request> Setup() override {
    return {loads_.front(), queries_.front()};
  }

  Exchange Next() override {
    const std::size_t g = next_++ % loads_.size();
    return Exchange{{loads_[g], queries_[g], QuitRequest()}, true};
  }

 private:
  std::vector<Request> loads_;
  std::vector<Request> queries_;
  std::size_t next_ = 0;
};

/// update_mix: one graph per session, materialized during setup; then
/// 50% reads tc(a, Y), 25% INSERT, 25% DELETE over a toggle pool, checked
/// against a shadow edge set. Finish reads the whole view.
class UpdateMixScript : public SessionScript {
 public:
  UpdateMixScript(std::uint64_t seed, int index)
      : rng_(Mix(seed, 0x500 + static_cast<unsigned>(index))) {
    graph_ = SizedGraph(kUpdateNodes, kUpdateEdges, kUpdateClosure,
                        Mix(seed, 0x400 + static_cast<unsigned>(index)));
    adjacency_ = Adjacency(graph_.nodes, graph_.edges);
    // The toggle pool: kToggleEdges edges of the graph, drawn in
    // proportion from edges inside a cycle (whose DELETE retracts and
    // re-derives a whole strongly connected component) and the rest, so
    // the pool's mean DELETE cost does not swing with the seed.
    const Condensation c = Condense(graph_);
    std::vector<Edge> inside, outside;
    for (const Edge& e : graph_.edges) {
      const int from = c.component[static_cast<std::size_t>(e.first)];
      (from == c.component[static_cast<std::size_t>(e.second)] ? inside
                                                                : outside)
          .push_back(e);
    }
    const std::size_t want_inside =
        (kToggleEdges * inside.size() + graph_.edges.size() / 2) /
        graph_.edges.size();
    Draw(&inside, want_inside);
    Draw(&outside, kToggleEdges - want_inside);
    for (std::size_t i = toggles_.size(); i > 1; --i) {
      std::swap(toggles_[i - 1], toggles_[rng_.Below(i)]);
    }
  }

  std::vector<Request> Setup() override {
    return {LoadRequest(graph_.edges), CycleQuery(CycleMembers(graph_))};
  }

  Exchange Next() override {
    if (rng_.Below(2) == 0) {
      const int source = static_cast<int>(rng_.Below(kUpdateNodes));
      return Exchange{{PointQuery(source, ReachFrom(adjacency_, source))},
                      false};
    }
    Request request;
    // Writes alternate DELETE of the next pool edge and INSERT of it back:
    // the graph is the loaded one or lacks one pool edge, and every pool
    // edge is deleted equally often.
    const Edge edge = toggles_[next_toggle_ % toggles_.size()];
    if (!delete_next_) ++next_toggle_;
    std::vector<int>& out = adjacency_[static_cast<std::size_t>(edge.first)];
    if (delete_next_) {
      request.op = Op::kDelete;
      request.text = "DELETE " + FactLine(edge) + "\n";
      request.expect_line = "OK delete removed=1 ";
      out.erase(std::find(out.begin(), out.end(), edge.second));
    } else {
      request.op = Op::kInsert;
      request.text = "INSERT " + FactLine(edge) + "\n";
      request.expect_line = "OK insert applied=1 ";
      out.push_back(edge.second);
    }
    delete_next_ = !delete_next_;
    return Exchange{{std::move(request)}, false};
  }

  std::vector<Request> Finish() override {
    Request set;
    set.op = Op::kSet;
    set.text = "SET max_rows " + std::to_string(kFullViewRows) + "\n";
    set.expect_line = "OK set max_rows=" + std::to_string(kFullViewRows);
    std::vector<Row> closure;
    for (int x = 0; x < kUpdateNodes; ++x) {
      for (int y : ReachFrom(adjacency_, x)) closure.emplace_back(x, y);
    }
    return {set, QueryRequest("tc(X, Y)", closure)};
  }

 private:
  /// Moves `count` random edges of `from` into the pool.
  void Draw(std::vector<Edge>* from, std::size_t count) {
    for (std::size_t i = 0; i < count && i < from->size(); ++i) {
      std::swap((*from)[i], (*from)[i + rng_.Below(from->size() - i)]);
      toggles_.push_back((*from)[i]);
    }
  }

  Rng rng_;
  Graph graph_;
  std::vector<std::vector<int>> adjacency_;
  std::vector<Edge> toggles_;
  std::size_t next_toggle_ = 0;
  bool delete_next_ = true;
};

bool ParseInt(const std::string& text, std::size_t* pos, std::int64_t* out) {
  const char* begin = text.c_str() + *pos;
  char* end = nullptr;
  *out = std::strtoll(begin, &end, 10);
  if (end == begin) return false;
  *pos += static_cast<std::size_t>(end - begin);
  return true;
}

}  // namespace

bool ParseWorkload(const std::string& name, WorkloadKind* kind) {
  if (name == "point_reach") {
    *kind = WorkloadKind::kPointReach;
  } else if (name == "cycle_scan") {
    *kind = WorkloadKind::kCycleScan;
  } else if (name == "update_mix") {
    *kind = WorkloadKind::kUpdateMix;
  } else {
    return false;
  }
  return true;
}

namespace {

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rng::Below(std::uint64_t n) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(Next()) * n) >> 64);
}

Graph RandomGraph(int nodes, std::size_t edge_count, std::uint64_t seed) {
  Rng rng(seed);
  Graph graph;
  graph.nodes = nodes;
  std::unordered_set<std::uint64_t> seen;
  const std::uint64_t n = static_cast<std::uint64_t>(nodes);
  while (graph.edges.size() < edge_count) {
    const std::uint64_t a = rng.Below(n);
    const std::uint64_t b = rng.Below(n);
    if (a == b || !seen.insert(a * n + b).second) continue;
    graph.edges.emplace_back(static_cast<int>(a), static_cast<int>(b));
  }
  return graph;
}

std::vector<std::vector<int>> Adjacency(int nodes,
                                        const std::vector<Edge>& edges) {
  std::vector<std::vector<int>> adjacency(static_cast<std::size_t>(nodes));
  for (const Edge& e : edges) {
    adjacency[static_cast<std::size_t>(e.first)].push_back(e.second);
  }
  return adjacency;
}

std::vector<int> ReachFrom(const std::vector<std::vector<int>>& adjacency,
                           int source) {
  std::vector<bool> seen(adjacency.size(), false);
  std::vector<int> frontier = adjacency[static_cast<std::size_t>(source)];
  std::vector<int> reach;
  while (!frontier.empty()) {
    const int v = frontier.back();
    frontier.pop_back();
    if (seen[static_cast<std::size_t>(v)]) continue;
    seen[static_cast<std::size_t>(v)] = true;
    reach.push_back(v);
    for (int w : adjacency[static_cast<std::size_t>(v)]) {
      if (!seen[static_cast<std::size_t>(w)]) frontier.push_back(w);
    }
  }
  std::sort(reach.begin(), reach.end());
  return reach;
}

std::vector<int> CycleMembers(const Graph& graph) {
  const Condensation c = Condense(graph);
  std::vector<int> members;
  for (std::size_t v = 0; v < c.component.size(); ++v) {
    if (c.cyclic[static_cast<std::size_t>(c.component[v])]) {
      members.push_back(static_cast<int>(v));
    }
  }
  return members;
}

std::size_t ClosureSize(const Graph& graph) {
  // Components come out of Tarjan successors-first, so one pass in id
  // order sees every successor's reach set complete.
  const Condensation c = Condense(graph);
  const std::size_t count = c.size.size();
  const std::size_t words = (count + 63) / 64;
  std::vector<std::vector<std::size_t>> successors(count);
  for (const Edge& e : graph.edges) {
    const int from = c.component[static_cast<std::size_t>(e.first)];
    const int to = c.component[static_cast<std::size_t>(e.second)];
    if (from != to) {
      successors[static_cast<std::size_t>(from)].push_back(
          static_cast<std::size_t>(to));
    }
  }
  std::vector<std::uint64_t> reach(count * words, 0);
  std::size_t closure = 0;
  for (std::size_t id = 0; id < count; ++id) {
    std::uint64_t* mine = &reach[id * words];
    if (c.cyclic[id]) mine[id / 64] |= 1ULL << (id % 64);
    for (std::size_t next : successors[id]) {
      const std::uint64_t* theirs = &reach[next * words];
      for (std::size_t w = 0; w < words; ++w) mine[w] |= theirs[w];
      mine[next / 64] |= 1ULL << (next % 64);
    }
    std::size_t reached = 0;
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = mine[w]; bits != 0; bits &= bits - 1) {
        reached += c.size[w * 64 + static_cast<std::size_t>(
                                       __builtin_ctzll(bits))];
      }
    }
    closure += c.size[id] * reached;
  }
  return closure;
}

}  // namespace

std::string CheckReply(const Request& request,
                       const std::vector<std::string>& reply) {
  if (reply.empty()) return "no reply";
  if (request.op != Op::kQuery) {
    const bool prefix =
        request.op == Op::kInsert || request.op == Op::kDelete;
    const std::string& line = reply.front();
    const bool match =
        reply.size() == 1 &&
        (prefix ? line.compare(0, request.expect_line.size(),
                               request.expect_line) == 0
                : line == request.expect_line);
    return match ? "" : "expected '" + request.expect_line + "', got '" +
                            line + "'";
  }
  const std::string header = "RESULT tc/2 rows=" +
                             std::to_string(request.expect_count) +
                             " truncated=0";
  if (reply.front() != header) {
    return "expected '" + header + "', got '" + reply.front() + "'";
  }
  if (reply.size() != request.expect_count + 2 || reply.back() != ".") {
    return "row count disagrees with the RESULT header";
  }
  // Rows arrive in no promised order; compare order-independent digests.
  std::uint64_t digest = 0;
  for (std::size_t i = 1; i + 1 < reply.size(); ++i) {
    std::size_t pos = 0;
    Row row;
    if (!ParseInt(reply[i], &pos, &row.first) ||
        !ParseInt(reply[i], &pos, &row.second) || pos != reply[i].size()) {
      return "malformed row '" + reply[i] + "'";
    }
    digest += RowDigest(row);
  }
  return digest == request.expect_digest ? ""
                                         : "answer set differs from oracle";
}

WorkloadSpec SpecFor(WorkloadKind kind, int max_threads) {
  const int sessions = std::max(1, std::min(4, max_threads));
  switch (kind) {
    case WorkloadKind::kPointReach:
      return {sessions, "p90", 0.90, 10, 0};
    case WorkloadKind::kCycleScan:
      return {1, "p90", 0.90, 5, 0};
    case WorkloadKind::kUpdateMix:
      // One lane per request (README.md, "Noise"): on the default lanes a
      // DELETE waits each round for the slowest CPU, and four sessions of
      // them put 16 threads on 4 CPUs.
      return {sessions, "p90", 0.90, 10, 1};
  }
  return {1, "p50", 0.5, 1, 0};
}

linrec::EngineOptions EngineOptionsFor(const WorkloadSpec& spec) {
  linrec::EngineOptions options;
  options.parallel_workers = spec.workers;
  return options;
}

std::unique_ptr<SessionScript> MakeScript(WorkloadKind kind,
                                          std::uint64_t seed, int index) {
  switch (kind) {
    case WorkloadKind::kPointReach:
      return std::make_unique<PointReachScript>(seed, index);
    case WorkloadKind::kCycleScan:
      return std::make_unique<CycleScanScript>(seed, index);
    case WorkloadKind::kUpdateMix:
      return std::make_unique<UpdateMixScript>(seed, index);
  }
  return nullptr;
}

}  // namespace perfbench
