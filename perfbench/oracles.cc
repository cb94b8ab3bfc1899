// The benchmark's own answers, computed apart from the library, and their
// self-test on graphs with known answers.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "perfbench/perfbench.h"

namespace perfbench {

std::vector<uint32_t> OracleBfs(const Graph& g, NodeId source) {
  std::vector<uint32_t> depth(g.num_nodes(), kUnreached);
  std::vector<NodeId> queue{source};
  depth[source] = 0;
  for (size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (NodeId v : g.Neighbors(u)) {
      if (depth[v] == kUnreached) {
        depth[v] = depth[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return depth;
}

std::vector<NodeId> OracleComponents(const Graph& g) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> parent(n);
  std::iota(parent.begin(), parent.end(), NodeId{0});
  auto find = [&](NodeId x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.Neighbors(u)) {
      NodeId a = find(u);
      NodeId b = find(v);
      // Union by smaller root id, so every root is its component's minimum.
      if (a < b) parent[b] = a;
      if (b < a) parent[a] = b;
    }
  }
  std::vector<NodeId> label(n);
  for (NodeId u = 0; u < n; ++u) label[u] = find(u);
  return label;
}

std::vector<double> OracleBrandes(const Graph& g,
                                  const std::vector<NodeId>& sources) {
  const NodeId n = g.num_nodes();
  std::vector<double> total(n, 0.0);
  std::vector<uint32_t> depth(n);
  std::vector<double> sigma(n);
  std::vector<double> delta(n);
  std::vector<NodeId> order;
  for (NodeId s : sources) {
    std::fill(depth.begin(), depth.end(), kUnreached);
    std::fill(sigma.begin(), sigma.end(), 0.0);
    std::fill(delta.begin(), delta.end(), 0.0);
    order.assign(1, s);
    depth[s] = 0;
    sigma[s] = 1.0;
    for (size_t head = 0; head < order.size(); ++head) {
      const NodeId u = order[head];
      for (NodeId v : g.Neighbors(u)) {
        if (depth[v] == kUnreached) {
          depth[v] = depth[u] + 1;
          order.push_back(v);
        }
        if (depth[v] == depth[u] + 1) sigma[v] += sigma[u];
      }
    }
    for (size_t i = order.size(); i-- > 0;) {
      const NodeId u = order[i];
      for (NodeId v : g.Neighbors(u)) {
        if (depth[v] == depth[u] + 1) {
          delta[u] += sigma[u] / sigma[v] * (1.0 + delta[v]);
        }
      }
    }
    delta[s] = 0.0;
    for (NodeId u = 0; u < n; ++u) total[u] += delta[u];
  }
  return total;
}

uint64_t OracleTriangles(const Graph& g, std::vector<uint64_t>* per_vertex) {
  per_vertex->assign(g.num_nodes(), 0);
  uint64_t total = 0;
  // Each triangle u < v < w is found once: at edge (u, v), by merging the
  // parts of N(u) and N(v) above v.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    auto nu = g.Neighbors(u);
    for (NodeId v : nu) {
      if (v <= u) continue;
      auto nv = g.Neighbors(v);
      auto a = std::upper_bound(nu.begin(), nu.end(), v);
      auto b = std::upper_bound(nv.begin(), nv.end(), v);
      while (a != nu.end() && b != nv.end()) {
        if (*a < *b) {
          ++a;
        } else if (*b < *a) {
          ++b;
        } else {
          ++total;
          ++(*per_vertex)[u];
          ++(*per_vertex)[v];
          ++(*per_vertex)[*a];
          ++a;
          ++b;
        }
      }
    }
  }
  return total;
}

uint64_t OracleCommon(const Graph& g, NodeId u, NodeId v) {
  auto nu = g.Neighbors(u);
  auto nv = g.Neighbors(v);
  uint64_t common = 0;
  auto a = nu.begin();
  auto b = nv.begin();
  while (a != nu.end() && b != nv.end()) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      ++common;
      ++a;
      ++b;
    }
  }
  return common;
}

double OracleJaccard(const Graph& g, NodeId u, NodeId v) {
  const uint64_t common = OracleCommon(g, u, v);
  const uint64_t uni = g.out_degree(u) + g.out_degree(v) - common;
  return uni == 0 ? 0.0
                  : static_cast<double>(common) / static_cast<double>(uni);
}

std::string CheckKCore(const Graph& g, uint32_t k,
                       const std::vector<uint8_t>& in_core) {
  const NodeId n = g.num_nodes();
  if (in_core.size() != n) return "k-core mask has the wrong size";
  // Every member keeps at least k neighbours inside the core.
  for (NodeId u = 0; u < n; ++u) {
    if (!in_core[u]) continue;
    uint32_t inside = 0;
    for (NodeId v : g.Neighbors(u)) inside += in_core[v] ? 1 : 0;
    if (inside < k) {
      return "k-core member " + std::to_string(u) + " has only " +
             std::to_string(inside) + " neighbours inside";
    }
  }
  // The benchmark's own peel from the whole graph keeps no one else: the
  // k-core is the largest such set, so every survivor must be a member.
  std::vector<uint32_t> deg(n);
  std::vector<uint8_t> alive(n, 1);
  std::vector<NodeId> stack;
  for (NodeId u = 0; u < n; ++u) {
    deg[u] = static_cast<uint32_t>(g.out_degree(u));
    if (deg[u] < k) {
      alive[u] = 0;
      stack.push_back(u);
    }
  }
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (NodeId v : g.Neighbors(u)) {
      if (alive[v] && --deg[v] < k) {
        alive[v] = 0;
        stack.push_back(v);
      }
    }
  }
  for (NodeId u = 0; u < n; ++u) {
    if (alive[u] != (in_core[u] ? 1 : 0)) {
      return "k-core membership of " + std::to_string(u) +
             " differs from the peel";
    }
  }
  return {};
}

TopKExpect OracleTopK(const Graph& g, NodeId source, uint32_t k) {
  TopKExpect e;
  auto ns = g.Neighbors(source);
  std::vector<NodeId> reach2;
  for (NodeId v : ns) {
    for (NodeId w : g.Neighbors(v)) {
      if (w != source && !std::binary_search(ns.begin(), ns.end(), w)) {
        reach2.push_back(w);
      }
    }
  }
  std::sort(reach2.begin(), reach2.end());
  reach2.erase(std::unique(reach2.begin(), reach2.end()), reach2.end());
  // Candidates share at least one neighbour with the source.
  for (NodeId w : reach2) {
    const uint64_t common = OracleCommon(g, source, w);
    if (common == 0) continue;
    e.candidates.push_back(w);
    e.common.push_back(common);
    e.score.push_back(OracleJaccard(g, source, w));
  }
  e.top = e.score;
  std::sort(e.top.begin(), e.top.end(), std::greater<double>());
  if (e.top.size() > k) e.top.resize(k);
  return e;
}

std::string CheckTopK(const TopKExpect& e, const std::vector<TopKItem>& items) {
  if (items.size() != e.top.size()) {
    return "top-k lists " + std::to_string(items.size()) + " items, expected " +
           std::to_string(e.top.size());
  }
  for (size_t i = 0; i < items.size(); ++i) {
    const TopKItem& it = items[i];
    const auto pos = std::lower_bound(e.candidates.begin(), e.candidates.end(),
                                      it.node);
    if (pos == e.candidates.end() || *pos != it.node) {
      return "top-k item " + std::to_string(it.node) + " is not a candidate";
    }
    const size_t c = pos - e.candidates.begin();
    if (it.common != e.common[c] || it.jaccard != e.score[c]) {
      return "top-k score of " + std::to_string(it.node) + " is wrong";
    }
    // Listed scores are exactly the largest candidate scores, in order: no
    // unlisted candidate scores above the k-th.
    if (it.jaccard != e.top[i]) {
      return "top-k item " + std::to_string(i) + " is not the " +
             std::to_string(i + 1) + "-th best score";
    }
    for (size_t j = 0; j < i; ++j) {
      if (items[j].node == it.node) return "top-k lists a node twice";
    }
  }
  return {};
}

std::vector<std::string> OracleSelfTest() {
  std::vector<std::string> fails;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) fails.push_back("oracle self-test: " + what);
  };

  // BFS: depth i along a path.
  const Graph path = gcgt::MakePath(64);
  const auto depth = OracleBfs(path, 0);
  for (NodeId i = 0; i < 64; ++i) expect(depth[i] == i, "path depth");
  expect(OracleBfs(gcgt::MakePath(4, /*undirected=*/false), 2)[0] == kUnreached,
         "directed path reach");

  // Components: a path is one component labelled 0; two disjoint stars keep
  // their own minimum.
  const auto comp = OracleComponents(path);
  expect(std::all_of(comp.begin(), comp.end(), [](NodeId c) { return c == 0; }),
         "path component");
  {
    gcgt::EdgeList edges = {{5, 1}, {5, 2}, {6, 3}, {4, 6}};
    const auto c = OracleComponents(Graph::FromEdges(7, edges, true));
    expect(c[0] == 0 && c[1] == 1 && c[5] == 1 && c[2] == 1 && c[3] == 3 &&
               c[6] == 3 && c[4] == 3,
           "component labels");
  }

  // Brandes: summed over every source, a star's centre carries the
  // dependency of every ordered leaf pair, leaves(leaves - 1).
  const NodeId leaves = 9;
  const Graph star = gcgt::MakeStar(leaves);
  std::vector<NodeId> all(star.num_nodes());
  std::iota(all.begin(), all.end(), NodeId{0});
  const auto bc = OracleBrandes(star, all);
  expect(bc[0] == static_cast<double>(leaves * (leaves - 1)), "star centre BC");
  expect(bc[1] == 0.0, "star leaf BC");
  // On a path every interior node i lies between i * (n - 1 - i) pairs in
  // each direction.
  const auto pbc = OracleBrandes(gcgt::MakePath(7), {0, 1, 2, 3, 4, 5, 6});
  expect(pbc[3] == 2.0 * 3 * 3 && pbc[1] == 2.0 * 1 * 5, "path BC");

  // Triangles: C(n, 3) in K_n, n - 1 choose 2 through each vertex.
  for (NodeId n : {3u, 5u, 8u}) {
    std::vector<uint64_t> per;
    const uint64_t t = OracleTriangles(gcgt::MakeComplete(n), &per);
    const uint64_t cn3 = uint64_t{n} * (n - 1) * (n - 2) / 6;
    expect(t == cn3, "K_n triangles");
    expect(per[0] == uint64_t{n - 1} * (n - 2) / 2, "K_n per-vertex triangles");
  }
  {
    std::vector<uint64_t> per;
    expect(OracleTriangles(star, &per) == 0, "star has no triangles");
  }

  // Jaccard: two leaves of a star share exactly the centre.
  expect(OracleCommon(star, 1, 2) == 1 && OracleJaccard(star, 1, 2) == 1.0,
         "star leaf Jaccard");
  expect(OracleJaccard(gcgt::MakeComplete(4), 0, 1) == 0.5, "K_4 Jaccard");

  // k-core: K_5 is its own 4-core; a star has an empty 2-core; a wrong mask
  // is caught.
  expect(CheckKCore(gcgt::MakeComplete(5), 4, std::vector<uint8_t>(5, 1))
             .empty(),
         "K_5 4-core");
  expect(CheckKCore(star, 2, std::vector<uint8_t>(leaves + 1, 0)).empty(),
         "star 2-core");
  expect(!CheckKCore(star, 1, std::vector<uint8_t>(leaves + 1, 0)).empty(),
         "k-core check rejects a missing member");

  // Top-k: from leaf 1 of a star every other leaf scores 1.0.
  const TopKExpect star_top = OracleTopK(star, 1, 2);
  expect(star_top.candidates.size() == leaves - 1, "star top-k candidates");
  std::vector<TopKItem> top = {{2, 1, 1.0}, {3, 1, 1.0}};
  expect(CheckTopK(star_top, top).empty(), "star top-k");
  top[1].jaccard = 0.5;
  expect(!CheckTopK(star_top, top).empty(), "top-k check rejects a score");
  expect(!CheckTopK(OracleTopK(star, 1, 3), {{2, 1, 1.0}, {3, 1, 1.0}}).empty(),
         "top-k check rejects a short list");

  // The paper's Fig. 1 graph: BFS reach and components agree with each
  // other on every source.
  const Graph fig1 = gcgt::MakePaperFigure1Graph();
  const auto fc = OracleComponents(fig1);
  for (NodeId s = 0; s < fig1.num_nodes(); ++s) {
    const auto d = OracleBfs(fig1, s);
    for (NodeId v = 0; v < fig1.num_nodes(); ++v) {
      if (d[v] != kUnreached) expect(fc[v] == fc[s], "Fig. 1 reach in component");
    }
  }
  return fails;
}

}  // namespace perfbench
