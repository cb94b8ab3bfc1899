// Clocks, sampling, metric helpers, the span recorder and the inputs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "perfbench/perfbench.h"

namespace perfbench {

namespace {
const int64_t kProcessStartNs = NowNs();
}  // namespace

int64_t ProcessStartNs() { return kProcessStartNs; }

std::vector<int> ZipfCounts(int total, size_t n, double s) {
  std::vector<double> share(n);
  double sum = 0.0;
  for (size_t r = 0; r < n; ++r) {
    share[r] = 1.0 / std::pow(static_cast<double>(r + 1), s);
    sum += share[r];
  }
  std::vector<int> counts(n);
  std::vector<std::pair<double, size_t>> remainder(n);
  int given = 0;
  for (size_t r = 0; r < n; ++r) {
    const double exact = total * share[r] / sum;
    counts[r] = static_cast<int>(exact);
    given += counts[r];
    remainder[r] = {exact - counts[r], r};
  }
  std::sort(remainder.begin(), remainder.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first : a.second < b.second;
            });
  for (size_t i = 0; given < total; ++i, ++given) ++counts[remainder[i].second];
  return counts;
}

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + salt);
  return rng.Next();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / kBytesPerMb;
    }
  }
  return 0.0;
}

void RunOutcome::Wrong(const std::string& what) {
  correct = false;
  if (errors.size() < 20) errors.push_back(what);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------
Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer->enabled_ ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  index_ = tracer_->spans_.size();
  tracer_->spans_.push_back({name, 0, 0});
  tracer_->spans_[index_].start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->spans_[index_].end_ns = NowNs();
}

void Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns) {
  if (enabled_) spans_.push_back({name, start_ns, end_ns});
}

std::vector<double> Tracer::DurationsMs(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.seconds() * 1e3);
  }
  return out;
}

double Tracer::TotalSeconds(std::string_view name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.seconds();
  }
  return total;
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------
Dataset MakeWeb(uint64_t seed, NodeId nodes) {
  gcgt::WebGraphParams p;
  p.num_nodes = nodes;
  p.avg_degree = 16.0;
  p.mean_host_size = 48.0;
  p.seed = seed;
  char recipe[160];
  std::snprintf(recipe, sizeof(recipe),
                "GenerateWebGraph(nodes=%u, avg_degree=16, mean_host_size=48, "
                "seed=%llu)",
                nodes, static_cast<unsigned long long>(seed));
  return {"web", recipe, gcgt::GenerateWebGraph(p)};
}

Dataset MakeTwitter(uint64_t seed, NodeId nodes, double avg_degree) {
  gcgt::TwitterGraphParams p;
  p.num_nodes = nodes;
  p.avg_degree = avg_degree;
  p.num_hubs = 12;
  p.seed = seed;
  char recipe[160];
  std::snprintf(recipe, sizeof(recipe),
                "GenerateTwitterGraph(nodes=%u, avg_degree=%g, hubs=12, "
                "seed=%llu)",
                nodes, avg_degree, static_cast<unsigned long long>(seed));
  return {"twitter", recipe, gcgt::GenerateTwitterGraph(p)};
}

Dataset MakeSocial(uint64_t seed, NodeId nodes) {
  gcgt::SocialGraphParams p;
  p.num_nodes = nodes;
  p.avg_degree = 8.0;
  p.seed = seed;
  char recipe[160];
  std::snprintf(recipe, sizeof(recipe),
                "GenerateSocialGraph(nodes=%u, avg_degree=8, seed=%llu)",
                nodes, static_cast<unsigned long long>(seed));
  return {"social", recipe, gcgt::GenerateSocialGraph(p)};
}

Dataset Undirected(Dataset d) {
  gcgt::EdgeList edges;
  edges.reserve(d.graph.num_edges());
  for (NodeId u = 0; u < d.graph.num_nodes(); ++u) {
    for (NodeId v : d.graph.Neighbors(u)) {
      if (u != v) edges.emplace_back(u, v);
    }
  }
  d.graph = Graph::FromEdges(d.graph.num_nodes(), edges, /*symmetrize=*/true);
  d.recipe += ", symmetrized, self loops dropped";
  return d;
}

// ---------------------------------------------------------------------------
// Query choice
// ---------------------------------------------------------------------------
namespace {

bool ReachesQuarter(const std::vector<uint32_t>& depth) {
  size_t reached = 0;
  for (uint32_t d : depth) reached += d != kUnreached;
  return reached * 4 >= depth.size();
}

}  // namespace

std::vector<NodeId> ReachingSources(
    const Graph& g, size_t count, Rng& rng,
    std::vector<std::vector<uint32_t>>* depths) {
  std::vector<NodeId> out;
  for (int tries = 0; out.size() < count && tries < 100000; ++tries) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(g.num_nodes()));
    if (g.out_degree(s) == 0) continue;
    auto d = OracleBfs(g, s);
    if (!ReachesQuarter(d)) continue;
    out.push_back(s);
    if (depths != nullptr) depths->push_back(std::move(d));
  }
  return out;
}

std::vector<NodeId> HubSources(const Graph& g, size_t count) {
  std::vector<NodeId> order(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) order[u] = u;
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return g.out_degree(a) > g.out_degree(b);
  });
  std::vector<NodeId> out;
  for (NodeId s : order) {
    if (out.size() == count) break;
    if (ReachesQuarter(OracleBfs(g, s))) out.push_back(s);
  }
  return out;
}

std::vector<NodeId> MiddleWedgeSources(const Graph& g, size_t count, Rng& rng) {
  std::vector<std::pair<uint64_t, NodeId>> sample;
  for (int tries = 0; sample.size() < count * 20 && tries < 1000000; ++tries) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(g.num_nodes()));
    uint64_t wedges = 0;
    for (NodeId v : g.Neighbors(s)) wedges += g.out_degree(v);
    if (wedges > 0) sample.emplace_back(wedges, s);
  }
  std::sort(sample.begin(), sample.end());
  std::vector<NodeId> out;
  const size_t first = sample.size() / 2 - std::min(sample.size() / 2, count / 2);
  for (size_t i = first; i < sample.size() && out.size() < count; ++i) {
    out.push_back(sample[i].second);
  }
  return out;
}

std::vector<std::pair<NodeId, NodeId>> TwoHopPairs(const Graph& g,
                                                   size_t count, Rng& rng) {
  std::vector<std::pair<NodeId, NodeId>> out;
  for (int tries = 0; out.size() < count && tries < 1000000; ++tries) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(g.num_nodes()));
    auto nu = g.Neighbors(u);
    if (nu.empty()) continue;
    auto nv = g.Neighbors(nu[rng.Uniform(nu.size())]);
    if (nv.empty()) continue;
    const NodeId w = nv[rng.Uniform(nv.size())];
    if (w != u) out.emplace_back(u, w);
  }
  return out;
}

}  // namespace perfbench
