// Workload "analytics": whole-graph triangle count and k-core, top-k
// similarity and Jaccard pairs through GcgtSession on kCgrSimt, over an
// undirected twitter-like social graph and an undirected web graph prepared
// with LLP but
// without VNC, so the answers are the input graph's own. The intersect
// engine and its compressed cursors do nearly all of the work; frontier
// traversal does none. The intersect engine runs one query on one core, so
// every core runs its own AttachClone() session and takes the round's
// queries from a shared counter, heaviest first.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "api/gcgt_session.h"
#include "perfbench/layers.h"

namespace perfbench {
namespace {

using gcgt::GcgtSession;
using gcgt::Query;
using gcgt::QueryKind;
using gcgt::QueryResult;

/// The social graph is the twitter-like one: its hub degrees are set by the
/// generator's parameters, so the modeled triangle count (whose makespan the
/// largest hub's warp sets) repeats across seeds; a Zipf-degree social graph
/// swings 2x with its largest degree.
constexpr NodeId kTwitterNodes = 10000;
constexpr double kTwitterDegree = 20.0;
constexpr NodeId kWebNodes = 20000;
constexpr uint32_t kCoreK = 8;
constexpr uint32_t kTopK = 10;
/// Queries per round and graph besides one triangle count and one k-core.
/// On the host a twitter top-k costs about 20 ms, a web top-k about 1 ms, a
/// Jaccard pair a few microseconds, a k-core a few milliseconds and a
/// triangle count under a second. The round of 160 queries is weighted so
/// both latency percentiles fall inside the twitter top-k costs (near their
/// 29th and 87th percentiles): Jaccard pairs, web top-k and k-cores make 30%
/// of the queries, triangle counts 1%. The round takes about a second, so a
/// 20-second run repeats each query about 20 times. The graphs are no
/// smaller: at 8000 twitter nodes the modeled device footprint spreads
/// twice as far across seeds, and at 6000 the modeled triangle count swings
/// with the seed's largest hub.
struct Mix {
  int topk;
  int pairs;
};
constexpr Mix kTwitterMix = {110, 8};
constexpr Mix kWebMix = {30, 8};

struct Task {
  size_t graph;
  Query query;
  const char* span;  // layer span name
  size_t expect;     // index into the graph's top-k / pair expectations
};

struct Expect {
  uint64_t triangles = 0;
  std::vector<uint64_t> per_vertex;
  std::vector<TopKExpect> topk;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::vector<uint64_t> pair_common;
  std::vector<double> pair_jaccard;
};

}  // namespace

RunOutcome RunAnalytics(const RunConfig& cfg) {
  RunOutcome out;
  Tracer tracer(cfg.trace);
  std::vector<Dataset> inputs;
  inputs.push_back(Undirected(
      MakeTwitter(SubSeed(cfg.seed, 21), kTwitterNodes, kTwitterDegree)));
  inputs.push_back(Undirected(MakeWeb(SubSeed(cfg.seed, 22), kWebNodes)));
  const int threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  gcgt::PrepareOptions popt;
  popt.reorder = gcgt::ReorderMethod::kLlp;
  popt.gcgt.num_threads = 0;

  // Set-up: one prepared session per graph plus one clone per core.
  EndToEnd e2e;
  std::vector<GcgtSession> sessions;
  std::vector<std::vector<GcgtSession>> clones(threads);
  uint64_t raw_edges = 0, encoded_bits = 0;
  for (const Dataset& d : inputs) {
    auto prepared = [&] {
      auto span = tracer.Open("api.prepare");
      return GcgtSession::Prepare(d.graph, popt);
    }();
    if (!prepared.ok()) {
      out.Wrong("Prepare(" + d.name + "): " + prepared.status().ToString());
      return out;
    }
    sessions.push_back(std::move(prepared).value());
    for (auto& c : clones) c.push_back(sessions.back().AttachClone(1));
    raw_edges += d.graph.num_edges();
    encoded_bits += sessions.back().cgr().total_bits();
    std::fprintf(stderr,
                 "input %s: %s -> %u nodes, %llu edges, %llu encoded bytes\n",
                 d.name.c_str(), d.recipe.c_str(), d.graph.num_nodes(),
                 static_cast<unsigned long long>(d.graph.num_edges()),
                 static_cast<unsigned long long>(
                     (sessions.back().cgr().total_bits() + 7) / 8));
  }
  e2e.setup_s = SecondsSince(ProcessStartNs());
  e2e.bits_per_edge = static_cast<double>(encoded_bits) / raw_edges;
  e2e.in_flight = threads;  // one serial query per core

  // The round, heaviest first, and the oracle's answers.
  Rng rng(SubSeed(cfg.seed, 23));
  std::vector<Expect> expect(inputs.size());
  std::vector<Task> tasks;
  for (size_t g = 0; g < inputs.size(); ++g) {
    const Graph& raw = inputs[g].graph;
    expect[g].triangles = OracleTriangles(raw, &expect[g].per_vertex);
    tasks.push_back({g, gcgt::TriangleCountQuery{}, "intersect.triangle", 0});
    tasks.push_back({g, gcgt::KCoreQuery{kCoreK}, "intersect.kcore", 0});
  }
  for (size_t g = 0; g < inputs.size(); ++g) {
    const Graph& raw = inputs[g].graph;
    const Mix mix = inputs[g].name == "twitter" ? kTwitterMix : kWebMix;
    for (NodeId s : MiddleWedgeSources(raw, mix.topk, rng)) {
      tasks.push_back({g, gcgt::SimilarityTopKQuery{s, kTopK},
                       "intersect.topk", expect[g].topk.size()});
      expect[g].topk.push_back(OracleTopK(raw, s, kTopK));
    }
  }
  for (size_t g = 0; g < inputs.size(); ++g) {
    const Graph& raw = inputs[g].graph;
    const Mix mix = inputs[g].name == "twitter" ? kTwitterMix : kWebMix;
    for (auto [u, v] : TwoHopPairs(raw, mix.pairs, rng)) {
      tasks.push_back({g, gcgt::JaccardQuery{u, v}, "intersect.jaccard",
                       expect[g].pairs.size()});
      expect[g].pairs.emplace_back(u, v);
      expect[g].pair_common.push_back(OracleCommon(raw, u, v));
      expect[g].pair_jaccard.push_back(OracleJaccard(raw, u, v));
    }
  }

  std::vector<double> latency_ms;
  ModelTally tally, triangle_tally, topk_tally;

  auto check = [&](const Task& t, const QueryResult& r) {
    const Expect& e = expect[t.graph];
    const Graph& raw = inputs[t.graph].graph;
    const std::string where = inputs[t.graph].name + " ";
    switch (r.kind()) {
      case QueryKind::kTriangle:
        if (r.triangle().triangles != e.triangles ||
            r.triangle().per_vertex != e.per_vertex) {
          out.Wrong(where + "triangle counts");
        }
        break;
      case QueryKind::kKCore:
        if (std::string why = CheckKCore(raw, kCoreK, r.kcore().in_core);
            !why.empty()) {
          out.Wrong(where + why);
        }
        break;
      case QueryKind::kSimilarityTopK: {
        std::vector<TopKItem> items;
        for (const auto& it : r.similarity_topk().items) {
          items.push_back({it.node, it.common, it.jaccard});
        }
        if (std::string why = CheckTopK(e.topk[t.expect], items); !why.empty()) {
          out.Wrong(where + why);
        }
        break;
      }
      case QueryKind::kJaccard:
        if (r.jaccard().common != e.pair_common[t.expect] ||
            r.jaccard().jaccard != e.pair_jaccard[t.expect]) {
          out.Wrong(where + "Jaccard of " +
                    std::to_string(e.pairs[t.expect].first) + "," +
                    std::to_string(e.pairs[t.expect].second));
        }
        break;
      default:
        out.Wrong(where + "result of an unexpected kind");
    }
  };

  auto round = [&](bool warmup) -> uint64_t {
    return RunAcrossCores(
        tasks.size(), threads,
        [&](int w, size_t i) {
          return clones[w][tasks[i].graph].Run(tasks[i].query);
        },
        [&](size_t i) { return tasks[i].span; },
        [&](size_t i, const QueryResult& r) {
          check(tasks[i], r);
          if (!warmup) return;
          tally.Add(r.metrics());
          if (r.kind() == QueryKind::kTriangle) triangle_tally.Add(r.metrics());
          if (r.kind() == QueryKind::kSimilarityTopK) {
            topk_tally.Add(r.metrics());
          }
        },
        tracer, &latency_ms, &out);
  };

  const int rounds =
      RunRounds(cfg, tracer, round, &latency_ms, tally, e2e, &out);
  if (!cfg.trace) return out;

  Metrics& m = out.metrics;
  const double engine_s =
      (tracer.TotalSeconds("intersect.triangle") +
       tracer.TotalSeconds("intersect.kcore") +
       tracer.TotalSeconds("intersect.topk") +
       tracer.TotalSeconds("intersect.jaccard")) / rounds;
  AddSimtMetrics(tally, popt.gcgt.cost, engine_s, &m);
  m["intersect.triangle_ms"] = {
      tracer.TotalSeconds("intersect.triangle") * 1e3 / rounds, "ms"};
  m["intersect.kcore_ms"] = {
      tracer.TotalSeconds("intersect.kcore") * 1e3 / rounds, "ms"};
  m["intersect.topk_ms_p50"] = {
      Quantile(tracer.DurationsMs("intersect.topk"), 0.5), "ms"};
  m["intersect.jaccard_us_p50"] = {
      Quantile(tracer.DurationsMs("intersect.jaccard"), 0.5) * 1e3, "us"};
  m["intersect.ops"] = {static_cast<double>(tally.warp.intersect_txns),
                        "count"};
  m["intersect.triangle.model_ms"] = {triangle_tally.model_ms, "ms"};
  m["intersect.topk.model_ms"] = {topk_tally.model_ms, "ms"};
  m["api.prepare_s"] = {tracer.TotalSeconds("api.prepare"), "s"};

  uint64_t vnc_in = 0, vnc_out = 0, decoded = 0;
  for (size_t g = 0; g < inputs.size(); ++g) {
    TracedPrepareStages(inputs[g].graph, popt, tracer, &vnc_in, &vnc_out);
    AddCgrMetrics(inputs[g].name, sessions[g].cgr(), tracer, &decoded, &m);
  }
  AddPrepareLayerMetrics(tracer, vnc_in, vnc_out, decoded, &m);
  return out;
}

}  // namespace perfbench
