// Workload "traverse": in-core BFS (single sources and RunBatch batches), CC
// and multi-source BC through GcgtSession on kCgrSimt, over a web-like and a
// twitter-like graph, both prepared with VNC + LLP (paper §7.2) and engine
// threads = every core. The CGR decoder, the scheduling ladder, the frontier
// pipeline and SIMT charging do nearly all of the work.
#include <cstdio>
#include <string>
#include <vector>

#include "api/gcgt_session.h"
#include "perfbench/layers.h"
#include "vnc/virtual_node.h"

namespace perfbench {
namespace {

using gcgt::Backend;
using gcgt::BcQuery;
using gcgt::BfsQuery;
using gcgt::CcQuery;
using gcgt::GcgtSession;
using gcgt::Query;
using gcgt::QueryResult;

constexpr NodeId kWebNodes = 30000;
constexpr NodeId kTwitterNodes = 30000;
constexpr size_t kBcSources = 4;  // per graph, one multi-source BcQuery

/// BFS queries per round: {single-source Run calls, RunBatch size}. A web
/// BFS costs about half a twitter BFS on the host and CC/BC several BFS, so
/// the round of 100 queries is weighted to put both latency percentiles
/// inside the twitter BFS costs: web BFS are 16% of the queries, CC and BC
/// 4%, so p50 and p90 fall near the 43rd and 93rd percentiles of the twitter
/// BFS and never on the step between two kinds of query.
struct BfsMix {
  int single;
  int batch;
};
constexpr BfsMix kWebMix = {12, 4};
constexpr BfsMix kTwitterMix = {64, 16};

/// One prepared graph and its fixed queries with the oracle's answers.
struct Artifact {
  Artifact(Dataset d, GcgtSession s)
      : data(std::move(d)), session(std::move(s)) {}

  Dataset data;
  GcgtSession session;
  std::vector<NodeId> single;  // single-source BFS
  std::vector<NodeId> batch;   // RunBatch BFS
  std::vector<NodeId> bc;      // BC sources
  // Expected answers, in the caller's (raw) id space.
  std::vector<std::vector<uint32_t>> single_depth, batch_depth;
  std::vector<std::vector<uint8_t>> single_reach, batch_reach;
  std::vector<NodeId> components;
  std::vector<double> dependency;
};

/// BFS answer check: depths equal the oracle over the VNC output (real nodes
/// keep their ids), and the reachable set equals the raw graph's.
bool CheckBfs(const std::vector<uint32_t>& got,
              const std::vector<uint32_t>& want_depth,
              const std::vector<uint8_t>& want_reach) {
  if (got.size() != want_depth.size()) return false;
  for (size_t v = 0; v < got.size(); ++v) {
    if (got[v] != want_depth[v]) return false;
    if ((got[v] != kUnreached) != (want_reach[v] != 0)) return false;
  }
  return true;
}

void ExpectBfs(const Graph& vnc_graph, const Graph& raw, NodeId s,
               std::vector<std::vector<uint32_t>>* depth,
               std::vector<std::vector<uint8_t>>* reach) {
  auto d = OracleBfs(vnc_graph, s);
  d.resize(raw.num_nodes());  // real nodes only
  const auto r = OracleBfs(raw, s);
  std::vector<uint8_t> mask(r.size());
  for (size_t v = 0; v < r.size(); ++v) mask[v] = r[v] != kUnreached;
  depth->push_back(std::move(d));
  reach->push_back(std::move(mask));
}

}  // namespace

RunOutcome RunTraverse(const RunConfig& cfg) {
  RunOutcome out;
  Tracer tracer(cfg.trace);
  std::vector<Dataset> inputs;
  inputs.push_back(MakeWeb(SubSeed(cfg.seed, 11), kWebNodes));
  inputs.push_back(MakeTwitter(SubSeed(cfg.seed, 12), kTwitterNodes, 30.0));

  gcgt::PrepareOptions popt;
  popt.apply_vnc = true;
  popt.reorder = gcgt::ReorderMethod::kLlp;
  popt.gcgt.num_threads = 0;  // every core

  // Set-up: raw input -> servable session, once per artifact, cold.
  EndToEnd e2e;
  std::vector<Artifact> arts;
  uint64_t raw_edges = 0;
  uint64_t encoded_bits = 0;
  for (Dataset& d : inputs) {
    auto prepared = [&] {
      auto span = tracer.Open("api.prepare");
      return GcgtSession::Prepare(d.graph, popt);
    }();
    if (!prepared.ok()) {
      out.Wrong("Prepare(" + d.name + "): " + prepared.status().ToString());
      return out;
    }
    raw_edges += d.graph.num_edges();
    encoded_bits += prepared.value().cgr().total_bits();
    std::fprintf(stderr, "input %s: %s -> %u nodes, %llu edges, %llu encoded bytes\n",
                 d.name.c_str(), d.recipe.c_str(), d.graph.num_nodes(),
                 static_cast<unsigned long long>(d.graph.num_edges()),
                 static_cast<unsigned long long>(
                     (prepared.value().cgr().total_bits() + 7) / 8));
    arts.emplace_back(std::move(d), std::move(prepared).value());
  }
  e2e.setup_s = SecondsSince(ProcessStartNs());
  e2e.bits_per_edge = static_cast<double>(encoded_bits) / raw_edges;

  // Fixed queries and the oracle's answers.
  Rng rng(SubSeed(cfg.seed, 13));
  for (Artifact& a : arts) {
    const Graph& raw = a.data.graph;
    const Graph vnc = gcgt::VirtualNodeCompress(raw, popt.vnc).graph;
    const BfsMix mix = a.data.name == "web" ? kWebMix : kTwitterMix;
    a.single = ReachingSources(raw, mix.single, rng);
    a.batch = ReachingSources(raw, mix.batch, rng);
    a.bc = HubSources(raw, kBcSources);
    if (a.single.size() < static_cast<size_t>(mix.single) ||
        a.batch.size() < static_cast<size_t>(mix.batch) ||
        a.bc.size() < kBcSources) {
      out.Wrong(a.data.name + ": too few sources reach a quarter of it");
      return out;
    }
    for (NodeId s : a.single) ExpectBfs(vnc, raw, s, &a.single_depth, &a.single_reach);
    for (NodeId s : a.batch) ExpectBfs(vnc, raw, s, &a.batch_depth, &a.batch_reach);
    a.components = OracleComponents(raw);
    a.dependency = OracleBrandes(vnc, a.bc);
    a.dependency.resize(raw.num_nodes());
  }

  ModelTally tally;                       // one round, all kinds
  ModelTally bfs_tally, cc_tally, bc_tally;  // one round, per kind
  std::vector<double> latency_ms;

  auto run = [&](GcgtSession& s, const Query& q, const char* span_name,
                 QueryResult* result) -> bool {
    const int64_t t0 = NowNs();
    auto r = [&] {
      auto span = tracer.Open(span_name);
      return s.Run(q);
    }();
    latency_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
    if (!r.ok()) {
      ++out.failed;
      return false;
    }
    *result = std::move(r).value();
    return true;
  };

  auto round = [&](bool warmup) -> uint64_t {
    uint64_t queries = 0;
    for (Artifact& a : arts) {
      for (size_t i = 0; i < a.single.size(); ++i) {
        ++queries;
        QueryResult r{gcgt::GcgtBfsResult{}};
        if (!run(a.session, BfsQuery{a.single[i]}, "core.bfs", &r)) continue;
        if (!CheckBfs(r.bfs().depth, a.single_depth[i], a.single_reach[i])) {
          out.Wrong(a.data.name + " BFS from " + std::to_string(a.single[i]));
        }
        if (warmup) {
          tally.Add(r.metrics());
          bfs_tally.Add(r.metrics());
        }
      }
      std::vector<Query> batch;
      for (NodeId s : a.batch) batch.push_back(BfsQuery{s});
      queries += batch.size();
      const int64_t t0 = NowNs();
      auto rb = [&] {
        auto span = tracer.Open("api.batch");
        return a.session.RunBatch(batch);
      }();
      const double per_query_ms =
          static_cast<double>(NowNs() - t0) * 1e-6 / batch.size();
      latency_ms.insert(latency_ms.end(), batch.size(), per_query_ms);
      if (!rb.ok()) {
        out.failed += batch.size();
      } else {
        for (size_t i = 0; i < batch.size(); ++i) {
          const QueryResult& r = rb.value()[i];
          if (!CheckBfs(r.bfs().depth, a.batch_depth[i], a.batch_reach[i])) {
            out.Wrong(a.data.name + " batched BFS from " +
                      std::to_string(a.batch[i]));
          }
          if (warmup) {
            tally.Add(r.metrics());
            bfs_tally.Add(r.metrics());
          }
        }
      }
      ++queries;
      QueryResult cc{gcgt::GcgtCcResult{}};
      if (run(a.session, CcQuery{}, "core.cc", &cc)) {
        if (cc.cc().component != a.components) {
          out.Wrong(a.data.name + " CC labels");
        }
        if (warmup) {
          tally.Add(cc.metrics());
          cc_tally.Add(cc.metrics());
        }
      }
      ++queries;
      QueryResult bc{gcgt::GcgtBcResult{}};
      if (run(a.session, BcQuery{a.bc}, "core.bc", &bc)) {
        if (!CloseDependencies(bc.bc().dependency, a.dependency)) {
          out.Wrong(a.data.name + " BC dependencies");
        }
        if (warmup) {
          tally.Add(bc.metrics());
          bc_tally.Add(bc.metrics());
        }
      }
    }
    return queries;
  };

  const int rounds =
      RunRounds(cfg, tracer, round, &latency_ms, tally, e2e, &out);
  if (!cfg.trace) return out;

  Metrics& m = out.metrics;
  const double engine_s = tracer.TotalSeconds("core.bfs") +
                          tracer.TotalSeconds("core.cc") +
                          tracer.TotalSeconds("core.bc") +
                          tracer.TotalSeconds("api.batch");
  AddSimtMetrics(tally, popt.gcgt.cost, engine_s / rounds, &m);
  m["core.bfs_ms_p50"] = {Quantile(tracer.DurationsMs("core.bfs"), 0.5), "ms"};
  m["core.cc_ms_p50"] = {Quantile(tracer.DurationsMs("core.cc"), 0.5), "ms"};
  m["core.bc_ms_p50"] = {Quantile(tracer.DurationsMs("core.bc"), 0.5), "ms"};
  m["core.bfs.model_ms"] = {bfs_tally.model_ms, "ms"};
  m["core.cc.model_ms"] = {cc_tally.model_ms, "ms"};
  m["core.bc.model_ms"] = {bc_tally.model_ms, "ms"};
  m["core.kernels"] = {static_cast<double>(tally.kernels) / tally.queries,
                       "count"};
  m["api.batch_ms"] = {Quantile(tracer.DurationsMs("api.batch"), 0.5), "ms"};
  m["api.prepare_s"] = {tracer.TotalSeconds("api.prepare"), "s"};

  // Reference backends on the same queries: GPUCSR (modeled) and the CPU
  // serial reference (host time).
  double csr_ms = 0.0;
  uint64_t csr_bytes = 0;
  for (Artifact& a : arts) {
    std::vector<Query> qs;
    for (NodeId s : a.single) qs.push_back(BfsQuery{s});
    for (NodeId s : a.batch) qs.push_back(BfsQuery{s});
    qs.push_back(CcQuery{});
    qs.push_back(BcQuery{a.bc});
    for (const Query& q : qs) {
      auto r = a.session.Run(q, {.backend = Backend::kCsrBaseline});
      if (r.ok()) {
        csr_ms += r.value().metrics().model_ms;
        csr_bytes = std::max(csr_bytes, r.value().metrics().device_bytes);
      }
      auto span = tracer.Open("baseline.cpu");
      (void)a.session.Run(q, {.backend = Backend::kCpuReference});
    }
  }
  m["baseline.gpucsr_model_ms"] = {csr_ms, "ms"};
  m["baseline.gpucsr_device_mb"] = {static_cast<double>(csr_bytes) / kBytesPerMb,
                                    "MB"};
  m["baseline.cpu_ms"] = {tracer.TotalSeconds("baseline.cpu") * 1e3, "ms"};

  // Preparation layers, stage by stage, and the codec.
  uint64_t vnc_in = 0, vnc_out = 0, decoded = 0;
  for (Artifact& a : arts) {
    TracedPrepareStages(a.data.graph, popt, tracer, &vnc_in, &vnc_out);
    AddCgrMetrics(a.data.name, a.session.cgr(), tracer, &decoded, &m);
  }
  AddPrepareLayerMetrics(tracer, vnc_in, vnc_out, decoded, &m);
  return out;
}

}  // namespace perfbench
