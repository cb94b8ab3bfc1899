// Workload "serve": a closed loop from one generator thread, with a fixed
// number of queries outstanding, against GcgtService. The service holds two
// artifacts (a social and a web graph, LLP-reordered, no VNC) and receives a
// Zipf-skewed BFS / Jaccard / top-k mix; its result cache is small enough
// that hits, misses and evictions all occur. Workers plus the generator use
// no more threads than there are cores. Admission, queue, cache and worker
// sessions carry the work, and cache hits bypass the engines.
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/layers.h"
#include "service/gcgt_service.h"

namespace perfbench {
namespace {

using gcgt::GcgtService;
using gcgt::Query;
using gcgt::QueryKind;
using gcgt::QueryResult;

constexpr NodeId kSocialNodes = 10000;
constexpr NodeId kWebNodes = 20000;
constexpr uint32_t kTopK = 10;
constexpr size_t kBfsPool = 48;    // per artifact, Zipf-ranked
constexpr size_t kTopKPool = 32;   // per artifact, Zipf-ranked
constexpr size_t kPairPool = 64;   // per artifact, Zipf-ranked
/// Zipf exponent of each pool's popularity. At 0.6 about one lookup in ten
/// hits the cache, so under a tenth of the queries cost microseconds.
constexpr double kZipfS = 0.6;
/// Queries per artifact and round: BFS 80%, Jaccard 13%, top-k 7%. A BFS
/// miss costs milliseconds, a top-k under one, a Jaccard pair or a cache hit
/// microseconds, so both latency percentiles fall inside the BFS miss costs
/// (near their 30th and 86th percentiles), never on the step between kinds.
constexpr int kBfsPerArtifact = 120;
constexpr int kJaccardPerArtifact = 20;
constexpr int kTopKPerArtifact = 10;
/// Result-cache budget: a few BFS results (4 bytes per node each), so the
/// hot sources hit, the tail misses and evicts.
constexpr size_t kCacheBytes = 512 << 10;

enum Kind { kBfs, kJaccard, kTopKKind };
constexpr const char* kSpan[] = {"service.bfs", "service.jaccard",
                                 "service.topk"};

struct Pools {
  std::vector<NodeId> bfs;
  std::vector<std::vector<uint32_t>> bfs_depth;
  std::vector<NodeId> topk;
  std::vector<TopKExpect> topk_expect;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::vector<uint64_t> pair_common;
  std::vector<double> pair_jaccard;
};

struct Planned {
  size_t art;
  Kind kind;
  size_t item;  // index into the artifact's pool
};

}  // namespace

RunOutcome RunServe(const RunConfig& cfg) {
  RunOutcome out;
  Tracer tracer(cfg.trace);
  std::vector<Dataset> inputs;
  inputs.push_back(MakeSocial(SubSeed(cfg.seed, 31), kSocialNodes));
  inputs.push_back(MakeWeb(SubSeed(cfg.seed, 32), kWebNodes));
  const int cores =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  gcgt::ServiceOptions sopt;
  sopt.num_workers = std::max(1, cores - 1);  // one core for the generator
  sopt.cache_bytes = kCacheBytes;
  sopt.cache_shards = 1;
  sopt.qos.watchdog_interval = std::chrono::nanoseconds{0};
  gcgt::PrepareOptions popt;
  popt.reorder = gcgt::ReorderMethod::kLlp;
  popt.gcgt.num_threads = 1;

  // Set-up: register both artifacts (VNC-free prepare per artifact), cold.
  EndToEnd e2e;
  GcgtService service(sopt);
  std::vector<uint64_t> ids;
  uint64_t raw_edges = 0, encoded_bits = 0;
  for (const Dataset& d : inputs) {
    auto id = [&] {
      auto span = tracer.Open("service.register");
      return service.RegisterGraph(d.graph, popt);
    }();
    if (!id.ok()) {
      out.Wrong("RegisterGraph(" + d.name + "): " + id.status().ToString());
      return out;
    }
    ids.push_back(id.value());
    const gcgt::CgrGraph& cgr = service.FindGraph(id.value())->cgr();
    raw_edges += d.graph.num_edges();
    encoded_bits += cgr.total_bits();
    std::fprintf(stderr,
                 "input %s: %s -> %u nodes, %llu edges, %llu encoded bytes\n",
                 d.name.c_str(), d.recipe.c_str(), d.graph.num_nodes(),
                 static_cast<unsigned long long>(d.graph.num_edges()),
                 static_cast<unsigned long long>((cgr.total_bits() + 7) / 8));
  }
  e2e.setup_s = SecondsSince(ProcessStartNs());
  e2e.bits_per_edge = static_cast<double>(encoded_bits) / raw_edges;
  e2e.in_flight = sopt.num_workers;  // one query per worker

  // Query pools with the oracle's answers, and the fixed round.
  Rng rng(SubSeed(cfg.seed, 33));
  std::vector<Pools> pools(inputs.size());
  for (size_t a = 0; a < inputs.size(); ++a) {
    const Graph& g = inputs[a].graph;
    Pools& p = pools[a];
    p.bfs = ReachingSources(g, kBfsPool, rng, &p.bfs_depth);
    p.topk = MiddleWedgeSources(g, kTopKPool, rng);
    for (NodeId s : p.topk) p.topk_expect.push_back(OracleTopK(g, s, kTopK));
    p.pairs = TwoHopPairs(g, kPairPool, rng);
    for (auto [u, v] : p.pairs) {
      p.pair_common.push_back(OracleCommon(g, u, v));
      p.pair_jaccard.push_back(OracleJaccard(g, u, v));
    }
    if (p.bfs.size() < kBfsPool) out.Wrong(inputs[a].name + ": too few BFS sources");
  }
  // The round: per artifact and kind a fixed number of queries, each pool
  // item repeated by its Zipf weight, in a seeded order. Every seed sees the
  // same mix and the same popularity profile.
  std::vector<Planned> plan;
  for (size_t a = 0; a < inputs.size(); ++a) {
    const struct {
      Kind kind;
      int queries;
      size_t pool;
    } parts[] = {{kBfs, kBfsPerArtifact, kBfsPool},
                 {kJaccard, kJaccardPerArtifact, kPairPool},
                 {kTopKKind, kTopKPerArtifact, kTopKPool}};
    for (const auto& part : parts) {
      const std::vector<int> counts = ZipfCounts(part.queries, part.pool, kZipfS);
      for (size_t item = 0; item < counts.size(); ++item) {
        plan.insert(plan.end(), counts[item], Planned{a, part.kind, item});
      }
    }
  }
  for (size_t i = plan.size(); i > 1; --i) {
    std::swap(plan[i - 1], plan[rng.Uniform(i)]);
  }
  auto make_query = [&](const Planned& q) -> gcgt::ServiceQuery {
    const Pools& p = pools[q.art];
    gcgt::ServiceQuery sq;
    sq.graph = ids[q.art];
    switch (q.kind) {
      case kBfs:
        sq.query = gcgt::BfsQuery{p.bfs[q.item]};
        break;
      case kJaccard:
        sq.query = gcgt::JaccardQuery{p.pairs[q.item].first,
                                      p.pairs[q.item].second};
        break;
      case kTopKKind:
        sq.query = gcgt::SimilarityTopKQuery{p.topk[q.item], kTopK};
        break;
    }
    return sq;
  };
  auto check = [&](const Planned& q, const QueryResult& r) {
    const Pools& p = pools[q.art];
    const std::string where = inputs[q.art].name + " ";
    switch (q.kind) {
      case kBfs:
        if (r.kind() != QueryKind::kBfs || r.bfs().depth != p.bfs_depth[q.item]) {
          out.Wrong(where + "BFS from " + std::to_string(p.bfs[q.item]));
        }
        break;
      case kJaccard:
        if (r.kind() != QueryKind::kJaccard ||
            r.jaccard().common != p.pair_common[q.item] ||
            r.jaccard().jaccard != p.pair_jaccard[q.item]) {
          out.Wrong(where + "Jaccard pair " + std::to_string(q.item));
        }
        break;
      case kTopKKind: {
        if (r.kind() != QueryKind::kSimilarityTopK) {
          out.Wrong(where + "top-k result kind");
          break;
        }
        std::vector<TopKItem> items;
        for (const auto& it : r.similarity_topk().items) {
          items.push_back({it.node, it.common, it.jaccard});
        }
        if (std::string why = CheckTopK(p.topk_expect[q.item], items);
            !why.empty()) {
          out.Wrong(where + why);
        }
        break;
      }
    }
  };

  // One round: the plan in order through a closed loop with one query in
  // flight per worker, completions noticed by polling every future. No query
  // waits behind another, so its latency is its own cost in the service.
  const int outstanding = sopt.num_workers;
  std::vector<double> latency_ms;
  ModelTally tally, topk_tally;
  auto round = [&](bool warmup) -> uint64_t {
    struct Slot {
      bool busy = false;
      size_t index = 0;
      int64_t submitted = 0;
      std::future<gcgt::Result<QueryResult>> fut;
    };
    std::vector<Slot> slots(outstanding);
    latency_ms.assign(plan.size(), 0.0);
    size_t next = 0, done = 0;
    while (done < plan.size()) {
      for (Slot& s : slots) {
        if (s.busy || next >= plan.size()) continue;
        s.busy = true;
        s.index = next++;
        gcgt::ServiceQuery sq = make_query(plan[s.index]);
        s.submitted = NowNs();
        auto span = tracer.Open("service.submit");
        s.fut = service.Submit(std::move(sq));
      }
      bool progressed = false;
      for (Slot& s : slots) {
        if (!s.busy ||
            s.fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          continue;
        }
        const int64_t now = NowNs();
        auto r = s.fut.get();
        s.busy = false;
        progressed = true;
        ++done;
        const Planned& q = plan[s.index];
        latency_ms[s.index] = static_cast<double>(now - s.submitted) * 1e-6;
        tracer.Record(kSpan[q.kind], s.submitted, now);
        if (!r.ok()) {
          ++out.failed;
          continue;
        }
        check(q, r.value());
        if (warmup) {
          tally.Add(r.value().metrics());
          if (q.kind == kTopKKind) topk_tally.Add(r.value().metrics());
        }
      }
      if (!progressed) std::this_thread::yield();
    }
    return plan.size();
  };

  // The warm-up round also fills the cache; the hit ratio counts the timed
  // rounds only.
  gcgt::ServiceStats warm;
  RunRounds(
      cfg, tracer,
      [&](bool warmup) {
        const uint64_t queries = round(warmup);
        if (warmup) warm = service.Stats();
        return queries;
      },
      &latency_ms, tally, e2e, &out);
  if (!cfg.trace) return out;

  Metrics& m = out.metrics;
  const gcgt::ServiceStats st = service.Stats();
  const double hits = static_cast<double>(st.cache.hits - warm.cache.hits);
  const double lookups =
      hits + static_cast<double>(st.cache.misses - warm.cache.misses);
  m["service.submit_us_p50"] = {
      Quantile(tracer.DurationsMs("service.submit"), 0.5) * 1e3, "us"};
  m["service.cache_hit_ratio"] = {lookups > 0 ? hits / lookups : 0.0, "ratio"};
  m["service.latency_ms_p50.bfs"] = {
      Quantile(tracer.DurationsMs("service.bfs"), 0.5), "ms"};
  m["service.latency_ms_p50.jaccard"] = {
      Quantile(tracer.DurationsMs("service.jaccard"), 0.5), "ms"};
  m["service.latency_ms_p50.topk"] = {
      Quantile(tracer.DurationsMs("service.topk"), 0.5), "ms"};
  m["service.completed"] = {static_cast<double>(st.completed), "count"};
  m["service.worker_sessions"] = {static_cast<double>(st.worker_sessions),
                                  "count"};
  m["service.rejected"] = {static_cast<double>(st.rejected), "count"};
  m["service.shed"] = {
      static_cast<double>(st.shed_overload + st.shed_rate_limited), "count"};
  m["service.retries"] = {static_cast<double>(st.retries), "count"};
  m["service.register_s"] = {tracer.TotalSeconds("service.register"), "s"};
  // The engines run inside the workers, out of the benchmark's sight: the
  // SIMT counters come from the results, their host time is not observed.
  AddSimtMetrics(tally, popt.gcgt.cost, 0.0, &m);
  m["intersect.ops"] = {static_cast<double>(tally.warp.intersect_txns),
                        "count"};
  m["intersect.topk.model_ms"] = {topk_tally.model_ms, "ms"};

  uint64_t vnc_in = 0, vnc_out = 0, decoded = 0;
  for (size_t a = 0; a < inputs.size(); ++a) {
    TracedPrepareStages(inputs[a].graph, popt, tracer, &vnc_in, &vnc_out);
    AddCgrMetrics(inputs[a].name, service.FindGraph(ids[a])->cgr(),
                  tracer, &decoded, &m);
  }
  AddPrepareLayerMetrics(tracer, vnc_in, vnc_out, decoded, &m);
  return out;
}

}  // namespace perfbench
