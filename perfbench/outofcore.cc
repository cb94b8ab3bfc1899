// Workload "outofcore": a partitioned container is written with
// WriteCgrContainer, mmap-opened, and served through GcgtSession::Adopt with
// a resident budget equal to the container's PayloadBytes() and an explicit
// partition count; it runs BFS, CC and BC. Every query starts cold, so
// partition faults dominate modeled time: a pager or prefetch change shows
// here and nowhere else. The graph is prepared without VNC or reordering, so
// the container's (prepared) ids are the input's ids. Every core runs its own
// serial clone of the paged session, each with its own pager.
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "api/gcgt_session.h"
#include "ooc/cgr_container.h"
#include "perfbench/layers.h"

namespace perfbench {
namespace {

using gcgt::BcQuery;
using gcgt::BfsQuery;
using gcgt::CcQuery;
using gcgt::GcgtSession;
using gcgt::Query;
using gcgt::QueryKind;
using gcgt::QueryResult;

constexpr NodeId kWebNodes = 60000;
constexpr int kPartitions = 16;
/// Queries per round: BFS sources, then one CC and one BC over kBcSources.
/// CC and BC cost several BFS each; at 2% of the queries they stay above
/// both latency percentiles.
constexpr size_t kBfsQueries = 98;
constexpr size_t kBcSources = 2;

/// Bitwise equality of two results of the same query.
bool SameResult(const QueryResult& a, const QueryResult& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case QueryKind::kBfs:
      return a.bfs().depth == b.bfs().depth;
    case QueryKind::kCc:
      return a.cc().component == b.cc().component;
    case QueryKind::kBc:
      return a.bc().dependency == b.bc().dependency;
    default:
      return false;
  }
}

}  // namespace

RunOutcome RunOutOfCore(const RunConfig& cfg) {
  RunOutcome out;
  Tracer tracer(cfg.trace);
  const Dataset input = MakeWeb(SubSeed(cfg.seed, 41), kWebNodes);
  const Graph& raw = input.graph;
  const std::string path =
      cfg.workdir + "/outofcore_" + std::to_string(::getpid()) + ".gcoc";

  const int threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  gcgt::PrepareOptions popt;
  popt.ooc_partitions = kPartitions;
  popt.gcgt.num_threads = 0;

  // Set-up: raw input -> prepared, partitioned encode -> container file ->
  // mmap open -> zero-copy graph view -> adopted, budgeted session.
  EndToEnd e2e;
  auto prepared = [&] {
    auto span = tracer.Open("api.prepare");
    return GcgtSession::Prepare(raw, popt);
  }();
  if (!prepared.ok()) {
    out.Wrong("Prepare: " + prepared.status().ToString());
    return out;
  }
  GcgtSession& incore = prepared.value();
  gcgt::Status written = [&] {
    auto span = tracer.Open("ooc.write");
    return gcgt::ooc::WriteCgrContainer(incore.cgr(),
                                        incore.artifact_fingerprint(), path);
  }();
  if (!written.ok()) {
    out.Wrong("WriteCgrContainer: " + written.ToString());
    return out;
  }
  auto container = [&] {
    auto span = tracer.Open("ooc.open");
    return gcgt::ooc::CgrContainer::Open(path);
  }();
  ::unlink(path.c_str());  // the mapping stays valid; the file is not needed
  if (!container.ok()) {
    out.Wrong("CgrContainer::Open: " + container.status().ToString());
    return out;
  }
  auto view = [&] {
    auto span = tracer.Open("ooc.view");
    return container.value().ToCgrGraphView();
  }();
  if (!view.ok()) {
    out.Wrong("ToCgrGraphView: " + view.status().ToString());
    return out;
  }
  const uint64_t payload = container.value().PayloadBytes();
  gcgt::GcgtOptions gopt = popt.gcgt;
  gopt.ooc_resident_bytes = payload;
  GcgtSession paged = GcgtSession::Adopt(
      std::make_unique<const gcgt::CgrGraph>(std::move(view).value()), gopt);
  std::vector<GcgtSession> workers;  // one serial paged engine per core
  for (int w = 0; w < threads; ++w) workers.push_back(paged.AttachClone(1));
  e2e.setup_s = SecondsSince(ProcessStartNs());
  e2e.bits_per_edge = static_cast<double>(paged.cgr().total_bits()) /
                      static_cast<double>(raw.num_edges());
  e2e.in_flight = threads;  // one serial query per core
  std::fprintf(stderr,
               "input %s: %s -> %u nodes, %llu edges, %llu payload bytes in "
               "%zu partitions%s\n",
               input.name.c_str(), input.recipe.c_str(), raw.num_nodes(),
               static_cast<unsigned long long>(raw.num_edges()),
               static_cast<unsigned long long>(payload),
               container.value().partitions().size(),
               container.value().mmapped() ? ", mmapped" : "");

  // The fixed round and the answers it must give: the in-core session's
  // results, which must themselves pass the oracles.
  Rng rng(SubSeed(cfg.seed, 42));
  const std::vector<NodeId> bfs_sources =
      ReachingSources(raw, kBfsQueries, rng);
  const std::vector<NodeId> bc_sources = HubSources(raw, kBcSources);
  if (bfs_sources.size() < kBfsQueries || bc_sources.size() < kBcSources) {
    out.Wrong("too few sources reach a quarter of the graph");
    return out;
  }
  // Heaviest first, so the cores finish a round together.
  std::vector<Query> queries;
  queries.emplace_back(BcQuery{bc_sources});
  queries.emplace_back(CcQuery{});
  for (NodeId s : bfs_sources) queries.emplace_back(BfsQuery{s});

  const auto components = OracleComponents(raw);
  const auto dependency = OracleBrandes(raw, bc_sources);
  std::vector<QueryResult> expect;
  ModelTally incore_tally;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto r = incore.Run(queries[i]);
    if (!r.ok()) {
      out.Wrong("in-core reference: " + r.status().ToString());
      return out;
    }
    const QueryResult& res = r.value();
    if (res.kind() == QueryKind::kBfs) {
      if (res.bfs().depth != OracleBfs(raw, bfs_sources[i - 2])) {
        out.Wrong("in-core BFS depths");
      }
    } else if (res.kind() == QueryKind::kCc) {
      if (res.cc().component != components) out.Wrong("in-core CC labels");
    } else if (!CloseDependencies(res.bc().dependency, dependency)) {
      out.Wrong("in-core BC dependencies");
    }
    incore_tally.Add(res.metrics());
    expect.push_back(std::move(r).value());
  }

  std::vector<double> latency_ms;
  ModelTally tally;
  ModelTally kind_tally[3];  // by query kind: BFS, CC, BC
  auto round = [&](bool warmup) -> uint64_t {
    return RunAcrossCores(
        queries.size(), threads,
        [&](int w, size_t i) { return workers[w].Run(queries[i]); },
        [](size_t i) {
          return i == 0 ? "core.bc" : i == 1 ? "core.cc" : "core.bfs";
        },
        [&](size_t i, const QueryResult& r) {
          if (!SameResult(r, expect[i])) {
            out.Wrong("paged result " + std::to_string(i) +
                      " differs from the in-core session's");
          }
          if (!warmup) return;
          tally.Add(r.metrics());
          kind_tally[static_cast<int>(r.kind())].Add(r.metrics());
        },
        tracer, &latency_ms, &out);
  };

  const int rounds =
      RunRounds(cfg, tracer, round, &latency_ms, tally, e2e, &out);
  if (!cfg.trace) return out;

  Metrics& m = out.metrics;
  const double engine_s = (tracer.TotalSeconds("core.bfs") +
                           tracer.TotalSeconds("core.cc") +
                           tracer.TotalSeconds("core.bc")) / rounds;
  AddSimtMetrics(tally, gopt.cost, engine_s, &m);
  m["core.bfs_ms_p50"] = {Quantile(tracer.DurationsMs("core.bfs"), 0.5), "ms"};
  m["core.cc_ms_p50"] = {Quantile(tracer.DurationsMs("core.cc"), 0.5), "ms"};
  m["core.bc_ms_p50"] = {Quantile(tracer.DurationsMs("core.bc"), 0.5), "ms"};
  m["core.bfs.model_ms"] = {kind_tally[0].model_ms, "ms"};
  m["core.cc.model_ms"] = {kind_tally[1].model_ms, "ms"};
  m["core.bc.model_ms"] = {kind_tally[2].model_ms, "ms"};
  m["core.kernels"] = {static_cast<double>(tally.kernels) / tally.queries,
                       "count"};
  m["api.prepare_s"] = {tracer.TotalSeconds("api.prepare"), "s"};
  m["ooc.write_s"] = {tracer.TotalSeconds("ooc.write"), "s"};
  m["ooc.open_ms"] = {tracer.TotalSeconds("ooc.open") * 1e3, "ms"};
  m["ooc.view_ms"] = {tracer.TotalSeconds("ooc.view") * 1e3, "ms"};
  const gcgt::simt::WarpStats& w = tally.warp;
  m["ooc.partition_faults"] = {static_cast<double>(w.partition_faults),
                               "count"};
  m["ooc.partition_spills"] = {static_cast<double>(w.partition_spills),
                               "count"};
  m["ooc.fault_txns"] = {static_cast<double>(w.fault_txns), "count"};
  m["ooc.spill_txns"] = {static_cast<double>(w.spill_txns), "count"};
  m["ooc.resident_mb_peak"] = {static_cast<double>(tally.resident_bytes_peak) / kBytesPerMb,
                               "MB"};
  m["ooc.incore_model_ms"] = {incore_tally.model_ms, "ms"};

  uint64_t vnc_in = 0, vnc_out = 0, decoded = 0;
  TracedPrepareStages(raw, popt, tracer, &vnc_in, &vnc_out);
  AddCgrMetrics(input.name, paged.cgr(), tracer, &decoded, &m);
  AddPrepareLayerMetrics(tracer, vnc_in, vnc_out, decoded, &m);
  return out;
}

}  // namespace perfbench
