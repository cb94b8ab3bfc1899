#include "perfbench/layers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "cgr/cgr_decoder.h"
#include "reorder/reorder.h"
#include "vnc/virtual_node.h"

namespace perfbench {

void ModelTally::Add(const gcgt::TraversalMetrics& m) {
  model_ms += m.model_ms;
  device_bytes = std::max(device_bytes, m.device_bytes);
  resident_bytes_peak = std::max(resident_bytes_peak, m.resident_bytes_peak);
  kernels += static_cast<uint64_t>(m.kernels);
  ++queries;
  warp += m.warp;
}

void AddSimtMetrics(const ModelTally& t, const gcgt::simt::CostModel& cost,
                    double engine_host_s, Metrics* out) {
  const gcgt::simt::WarpStats& w = t.warp;
  auto count = [&](const char* name, uint64_t v) {
    (*out)[name] = {static_cast<double>(v), "count"};
  };
  count("simt.steps", w.steps);
  count("simt.decode_steps", w.decode_steps);
  count("simt.append_steps", w.append_steps);
  count("simt.mem_txns", w.mem_txns);
  count("simt.atomics", w.atomics);
  count("simt.shared_ops", w.shared_ops);
  const double lanes =
      static_cast<double>(w.active_lane_steps + w.idle_lane_steps);
  (*out)["simt.lane_util"] = {
      lanes > 0 ? static_cast<double>(w.active_lane_steps) / lanes : 0.0,
      "ratio"};
  auto cycles = [&](const char* name, double v) {
    (*out)[name] = {v, "cycles"};
  };
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  cycles("simt.cycles.step",
         cost.cycles_per_step * d(w.steps - w.decode_steps - w.append_steps));
  cycles("simt.cycles.decode", cost.cycles_per_decode_step * d(w.decode_steps));
  cycles("simt.cycles.append", cost.cycles_per_append_step * d(w.append_steps));
  cycles("simt.cycles.shared", cost.cycles_per_shared_op * d(w.shared_ops));
  cycles("simt.cycles.mem", cost.cycles_per_mem_txn * d(w.mem_txns));
  cycles("simt.cycles.atomic", cost.cycles_per_atomic * d(w.atomics));
  cycles("simt.cycles.intersect",
         cost.cycles_per_intersect_op * d(w.intersect_txns));
  cycles("simt.cycles.external", cost.cycles_per_mem_txn *
                                     cost.external_latency_multiplier *
                                     d(w.fault_txns + w.spill_txns));
  (*out)["simt.host_ns_per_step"] = {
      w.steps > 0 ? engine_host_s * 1e9 / d(w.steps) : 0.0, "ns"};
}

gcgt::CgrGraph TracedPrepareStages(const Graph& raw,
                                   const gcgt::PrepareOptions& options,
                                   Tracer& tracer, uint64_t* vnc_in,
                                   uint64_t* vnc_out) {
  Graph prepared;
  if (options.apply_vnc) {
    auto span = tracer.Open("vnc");
    gcgt::VncResult vnc = gcgt::VirtualNodeCompress(raw, options.vnc);
    *vnc_in += raw.num_edges();
    *vnc_out += vnc.graph.num_edges();
    prepared = std::move(vnc.graph);
  } else {
    prepared = raw;
  }
  if (options.reorder != gcgt::ReorderMethod::kOriginal) {
    auto span = tracer.Open("reorder");
    const auto perm = gcgt::ComputeOrdering(prepared, options.reorder,
                                            options.reorder_seed);
    prepared = prepared.Relabeled(perm);
  }
  auto span = tracer.Open("cgr.encode");
  auto cgr = options.ooc_partitions > 0
                 ? gcgt::CgrGraph::EncodePartitioned(
                       prepared, options.cgr, options.ooc_partitions,
                       options.gcgt.num_threads)
                 : gcgt::CgrGraph::Encode(prepared, options.cgr);
  return std::move(cgr).value();
}

void AddCgrMetrics(const std::string& name, const gcgt::CgrGraph& cgr,
                   Tracer& tracer, uint64_t* decoded_edges, Metrics* out) {
  std::vector<std::vector<NodeId>> lists(cgr.num_nodes());
  {
    auto span = tracer.Open("cgr.decode");
    for (NodeId u = 0; u < cgr.num_nodes(); ++u) {
      lists[u] = gcgt::DecodeAdjacency(cgr, u);
    }
  }
  uint64_t edges = 0;
  uint64_t interval_edges = 0;
  for (const auto& list : lists) {
    edges += list.size();
    const auto parts =
        gcgt::DecomposeAdjacency(list, cgr.options().min_interval_len);
    for (const auto& itv : parts.intervals) interval_edges += itv.len;
  }
  *decoded_edges += edges;
  (*out)["cgr.bits_per_edge." + name] = {cgr.BitsPerEdge(), "bit"};
  (*out)["cgr.interval_edge_share." + name] = {
      edges > 0 ? static_cast<double>(interval_edges) / edges : 0.0, "ratio"};
}

void AddPrepareLayerMetrics(const Tracer& tracer, uint64_t vnc_in,
                            uint64_t vnc_out, uint64_t decoded_edges,
                            Metrics* out) {
  (*out)["vnc.s"] = {tracer.TotalSeconds("vnc"), "s"};
  (*out)["reorder.s"] = {tracer.TotalSeconds("reorder"), "s"};
  (*out)["cgr.encode_s"] = {tracer.TotalSeconds("cgr.encode"), "s"};
  (*out)["vnc.edge_reduction"] = {
      vnc_out > 0 ? static_cast<double>(vnc_in) / vnc_out : 0.0, "ratio"};
  (*out)["cgr.decode_ns_per_edge"] = {
      decoded_edges > 0 ? tracer.TotalSeconds("cgr.decode") * 1e9 /
                              static_cast<double>(decoded_edges)
                        : 0.0,
      "ns"};
}

void AddEndToEndMetrics(const EndToEnd& e, const ModelTally& tally,
                        Metrics* out) {
  (*out)["setup_s"] = {e.setup_s, "s"};
  (*out)["model_ms"] = {tally.model_ms, "ms"};
  // The host's speed swings: for periods of a fraction of a second to
  // seconds, serial queries take up to 1.8 times their usual time, and as
  // much more CPU time. The figures therefore come from each query's fastest
  // time over the rounds: a slow period lengthens other repetitions of a
  // query, never the fastest one. A whole round is fastest only if no part
  // of it met a slow period, so the fastest round still swings with the
  // host; it is printed for reference.
  std::fprintf(stderr,
               "%zu timed rounds of %llu queries, %d at a time: host s per "
               "round min %.4f, median %.4f, max %.4f\n",
               e.round_s.size(),
               static_cast<unsigned long long>(e.round_queries), e.in_flight,
               Quantile(e.round_s, 0.0), Quantile(e.round_s, 0.5),
               Quantile(e.round_s, 1.0));
  std::vector<double> best_ms = e.round_latency_ms.front();
  for (const auto& lat : e.round_latency_ms) {
    for (size_t i = 0; i < best_ms.size(); ++i) {
      best_ms[i] = std::min(best_ms[i], lat[i]);
    }
  }
  // Throughput by Little's law: with `in_flight` queries running at every
  // moment, they complete at in_flight / (mean latency) per second.
  double sum_ms = 0.0;
  for (double ms : best_ms) sum_ms += ms;
  (*out)["queries_per_s"] = {
      sum_ms > 0 ? e.in_flight * 1e3 * static_cast<double>(best_ms.size()) /
                       sum_ms
                 : 0.0,
      "1/s"};
  // Percentiles over the round's queries. A round has at least 100
  // queries, so at least 10 lie beyond its p90.
  (*out)["latency_ms_p50"] = {Quantile(best_ms, 0.5), "ms"};
  (*out)["latency_ms_p90"] = {Quantile(best_ms, 0.9), "ms"};
  (*out)["bits_per_edge"] = {e.bits_per_edge, "bit"};
  (*out)["device_mb"] = {static_cast<double>(tally.device_bytes) / kBytesPerMb,
                         "MB"};
  (*out)["host_rss_mb"] = {PeakRssMb(), "MB"};
}

bool CloseDependencies(const std::vector<double>& got,
                       const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(std::fabs(got[i] - want[i]) <=
          kBcRelTolerance * std::max(1.0, std::fabs(want[i])))) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
