// Helpers the workloads share: modeled-metric tallies, the per-layer
// metrics of the preparation and SIMT layers, and the end-to-end metric set.
#ifndef GCGT_PERFBENCH_LAYERS_H_
#define GCGT_PERFBENCH_LAYERS_H_

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/gcgt_session.h"
#include "perfbench/perfbench.h"

namespace perfbench {

/// Modeled metrics summed (or, for the footprint, maximised) over results.
struct ModelTally {
  double model_ms = 0.0;
  uint64_t device_bytes = 0;
  uint64_t resident_bytes_peak = 0;
  uint64_t kernels = 0;
  uint64_t queries = 0;
  gcgt::simt::WarpStats warp;

  void Add(const gcgt::TraversalMetrics& m);
};

/// simt.* from the warp statistics of one round's results; `engine_host_s`
/// is the host time those kCgrSimt calls took (for simt.host_ns_per_step).
void AddSimtMetrics(const ModelTally& tally, const gcgt::simt::CostModel& cost,
                    double engine_host_s, Metrics* out);

/// Runs the preparation stages GcgtSession::Prepare runs — VNC, reordering,
/// CGR encode — one by one under spans "vnc", "reorder" and "cgr.encode",
/// and returns the encoded graph. Adds the VNC input/output edge counts to
/// `vnc_in`/`vnc_out` when VNC is applied.
gcgt::CgrGraph TracedPrepareStages(const Graph& raw,
                                   const gcgt::PrepareOptions& options,
                                   Tracer& tracer, uint64_t* vnc_in,
                                   uint64_t* vnc_out);

/// Per-artifact codec metrics: cgr.bits_per_edge.<name> and
/// cgr.interval_edge_share.<name> (DecomposeAdjacency over the decoded
/// lists). The DecodeAdjacency sweep runs under span "cgr.decode"; its
/// decoded edge count is added to `decoded_edges`.
void AddCgrMetrics(const std::string& name, const gcgt::CgrGraph& cgr,
                   Tracer& tracer, uint64_t* decoded_edges, Metrics* out);

/// The layer metrics every traced run derives from the preparation spans:
/// vnc.s, reorder.s, cgr.encode_s, vnc.edge_reduction and
/// cgr.decode_ns_per_edge.
void AddPrepareLayerMetrics(const Tracer& tracer, uint64_t vnc_in,
                            uint64_t vnc_out, uint64_t decoded_edges,
                            Metrics* out);

/// The host-side inputs of the eight end-to-end metrics; the modeled ones
/// come from the workload's ModelTally.
struct EndToEnd {
  double setup_s = 0.0;
  double bits_per_edge = 0.0;
  uint64_t round_queries = 0;      ///< queries in one round
  int in_flight = 1;               ///< queries the round runs at a time
  std::vector<double> round_s;     ///< host seconds of each timed round
  /// Host latency of every query, one vector per timed round, indexed by the
  /// query's place in the (fixed) round.
  std::vector<std::vector<double>> round_latency_ms;
};
void AddEndToEndMetrics(const EndToEnd& e, const ModelTally& tally,
                        Metrics* out);

/// Runs `round` (one whole round of the workload's fixed operations, which
/// returns the number of queries it attempted) until `seconds` of host time
/// have passed; always at least one round. Returns the queries attempted and
/// appends each round's host seconds to `round_s`.
template <typename Round>
uint64_t RunTimedRounds(double seconds, Round&& round,
                        std::vector<double>* round_s) {
  const int64_t stop = NowNs() + static_cast<int64_t>(seconds * 1e9);
  uint64_t queries = 0;
  int64_t now = NowNs();
  do {
    const int64_t start = now;
    queries += round();
    now = NowNs();
    round_s->push_back(static_cast<double>(now - start) * 1e-9);
  } while (now < stop);
  return queries;
}

/// Runs a workload's fixed round after its set-up. `round(warmup)` runs
/// every query of the round once, leaves each query's host latency in
/// `*latency_ms` at the query's place in the round, checks every answer and,
/// when `warmup` is true, adds the results' modeled metrics to the
/// workload's tallies (`tally` among them); it returns the number of queries
/// it attempted.
///
/// An untimed, untraced warm-up round comes first. It fixes the modeled
/// tallies and builds what the program builds lazily (intersect engines,
/// worker sessions, the result cache's contents). An untraced run then times
/// whole rounds for `cfg.seconds` and adds the eight end-to-end metrics to
/// out->metrics. A traced run times untraced rounds for half of
/// `cfg.seconds` and traced rounds for the other half, and reports
/// trace.overhead_s, the difference of their fastest round times; the
/// tracer stays on afterwards. Returns the number of traced rounds, 0 in an
/// untraced run.
template <typename Round>
int RunRounds(const RunConfig& cfg, Tracer& tracer, Round&& round,
              std::vector<double>* latency_ms, const ModelTally& tally,
              EndToEnd e2e, RunOutcome* out) {
  tracer.set_enabled(false);
  latency_ms->clear();
  out->attempted += round(true);
  if (!(tally.model_ms > 0)) out->Wrong("model_ms is not above 0");
  auto timed_round = [&] {
    latency_ms->clear();
    const uint64_t queries = round(false);
    if (!cfg.trace) e2e.round_latency_ms.push_back(*latency_ms);
    return queries;
  };
  if (!cfg.trace) {
    const uint64_t attempted =
        RunTimedRounds(cfg.seconds, timed_round, &e2e.round_s);
    out->attempted += attempted;
    e2e.round_queries = attempted / e2e.round_s.size();
    AddEndToEndMetrics(e2e, tally, &out->metrics);
    return 0;
  }
  std::vector<double> untraced_s, traced_s;
  out->attempted += RunTimedRounds(cfg.seconds / 2, timed_round, &untraced_s);
  tracer.set_enabled(true);
  out->attempted += RunTimedRounds(cfg.seconds / 2, timed_round, &traced_s);
  out->metrics["trace.overhead_s"] = {
      Quantile(traced_s, 0.0) - Quantile(untraced_s, 0.0), "s"};
  return static_cast<int>(traced_s.size());
}

/// One round of `n` independent queries on `threads` threads that each take
/// the next index from a shared counter: `run(w, i)` runs query i on worker
/// w's serial session and returns its Result. One serial query per core:
/// with no barrier between the cores, a core the host stalls delays only
/// its own query. Afterwards, in index order, every query's host latency is
/// appended to `latency_ms` and recorded as span `span(i)`, a failed query
/// is counted in out->failed and every answer goes to `done(i, result)`.
/// Returns n.
template <typename RunQuery, typename SpanName, typename Done>
uint64_t RunAcrossCores(size_t n, int threads, RunQuery&& run,
                        SpanName&& span, Done&& done, Tracer& tracer,
                        std::vector<double>* latency_ms, RunOutcome* out) {
  std::vector<std::optional<gcgt::QueryResult>> results(n);
  std::vector<int64_t> start_ns(n), end_ns(n);
  std::atomic<size_t> next{0};
  auto worker = [&](int w) {
    for (size_t i; (i = next.fetch_add(1)) < n;) {
      start_ns[i] = NowNs();
      auto r = run(w, i);
      end_ns[i] = NowNs();
      if (r.ok()) results[i] = std::move(r).value();
    }
  };
  std::vector<std::thread> pool;
  for (int w = 1; w < threads; ++w) pool.emplace_back(worker, w);
  worker(0);
  for (auto& t : pool) t.join();
  for (size_t i = 0; i < n; ++i) {
    latency_ms->push_back(static_cast<double>(end_ns[i] - start_ns[i]) * 1e-6);
    tracer.Record(span(i), start_ns[i], end_ns[i]);
    if (!results[i]) {
      ++out->failed;
      continue;
    }
    done(i, *results[i]);
  }
  return n;
}

/// Relative-tolerance comparison of BC dependencies: |a - b| <= tol *
/// max(1, |b|) for every entry.
inline constexpr double kBcRelTolerance = 1e-9;
bool CloseDependencies(const std::vector<double>& got,
                       const std::vector<double>& want);

}  // namespace perfbench

#endif  // GCGT_PERFBENCH_LAYERS_H_
