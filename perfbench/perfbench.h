// Shared pieces of the end-to-end benchmark: clocks, the seeded input RNG,
// the metric sink, the span recorder, the inputs, the oracles and the
// workload entry points. Everything here is benchmark code: it calls the
// library only through its public API (GcgtSession, GcgtService,
// ooc::CgrContainer, CgrGraph, VirtualNodeCompress, the reordering
// functions and the graph generators).
#ifndef GCGT_PERFBENCH_PERFBENCH_H_
#define GCGT_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"

namespace perfbench {

using gcgt::EdgeId;
using gcgt::Graph;
using gcgt::NodeId;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// NowNs() when the process started (read during static initialisation).
int64_t ProcessStartNs();

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// SplitMix64 stream: the benchmark's own seeded choice of sources and
/// pairs, independent of the library's generators.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Uniform(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// How often each of `n` ranks occurs among `total` requests when rank r has
/// Zipf(s) weight 1 / (r + 1)^s, rounded by largest remainder so the counts
/// sum to `total`.
std::vector<int> ZipfCounts(int total, size_t n, double s);

/// Derives an independent 64-bit seed for one input from the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t salt);

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Metrics by name. Workloads fill it; main() prints it.
using Metrics = std::map<std::string, Metric>;

/// q-quantile (0..1) of `v` by the nearest-rank rule on a sorted copy; 0 for
/// an empty sample.
double Quantile(std::vector<double> v, double q);

/// Peak resident set of this process in MB (VmHWM), 0 when unreadable.
double PeakRssMb();

inline constexpr double kBytesPerMb = 1e6;

// ---------------------------------------------------------------------------
// Span recorder
// ---------------------------------------------------------------------------
/// One timed call into the library, recorded from the benchmark's side.
struct Span {
  std::string name;  ///< "<layer>.<call>", e.g. "core.bfs"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// Records spans in memory while enabled; does nothing (one branch) while
/// disabled. Single-threaded: every span is opened, closed or recorded on
/// the thread that drives the workload.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;  // null while tracing is off
    size_t index_ = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span closed by the returned scope's destructor.
  Scope Open(const char* name) { return Scope(this, name); }
  /// Records a span whose ends were stamped elsewhere (a query run on
  /// another core, or submitted and completed at different points of the
  /// generator loop).
  void Record(const char* name, int64_t start_ns, int64_t end_ns);

  /// Durations in milliseconds of every span called `name`.
  std::vector<double> DurationsMs(std::string_view name) const;
  /// Summed duration in seconds of every span called `name`.
  double TotalSeconds(std::string_view name) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------
/// A generated raw input graph and how it was made.
struct Dataset {
  std::string name;    ///< "web", "twitter" or "social"
  std::string recipe;  ///< generator and parameters, for the log
  Graph graph;
};

/// Web-like graph (interval-heavy): GenerateWebGraph.
Dataset MakeWeb(uint64_t seed, NodeId nodes);
/// Twitter-like graph (hub-skewed, residual-heavy): GenerateTwitterGraph.
Dataset MakeTwitter(uint64_t seed, NodeId nodes, double avg_degree);
/// Social graph (power-law, shuffled labels): GenerateSocialGraph.
Dataset MakeSocial(uint64_t seed, NodeId nodes);
/// The same graph made undirected, without self loops: the form triangle,
/// k-core and similarity queries are defined on.
Dataset Undirected(Dataset d);

// ---------------------------------------------------------------------------
// Query choice: seeded, from the raw input only.
// ---------------------------------------------------------------------------
/// `count` random sources whose BFS reaches at least a quarter of g, so every
/// BFS traverses most of the graph and none ends after a few nodes. Fewer
/// when g has too few. Their oracle depths are appended to `depths` if given.
std::vector<NodeId> ReachingSources(
    const Graph& g, size_t count, Rng& rng,
    std::vector<std::vector<uint32_t>>* depths = nullptr);
/// The `count` highest out-degree nodes whose BFS reaches a quarter of g. A
/// BC source costs several BFS in the model; hub sources keep that cost from
/// swinging with which random node was drawn.
std::vector<NodeId> HubSources(const Graph& g, size_t count);
/// Top-k sources of middling cost: the middle twentieth, by wedge count (sum
/// of neighbour degrees), of a random sample, so a few hub sources do not
/// spread top-k latencies over orders of magnitude. A twentieth rather than
/// a tenth narrows how far the top-k costs, which the analytics p90
/// follows, spread across seeds.
std::vector<NodeId> MiddleWedgeSources(const Graph& g, size_t count, Rng& rng);
/// Node pairs two hops apart, so every Jaccard query intersects two
/// non-empty lists that can share a neighbour.
std::vector<std::pair<NodeId, NodeId>> TwoHopPairs(const Graph& g,
                                                   size_t count, Rng& rng);

// ---------------------------------------------------------------------------
// Oracles: computations written in the benchmark, apart from the library.
// ---------------------------------------------------------------------------
inline constexpr uint32_t kUnreached = UINT32_MAX;

/// Depth of every node from `source` along out-edges; kUnreached if none.
std::vector<uint32_t> OracleBfs(const Graph& g, NodeId source);
/// Weakly connected components by union-find, each labelled by its smallest
/// node id.
std::vector<NodeId> OracleComponents(const Graph& g);
/// Brandes dependencies summed over `sources` (the source itself gets 0).
std::vector<double> OracleBrandes(const Graph& g,
                                  const std::vector<NodeId>& sources);
/// Triangles of an undirected graph by sorted merge: total and per vertex.
uint64_t OracleTriangles(const Graph& g, std::vector<uint64_t>* per_vertex);
/// |N(u) ∩ N(v)| by sorted merge.
uint64_t OracleCommon(const Graph& g, NodeId u, NodeId v);
/// Jaccard |N(u) ∩ N(v)| / |N(u) ∪ N(v)| (0 for an empty union), computed as
/// one division of the integer counts.
double OracleJaccard(const Graph& g, NodeId u, NodeId v);
/// Empty when `in_core` is exactly the k-core of g: every member has at
/// least k neighbours inside it, and peeling members of degree < k removes
/// nothing more while no non-member survives the benchmark's own peel.
std::string CheckKCore(const Graph& g, uint32_t k,
                       const std::vector<uint8_t>& in_core);
/// A top-k similarity answer as the benchmark compares it.
struct TopKItem {
  NodeId node;
  uint64_t common;
  double jaccard;
};
/// The distance-2 candidates of `source` (not the source, not a neighbour,
/// sharing at least one neighbour with it), ascending, with their common
/// neighbour counts and Jaccard scores, and the k best scores.
struct TopKExpect {
  std::vector<NodeId> candidates;
  std::vector<uint64_t> common;
  std::vector<double> score;
  std::vector<double> top;  ///< min(k, #candidates) best scores, descending
};
TopKExpect OracleTopK(const Graph& g, NodeId source, uint32_t k);
/// Empty when `items` is a valid top-k: every item is a candidate with the
/// oracle's score, and the listed scores are the k best in order, so no
/// unlisted candidate scores above the k-th. Ties may list any of the tied
/// candidates.
std::string CheckTopK(const TopKExpect& expect,
                      const std::vector<TopKItem>& items);

/// Runs every oracle on graphs with known answers; returns the failures.
std::vector<std::string> OracleSelfTest();

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";
};

struct RunOutcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;  ///< end-to-end (untraced) or per-layer (traced)
  std::vector<std::string> errors;

  /// Records a wrong answer: the run is not correct.
  void Wrong(const std::string& what);
};

RunOutcome RunTraverse(const RunConfig& cfg);
RunOutcome RunAnalytics(const RunConfig& cfg);
RunOutcome RunServe(const RunConfig& cfg);
RunOutcome RunOutOfCore(const RunConfig& cfg);

/// The per-layer metric names and units every traced run reports. A layer a
/// workload does not call reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();
/// The end-to-end metric names and units every untraced run reports.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();

}  // namespace perfbench

#endif  // GCGT_PERFBENCH_PERFBENCH_H_
