// Driver of the end-to-end benchmark: runs one workload and prints every
// metric by name with its unit (stderr), then one JSON result line (stdout):
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Usage: gcgt_perfbench --workload <name> --seed <n> --seconds <s>
//                       --trace <0|1> [--workdir <dir>]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include "perfbench/perfbench.h"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      {"setup_s", "s"},          {"model_ms", "ms"},
      {"queries_per_s", "1/s"},  {"latency_ms_p50", "ms"},
      {"latency_ms_p90", "ms"},  {"bits_per_edge", "bit"},
      {"device_mb", "MB"},       {"host_rss_mb", "MB"},
  };
  return kList;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = {
      // Preparation: vnc, reorder, cgr.
      {"vnc.s", "s"},
      {"vnc.edge_reduction", "ratio"},
      {"reorder.s", "s"},
      {"cgr.encode_s", "s"},
      {"cgr.bits_per_edge.web", "bit"},
      {"cgr.bits_per_edge.twitter", "bit"},
      {"cgr.bits_per_edge.social", "bit"},
      {"cgr.interval_edge_share.web", "ratio"},
      {"cgr.interval_edge_share.twitter", "ratio"},
      {"cgr.interval_edge_share.social", "ratio"},
      {"cgr.decode_ns_per_edge", "ns"},
      // SIMT charge classes.
      {"simt.steps", "count"},
      {"simt.decode_steps", "count"},
      {"simt.append_steps", "count"},
      {"simt.mem_txns", "count"},
      {"simt.atomics", "count"},
      {"simt.shared_ops", "count"},
      {"simt.lane_util", "ratio"},
      {"simt.cycles.step", "cycles"},
      {"simt.cycles.decode", "cycles"},
      {"simt.cycles.append", "cycles"},
      {"simt.cycles.shared", "cycles"},
      {"simt.cycles.mem", "cycles"},
      {"simt.cycles.atomic", "cycles"},
      {"simt.cycles.intersect", "cycles"},
      {"simt.cycles.external", "cycles"},
      {"simt.host_ns_per_step", "ns"},
      // Traversal core and session.
      {"core.bfs_ms_p50", "ms"},
      {"core.cc_ms_p50", "ms"},
      {"core.bc_ms_p50", "ms"},
      {"core.bfs.model_ms", "ms"},
      {"core.cc.model_ms", "ms"},
      {"core.bc.model_ms", "ms"},
      {"core.kernels", "count"},
      {"api.batch_ms", "ms"},
      {"api.prepare_s", "s"},
      // Reference backends.
      {"baseline.gpucsr_model_ms", "ms"},
      {"baseline.gpucsr_device_mb", "MB"},
      {"baseline.cpu_ms", "ms"},
      // Intersection engine.
      {"intersect.triangle_ms", "ms"},
      {"intersect.kcore_ms", "ms"},
      {"intersect.topk_ms_p50", "ms"},
      {"intersect.jaccard_us_p50", "us"},
      {"intersect.ops", "count"},
      {"intersect.triangle.model_ms", "ms"},
      {"intersect.topk.model_ms", "ms"},
      // Serving tier.
      {"service.submit_us_p50", "us"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.latency_ms_p50.bfs", "ms"},
      {"service.latency_ms_p50.jaccard", "ms"},
      {"service.latency_ms_p50.topk", "ms"},
      {"service.completed", "count"},
      {"service.worker_sessions", "count"},
      {"service.rejected", "count"},
      {"service.shed", "count"},
      {"service.retries", "count"},
      {"service.register_s", "s"},
      // Out-of-core tier.
      {"ooc.write_s", "s"},
      {"ooc.open_ms", "ms"},
      {"ooc.view_ms", "ms"},
      {"ooc.partition_faults", "count"},
      {"ooc.partition_spills", "count"},
      {"ooc.fault_txns", "count"},
      {"ooc.spill_txns", "count"},
      {"ooc.resident_mb_peak", "MB"},
      {"ooc.incore_model_ms", "ms"},
      // The span recorder itself.
      {"trace.overhead_s", "s"},
  };
  return kList;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "gcgt_perfbench: %s\nusage: gcgt_perfbench --workload "
               "<traverse|analytics|serve|outofcore> --seed <n> --seconds <s> "
               "--trace <0|1> [--workdir <dir>]\n",
               why);
  std::exit(2);
}

/// Checks the workload reported exactly the metric set of its mode (layers
/// it does not call read 0) and that every value is finite.
bool CompleteMetrics(const RunConfig& cfg, RunOutcome* out) {
  const auto& want = cfg.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::set<std::string> known;
  bool ok = true;
  for (const auto& [name, unit] : want) {
    known.insert(name);
    auto it = out->metrics.find(name);
    if (it == out->metrics.end()) {
      if (!cfg.trace) {
        std::fprintf(stderr, "missing end-to-end metric %s\n", name.c_str());
        ok = false;
      }
      out->metrics[name] = {0.0, unit};
    } else if (it->second.unit != unit || !std::isfinite(it->second.value)) {
      std::fprintf(stderr, "metric %s: bad unit or value\n", name.c_str());
      ok = false;
    }
  }
  for (const auto& [name, metric] : out->metrics) {
    if (!known.count(name)) {
      std::fprintf(stderr, "metric %s is not in the %s list\n", name.c_str(),
                   cfg.trace ? "per-layer" : "end-to-end");
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      cfg.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(val, &end);
      have_seconds = end != val && *end == '\0' && cfg.seconds > 0;
    } else if (arg == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      cfg.trace = val[0] == '1';
    } else if (arg == "--workdir") {
      cfg.workdir = val;
    } else {
      Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    Usage("--workload, --seed and --seconds are required");
  }

  RunOutcome (*workload)(const RunConfig&) = nullptr;
  if (cfg.workload == "traverse") workload = RunTraverse;
  if (cfg.workload == "analytics") workload = RunAnalytics;
  if (cfg.workload == "serve") workload = RunServe;
  if (cfg.workload == "outofcore") workload = RunOutOfCore;
  if (workload == nullptr) Usage(("unknown workload " + cfg.workload).c_str());

  RunOutcome out = workload(cfg);
  // A broken oracle must not pass a broken program: check the oracles on
  // graphs with known answers too. This runs after the workload, so that
  // set-up time from the process's start does not include it.
  for (const std::string& f : OracleSelfTest()) out.Wrong(f);
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "WRONG: %s\n", e.c_str());
  }
  if (out.attempted == 0) out.Wrong("no operation was attempted");
  const bool complete = CompleteMetrics(cfg, &out);

  for (const auto& [name, metric] : out.metrics) {
    std::fprintf(stderr, "%-34s %18.6f %s\n", name.c_str(), metric.value,
                 metric.unit.c_str());
  }
  std::fprintf(stderr, "attempted %llu, failed %llu, correct %s\n",
               static_cast<unsigned long long>(out.attempted),
               static_cast<unsigned long long>(out.failed),
               out.correct ? "true" : "false");
  if (!complete) return 1;

  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : out.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
