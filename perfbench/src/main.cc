// hodbench: the repository benchmark program.
//
//   hodbench --workload <score_saturate|fleet_dashboards|plant_replay>
//            --seed <n> --seconds <s> --trace <0|1> [--smoke]
//            [--git-sha <sha>]
//
// The selected workload runs at full size. The other two run as smaller
// legs, so that every end-to-end metric is measured in every run. Every
// phase runs in slices, and the run interleaves them: each of kCycles
// cycles runs one slice of the selected workload, then one of each leg.
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 each cycle runs the selected workload once untraced and once
// traced, and the result carries the per-layer metrics plus the tracing
// overhead. The last line of stdout is the JSON result.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "util/simd.h"
#include "workloads.h"

#ifndef HODBENCH_BUILD_TYPE
#define HODBENCH_BUILD_TYPE "unknown"
#endif

namespace hod::perfbench {
namespace {

const char* const kWorkloads[] = {"score_saturate", "fleet_dashboards",
                                  "plant_replay"};

/// The gated end-to-end metrics: the result JSON of a --trace 0 run.
const std::vector<std::string> kEndToEnd = {
    "setup_s",       "peak_rss_mb", "ingest_sps",
    "rollup_p50_ms", "replay_sps",  "escalate_p50_ms"};

/// End-to-end metrics that are measured and printed in every run but kept
/// out of the result: their run-to-run spread on a shared 4-vCPU machine
/// is wider than the largest bound a gate may use (see README.md).
const std::vector<std::string> kReportedOnly = {
    "inline_sps",       "view_age_p50_ms", "view_age_p99_ms",
    "alarm_age_p50_ms", "alarm_age_p99_ms", "rollup_p99_ms",
    "escalate_p90_ms"};

const std::vector<std::string> kPerLayer = {
    "stream.ingest_call_us_p50", "stream.ingest_call_us_p99",
    "stream.route_ns",           "stream.queue_high_water",
    "stream.batch_mean",         "stream.drain_ms",
    "stream.snapshots_per_s",    "stream.concept_shifts",
    "stream.baseline_resets",    "core.pushbatch_ns",
    "core.bocpd_ns",             "core.alert_ingest_us_p50",
    "core.alert_ingest_us_p99",  "core.findings_retained",
    "core.escalate_ms_p50",      "core.escalate_ms_p90",
    "core.cache_hit_frac",       "core.unresolved",
    "serve.publish_us_p99",      "serve.drain_us_p50",
    "serve.delta_frac",          "serve.drop_frac",
    "serve.intake_dropped",      "serve.update_bytes",
    "serve.rollup_hit_frac",     "serve.rollup_cells",
    "fleet.plant_skew",          "util.pool_tasks_per_s",
    "gen.late_p99_ms",           "gen.offered_sps",
    "trace.overhead_frac"};

/// Slices per phase in a full-size run. More cycles spread each metric's
/// samples over more of the run; each cycle also pays every phase's set-up.
constexpr int kCycles = 6;

std::unique_ptr<Phase> MakePhase(const std::string& workload,
                                 const RunConfig& config, Scale scale,
                                 Tracer* tracer) {
  if (workload == "score_saturate") return MakeSaturate(config, scale, tracer);
  if (workload == "fleet_dashboards") return MakeFleet(config, scale, tracer);
  return MakeReplay(config, scale, tracer);
}

/// The end-to-end metric whose traced-minus-untraced change is reported as
/// trace.overhead_frac.
const char* HeadlineOf(const std::string& workload) {
  if (workload == "score_saturate") return "ingest_sps";
  if (workload == "fleet_dashboards") return "view_age_p50_ms";
  return "replay_sps";
}

int Usage() {
  std::fprintf(stderr,
               "usage: hodbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--git-sha <sha>]\n");
  return 2;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Merges a phase's output into the run totals; the first phase to report
/// a metric wins (the untraced primary is merged first).
void Merge(const PhaseOutput& phase, PhaseOutput& total) {
  for (const auto& [name, metric] : phase.e2e) total.e2e.emplace(name, metric);
  for (const auto& [name, metric] : phase.layer) {
    total.layer.emplace(name, metric);
  }
  total.checks.insert(total.checks.end(), phase.checks.begin(),
                      phase.checks.end());
  total.attempted += phase.attempted;
  total.failed += phase.failed;
  if (!phase.valid && total.valid) {
    total.valid = false;
    total.invalid_reason = phase.invalid_reason;
  }
}

void PrintMetric(const std::string& name, const Metric& metric) {
  std::printf("metric %-28s %16.6f %-6s n=%llu\n", name.c_str(), metric.value,
              metric.unit.c_str(), static_cast<unsigned long long>(metric.n));
}

}  // namespace

int Main(int argc, char** argv) {
  RunConfig config;
  std::string git_sha = "unknown";
  bool have_workload = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      config.smoke = true;
    } else if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      config.trace = std::strcmp(argv[++i], "0") != 0;
      have_trace = true;
    } else if (arg == "--git-sha" && has_value) {
      git_sha = argv[++i];
    } else {
      return Usage();
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || config.workload == w;
  if (!have_workload || !have_trace || !known || !(config.seconds > 0.0)) {
    return Usage();
  }

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf(
      "stamp {\"git_sha\": \"%s\", \"simd_backend\": \"%s\", \"nproc\": %ld, "
      "\"seed\": %llu, \"build_type\": \"%s\", \"workload\": \"%s\", "
      "\"seconds\": %s, \"trace\": %d, \"smoke\": %d}\n",
      git_sha.c_str(), std::string(util::simd::BackendName()).c_str(), nproc,
      static_cast<unsigned long long>(config.seed), HODBENCH_BUILD_TYPE,
      config.workload.c_str(), JsonNumber(config.seconds).c_str(),
      config.trace ? 1 : 0, config.smoke ? 1 : 0);
  std::fflush(stdout);

  config.cycles = config.smoke ? 1 : kCycles;
  const Scale primary_scale = config.smoke ? Scale::kSmoke : Scale::kPrimary;
  const Scale leg_scale = config.smoke ? Scale::kSmoke : Scale::kLeg;

  // Phases, in the order each cycle runs them. Traced phases record into
  // their own tracers.
  std::unique_ptr<Tracer> primary_tracer;
  std::vector<std::unique_ptr<Tracer>> leg_tracers;
  std::unique_ptr<Phase> primary =
      MakePhase(config.workload, config, primary_scale, nullptr);
  std::unique_ptr<Phase> traced;
  if (config.trace) {
    primary_tracer = std::make_unique<Tracer>(1 << 21);
    traced = MakePhase(config.workload, config, primary_scale,
                       primary_tracer.get());
  }
  std::vector<std::pair<std::string, std::unique_ptr<Phase>>> legs;
  for (const char* leg : kWorkloads) {
    if (config.workload == leg) continue;
    Tracer* tracer = nullptr;
    if (config.trace) {
      leg_tracers.push_back(std::make_unique<Tracer>(1 << 20));
      tracer = leg_tracers.back().get();
    }
    legs.emplace_back(leg, MakePhase(leg, config, leg_scale, tracer));
  }

  // The peak resident set is read after the selected workload's first
  // slice, before any other phase has run.
  double peak_rss_mb = 0.0;
  for (int cycle = 0; cycle < config.cycles; ++cycle) {
    primary->RunSlice();
    if (cycle == 0) peak_rss_mb = PeakRssMb();
    if (traced) traced->RunSlice();
    for (auto& [name, leg] : legs) leg->RunSlice();
  }

  PhaseOutput total;
  std::printf("== %s (primary)%s\n", config.workload.c_str(),
              config.trace ? " untraced" : "");
  const PhaseOutput untraced = primary->Finish();
  Merge(untraced, total);
  total.e2e["setup_s"] = {untraced.setup_s, "s",
                          static_cast<uint64_t>(config.cycles)};
  total.e2e["peak_rss_mb"] = {peak_rss_mb, "MiB", 1};

  if (traced) {
    std::printf("== %s (primary) traced\n", config.workload.c_str());
    PhaseOutput out = traced->Finish();
    // Tracing overhead: traced minus untraced, for every end-to-end metric
    // the primary workload measures itself.
    for (const auto& [name, metric] : out.e2e) {
      const auto it = untraced.e2e.find(name);
      if (it == untraced.e2e.end()) continue;
      std::printf("trace_overhead %-20s untraced %.6f traced %.6f delta %+.6f "
                  "%s (%+.2f%%)\n",
                  name.c_str(), it->second.value, metric.value,
                  metric.value - it->second.value, metric.unit.c_str(),
                  it->second.value != 0.0
                      ? 100.0 * (metric.value - it->second.value) /
                            it->second.value
                      : 0.0);
    }
    const char* headline = HeadlineOf(config.workload);
    const double base = untraced.e2e.at(headline).value;
    out.layer["trace.overhead_frac"] = {
        base != 0.0 ? (out.e2e.at(headline).value - base) / base : 0.0,
        "frac", 1};
    std::printf("tracer: %zu spans recorded, %llu dropped\n",
                primary_tracer->recorded(),
                static_cast<unsigned long long>(primary_tracer->overflowed()));
    Merge(out, total);
  }
  for (auto& [name, leg] : legs) {
    std::printf("== %s (leg)%s\n", name.c_str(),
                config.trace ? " traced" : "");
    Merge(leg->Finish(), total);
  }

  bool correct = total.valid;
  for (const auto& [name, ok] : total.checks) correct = correct && ok;
  if (!total.valid) {
    std::printf("INVALID RUN: %s; latencies not reported\n",
                total.invalid_reason.c_str());
  }
  std::printf("checks: %zu run, %s\n", total.checks.size(),
              correct ? "all passed" : "FAILED");
  std::printf("metric %-28s %16.9f %-6s n=%llu (failed %llu)\n",
              "failed_frac",
              total.attempted == 0
                  ? 0.0
                  : static_cast<double>(total.failed) / total.attempted,
              "frac", static_cast<unsigned long long>(total.attempted),
              static_cast<unsigned long long>(total.failed));
  if (!config.trace) {
    for (const std::string& name : kReportedOnly) {
      const auto it = total.e2e.find(name);
      if (it == total.e2e.end() || !total.valid) continue;
      std::printf("metric %-28s %16.6f %-6s n=%llu (reported, not gated)\n",
                  name.c_str(), it->second.value, it->second.unit.c_str(),
                  static_cast<unsigned long long>(it->second.n));
    }
  }

  const std::vector<std::string>& names =
      config.trace ? kPerLayer : kEndToEnd;
  const auto& metrics = config.trace ? total.layer : total.e2e;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(total.attempted);
  json += ", \"failed\": " + std::to_string(total.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : names) {
    const auto it = metrics.find(name);
    if (it == metrics.end()) {
      std::printf("metric %-28s MISSING\n", name.c_str());
      continue;
    }
    // An invalid open-loop run reports no latencies.
    if (!total.valid && name.find("_ms") != std::string::npos) continue;
    PrintMetric(name, it->second);
    json += first ? "" : ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + JsonNumber(it->second.value) +
            ", \"unit\": \"" + it->second.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return total.valid ? 0 : 1;
}

}  // namespace hod::perfbench

int main(int argc, char** argv) { return hod::perfbench::Main(argc, argv); }
