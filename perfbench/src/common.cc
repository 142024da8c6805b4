#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace hod::perfbench {

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::Mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Median(std::vector<double> values) {
  Samples samples;
  for (double v : values) samples.Add(v);
  return samples.Quantile(0.5);
}

uint32_t Tracer::Begin(const char* name) {
  if (spans_.size() == spans_.capacity()) {
    ++overflowed_;
    return 0;
  }
  Span span;
  span.name = name;
  span.parent = open_.empty() ? 0 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  const uint32_t handle = static_cast<uint32_t>(spans_.size());
  open_.push_back(handle);
  return handle;
}

void Tracer::End(uint32_t handle) {
  if (handle == 0) return;
  spans_[handle - 1].end_ns = NowNs();
  if (!open_.empty() && open_.back() == handle) open_.pop_back();
}

std::vector<double> Tracer::DurationsNs(const char* name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) == 0 && span.end_ns >= span.start_ns) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns));
    }
  }
  return out;
}

void PhaseOutput::Check(const std::string& name, bool ok,
                        const std::string& detail) {
  std::printf("check %-34s %s  %s\n", name.c_str(), ok ? "ok  " : "FAIL",
              detail.c_str());
  checks.emplace_back(name, ok);
}

bool ConservationHolds(const stream::StreamStatsSnapshot& stats) {
  return stats.ingested == stats.scored + stats.dropped +
                               stats.rejected_total() +
                               stats.quarantined_samples;
}

std::string ConservationDetail(const stream::StreamStatsSnapshot& stats) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "ingested=%llu scored=%llu dropped=%llu rejected=%llu "
                "quarantined=%llu",
                static_cast<unsigned long long>(stats.ingested),
                static_cast<unsigned long long>(stats.scored),
                static_cast<unsigned long long>(stats.dropped),
                static_cast<unsigned long long>(stats.rejected_total()),
                static_cast<unsigned long long>(stats.quarantined_samples));
  return buf;
}

double BatchMean(const stream::StreamStatsSnapshot& stats) {
  uint64_t batches = 0;
  for (uint64_t count : stats.batch_size_histogram) batches += count;
  if (batches == 0) return 0.0;
  return static_cast<double>(stats.scored + stats.quarantined_samples) /
         static_cast<double>(batches);
}

uint64_t QueueHighWater(const stream::StreamStatsSnapshot& stats) {
  uint64_t high = 0;
  for (uint64_t depth : stats.shard_queue_high_water) {
    high = std::max(high, depth);
  }
  return high;
}

uint64_t LostSamples(const stream::StreamStatsSnapshot& stats) {
  return stats.dropped + stats.rejected_total();
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void AddStreamLayerMetrics(const Tracer& tracer,
                           const stream::StreamStatsSnapshot& stats,
                           double drain_ms, double run_seconds,
                           PhaseOutput& out) {
  Samples ingest_us;
  for (double ns : tracer.DurationsNs("stream.Ingest")) {
    ingest_us.Add(ns / 1000.0);
  }
  out.layer["stream.ingest_call_us_p50"] = {ingest_us.Quantile(0.5), "us",
                                            ingest_us.size()};
  out.layer["stream.ingest_call_us_p99"] = {ingest_us.Quantile(0.99), "us",
                                            ingest_us.size()};
  out.layer["stream.queue_high_water"] = {
      static_cast<double>(QueueHighWater(stats)), "count", 1};
  out.layer["stream.batch_mean"] = {BatchMean(stats), "count", 1};
  out.layer["stream.drain_ms"] = {drain_ms, "ms", 1};
  out.layer["stream.snapshots_per_s"] = {
      run_seconds > 0.0
          ? static_cast<double>(stats.snapshots_published) / run_seconds
          : 0.0,
      "1/s", stats.snapshots_published};
}

}  // namespace hod::perfbench
