// Per-layer probes: each one drives a single module through its public
// API on inputs taken from a workload, with spans around the calls.

#include <algorithm>
#include <memory>

#include "core/batch_monitor.h"
#include "core/bocpd.h"
#include "serve/codec.h"
#include "stream/router.h"
#include "workloads.h"

namespace hod::perfbench {
namespace {

constexpr size_t kProbeChunk = 4096;

}  // namespace

double ProbeRouteNs(const std::vector<std::string>& ids,
                    const std::vector<TraceSample>& samples, Tracer* tracer) {
  stream::IngestRouter router(2, 0.0, nullptr);
  for (const std::string& id : ids) {
    (void)router.AddSensor(id, hierarchy::ProductionLevel::kPhase);
  }
  stream::SensorSample sample;
  sample.level = hierarchy::ProductionLevel::kPhase;
  uint64_t routed = 0;
  const auto start = Clock::now();
  for (size_t begin = 0; begin < samples.size(); begin += kProbeChunk) {
    ScopedSpan span(tracer, "stream.Route");
    const size_t end = std::min(samples.size(), begin + kProbeChunk);
    for (size_t i = begin; i < end; ++i) {
      sample.sensor_id = ids[samples[i].sensor];
      sample.ts = samples[i].ts;
      sample.value = samples[i].value;
      if (router.Route(sample).ok()) ++routed;
    }
  }
  const double ns = SecondsSince(start) * 1e9;
  return routed == 0 ? 0.0 : ns / static_cast<double>(routed);
}

double ProbePushBatchNs(const std::vector<std::string>& ids,
                        const std::vector<TraceSample>& samples,
                        const core::OnlineMonitorOptions& options,
                        size_t batch, Tracer* tracer) {
  core::BatchMonitorBank bank(options);
  for (const std::string& id : ids) (void)bank.AddSensor(id);
  // Warm every lane past its model fit so the timed pushes all score.
  const size_t warm = options.warmup + options.ar_order + 1;
  for (size_t lane = 0; lane < ids.size(); ++lane) {
    for (size_t k = 0; k < warm; ++k) {
      (void)bank.Push(lane, samples[(lane + k * ids.size()) % samples.size()]
                                .value);
    }
  }
  std::vector<size_t> lanes(batch);
  std::vector<double> values(batch);
  std::vector<core::MonitorUpdate> updates(batch);
  std::vector<unsigned char> scored(batch);
  const auto start = Clock::now();
  size_t pushed = 0;
  for (size_t begin = 0; begin < samples.size(); begin += kProbeChunk) {
    ScopedSpan span(tracer, "core.PushBatch");
    const size_t end = std::min(samples.size(), begin + kProbeChunk);
    for (size_t i = begin; i < end; i += batch) {
      const size_t n = std::min(batch, end - i);
      for (size_t j = 0; j < n; ++j) {
        lanes[j] = samples[i + j].sensor;
        values[j] = samples[i + j].value;
      }
      bank.PushBatch(lanes.data(), values.data(), n, updates.data(),
                     scored.data());
      pushed += n;
    }
  }
  const double ns = SecondsSince(start) * 1e9;
  return pushed == 0 ? 0.0 : ns / static_cast<double>(pushed);
}

double ProbeBocpdNs(size_t num_sensors,
                    const std::vector<TraceSample>& samples,
                    const core::BocpdOptions& options, Tracer* tracer) {
  std::vector<core::BocpdDetector> detectors(num_sensors,
                                             core::BocpdDetector(options));
  const auto start = Clock::now();
  size_t pushed = 0;
  for (size_t begin = 0; begin < samples.size(); begin += kProbeChunk) {
    ScopedSpan span(tracer, "core.BocpdPush");
    const size_t end = std::min(samples.size(), begin + kProbeChunk);
    for (size_t i = begin; i < end; ++i) {
      (void)detectors[samples[i].sensor % num_sensors].Push(samples[i].value);
      ++pushed;
    }
  }
  const double ns = SecondsSince(start) * 1e9;
  return pushed == 0 ? 0.0 : ns / static_cast<double>(pushed);
}

void ProbeAlertIngest(const std::vector<core::OutlierFinding>& findings,
                      size_t batch, Tracer* tracer, PhaseOutput& out) {
  core::AlertManager manager;
  Samples us;
  std::vector<core::OutlierFinding> chunk;
  chunk.reserve(batch);
  for (size_t begin = 0; begin < findings.size(); begin += batch) {
    const size_t end = std::min(findings.size(), begin + batch);
    chunk.assign(findings.begin() + static_cast<std::ptrdiff_t>(begin),
                 findings.begin() + static_cast<std::ptrdiff_t>(end));
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(tracer, "core.AlertIngestBatch");
      manager.IngestBatch(chunk);
    }
    us.Add(static_cast<double>(NowNs() - t0) / 1000.0);
  }
  out.layer["core.alert_ingest_us_p50"] = {us.Quantile(0.5), "us", us.size()};
  out.layer["core.alert_ingest_us_p99"] = {us.Quantile(0.99), "us",
                                           us.size()};
  out.layer["core.findings_retained"] = {
      static_cast<double>(manager.findings_ingested()), "count", 1};
}

void ProbePublishReplay(const std::vector<stream::EngineSnapshot>& captured,
                        const serve::SnapshotHubOptions& options, size_t live,
                        size_t idle, Tracer* tracer, PhaseOutput& out) {
  serve::SnapshotHubOptions sync_options = options;
  sync_options.async = false;
  serve::SnapshotHub hub(sync_options);
  std::vector<std::unique_ptr<serve::Subscription>> live_subs;
  std::vector<std::unique_ptr<serve::Subscription>> idle_subs;
  for (size_t i = 0; i < live; ++i) live_subs.push_back(hub.Subscribe());
  for (size_t i = 0; i < idle; ++i) idle_subs.push_back(hub.Subscribe());
  Samples publish_us;
  double bytes = 0.0;
  uint64_t updates = 0;
  for (size_t i = 0; i < captured.size(); ++i) {
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(tracer, "serve.Publish");
      hub.Publish(captured[i]);
    }
    publish_us.Add(static_cast<double>(NowNs() - t0) / 1000.0);
    // Wire size of the update the hub just served: keyframe cadence as
    // configured, deltas against the previous captured snapshot otherwise.
    const bool keyframe = i == 0 || (options.keyframe_every != 0 &&
                                     i % options.keyframe_every == 0);
    bytes += keyframe ? static_cast<double>(
                            serve::EncodeSnapshotBytes(captured[i]).size())
                      : static_cast<double>(
                            serve::EncodeDeltaBytes(
                                serve::EncodeDelta(captured[i - 1],
                                                   captured[i]))
                                .size());
    ++updates;
    for (auto& sub : live_subs) (void)sub->Drain();
  }
  out.layer["serve.publish_us_p99"] = {publish_us.Quantile(0.99), "us",
                                       publish_us.size()};
  out.layer["serve.update_bytes"] = {
      updates == 0 ? 0.0 : bytes / static_cast<double>(updates), "bytes",
      updates};
}

}  // namespace hod::perfbench
