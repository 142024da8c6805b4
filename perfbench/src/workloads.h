// The three benchmark workloads and the per-layer probes they share.

#ifndef HOD_PERFBENCH_WORKLOADS_H_
#define HOD_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/alert_manager.h"
#include "core/monitor.h"
#include "serve/hub.h"
#include "stream/engine.h"

namespace hod::perfbench {

/// score_saturate: a pre-generated AR(1) trace through a standalone
/// threaded StreamEngine (closed loop, one producer), then the same
/// samples through a synchronous engine on one thread; one pair per slice.
std::unique_ptr<Phase> MakeSaturate(const RunConfig& config, Scale scale,
                                    Tracer* tracer);

/// fleet_dashboards: an open-loop generator at a fixed offered rate into a
/// FleetManager on a borrowed ThreadPool with serving enabled, live and
/// idle dashboards, injected Fig.-1 faults and FleetHub roll-ups; one
/// fresh fleet per slice.
std::unique_ptr<Phase> MakeFleet(const RunConfig& config, Scale scale,
                                 Tracer* tracer);

/// plant_replay: simulated Fig.-2 plants replayed in event-time order into
/// a synchronous engine, with EscalationBridge polls from the generator;
/// a fixed number of plants per slice.
std::unique_ptr<Phase> MakeReplay(const RunConfig& config, Scale scale,
                                  Tracer* tracer);

// ---- Per-layer probes: time one module's public calls on a workload's
// own inputs, from outside the engine. -----------------------------------

/// One sample of a flat trace: sensor index plus event time and value.
struct TraceSample {
  uint32_t sensor = 0;
  double ts = 0.0;
  double value = 0.0;
};

/// ns per IngestRouter::Route call over `samples`.
double ProbeRouteNs(const std::vector<std::string>& ids,
                    const std::vector<TraceSample>& samples, Tracer* tracer);

/// ns per sample of BatchMonitorBank::PushBatch over `samples` in batches
/// of `batch` (warmed first so every lane scores).
double ProbePushBatchNs(const std::vector<std::string>& ids,
                        const std::vector<TraceSample>& samples,
                        const core::OnlineMonitorOptions& options,
                        size_t batch, Tracer* tracer);

/// ns per BocpdDetector::Push over `samples`, one detector per sensor.
double ProbeBocpdNs(size_t num_sensors,
                    const std::vector<TraceSample>& samples,
                    const core::BocpdOptions& options, Tracer* tracer);

/// Feeds `findings` to a fresh AlertManager in batches of `batch`, timing
/// each IngestBatch call; fills core.alert_ingest_us_p50/p99 and
/// core.findings_retained.
void ProbeAlertIngest(const std::vector<core::OutlierFinding>& findings,
                      size_t batch, Tracer* tracer, PhaseOutput& out);

/// Replays a captured snapshot sequence into a fresh SnapshotHub with
/// `live` drained and `idle` parked subscribers, timing each Publish;
/// fills serve.publish_us_p99 and serve.update_bytes.
void ProbePublishReplay(const std::vector<stream::EngineSnapshot>& captured,
                        const serve::SnapshotHubOptions& options, size_t live,
                        size_t idle, Tracer* tracer, PhaseOutput& out);

}  // namespace hod::perfbench

#endif  // HOD_PERFBENCH_WORKLOADS_H_
