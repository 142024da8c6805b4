// plant_replay: closed loop, one producer. Simulated Fig.-2 plants (lines
// x machines x jobs x 5 phases, redundant and environment sensors, with the
// scenario's process anomalies, glitches, bad batch and rogue machine) are
// replayed in event-time order into a synchronous engine, and an
// EscalationBridge::Poll runs every kPollEvery samples, so each newly
// flagged alarm gets its Algorithm-1 triple.
//
// Synchronous, because a threaded replay's time was bimodal (the same input
// took 1.3 s or 6 s): the alert board's per-batch cost grows with every
// finding it holds, and how many findings a collector batch carries depends
// on thread timing. Inline, the work is a fixed function of the input.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/hierarchical_detector.h"
#include "sim/plant.h"
#include "stream/escalation.h"
#include "workloads.h"

namespace hod::perfbench {
namespace {

using hierarchy::ProductionLevel;

constexpr uint64_t kPollEvery = 64;
constexpr size_t kCollectorBatch = 64;
/// Escalated alarms per plant re-checked against a cold detector.
constexpr size_t kChecksPerPlant = 2;

struct ReplaySize {
  sim::PlantOptions plant;
  /// Plants replayed per slice, each built from its own seed
  /// (--seed * 1000 + k, k counting across slices): summing over several
  /// plants evens out how many findings one seed's scenario produces.
  size_t plants_per_slice = 4;
};

ReplaySize SizeFor(Scale scale) {
  ReplaySize size;
  size.plant.num_lines = 1;
  size.plant.machines_per_line = 2;
  size.plant.jobs_per_machine = 2;
  switch (scale) {
    case Scale::kPrimary:
      break;
    case Scale::kLeg:
      size.plants_per_slice = 3;
      break;
    case Scale::kSmoke:
      size.plant.jobs_per_machine = 1;
      size.plants_per_slice = 2;
      break;
  }
  return size;
}

/// The plant flattened into one event-time-ordered stream.
struct PlantTrace {
  std::vector<std::string> ids;
  std::vector<ProductionLevel> levels;
  std::vector<TraceSample> samples;
};

PlantTrace Flatten(const hierarchy::Production& production) {
  PlantTrace trace;
  std::map<std::string, uint32_t> index;
  auto sensor = [&](const std::string& id, ProductionLevel level) {
    auto [it, inserted] =
        index.emplace(id, static_cast<uint32_t>(trace.ids.size()));
    if (inserted) {
      trace.ids.push_back(id);
      trace.levels.push_back(level);
    }
    return it->second;
  };
  auto add_series = [&](uint32_t s, const ts::TimeSeries& series) {
    for (size_t k = 0; k < series.size(); ++k) {
      trace.samples.push_back(
          {s, series.start_time() + static_cast<double>(k) * series.interval(),
           series.values()[k]});
    }
  };
  for (const hierarchy::ProductionLine& line : production.lines) {
    for (const hierarchy::Machine& machine : line.machines) {
      for (const hierarchy::Job& job : machine.jobs) {
        for (const hierarchy::Phase& phase : job.phases) {
          for (const auto& [id, series] : phase.sensor_series) {
            add_series(sensor(id, ProductionLevel::kPhase), series);
          }
        }
      }
    }
    for (const hierarchy::EnvironmentChannel& channel : line.environment) {
      add_series(sensor(channel.sensor_id, ProductionLevel::kEnvironment),
                 channel.series);
    }
  }
  std::stable_sort(trace.samples.begin(), trace.samples.end(),
                   [](const TraceSample& a, const TraceSample& b) {
                     return a.ts < b.ts || (a.ts == b.ts && a.sensor < b.sensor);
                   });
  return trace;
}

stream::StreamEngineOptions EngineOptions() {
  stream::StreamEngineOptions options;
  options.synchronous = true;
  options.num_shards = 1;
  options.max_batch = kCollectorBatch;
  options.snapshot_every = 32;
  return options;
}

/// Detector warm-up: one escalation per machine builds the phase, event
/// and job models every later escalation reuses.
void WarmDetector(core::HierarchicalDetector& detector,
                  const hierarchy::Production& production) {
  for (const hierarchy::ProductionLine& line : production.lines) {
    for (const hierarchy::Machine& machine : line.machines) {
      if (machine.jobs.empty()) continue;
      (void)detector.EscalateAlarm(ProductionLevel::kJob, machine.id,
                                   machine.jobs.front().start_time);
    }
  }
}

/// Everything one replay needs, built by the (timed) set-up. Members are
/// destroyed in reverse order: the bridge before the detector and engine
/// it points to.
struct Replay {
  std::unique_ptr<stream::StreamEngine> engine;
  std::unique_ptr<core::HierarchicalDetector> detector;
  std::unique_ptr<stream::EscalationBridge> bridge;
};

std::unique_ptr<Replay> SetUp(const PlantTrace& trace,
                              const hierarchy::Production& production) {
  auto replay = std::make_unique<Replay>();
  replay->engine = std::make_unique<stream::StreamEngine>(EngineOptions());
  for (size_t s = 0; s < trace.ids.size(); ++s) {
    (void)replay->engine->AddSensor(trace.ids[s], trace.levels[s]);
  }
  (void)replay->engine->Start();
  replay->detector = std::make_unique<core::HierarchicalDetector>(&production);
  WarmDetector(*replay->detector, production);
  replay->bridge = std::make_unique<stream::EscalationBridge>(
      replay->engine.get(), replay->detector.get());
  return replay;
}

/// An alarm the bridge escalated: the arguments of its EscalateAlarm call.
struct Escalated {
  ProductionLevel level = ProductionLevel::kPhase;
  std::string entity;
  double since = 0.0;
};

/// Same comparison as bench_algorithm1: every triple bit-identical.
bool SameFindings(const std::vector<core::OutlierFinding>& a,
                  const std::vector<core::OutlierFinding>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].global_score != b[i].global_score ||
        std::memcmp(&a[i].outlierness, &b[i].outlierness, sizeof(double)) !=
            0 ||
        std::memcmp(&a[i].support, &b[i].support, sizeof(double)) != 0 ||
        a[i].origin.entity != b[i].origin.entity ||
        std::memcmp(&a[i].origin.time, &b[i].origin.time, sizeof(double)) !=
            0) {
      return false;
    }
  }
  return true;
}

struct ReplayRun {
  uint64_t samples = 0;
  double seconds = 0.0;
  double drain_ms = 0.0;
  uint64_t failed = 0;
  uint64_t polls = 0;
};

ReplayRun ReplayOnce(Replay& replay, const PlantTrace& trace, Tracer* tracer,
                     Samples& escalate_ms, std::vector<Escalated>& escalated) {
  ReplayRun run;
  std::map<std::string, double> recorded;  // sensor -> alarm `since` seen
  stream::StreamEngine& engine = *replay.engine;
  auto poll = [&]() {
    const int64_t t0 = NowNs();
    StatusOr<size_t> fresh = size_t{0};
    {
      ScopedSpan span(tracer, "stream.EscalationPoll");
      fresh = replay.bridge->Poll();
    }
    const double ms = static_cast<double>(NowNs() - t0) / 1e6;
    ++run.polls;
    if (!fresh.ok() || fresh.value() == 0) return;
    escalate_ms.Add(ms);
    // Record what was escalated from the engine's current view (the bridge
    // escalates every alarm it has not seen at this `since`).
    for (const stream::ActiveAlarm& alarm : engine.Snapshot().active_alarms) {
      auto it = recorded.find(alarm.sensor_id);
      if (it != recorded.end() && it->second == alarm.since) continue;
      recorded[alarm.sensor_id] = alarm.since;
      escalated.push_back({alarm.level, alarm.sensor_id, alarm.since});
    }
  };

  stream::SensorSample sample;
  const auto start = Clock::now();
  for (size_t i = 0; i < trace.samples.size(); ++i) {
    const TraceSample& s = trace.samples[i];
    sample.sensor_id = trace.ids[s.sensor];
    sample.level = trace.levels[s.sensor];
    sample.ts = s.ts;
    sample.value = s.value;
    bool ok = false;
    if (tracer != nullptr && (i & 31) == 0) {
      ScopedSpan span(tracer, "stream.Ingest");
      ok = engine.Ingest(sample).ok();
    } else {
      ok = engine.Ingest(sample).ok();
    }
    if (!ok) ++run.failed;
    if ((i + 1) % kPollEvery == 0) poll();
  }
  const auto stop_start = Clock::now();
  {
    ScopedSpan span(tracer, "stream.Stop");
    (void)engine.Stop();
  }
  run.drain_ms = SecondsSince(stop_start) * 1e3;
  poll();
  run.seconds = SecondsSince(start);
  run.samples = trace.samples.size();
  return run;
}

class ReplayPhase : public Phase {
 public:
  ReplayPhase(const RunConfig& config, Scale scale, Tracer* tracer)
      : size_(SizeFor(scale)), seed_(config.seed), tracer_(tracer) {}

  void RunSlice() override {
    for (size_t i = 0; i < size_.plants_per_slice; ++i) RunPlant();
  }

  PhaseOutput Finish() override;

 private:
  void RunPlant();

  const ReplaySize size_;
  const uint64_t seed_;
  Tracer* const tracer_;
  size_t plants_ = 0;
  std::vector<double> setup_times_;
  Samples escalate_ms_;
  uint64_t samples_ = 0, polls_ = 0, failed_ = 0, unresolved_ = 0;
  uint64_t cache_hits_ = 0, cache_misses_ = 0, escalation_findings_ = 0;
  uint64_t escalation_entities_ = 0, escalated_findings_seen_ = 0;
  size_t compared_ = 0, equal_ = 0;
  double seconds_ = 0.0, drain_ms_ = 0.0;
  bool conserve_ = true;
  stream::StreamStatsSnapshot last_stats_, total_stats_;
  std::vector<core::OutlierFinding> all_findings_;
  // The last plant stays alive for the traced per-entity probe.
  std::unique_ptr<sim::SimulatedPlant> plant_;
  std::unique_ptr<Replay> replay_;
  std::vector<Escalated> escalated_;
};

void ReplayPhase::RunPlant() {
  replay_.reset();
  sim::PlantOptions options = size_.plant;
  options.seed = seed_ * 1000 + plants_++;
  // Set-up: plant build, flattening, engine and detector warm-up.
  const auto t0 = Clock::now();
  plant_ = std::make_unique<sim::SimulatedPlant>(
      sim::BuildPlant(options, sim::ScenarioOptions{}).value());
  const PlantTrace trace = Flatten(plant_->production);
  replay_ = SetUp(trace, plant_->production);
  setup_times_.push_back(SecondsSince(t0));

  escalated_.clear();
  const ReplayRun run =
      ReplayOnce(*replay_, trace, tracer_, escalate_ms_, escalated_);
  samples_ += run.samples;
  seconds_ += run.seconds;
  drain_ms_ = std::max(drain_ms_, run.drain_ms);
  polls_ += run.polls;
  last_stats_ = replay_->engine->stats();
  total_stats_ += last_stats_;
  failed_ += run.failed + LostSamples(last_stats_);
  conserve_ = conserve_ && ConservationHolds(last_stats_);
  unresolved_ += last_stats_.escalation_unresolved;
  cache_hits_ += last_stats_.escalation_cache_hits;
  cache_misses_ += last_stats_.escalation_cache_misses;
  escalation_findings_ += last_stats_.escalation_findings;
  escalation_entities_ += last_stats_.escalation_entities;
  const std::vector<core::OutlierFinding> findings =
      replay_->engine->Findings();
  for (const core::OutlierFinding& f : findings) {
    if (f.escalated) ++escalated_findings_seen_;
  }
  if (tracer_ != nullptr) {
    all_findings_.insert(all_findings_.end(), findings.begin(),
                         findings.end());
  }
  // Sampled alarms: the bridge's warm detector must give exactly the
  // triples a cold detector computes for the same alarm.
  const size_t stride =
      std::max<size_t>(1, escalated_.size() / kChecksPerPlant);
  for (size_t i = 0, done = 0;
       i < escalated_.size() && done < kChecksPerPlant;
       i += stride, ++done) {
    const Escalated& e = escalated_[i];
    auto warm = replay_->detector->EscalateAlarm(e.level, e.entity, e.since);
    core::HierarchicalDetector cold(&plant_->production);
    auto cold_report = cold.EscalateAlarm(e.level, e.entity, e.since);
    ++compared_;
    if (warm.ok() == cold_report.ok() &&
        (!warm.ok() || SameFindings(warm->findings, cold_report->findings))) {
      ++equal_;
    }
  }
}

PhaseOutput ReplayPhase::Finish() {
  PhaseOutput out;
  out.setup_s = Median(setup_times_);
  std::printf("plant replay: %zu plants of %zu lines x %zu machines x %zu "
              "jobs, %llu samples in %.3f s, %llu polls, %zu escalating\n",
              plants_, size_.plant.num_lines, size_.plant.machines_per_line,
              size_.plant.jobs_per_machine,
              static_cast<unsigned long long>(samples_), seconds_,
              static_cast<unsigned long long>(polls_), escalate_ms_.size());

  out.e2e["replay_sps"] = {static_cast<double>(samples_) / seconds_, "1/s",
                           samples_};
  out.e2e["escalate_p50_ms"] = {escalate_ms_.Quantile(0.5), "ms",
                                escalate_ms_.size()};
  out.e2e["escalate_p90_ms"] = {escalate_ms_.Quantile(0.9), "ms",
                                escalate_ms_.size()};
  out.attempted = samples_ + escalation_entities_;
  out.failed = failed_ + unresolved_;

  // ---- Checks ----------------------------------------------------------
  out.Check("replay.conservation", conserve_,
            ConservationDetail(total_stats_));
  out.Check("replay.escalated_findings_on_board",
            escalated_findings_seen_ == escalation_findings_ &&
                escalation_entities_ > 0,
            std::to_string(escalation_entities_) + " alarms escalated, " +
                std::to_string(escalated_findings_seen_) +
                " escalated findings on the board");
  out.Check("replay.escalations_eq_cold_detector",
            compared_ > 0 && equal_ == compared_,
            std::to_string(equal_) + "/" + std::to_string(compared_) +
                " sampled alarms bit-identical");

  if (tracer_ != nullptr) {
    AddStreamLayerMetrics(*tracer_, last_stats_, drain_ms_,
                          seconds_ / static_cast<double>(plants_), out);
    ProbeAlertIngest(all_findings_, kCollectorBatch, tracer_, out);
    // Per-entity EscalateAlarm: the last plant's escalated alarms, in
    // order, into a detector warmed the same way the bridge's was.
    core::HierarchicalDetector detector(&plant_->production);
    WarmDetector(detector, plant_->production);
    Samples entity_ms;
    for (const Escalated& e : escalated_) {
      const int64_t t0 = NowNs();
      {
        ScopedSpan span(tracer_, "core.EscalateAlarm");
        (void)detector.EscalateAlarm(e.level, e.entity, e.since);
      }
      entity_ms.Add(static_cast<double>(NowNs() - t0) / 1e6);
    }
    out.layer["core.escalate_ms_p50"] = {entity_ms.Quantile(0.5), "ms",
                                         entity_ms.size()};
    out.layer["core.escalate_ms_p90"] = {entity_ms.Quantile(0.9), "ms",
                                         entity_ms.size()};
    out.layer["core.cache_hit_frac"] = {
        cache_hits_ + cache_misses_ == 0
            ? 0.0
            : static_cast<double>(cache_hits_) /
                  static_cast<double>(cache_hits_ + cache_misses_),
        "frac", cache_hits_ + cache_misses_};
    out.layer["core.unresolved"] = {static_cast<double>(unresolved_), "count",
                                    1};
  }
  return out;
}

}  // namespace

std::unique_ptr<Phase> MakeReplay(const RunConfig& config, Scale scale,
                                  Tracer* tracer) {
  return std::make_unique<ReplayPhase>(config, scale, tracer);
}

}  // namespace hod::perfbench
