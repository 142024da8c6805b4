// fleet_dashboards: open loop at a fixed offered rate. A FleetManager of
// several plants runs on a borrowed util::ThreadPool with serving enabled.
// Each plant has a few live dashboards, which the generator drains in its
// slack, and many idle ones. Fig.-1 faults (AO/TC/LS) are injected at
// known onsets with the concept-shift (BOCPD) layer on, and FleetHub
// roll-ups run at a fixed cadence beside the write stream.
//
// Every sample is timed from its due time: its event timestamp IS its due
// time (seconds since the schedule's origin), so a drained view's
// event-time frontier names the due time of the newest sample it reflects.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fleet/manager.h"
#include "serve/codec.h"
#include "serve/fleet_hub.h"
#include "serve/query.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace hod::perfbench {
namespace {

using hierarchy::ProductionLevel;

/// One slice = one round: set-up, an open-loop window, drain and checks on
/// a fresh fleet. Fresh fleets keep the alert boards (which grow with
/// every finding) the same size in every round however long the run, and
/// a latency is the median over rounds, so one stalled round cannot move
/// it.
struct FleetSize {
  size_t plants = 4;
  size_t sensors_per_plant = 256;
  /// About half the fleet's capacity: BocpdDetector::Push costs ~5 us per
  /// sample, which caps two pool workers near 250k samples/s.
  double offered_sps = 120000.0;
  double window_s = 1.8;
  double faults_per_s = 500.0;
  double rollup_every_s = 0.001;
  size_t live_per_plant = 2;
  size_t idle_per_plant = 128;
};

FleetSize SizeFor(const RunConfig& config, Scale scale) {
  FleetSize size;
  switch (scale) {
    case Scale::kPrimary:
      size.window_s = 0.42 * config.CycleSeconds();
      break;
    case Scale::kLeg:
      // Long enough for 0.5 s of measured roll-ups after the settling
      // period and the first roll-up window.
      size.window_s = std::max(1.2, 0.24 * config.CycleSeconds());
      break;
    case Scale::kSmoke:
      size.plants = 2;
      size.sensors_per_plant = 64;
      size.offered_sps = 50000.0;
      size.window_s = 1.0;
      size.faults_per_s = 100.0;
      size.idle_per_plant = 8;
      break;
  }
  return size;
}

enum class FaultType { kAdditive, kTemporaryChange, kLevelShift };

/// One scheduled fault: due time, global sensor index, Fig.-1 type.
struct Fault {
  double due_s = 0.0;
  size_t sensor = 0;
  FaultType type = FaultType::kAdditive;
  double sign = 1.0;
};

/// Per-sensor generator state: AR(1) noise plus the active disturbance.
struct SensorState {
  double ar = 0.0;
  double level = 0.0;      ///< accumulated level shifts
  double transient = 0.0;  ///< decaying temporary-change offset
  double spike = 0.0;      ///< additive outlier, added to one sample
};

constexpr double kPhi = 0.7;
// Fault magnitude: a TC or LS of this size raises an alarm on its second
// sample, and the BOCPD layer then confirms it as a concept shift and
// re-baselines the sensor (a much larger step is re-baselined on its first
// sample, before any alarm). An isolated AO scores high once and raises no
// alarm, by the monitor's two-sample rule.
constexpr double kFaultSigmas = 8.0;
constexpr double kTcDecay = 0.9;
constexpr size_t kNoiseTable = 1 << 20;
constexpr double kMatchSamples = 8.0;
// The first part of every window settles the pipeline (lazily grown
// buffers, first-touch pages, pool threads waking up); no latency is
// recorded for samples due in it.
constexpr double kSettle_s = 0.3;
// A roll-up covers the last kRollupSpan_s of history in kRollupBucket_s
// buckets (the window snaps to bucket edges, so repeats within a bucket can
// hit the query cache). Its cost is the same for every call once a full
// span of history exists, so only calls made after that are timed.
constexpr double kRollupSpan_s = 0.4;
constexpr double kRollupBucket_s = 0.05;

/// Deterministic inputs: the noise table and the fault schedule.
struct FleetInputs {
  std::vector<double> noise;
  std::vector<Fault> faults;
};

FleetInputs MakeInputs(const FleetSize& size, uint64_t seed, int round) {
  FleetInputs inputs;
  Rng rng(seed * 104729 + static_cast<uint64_t>(round) * 7 + 3);
  inputs.noise.resize(kNoiseTable);
  for (double& v : inputs.noise) v = rng.NextGaussian();
  // Faults visit the sensors in a seeded round-robin order, so one sensor's
  // faults are sensors / faults_per_s seconds apart and never overlap.
  const size_t sensors = size.plants * size.sensors_per_plant;
  std::vector<size_t> order(sensors);
  for (size_t i = 0; i < sensors; ++i) order[i] = i;
  rng.Shuffle(order);
  std::vector<double> ls_sign(sensors, 1.0);
  const size_t count =
      static_cast<size_t>(size.faults_per_s * size.window_s);
  for (size_t k = 0; k < count; ++k) {
    Fault fault;
    // Evenly spaced onsets with jitter, after the settling period.
    fault.due_s = kSettle_s + (static_cast<double>(k) + rng.NextDouble()) /
                                  size.faults_per_s;
    if (fault.due_s >= size.window_s - 0.1) break;
    fault.sensor = order[k % sensors];
    // One AO in five; TC and LS share the rest. Level shifts alternate in
    // sign per sensor so levels stay bounded.
    const uint64_t kind = rng.NextBelow(5);
    fault.type = kind == 0   ? FaultType::kAdditive
                 : kind <= 2 ? FaultType::kTemporaryChange
                             : FaultType::kLevelShift;
    if (fault.type == FaultType::kLevelShift) {
      fault.sign = ls_sign[fault.sensor];
      ls_sign[fault.sensor] = -ls_sign[fault.sensor];
    } else {
      fault.sign = rng.NextBernoulli(0.5) ? 1.0 : -1.0;
    }
    inputs.faults.push_back(fault);
  }
  return inputs;
}

std::string SensorId(size_t plant, size_t local) {
  char id[48];
  std::snprintf(id, sizeof(id), "p%zu.s%04zu", plant, local);
  return id;
}

std::string PlantId(size_t plant) { return "plant" + std::to_string(plant); }

fleet::FleetManagerOptions ManagerOptions(util::ThreadPool* pool) {
  fleet::FleetManagerOptions options;
  options.executor = pool;
  options.enable_serving = true;
  options.serving.async = false;
  options.engine.num_shards = 2;
  options.engine.queue_capacity = 4096;
  options.engine.max_batch = 64;
  options.engine.producer_hint = stream::ProducerHint::kSinglePerShard;
  options.engine.shift.enabled = true;
  return options;
}

/// The live fleet: manager, hubs' dashboards and per-plant query services.
/// Members are destroyed in reverse order, so the dashboards and query
/// services let go of their hubs before the manager that owns them goes.
struct Fleet {
  std::unique_ptr<fleet::FleetManager> manager;
  std::vector<std::string> plant_ids;
  std::vector<std::vector<std::string>> sensor_ids;  ///< [plant][local]
  std::vector<std::vector<std::unique_ptr<serve::Subscription>>> live;
  std::vector<std::vector<std::unique_ptr<serve::Subscription>>> idle;
  std::vector<std::unique_ptr<serve::QueryService>> queries;
  std::vector<SensorState> state;  ///< [global sensor]
  uint64_t noise_cursor = 0;
};

size_t PlantOf(const FleetSize& size, size_t global) {
  return global % size.plants;
}
size_t LocalOf(const FleetSize& size, size_t global) {
  return global / size.plants;
}

uint64_t WarmSteps() {
  const core::OnlineMonitorOptions monitor;
  const core::BocpdOptions bocpd;
  return std::max<uint64_t>(monitor.warmup + monitor.ar_order + 1,
                            bocpd.warmup + 1);
}

double NextValue(Fleet& fleet, const FleetInputs& inputs, size_t global) {
  SensorState& s = fleet.state[global];
  s.ar = kPhi * s.ar +
         inputs.noise[fleet.noise_cursor++ & (kNoiseTable - 1)];
  const double value = 50.0 + static_cast<double>(global % 5) + s.level +
                       s.transient + s.spike + s.ar;
  s.spike = 0.0;
  s.transient *= kTcDecay;
  if (std::fabs(s.transient) < 0.05) s.transient = 0.0;
  return value;
}

std::unique_ptr<Fleet> SetUp(const FleetSize& size, const FleetInputs& inputs,
                             util::ThreadPool* pool) {
  auto fleet = std::make_unique<Fleet>();
  fleet->manager = std::make_unique<fleet::FleetManager>(ManagerOptions(pool));
  fleet->sensor_ids.resize(size.plants);
  for (size_t p = 0; p < size.plants; ++p) {
    fleet->plant_ids.push_back(PlantId(p));
    std::vector<fleet::PlantSensorSpec> specs;
    for (size_t s = 0; s < size.sensors_per_plant; ++s) {
      fleet->sensor_ids[p].push_back(SensorId(p, s));
      specs.push_back({fleet->sensor_ids[p].back(), ProductionLevel::kPhase,
                       std::nullopt});
    }
    (void)fleet->manager->AddPlant(fleet->plant_ids[p], specs);
  }
  fleet->live.resize(size.plants);
  fleet->idle.resize(size.plants);
  for (size_t p = 0; p < size.plants; ++p) {
    serve::SnapshotHub* hub = fleet->manager->Serving()->Hub(PlantId(p));
    for (size_t i = 0; i < size.live_per_plant; ++i) {
      fleet->live[p].push_back(hub->Subscribe());
    }
    for (size_t i = 0; i < size.idle_per_plant; ++i) {
      fleet->idle[p].push_back(hub->Subscribe());
    }
    fleet->queries.push_back(std::make_unique<serve::QueryService>(hub));
  }
  // Warm-up: every monitor and BOCPD detector past its warm-up, at event
  // times before the schedule's origin.
  const size_t sensors = size.plants * size.sensors_per_plant;
  fleet->state.assign(sensors, SensorState{});
  const uint64_t steps = WarmSteps();
  stream::SensorSample sample;
  sample.level = ProductionLevel::kPhase;
  for (uint64_t step = 0; step < steps; ++step) {
    sample.ts = -1.0 + static_cast<double>(step) / static_cast<double>(steps);
    for (size_t g = 0; g < sensors; ++g) {
      const size_t p = PlantOf(size, g);
      sample.sensor_id = fleet->sensor_ids[p][LocalOf(size, g)];
      sample.value = NextValue(*fleet, inputs, g);
      (void)fleet->manager->Ingest(fleet->plant_ids[p], sample);
    }
  }
  (void)fleet->manager->Flush();
  for (auto& plant : fleet->live) {
    for (auto& sub : plant) (void)sub->Drain();
  }
  return fleet;
}


/// Measurements pooled over every round.
struct FleetTotals {
  /// Latencies, one bag per round: percentiles are taken per round and
  /// reported as the median over rounds, so a scheduling stall in one
  /// round cannot move the result.
  std::vector<Samples> view_age_ms, alarm_age_ms, rollup_ms;
  Samples late_ms, drain_us;
  Samples rollup_cells;
  std::vector<double> setup_s;
  uint64_t offered = 0, failed = 0, rollups = 0, queries = 0;
  uint64_t injected[3] = {0, 0, 0}, seen[3] = {0, 0, 0};
  uint64_t offers = 0, deltas = 0, drops = 0, intake_dropped = 0;
  uint64_t query_hits = 0, query_misses = 0, pool_tasks = 0;
  uint64_t backlog_at_end = 0;
  double finish_lag_ms = 0.0;  ///< worst last-send-after-due over rounds
  double send_s = 0.0, drain_ms = 0.0;
  stream::StreamStatsSnapshot stats;  ///< summed over rounds
  std::vector<uint64_t> plant_ingested;
  std::vector<stream::EngineSnapshot> captured;
  bool plants_conserve = true, aggregate_conserves = true;
  bool channels_ok = true, hubs_ok = true, views_equal = true;
};

/// Median over rounds of each round's q-quantile, in ms; n counts every
/// sample of every round.
Metric RoundMedianQuantile(const std::vector<Samples>& rounds, double q) {
  std::vector<double> per_round;
  uint64_t n = 0;
  for (const Samples& round : rounds) {
    per_round.push_back(round.Quantile(q));
    n += round.size();
  }
  return {Median(per_round), "ms", n};
}

void RunRound(const FleetSize& size, const FleetInputs& inputs,
              util::ThreadPool& pool, Tracer* tracer, bool capture,
              FleetTotals& totals) {
  const auto setup_start = Clock::now();
  std::unique_ptr<Fleet> fleet = SetUp(size, inputs, &pool);
  totals.setup_s.push_back(SecondsSince(setup_start));

  const size_t sensors = size.plants * size.sensors_per_plant;
  const uint64_t total =
      static_cast<uint64_t>(size.offered_sps * size.window_s);
  // Pre-sized, so the generator never stalls on a reallocation.
  totals.late_ms.Reserve(totals.late_ms.size() + total);
  Samples& view_age_ms = totals.view_age_ms.emplace_back();
  Samples& rollup_ms = totals.rollup_ms.emplace_back();
  view_age_ms.Reserve(total / 8);
  rollup_ms.Reserve(static_cast<size_t>(size.window_s / size.rollup_every_s) +
                    16);
  Samples& alarm_age_ms = totals.alarm_age_ms.emplace_back();
  alarm_age_ms.Reserve(inputs.faults.size());
  // Pending alarm checks per plant: sensor id -> fault onset and type. An
  // alarm belongs to the fault when it was raised within kMatchSamples of
  // the sensor's samples after the onset.
  struct Pending {
    double onset = 0.0;
    FaultType type = FaultType::kAdditive;
  };
  std::vector<std::map<std::string, Pending>> pending(size.plants);
  const double match_window =
      kMatchSamples * static_cast<double>(sensors) / size.offered_sps;
  std::vector<uint64_t> last_sequence(size.plants * size.live_per_plant, 0);
  const uint64_t pool_tasks_start = pool.tasks_executed();

  auto drain_live = [&](double now_s) {
    for (size_t p = 0; p < size.plants; ++p) {
      for (size_t i = 0; i < fleet->live[p].size(); ++i) {
        serve::Subscription& sub = *fleet->live[p][i];
        const int64_t t0 = NowNs();
        const size_t applied = sub.Drain();
        if (applied == 0) continue;
        if (tracer != nullptr) {
          totals.drain_us.Add(static_cast<double>(NowNs() - t0) / 1000.0);
        }
        const stream::EngineSnapshot& view = sub.View();
        uint64_t& last = last_sequence[p * size.live_per_plant + i];
        if (view.sequence == last) continue;
        last = view.sequence;
        if (capture && p == 0 && i == 0) totals.captured.push_back(view);
        if (view.ts >= kSettle_s) {
          view_age_ms.Add((now_s - view.ts) * 1e3);
        }
        if (pending[p].empty()) continue;
        for (const stream::ActiveAlarm& alarm : view.active_alarms) {
          auto it = pending[p].find(alarm.sensor_id);
          if (it == pending[p].end() || alarm.since < it->second.onset ||
              alarm.since > it->second.onset + match_window) {
            continue;
          }
          alarm_age_ms.Add((now_s - it->second.onset) * 1e3);
          ++totals.seen[static_cast<int>(it->second.type)];
          pending[p].erase(it);
        }
      }
    }
  };

  size_t rollup_plant = 0;
  auto run_rollups = [&](double now_s) {
    serve::RollupQuery query;
    query.end = (std::floor(now_s / kRollupBucket_s) + 1.0) * kRollupBucket_s;
    query.start = query.end - kRollupSpan_s;
    query.bucket_width = kRollupBucket_s;
    const int64_t t0 = NowNs();
    bool ok = false;
    {
      ScopedSpan span(tracer, "serve.FleetRollup");
      auto result = fleet->manager->Serving()->Rollup(query);
      ok = result.ok();
      if (ok) totals.rollup_cells.Add(static_cast<double>(result->cube_cells));
    }
    if (now_s >= kSettle_s + kRollupSpan_s) {
      rollup_ms.Add(static_cast<double>(NowNs() - t0) / 1e6);
    }
    ++totals.rollups;
    if (!ok) ++totals.failed;
    // One plant dashboard's drill-down through its cached QueryService.
    {
      ScopedSpan span(tracer, "serve.QueryRollup");
      if (!fleet->queries[rollup_plant]->Rollup(query).ok()) ++totals.failed;
    }
    ++totals.queries;
    rollup_plant = (rollup_plant + 1) % size.plants;
  };

  stream::SensorSample sample;
  sample.level = ProductionLevel::kPhase;
  size_t next_fault = 0;
  uint64_t next = 0;
  bool window_closed = false;
  double next_rollup_s = size.rollup_every_s;
  const auto t0 = Clock::now();
  while (next < total) {
    const double now_s = SecondsSince(t0);
    if (now_s >= next_rollup_s) {
      run_rollups(now_s);
      next_rollup_s += size.rollup_every_s;
    }
    if (!window_closed && now_s >= size.window_s) {
      window_closed = true;
      totals.backlog_at_end =
          std::max<uint64_t>(totals.backlog_at_end, total - next);
    }
    const uint64_t due = std::min<uint64_t>(
        total, static_cast<uint64_t>(now_s * size.offered_sps) + 1);
    if (next >= due) {
      // Caught up: the slack goes to the live dashboards.
      drain_live(now_s);
      continue;
    }
    totals.late_ms.Add(
        (now_s - static_cast<double>(next) / size.offered_sps) * 1e3);
    const uint64_t chunk_end = std::min<uint64_t>(due, next + 256);
    for (; next < chunk_end; ++next) {
      const size_t g = static_cast<size_t>(next % sensors);
      const size_t p = PlantOf(size, g);
      const double due_s = static_cast<double>(next) / size.offered_sps;
      while (next_fault < inputs.faults.size() &&
             inputs.faults[next_fault].due_s <= due_s) {
        const Fault& fault = inputs.faults[next_fault++];
        SensorState& s = fleet->state[fault.sensor];
        switch (fault.type) {
          case FaultType::kAdditive:
            s.spike = fault.sign * kFaultSigmas;
            break;
          case FaultType::kTemporaryChange:
            s.transient += fault.sign * kFaultSigmas;
            break;
          case FaultType::kLevelShift:
            s.level += fault.sign * kFaultSigmas;
            break;
        }
        // Onset: the sensor's next due sample, at most one cycle later.
        uint64_t onset = next - (next % sensors) + fault.sensor;
        if (onset < next) onset += sensors;
        const size_t fp = PlantOf(size, fault.sensor);
        pending[fp][fleet->sensor_ids[fp][LocalOf(size, fault.sensor)]] = {
            static_cast<double>(onset) / size.offered_sps, fault.type};
        ++totals.injected[static_cast<int>(fault.type)];
      }
      sample.sensor_id = fleet->sensor_ids[p][LocalOf(size, g)];
      sample.ts = due_s;
      sample.value = NextValue(*fleet, inputs, g);
      bool ok = false;
      if (tracer != nullptr && (next & 31) == 0) {
        ScopedSpan span(tracer, "stream.Ingest");
        ok = fleet->manager->Ingest(fleet->plant_ids[p], sample).ok();
      } else {
        ok = fleet->manager->Ingest(fleet->plant_ids[p], sample).ok();
      }
      if (!ok) ++totals.failed;
    }
  }
  const double send_s = SecondsSince(t0);
  totals.finish_lag_ms =
      std::max(totals.finish_lag_ms,
               (send_s - static_cast<double>(total) / size.offered_sps) * 1e3);
  totals.send_s += send_s;
  totals.offered += total;

  // Drain: flush every plant, let dashboards catch up, then stop.
  const auto flush_start = Clock::now();
  {
    ScopedSpan span(tracer, "stream.Flush");
    (void)fleet->manager->Flush();
  }
  totals.drain_ms = std::max(totals.drain_ms, SecondsSince(flush_start) * 1e3);
  drain_live(SecondsSince(t0));
  totals.pool_tasks += pool.tasks_executed() - pool_tasks_start;
  (void)fleet->manager->Stop();
  for (auto& plant : fleet->live) {
    for (auto& sub : plant) (void)sub->Drain();
  }

  // ---- Per-round checks ---------------------------------------------------
  const fleet::FleetStatsSnapshot stats = fleet->manager->Stats();
  totals.failed += LostSamples(stats.aggregate);
  totals.stats += stats.aggregate;
  totals.plant_ingested.resize(stats.per_plant.size(), 0);
  for (size_t i = 0; i < stats.per_plant.size(); ++i) {
    totals.plants_conserve =
        totals.plants_conserve && ConservationHolds(stats.per_plant[i].stats);
    totals.plant_ingested[i] += stats.per_plant[i].stats.ingested;
  }
  totals.aggregate_conserves =
      totals.aggregate_conserves && ConservationHolds(stats.aggregate) &&
      stats.aggregate.ingested == total + WarmSteps() * sensors;
  for (size_t p = 0; p < size.plants; ++p) {
    serve::SnapshotHub* hub = fleet->manager->Serving()->Hub(PlantId(p));
    const serve::HubStatsSnapshot hs = hub->Stats();
    uint64_t hub_offers = 0;
    for (auto* group : {&fleet->live[p], &fleet->idle[p]}) {
      for (auto& sub : *group) {
        const serve::SubscriberChannelStats cs = sub->ChannelStats();
        totals.channels_ok =
            totals.channels_ok &&
            cs.offers == cs.deltas_served + cs.keyframes_served +
                             cs.delta_dropped + cs.keyframes_dropped;
        hub_offers += cs.offers;
      }
    }
    totals.hubs_ok = totals.hubs_ok &&
                     hub_offers == hs.deltas_served + hs.keyframes_served +
                                       hs.delta_dropped + hs.keyframes_dropped;
    totals.offers += hub_offers;
    totals.deltas += hs.deltas_served;
    totals.drops += hs.delta_dropped + hs.keyframes_dropped;
    totals.intake_dropped += hs.intake_dropped;
    const auto latest = hub->Latest();
    for (auto& sub : fleet->live[p]) {
      totals.views_equal = totals.views_equal && latest.has_value() &&
                           sub->has_view() &&
                           serve::EncodeSnapshotBytes(sub->View()) ==
                               serve::EncodeSnapshotBytes(*latest);
    }
    totals.query_hits += fleet->queries[p]->cache_hits();
    totals.query_misses += fleet->queries[p]->cache_misses();
  }
}

class FleetPhase : public Phase {
 public:
  FleetPhase(const RunConfig& config, Scale scale, Tracer* tracer)
      : size_(SizeFor(config, scale)),
        seed_(config.seed),
        tracer_(tracer),
        // Two worker-lane threads plus the service lane: with the generator
        // that is four busy threads, within a 4-core budget. Idle between
        // this phase's slices.
        pool_(util::ThreadPoolOptions{2, 1}) {}

  void RunSlice() override {
    RunRound(size_, MakeInputs(size_, seed_, rounds_), pool_, tracer_,
             tracer_ != nullptr && rounds_ == 0, totals_);
    ++rounds_;
  }

  PhaseOutput Finish() override;

 private:
  const FleetSize size_;
  const uint64_t seed_;
  Tracer* const tracer_;
  util::ThreadPool pool_;
  FleetTotals totals_;
  int rounds_ = 0;
};

PhaseOutput FleetPhase::Finish() {
  const FleetSize& size = size_;
  FleetTotals& totals = totals_;
  Tracer* const tracer = tracer_;
  PhaseOutput out;
  out.setup_s = Median(totals.setup_s);
  out.attempted = totals.offered + totals.rollups + totals.queries;
  out.failed = totals.failed;

  // Open-loop honesty: every sample is timed from its due time, and a run
  // whose generator fell behind its schedule measured its own lag, not the
  // system's latency. Lagging = median lateness above 1 ms, or a round that
  // finished sending more than 100 ms after its last sample was due. A
  // single preemption of the generator shows in the p99 and the backlog,
  // which are reported, but is caught up within milliseconds.
  const double late_p50 = totals.late_ms.Quantile(0.5);
  const double late_p99 = totals.late_ms.Quantile(0.99);
  std::printf(
      "fleet generator: %d round(s) of %.2f s at %.0f/s offered, late p50 "
      "%.4f ms p99 %.4f ms, largest backlog at window end %llu samples, "
      "worst finish %.3f ms after due\n",
      rounds_, size.window_s, size.offered_sps, late_p50, late_p99,
      static_cast<unsigned long long>(totals.backlog_at_end),
      totals.finish_lag_ms);
  if (late_p50 > 1.0 || totals.finish_lag_ms > 100.0) {
    out.valid = false;
    out.invalid_reason =
        "generator lagged (late p50 " + std::to_string(late_p50) +
        " ms, finished " + std::to_string(totals.finish_lag_ms) +
        " ms after due)";
  }
  std::printf("fleet faults seen alarmed on a dashboard: AO %llu/%llu, TC "
              "%llu/%llu, LS %llu/%llu (engine: %llu alarms raised, %llu "
              "concept shifts)\n",
              static_cast<unsigned long long>(totals.seen[0]),
              static_cast<unsigned long long>(totals.injected[0]),
              static_cast<unsigned long long>(totals.seen[1]),
              static_cast<unsigned long long>(totals.injected[1]),
              static_cast<unsigned long long>(totals.seen[2]),
              static_cast<unsigned long long>(totals.injected[2]),
              static_cast<unsigned long long>(totals.stats.alarms_raised),
              static_cast<unsigned long long>(totals.stats.concept_shifts));

  out.e2e["view_age_p50_ms"] = RoundMedianQuantile(totals.view_age_ms, 0.5);
  out.e2e["view_age_p99_ms"] = RoundMedianQuantile(totals.view_age_ms, 0.99);
  out.e2e["alarm_age_p50_ms"] = RoundMedianQuantile(totals.alarm_age_ms, 0.5);
  out.e2e["alarm_age_p99_ms"] =
      RoundMedianQuantile(totals.alarm_age_ms, 0.99);
  out.e2e["rollup_p50_ms"] = RoundMedianQuantile(totals.rollup_ms, 0.5);
  out.e2e["rollup_p99_ms"] = RoundMedianQuantile(totals.rollup_ms, 0.99);

  out.Check("fleet.conservation.per_plant", totals.plants_conserve,
            std::to_string(size.plants) + " plants x " +
                std::to_string(rounds_) + " rounds");
  out.Check("fleet.conservation.aggregate", totals.aggregate_conserves,
            ConservationDetail(totals.stats));
  out.Check("fleet.hub_identity.channels", totals.channels_ok,
            "offers == deltas + keyframes + drops per subscriber");
  out.Check("fleet.hub_identity.hubs", totals.hubs_ok,
            "offers=" + std::to_string(totals.offers));
  out.Check("fleet.final_views_eq_latest", totals.views_equal,
            std::to_string(size.plants * size.live_per_plant) +
                " live dashboards byte-identical to Latest()");
  out.Check("fleet.alarms_observed", totals.seen[1] + totals.seen[2] > 0,
            std::to_string(totals.seen[1] + totals.seen[2]) + "/" +
                std::to_string(totals.injected[1] + totals.injected[2]) +
                " TC/LS faults seen alarmed");

  if (tracer != nullptr) {
    const double run_s = totals.send_s;
    const size_t sensors = size.plants * size.sensors_per_plant;
    AddStreamLayerMetrics(*tracer, totals.stats, totals.drain_ms, run_s, out);
    out.layer["stream.concept_shifts"] = {
        static_cast<double>(totals.stats.concept_shifts), "count", 1};
    out.layer["stream.baseline_resets"] = {
        static_cast<double>(totals.stats.baseline_resets), "count", 1};
    // BOCPD on the fleet's own value stream, one detector per sensor.
    {
      const FleetInputs inputs = MakeInputs(size, seed_, 0);
      Fleet shadow;
      shadow.state.assign(sensors, SensorState{});
      std::vector<TraceSample> slice;
      const size_t n = std::min<size_t>(1 << 18, totals.offered);
      for (size_t i = 0; i < n; ++i) {
        const size_t g = i % sensors;
        slice.push_back({static_cast<uint32_t>(g), 0.0,
                         NextValue(shadow, inputs, g)});
      }
      out.layer["core.bocpd_ns"] = {
          ProbeBocpdNs(sensors, slice,
                       ManagerOptions(nullptr).engine.shift.bocpd, tracer),
          "ns", n};
    }
    ProbePublishReplay(totals.captured, ManagerOptions(nullptr).serving,
                       size.live_per_plant, size.idle_per_plant, tracer, out);
    out.layer["serve.drain_us_p50"] = {totals.drain_us.Quantile(0.5), "us",
                                       totals.drain_us.size()};
    const double offers = static_cast<double>(totals.offers);
    out.layer["serve.delta_frac"] = {
        offers == 0.0 ? 0.0 : static_cast<double>(totals.deltas) / offers,
        "frac", totals.offers};
    out.layer["serve.drop_frac"] = {
        offers == 0.0 ? 0.0 : static_cast<double>(totals.drops) / offers,
        "frac", totals.offers};
    out.layer["serve.intake_dropped"] = {
        static_cast<double>(totals.intake_dropped), "count", 1};
    const uint64_t lookups = totals.query_hits + totals.query_misses;
    out.layer["serve.rollup_hit_frac"] = {
        lookups == 0 ? 0.0
                     : static_cast<double>(totals.query_hits) /
                           static_cast<double>(lookups),
        "frac", lookups};
    out.layer["serve.rollup_cells"] = {totals.rollup_cells.Mean(), "count",
                                       totals.rollup_cells.size()};
    double lo = 0.0, hi = 0.0;
    for (size_t i = 0; i < totals.plant_ingested.size(); ++i) {
      const double rate = static_cast<double>(totals.plant_ingested[i]) / run_s;
      lo = i == 0 ? rate : std::min(lo, rate);
      hi = std::max(hi, rate);
    }
    out.layer["fleet.plant_skew"] = {lo > 0.0 ? hi / lo : 0.0, "ratio",
                                     totals.plant_ingested.size()};
    out.layer["util.pool_tasks_per_s"] = {
        static_cast<double>(totals.pool_tasks) / run_s, "1/s",
        totals.pool_tasks};
    out.layer["gen.late_p99_ms"] = {late_p99, "ms", totals.late_ms.size()};
    out.layer["gen.offered_sps"] = {
        static_cast<double>(totals.offered) / run_s, "1/s", totals.offered};
  }
  return out;
}

}  // namespace

std::unique_ptr<Phase> MakeFleet(const RunConfig& config, Scale scale,
                                 Tracer* tracer) {
  return std::make_unique<FleetPhase>(config, scale, tracer);
}

}  // namespace hod::perfbench
