// score_saturate: closed loop, one producer. A pre-generated trace of
// synthetic AR(1) sensors with sparse additive outliers goes through a
// standalone threaded StreamEngine until Stop() drains, then the same
// samples go through a synchronous engine on one thread. No serve, fleet
// or escalation layer is involved.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.h"
#include "workloads.h"

namespace hod::perfbench {
namespace {

using hierarchy::ProductionLevel;

/// Samples per timed chunk: a run's rate is the median of its chunks'
/// rates, pooled over every slice, so a stall in one chunk cannot move it.
constexpr uint64_t kChunk = 1 << 17;

struct SaturateSize {
  size_t sensors = 4096;
  size_t trace_steps = 256;    ///< pre-generated steps, replayed cyclically
  double window_s = 0.0;       ///< > 0: time-bounded threaded slice
  uint64_t fixed_samples = 0;  ///< window_s == 0: fixed samples per slice
  size_t probe_samples = 1 << 20;
};

SaturateSize SizeFor(const RunConfig& config, Scale scale) {
  SaturateSize size;
  switch (scale) {
    case Scale::kPrimary:
      // The synchronous replay of the same samples takes about 1.3x the
      // threaded window, so a slice fills about half of its cycle.
      size.window_s = 0.2 * config.CycleSeconds();
      break;
    case Scale::kLeg:
      size.window_s = 0.12 * config.CycleSeconds();
      break;
    case Scale::kSmoke:
      size.sensors = 256;
      size.fixed_samples = 8 * kChunk;
      size.probe_samples = 1 << 14;
      break;
  }
  return size;
}

/// The pre-generated input: `steps` rows of one value per sensor.
struct Trace {
  std::vector<std::string> ids;
  size_t steps = 0;
  std::vector<double> values;  ///< row-major: step * sensors + sensor

  double Value(uint64_t global_step, size_t sensor) const {
    return values[(global_step % steps) * ids.size() + sensor];
  }
};

Trace MakeTrace(const SaturateSize& size, uint64_t seed) {
  Trace trace;
  trace.steps = size.trace_steps;
  char id[24];
  for (size_t s = 0; s < size.sensors; ++s) {
    std::snprintf(id, sizeof(id), "s%05zu", s);
    trace.ids.emplace_back(id);
  }
  Rng rng(seed * 7919 + 11);
  trace.values.resize(size.sensors * size.trace_steps);
  std::vector<double> state(size.sensors, 0.0);
  constexpr double kPhi = 0.7;
  constexpr double kOutlierRate = 2e-4;
  constexpr double kOutlierSigmas = 8.0;
  for (size_t t = 0; t < size.trace_steps; ++t) {
    for (size_t s = 0; s < size.sensors; ++s) {
      state[s] = kPhi * state[s] + rng.NextGaussian();
      double value = 20.0 + static_cast<double>(s % 7) + state[s];
      if (t >= 80 && rng.NextBernoulli(kOutlierRate)) {
        value += rng.NextBernoulli(0.5) ? kOutlierSigmas : -kOutlierSigmas;
      }
      trace.values[t * size.sensors + s] = value;
    }
  }
  return trace;
}

stream::StreamEngineOptions EngineOptions(bool synchronous) {
  stream::StreamEngineOptions options;
  options.synchronous = synchronous;
  options.num_shards = 1;
  options.queue_capacity = 4096;
  options.max_batch = 64;
  options.producer_hint = stream::ProducerHint::kSinglePerShard;
  return options;
}

/// Steps ingested before timing so every monitor has fit its model.
uint64_t WarmSteps() {
  const core::OnlineMonitorOptions monitor;
  return monitor.warmup + monitor.ar_order + 1;
}

/// Builds, registers, starts and warms one engine; returns it running.
std::unique_ptr<stream::StreamEngine> SetUp(const Trace& trace,
                                            bool synchronous) {
  auto engine =
      std::make_unique<stream::StreamEngine>(EngineOptions(synchronous));
  for (const std::string& id : trace.ids) {
    (void)engine->AddSensor(id, ProductionLevel::kPhase);
  }
  (void)engine->Start();
  stream::SensorSample sample;
  sample.level = ProductionLevel::kPhase;
  for (uint64_t step = 0; step < WarmSteps(); ++step) {
    sample.ts = static_cast<double>(step);
    for (size_t s = 0; s < trace.ids.size(); ++s) {
      sample.sensor_id = trace.ids[s];
      sample.value = trace.Value(step, s);
      (void)engine->Ingest(sample);
    }
  }
  (void)engine->Flush();
  return engine;
}

/// Ingests `count` samples (or, when count == 0, as many as fit in
/// `window_s`) starting after the warm-up; returns the number ingested and
/// appends the rate of every complete chunk but the first to `chunk_rates`.
uint64_t Drive(stream::StreamEngine& engine, const Trace& trace,
               uint64_t count, double window_s, Tracer* tracer,
               uint64_t& failed, std::vector<double>& chunk_rates) {
  const size_t sensors = trace.ids.size();
  stream::SensorSample sample;
  sample.level = ProductionLevel::kPhase;
  const auto start = Clock::now();
  auto chunk_start = start;
  uint64_t sent = 0;
  for (uint64_t step = WarmSteps();; ++step) {
    sample.ts = static_cast<double>(step);
    for (size_t s = 0; s < sensors; ++s) {
      if (count != 0 ? sent == count
                     : ((sent & 4095) == 0 && SecondsSince(start) >= window_s)) {
        return sent;
      }
      sample.sensor_id = trace.ids[s];
      sample.value = trace.Value(step, s);
      bool ok = false;
      if (tracer != nullptr && (sent & 31) == 0) {
        ScopedSpan span(tracer, "stream.Ingest");
        ok = engine.Ingest(sample).ok();
      } else {
        ok = engine.Ingest(sample).ok();
      }
      if (!ok) ++failed;
      if (++sent % kChunk == 0) {
        // The first chunk warms the pipeline (threads waking, queues and
        // batches filling) and is not timed.
        const auto now = Clock::now();
        if (sent > kChunk) {
          chunk_rates.push_back(
              static_cast<double>(kChunk) /
              std::chrono::duration<double>(now - chunk_start).count());
        }
        chunk_start = now;
      }
    }
  }
}

std::vector<TraceSample> ProbeSlice(const Trace& trace, size_t n) {
  std::vector<TraceSample> out;
  out.reserve(n);
  const size_t sensors = trace.ids.size();
  for (size_t i = 0; i < n; ++i) {
    const uint64_t step = WarmSteps() + i / sensors;
    const size_t s = i % sensors;
    out.push_back({static_cast<uint32_t>(s), static_cast<double>(step),
                   trace.Value(step, s)});
  }
  return out;
}

class SaturatePhase : public Phase {
 public:
  SaturatePhase(const RunConfig& config, Scale scale, Tracer* tracer)
      : size_(SizeFor(config, scale)),
        tracer_(tracer),
        trace_(MakeTrace(size_, config.seed)) {}

  void RunSlice() override {
    // Set-up: construction, registration, Start and monitor warm-up.
    const auto t0 = Clock::now();
    auto engine = SetUp(trace_, /*synchronous=*/false);
    setup_times_.push_back(SecondsSince(t0));

    // Threaded run: first Ingest until Stop() has drained every queue.
    const auto run_start = Clock::now();
    const uint64_t n = Drive(*engine, trace_, size_.fixed_samples,
                             size_.window_s, tracer_, failed_,
                             threaded_rates_);
    const auto stop_start = Clock::now();
    {
      ScopedSpan span(tracer_, "stream.Stop");
      (void)engine->Stop();
    }
    drain_ms_ = std::max(drain_ms_, SecondsSince(stop_start) * 1e3);
    last_threaded_s_ = SecondsSince(run_start);
    threaded_s_ += last_threaded_s_;
    threaded_stats_ = engine->stats();

    // Synchronous baseline over exactly the same samples.
    auto inline_engine = SetUp(trace_, /*synchronous=*/true);
    const auto inline_start = Clock::now();
    (void)Drive(*inline_engine, trace_, n, 0.0, nullptr, failed_,
                inline_rates_);
    (void)inline_engine->Stop();
    inline_s_ += SecondsSince(inline_start);
    const stream::StreamStatsSnapshot inline_stats = inline_engine->stats();

    samples_ += n;
    failed_ += LostSamples(threaded_stats_) + LostSamples(inline_stats);
    threaded_conserve_ =
        threaded_conserve_ && ConservationHolds(threaded_stats_);
    inline_conserve_ = inline_conserve_ && ConservationHolds(inline_stats);
    threaded_total_ += threaded_stats_;
    inline_total_ += inline_stats;
    for (const std::string& id : trace_.ids) {
      const auto a = engine->Probe(id);
      const auto b = inline_engine->Probe(id);
      ++compared_;
      if (!a.ok() || !b.ok() || a->alarms_raised != b->alarms_raised ||
          a->samples_seen != b->samples_seen) {
        ++mismatched_;
        continue;
      }
      alarms_ += a->alarms_raised;
    }
    ++slices_;
  }

  PhaseOutput Finish() override {
    PhaseOutput out;
    out.setup_s = Median(setup_times_);
    std::printf("saturate: %d slices, %llu samples, threaded %.3f s incl. "
                "drain, synchronous %.3f s, %zu chunks of %llu\n",
                slices_, static_cast<unsigned long long>(samples_),
                threaded_s_, inline_s_, threaded_rates_.size(),
                static_cast<unsigned long long>(kChunk));
    out.e2e["ingest_sps"] = {Median(threaded_rates_), "1/s", samples_};
    out.e2e["inline_sps"] = {Median(inline_rates_), "1/s", samples_};
    out.attempted = 2 * samples_;
    out.failed = failed_;

    out.Check("saturate.conservation.threaded", threaded_conserve_,
              ConservationDetail(threaded_total_));
    out.Check("saturate.conservation.inline", inline_conserve_,
              ConservationDetail(inline_total_));
    out.Check("saturate.alarms_threaded_eq_inline",
              mismatched_ == 0 && alarms_ > 0,
              std::to_string(compared_ - mismatched_) + "/" +
                  std::to_string(compared_) + " sensor runs equal, alarms=" +
                  std::to_string(alarms_));

    if (tracer_ != nullptr) {
      AddStreamLayerMetrics(*tracer_, threaded_stats_, drain_ms_,
                            last_threaded_s_, out);
      const std::vector<TraceSample> slice =
          ProbeSlice(trace_, size_.probe_samples);
      out.layer["stream.route_ns"] = {
          ProbeRouteNs(trace_.ids, slice, tracer_), "ns", slice.size()};
      out.layer["core.pushbatch_ns"] = {
          ProbePushBatchNs(trace_.ids, slice, EngineOptions(false).monitor,
                           EngineOptions(false).max_batch, tracer_),
          "ns", slice.size()};
    }
    return out;
  }

 private:
  const SaturateSize size_;
  Tracer* const tracer_;
  const Trace trace_;
  int slices_ = 0;
  std::vector<double> setup_times_, threaded_rates_, inline_rates_;
  uint64_t samples_ = 0, failed_ = 0, compared_ = 0, mismatched_ = 0;
  uint64_t alarms_ = 0;
  double drain_ms_ = 0.0, threaded_s_ = 0.0, inline_s_ = 0.0;
  double last_threaded_s_ = 0.0;
  bool threaded_conserve_ = true, inline_conserve_ = true;
  /// The last slice's threaded engine (per-layer metrics) and the totals
  /// over every slice (check details).
  stream::StreamStatsSnapshot threaded_stats_, threaded_total_, inline_total_;
};

}  // namespace

std::unique_ptr<Phase> MakeSaturate(const RunConfig& config, Scale scale,
                                    Tracer* tracer) {
  return std::make_unique<SaturatePhase>(config, scale, tracer);
}

}  // namespace hod::perfbench
