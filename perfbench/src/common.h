// Shared plumbing of the repository benchmark: run configuration, sample
// recorders with percentiles, the in-memory span tracer, metric and check
// bookkeeping, and the result printer.
//
// The benchmark measures libhod from the outside: every span is recorded
// here, around a call into a module's public API, never inside src/.

#ifndef HOD_PERFBENCH_COMMON_H_
#define HOD_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stream/stats.h"

namespace hod::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// How large a phase runs. kPrimary is the selected workload; kLeg is a
/// smaller run of another workload that supplies the metrics the primary
/// does not reach; kSmoke is the tiny configuration of the smoke mode.
enum class Scale { kPrimary, kLeg, kSmoke };

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  /// Slices every phase runs; the run interleaves them cycle by cycle.
  int cycles = 1;

  /// Wall time of one cycle: every phase's slice sizes derive from it.
  double CycleSeconds() const { return seconds / cycles; }
};

/// A bag of timing samples; percentiles by linear interpolation between
/// order statistics (the `inclusive` method of Python's statistics module).
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  /// Pre-sizes the buffer, so a timed loop never pays for a reallocation.
  void Reserve(size_t n) { values_.reserve(n); }
  size_t size() const { return values_.size(); }
  double Quantile(double q) const;
  double Mean() const;

 private:
  std::vector<double> values_;
};

double Median(std::vector<double> values);

/// One printed metric: value, unit and the number of samples behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  uint64_t n = 0;
};

/// In-memory span recorder. Spans nest on the recording thread: a span
/// opened while another is open records it as its parent ("the span that
/// caused it"). Single-threaded by design: every span is recorded on the
/// benchmark's own generator thread, around calls into libhod.
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint32_t parent = 0;  ///< 1-based index of the parent span, 0 = root
  };

  explicit Tracer(size_t capacity) { spans_.reserve(capacity); }

  /// Opens a span; returns its handle (0 when the buffer is full).
  uint32_t Begin(const char* name);
  void End(uint32_t handle);

  /// Durations (ns) of every recorded span called `name`.
  std::vector<double> DurationsNs(const char* name) const;
  size_t recorded() const { return spans_.size(); }
  uint64_t overflowed() const { return overflowed_; }

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
  uint64_t overflowed_ = 0;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), handle_(tracer ? tracer->Begin(name) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint32_t handle_;
};

/// Everything one phase produced: its end-to-end and per-layer metrics,
/// the correctness checks it ran, and the operation accounting.
struct PhaseOutput {
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::vector<std::pair<std::string, bool>> checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Median set-up time over the phase's repeated set-ups.
  double setup_s = 0.0;
  /// Open-loop validity: false when the generator fell behind schedule.
  bool valid = true;
  std::string invalid_reason;

  void Check(const std::string& name, bool ok, const std::string& detail);
};

/// One workload run as a sequence of slices. A run interleaves the slices
/// of every phase, cycle by cycle, so each metric is sampled across the
/// whole run instead of in one block: a slow spell of the shared host then
/// moves a few of a metric's samples rather than all of them. Every slice
/// builds fresh engines, so slices are independent repetitions.
class Phase {
 public:
  virtual ~Phase() = default;
  /// Runs the next slice: set-up, the measured work, drain.
  virtual void RunSlice() = 0;
  /// Metrics and checks over every slice run, plus the per-layer probes
  /// when the phase is traced.
  virtual PhaseOutput Finish() = 0;
};

/// `ingested == scored + dropped + rejected + quarantined`.
bool ConservationHolds(const stream::StreamStatsSnapshot& stats);
std::string ConservationDetail(const stream::StreamStatsSnapshot& stats);
/// Mean samples per worker drain batch.
double BatchMean(const stream::StreamStatsSnapshot& stats);
uint64_t QueueHighWater(const stream::StreamStatsSnapshot& stats);
/// Samples lost at ingest: dropped plus every rejection bucket.
uint64_t LostSamples(const stream::StreamStatsSnapshot& stats);

/// Peak resident set of the process so far, MiB.
double PeakRssMb();

/// Fills the stream.* per-layer metrics common to every workload's own
/// engine(s): Ingest call latency, queue depth, batch size, drain time
/// and snapshot rate.
void AddStreamLayerMetrics(const Tracer& tracer,
                           const stream::StreamStatsSnapshot& stats,
                           double drain_ms, double run_seconds,
                           PhaseOutput& out);

}  // namespace hod::perfbench

#endif  // HOD_PERFBENCH_COMMON_H_
