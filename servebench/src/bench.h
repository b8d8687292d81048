// Shared pieces of the serving benchmark: run options, the metric map each workload fills,
// span recording for the traced run, and a counting AuditSink that attributes allocator
// events to KV-group kinds.
//
// Every layer is measured from outside: the benchmark times calls into public entry points
// (Engine/SpecDecodeEngine Submit/StepOnce, FleetFrontend SubmitAsync) and, in the traced
// run only, attaches hooks the program already exposes (StepProfiler, AuditSink,
// ServingFrontend::Options::step_observer). No program source is modified.

#ifndef SERVEBENCH_SRC_BENCH_H_
#define SERVEBENCH_SRC_BENCH_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/audit_events.h"
#include "src/metrics/step_profiler.h"
#include "src/model/kv_spec.h"

namespace servebench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  // Traced run: where the span file is written.
  // fleet-online calibration (servebench/workloads.json).
  double low_rps = 0.0;
  double high_rps = 0.0;
  std::vector<double> ladder_rps;
  int rung_requests = 0;
  int low_requests = 0;
  double ttft_limit_ms = 0.0;
  double tpot_limit_ms = 0.0;
};

// Ordered name → value list; run.py attaches units from BENCHMARK.json.
class Metrics {
 public:
  void Set(const std::string& name, double value);
  [[nodiscard]] const std::vector<std::pair<std::string, double>>& items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, double>> items_;
};

struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  // Named correctness checks; the run is correct when all hold.
  std::vector<std::pair<std::string, bool>> checks;
  std::string digest;  // Offline workloads: SHA-256 of the simulated outcome.
  int passes = 0;
  Metrics metrics;

  void Check(const std::string& name, bool ok) { checks.emplace_back(name, ok); }
};

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for an empty sample.
[[nodiscard]] double Quantile(std::vector<double> values, double q);
[[nodiscard]] inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// Aggregate of one metric over the passes of a run. Load from neighbours on a shared host
// slows passes down for seconds at a time and never speeds them up, so a run reports the
// best decile of its passes: the 10th percentile of a time, the 90th percentile of a rate.
[[nodiscard]] inline double BestDecile(std::vector<double> values, bool lower_is_better) {
  return Quantile(std::move(values), lower_is_better ? 0.1 : 0.9);
}

// BestDecile of get(pass) over a run's passes.
template <typename Pass, typename Get>
[[nodiscard]] double OverPasses(const std::vector<Pass>& passes, bool lower_is_better, Get get) {
  std::vector<double> values;
  values.reserve(passes.size());
  for (const Pass& p : passes) {
    values.push_back(get(p));
  }
  return BestDecile(std::move(values), lower_is_better);
}

using PhaseTotals = std::array<jenga::StepProfiler::PhaseStats, jenga::kNumStepPhases>;

// step.<phase>.self_ms (best decile over the traced passes' `phases` member) and the
// hit_scan/commit call counts of `ref`.
template <typename Pass>
void EmitStepPhases(const std::vector<Pass>& passes, const Pass& ref, Metrics& metrics) {
  const struct {
    const char* name;
    jenga::StepPhase phase;
  } phases[] = {{"schedule", jenga::StepPhase::kSchedule},
                {"hit_scan", jenga::StepPhase::kHitScan},
                {"allocate", jenga::StepPhase::kAllocate},
                {"gpu_sim", jenga::StepPhase::kGpuSim},
                {"evict_preempt", jenga::StepPhase::kEvictPreempt},
                {"commit", jenga::StepPhase::kCommit},
                {"other", jenga::StepPhase::kOther}};
  for (const auto& ph : phases) {
    const size_t idx = static_cast<size_t>(ph.phase);
    metrics.Set(std::string("step.") + ph.name + ".self_ms",
                OverPasses(passes, true, [idx](const Pass& p) {
                  return static_cast<double>(p.phases[idx].ns) / 1e6;
                }));
  }
  metrics.Set("step.hit_scan.calls", static_cast<double>(
      ref.phases[static_cast<size_t>(jenga::StepPhase::kHitScan)].calls));
  metrics.Set("step.commit.calls", static_cast<double>(
      ref.phases[static_cast<size_t>(jenga::StepPhase::kCommit)].calls));
}

// Host-speed calibration. Load from other tenants on a shared host slows this program by
// up to ~50% for minutes at a time, which no choice of passes inside one run can average
// out. Every pass therefore first times a fixed loop of branchy, cache-resident integer work
// (hash-table probes, sorting, chained hashing) that belongs to the benchmark, not the program.
// End-to-end timings are reported at the reference host speed: a time is multiplied and a
// rate divided by HostSlowdown() of its own pass. Program changes cannot move the loop.
[[nodiscard]] double CalibrationMs();
// Loop time on an unloaded host of the kind the benchmark was calibrated on (4-vCPU Xeon VM).
inline constexpr double kCalibrationReferenceMs = 9.0;
[[nodiscard]] inline double HostSlowdown(double calibration_ms) {
  return calibration_ms / kCalibrationReferenceMs;
}

// Peak resident set of this process, MB.
[[nodiscard]] double PeakRssMb();

// --- Spans (traced run) ---

struct Span {
  const char* name = "";
  int64_t id = 0;
  int64_t parent = 0;   // 0 = root.
  int64_t request = -1; // Request id the span belongs to, -1 for none.
  int thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Single-writer span buffer. Each thread records into its own log; ids carry the log's
// thread number in the high bits so logs merge without renumbering.
class SpanLog {
 public:
  explicit SpanLog(int thread) : thread_(thread) {}
  int64_t Add(const char* name, int64_t parent, int64_t request, int64_t start_ns,
              int64_t end_ns);
  // Sets the end of a span opened with end_ns 0 (searched from the most recent).
  void SetEnd(int64_t id, int64_t end_ns);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  void Clear() { spans_.clear(); }

 private:
  int thread_;
  int64_t next_ = 1;
  std::vector<Span> spans_;
};

// Writes the logs as Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
// Returns the number of spans written, or -1 when the file cannot be written.
int64_t WriteSpans(const std::string& path, const std::vector<const SpanLog*>& logs);

// --- Per-KV-group allocator event counts ---

inline constexpr std::array<const char*, 5> kCoreKinds = {"full", "sliding", "mamba", "vision",
                                                          "cross"};

struct CoreCounts {
  struct Kind {
    int64_t claims = 0;
    int64_t revives = 0;
    int64_t cached = 0;
    int64_t evictions = 0;
    int64_t large_acquired = 0;
    int64_t large_reclaimed = 0;
    bool operator==(const Kind&) const = default;
  };
  std::array<Kind, kCoreKinds.size()> kinds{};
  int64_t evictor_pops = 0;

  void Add(const CoreCounts& other);
  void Emit(Metrics& metrics) const;
  bool operator==(const CoreCounts&) const = default;
};

// Benchmark-side adapter over the allocator's AuditSink hook: counts the transitions of
// each group and folds them by group kind. When the program's sinks are replaced by another
// event interface, only this adapter has to move.
class CountingSink final : public jenga::AuditSink {
 public:
  explicit CountingSink(const jenga::KvSpec& spec);

  void OnLargeAcquired(int group, jenga::LargePageId, jenga::RequestId) override {
    ++At(group).large_acquired;
  }
  void OnPageClaimed(int group, jenga::SmallPageId, jenga::RequestId) override {
    ++At(group).claims;
  }
  void OnPageRevived(int group, jenga::SmallPageId) override { ++At(group).revives; }
  void OnPageCached(int group, jenga::SmallPageId, jenga::BlockHash) override {
    ++At(group).cached;
  }
  void OnPageEvicted(int group, jenga::SmallPageId) override { ++At(group).evictions; }
  void OnEvictorPop(int, jenga::SmallPageId) override { ++counts_.evictor_pops; }
  void OnLargeReclaimed(int group, jenga::LargePageId) override {
    ++At(group).large_reclaimed;
  }

  [[nodiscard]] const CoreCounts& counts() const { return counts_; }

 private:
  CoreCounts::Kind& At(int group);

  std::vector<int> kind_of_group_;  // Index into kCoreKinds, -1 for untracked kinds.
  CoreCounts::Kind untracked_;
  CoreCounts counts_;
};

// --- Workload entry points ---

RunResult RunArxivPrefix(const RunOptions& options);
RunResult RunMmmuVision(const RunOptions& options);
RunResult RunSpecSwap(const RunOptions& options);
RunResult RunFleetOnline(const RunOptions& options);

}  // namespace servebench

#endif  // SERVEBENCH_SRC_BENCH_H_
