#ifndef SABLOCK_E2EBENCH_E2E_H_
#define SABLOCK_E2EBENCH_E2E_H_

// Shared pieces of the end-to-end benchmark binary (sablock_e2e): run
// options and input sizes, the bench-side span recorder behind the traced
// runs, the result record every workload fills, and the output digests
// e2e.py pins.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/pair_set.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/blocking.h"
#include "data/record.h"
#include "report/json.h"

namespace sablock::e2e {

/// Input sizes of one benchmark scale. `quick` is the smoke scale: the
/// same four workloads on inputs small enough that all of them run in a
/// few seconds.
struct Sizes {
  size_t voter_records = 200000;
  size_t cora_records = 20000;
  size_t serve_records = 20000;
  size_t serve_heldout = 4000;
  /// Closed-loop ops per client connection in one serving pass.
  size_t ops_per_client = 10000;
  /// 1% of the unlimited progressive run's distinct pairs at seed 42.
  uint64_t progressive_pairs = 43404;
  /// Repetitions always run, whatever --seconds says.
  int min_reps = 3;
};

Sizes SizesFor(bool quick);

/// Command-line options of `sablock_e2e run`.
struct Options {
  std::string workload;
  std::string inputs;  // directory written by `sablock_e2e generate`
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace-event JSON (traced runs)
  bool quick = false;
  Sizes sizes;
};

/// One bench-side span: a call into a library layer made by the
/// benchmark's own code. Times are seconds since the tracer started.
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;  // index of the enclosing span, -1 for a root
};

/// Records nested spans from one thread; the parent of a span is the
/// innermost span still open when it begins.
class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  int Begin(std::string name);
  void End(int id);

  /// Durations of every span called `name`, in recording order.
  std::vector<double> Durations(std::string_view name) const;

  /// Self time per layer, the span-name prefix before the first '.': a
  /// span's duration minus the time its child spans cover.
  std::map<std::string, double> LayerSelfSeconds() const;

  /// The spans as a Chrome trace-event array ("X" events, microseconds).
  report::Json ChromeTrace() const;

 private:
  double Now() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; records nothing when `tracer` is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Runs `fn` inside a span named `name` and returns its wall seconds.
template <typename Fn>
double Timed(Tracer* tracer, const char* name, Fn&& fn) {
  ScopedSpan span(tracer, name);
  WallTimer timer;
  fn();
  return timer.Seconds();
}

/// What one workload process reports: its metrics (name -> value and
/// unit), the outputs e2e.py checks, and how many operations were
/// attempted and failed.
struct Result {
  void Metric(const std::string& name, double value, const char* unit);
  /// Counts one attempted operation; `ok == false` counts it as failed.
  void Attempt(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  int threads = 1;      // worker threads the workload runs
  int connections = 0;  // client connections it opens
  report::Json metrics = report::Json::Object();
  report::Json checks = report::Json::Object();
};

/// Peak resident set size since the last ResetPeakRss(), in MiB: what
/// one rep or pass needs on top of the data the process already holds.
double PeakRssMb();
/// Returns freed heap to the OS and restarts the peak-RSS measurement.
void ResetPeakRss();

double Median(std::vector<double> values);
/// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> values, double p);
/// Median duration of the spans called `name`.
double MedianSpan(const Tracer& tracer, std::string_view name);

std::string Hex(uint64_t value);

/// The pinned output of a batch run: distinct pair count, an
/// order-independent digest of the pair set, and pair completeness.
struct PairSummary {
  uint64_t pairs = 0;
  uint64_t digest = 0;
  double pc = 0.0;
};

PairSummary SummarizePairs(const data::Dataset& dataset, const PairSet& pairs,
                           uint64_t true_match_pairs);

/// Order-dependent digest of an emitted block sequence.
uint64_t SequenceDigest(const core::BlockCollection& blocks);

// Workloads. Each fills `result`; `tracer` is non-null on traced runs,
// which also report the per-layer metrics.
void RunSalshVoter(const Options& options, Tracer* tracer, Result* result);
void RunMetaCora(const Options& options, Tracer* tracer, Result* result);
void RunProgressiveCora(const Options& options, Tracer* tracer,
                        Result* result);
void RunServeMix(const Options& options, Tracer* tracer, Result* result);

/// Writes the inputs of one kind (voter | cora | serve) for `seed`.
Status GenerateInputs(const std::string& kind, uint64_t seed,
                      const Sizes& sizes, const std::string& dir);

}  // namespace sablock::e2e

#endif  // SABLOCK_E2EBENCH_E2E_H_
