// Shared pieces of the perfbench harness: exact-sample statistics, the
// answer checker, the in-memory span tracer, the metric sink that prints
// the result line, and the seeded dataset generators every workload draws
// its inputs from.
//
// Everything here is benchmark-side: the library is only ever called
// through its public headers, and spans are recorded around those calls
// from the outside.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "api/db.h"
#include "common/bitvector.h"
#include "common/status.h"
#include "graphed/graph.h"

namespace perfbench {

namespace pr = pigeonring;

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Sleeps until shortly before `due`, then spins: an open-loop generator
// that relies on the scheduler's wake-up alone sends late by a varying
// amount, and that lateness would be charged to the system under test.
void SleepUntil(Clock::time_point due);

// ---------------------------------------------------------------------
// Command line and run context.

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Test seam for the benchmark's own self-test: corrupts the first answer
  // the checker sees, which must turn the run into a failure.
  bool inject_wrong_answer = false;
  // Directory (inside the checkout) for saved indexes and the span dump.
  std::string work_dir = ".";
};

// ---------------------------------------------------------------------
// Exact-sample statistics. Percentiles come from the sorted samples
// themselves (nearest rank), never from bucketed histograms.

class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  // Nearest-rank percentile, p in [0, 100]. Requires a nonempty set.
  double Percentile(double p) const;
  double Median() const { return Percentile(50); }
  // True iff at least `min_beyond` samples lie strictly above the rank the
  // percentile reads — the rule for printing a tail percentile at all.
  bool HasTail(double p, size_t min_beyond = 10) const;
  // The highest of p99.9 / p99 / p90 / p75 / p50 with at least ten samples
  // beyond it; 0 if none qualifies.
  double HighestTrustedPercentile() const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
  void Sort() const;
};

// Event rates per window: `event_s` holds each event's completion time
// in seconds from the start of a `span_s`-long run, cut into whole windows
// of `window_s`; each window's rate is weight * events / window_s. The
// median of these resists a stall that lands in one window, where a
// whole-run mean would swing with the stall's exact length.
Samples WindowRates(const std::vector<double>& event_s, double span_s,
                    double window_s, double weight = 1);

// One-line summary "p50=... p99=... n=..." that prints a percentile only
// when it has at least ten samples beyond it.
std::string Describe(const Samples& samples, const std::string& unit);

// ---------------------------------------------------------------------
// Answer checking. Every operation a workload times is counted as
// attempted; an error status, a shed request or a wrong answer counts it
// as failed.

class Checker {
 public:
  explicit Checker(bool inject_wrong_answer)
      : inject_(inject_wrong_answer) {}

  // Counts one attempted operation whose answer is `got`; wrong unless it
  // equals `want`. Thread-safe.
  bool Ids(const char* what, std::vector<int> got,
           const std::vector<int>& want);
  // Counts one attempted operation with a yes/no verdict. Thread-safe.
  bool Expect(const char* what, bool ok, const std::string& detail = "");
  // Counts one attempted operation that returned an error status.
  void Error(const char* what, const pr::Status& status);

  int64_t attempted() const;
  int64_t failed() const;

 private:
  mutable std::mutex mu_;
  bool inject_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int reported_ = 0;
};

// ---------------------------------------------------------------------
// Span tracing. Spans live in memory (name, start, end, parent, request)
// and are written out once, when the run ends. A span opened while
// another is open on the same thread becomes its child. When the tracer
// is disabled a Span costs one branch.

struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the span list, -1 for a root
  int64_t request = 0;
};

class Tracer {
 public:
  static Tracer& Get();

  void SetEnabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  int32_t Open(const char* name, int64_t request);
  void Close(int32_t index);

  // Durations (microseconds) of every closed span named `name`.
  Samples Durations(const std::string& name) const;
  // Per-name totals of span time and self time (span minus the time its
  // direct children cover), in milliseconds, plus counts.
  struct Totals {
    int64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Totals> SelfTimes() const;
  // Writes every span as one JSON object per line.
  bool Dump(const std::string& path) const;
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::vector<SpanRecord> spans_;
};

class Span {
 public:
  explicit Span(const char* name, int64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int32_t index_ = -1;
};

// ---------------------------------------------------------------------
// Metric sink: collects named metrics and prints the result line.

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  // Human-readable lines go to stdout before the result line.
  static void Note(const char* format, ...);
  // Prints the final JSON line; `correct` is false when any check failed.
  void Print(bool correct, int64_t attempted, int64_t failed) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

double PeakRssMb();

// ---------------------------------------------------------------------
// Seeded inputs. Each generator is deterministic in the workload seed;
// the library only ever sees the generated records.

// The GIST-like Hamming dataset of the serve, churn and shard-batch
// workloads: d = 256, bit_bias 0.3, planted clusters.
struct VectorSet {
  std::vector<pr::BitVector> records;
  int tau = 0;
  int chain_length = 0;
};
VectorSet ServeVectors(uint64_t seed, int num_records = 100000);
// The join workload's Hamming dataset: d = 128, 20k records.
VectorSet JoinVectors(uint64_t seed);

std::vector<std::vector<int>> JoinSets(uint64_t seed);
std::vector<std::string> JoinStrings(uint64_t seed);
std::vector<pr::graphed::Graph> JoinGraphs(uint64_t seed);

// Record ids sampled (with replacement, deterministically) as queries —
// the paper's protocol of drawing queries from the dataset.
std::vector<int> SampleIds(int num_records, int count, uint64_t seed);

pr::api::IndexSpec HammingSpec(const VectorSet& set);
pr::api::IndexSpec SetSpec();
pr::api::IndexSpec StringSpec();
pr::api::IndexSpec GraphSpec();

// Unwraps a StatusOr in set-up code, where a failure means the benchmark
// cannot run at all: prints the status and exits nonzero.
[[noreturn]] void Die(const char* what, const pr::Status& status);

template <typename T>
T Must(pr::StatusOr<T> value, const char* what) {
  if (!value.ok()) Die(what, value.status());
  return std::move(value).value();
}
inline void Must(const pr::Status& status, const char* what) {
  if (!status.ok()) Die(what, status);
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
