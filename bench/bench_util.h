// Shared helpers for the figure-reproduction benchmarks.
//
// Every bench binary prints one table per figure panel with the same series
// the paper reports. Dataset sizes are laptop-scale; set the environment
// variable PIGEONRING_BENCH_SCALE (e.g. 0.2 or 2.0) to shrink or grow every
// dataset and query batch proportionally.

#ifndef PIGEONRING_BENCH_BENCH_UTIL_H_
#define PIGEONRING_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/db.h"
#include "common/table.h"

namespace pigeonring::bench {

/// Global size multiplier from PIGEONRING_BENCH_SCALE (default 1.0).
inline double Scale() {
  static const double scale = [] {
    const char* env = std::getenv("PIGEONRING_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    const double v = std::atof(env);
    return v > 0 ? v : 1.0;
  }();
  return scale;
}

/// Applies the scale to a nominal count (minimum 1).
inline int Scaled(int nominal) {
  const int v = static_cast<int>(nominal * Scale());
  return v < 1 ? 1 : v;
}

/// Accumulates per-query stats and reports averages.
struct Avg {
  double sum = 0;
  int n = 0;
  void Add(double v) {
    sum += v;
    ++n;
  }
  double Mean() const { return n == 0 ? 0 : sum / n; }
};

/// One row of a join-scaling run: wall time at a thread count.
struct JoinTiming {
  int threads = 1;
  double millis = 0;
};

/// Unwraps a StatusOr in bench context, aborting on error.
template <typename T>
inline T BenchUnwrap(StatusOr<T> value, const char* what) {
  if (!value.ok()) {
    std::fprintf(stderr, "FATAL: %s: %s\n", what,
                 value.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(value).value();
}

/// Self-joins `db` through the public api::Db facade sequentially and at
/// each count in `thread_counts`, aborts if any parallel run diverges from
/// the sequential pairs, and prints a threads / pairs / time / speedup
/// table titled `title`. Returns the timings (sequential run first) so
/// callers can export them.
inline std::vector<JoinTiming> RunDbJoinScalingTable(
    const std::string& title, const api::Db& db,
    const std::vector<int>& thread_counts, int64_t* pairs_out = nullptr) {
  const auto join_at = [&db](int threads) {
    api::RunOptions options;
    options.num_threads = threads;
    api::Session session = db.NewSession();
    return BenchUnwrap(session.SelfJoin(options), "SelfJoin");
  };
  const api::JoinResult sequential = join_at(1);
  const double seq_millis = sequential.stats.total_millis;
  std::vector<JoinTiming> timings = {{1, seq_millis}};
  Table table(title, {"threads", "pairs", "time (ms)", "speedup"});
  table.AddRow({"1", Table::Int(sequential.stats.pairs),
                Table::Num(seq_millis, 1), "1.00x"});
  for (int threads : thread_counts) {
    const api::JoinResult join = join_at(threads);
    if (join.pairs != sequential.pairs) {
      std::fprintf(stderr, "FATAL: %d-thread join diverged from sequential\n",
                   threads);
      std::exit(1);
    }
    const double millis = join.stats.total_millis;
    timings.push_back({threads, millis});
    table.AddRow({Table::Int(threads), Table::Int(join.stats.pairs),
                  Table::Num(millis, 1),
                  Table::Num(seq_millis / std::max(1e-9, millis), 2) + "x"});
  }
  table.Print();
  std::printf("\n");
  if (pairs_out != nullptr) *pairs_out = sequential.stats.pairs;
  return timings;
}

}  // namespace pigeonring::bench

#endif  // PIGEONRING_BENCH_BENCH_UTIL_H_
