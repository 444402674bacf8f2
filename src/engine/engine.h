// The unified query engine: batch and self-join drivers over any Searcher.
//
// Both drivers shard work over the ExecutionContext's pool, and every
// thread searches the one const Searcher the caller passed (searchers keep
// their per-query scratch per thread; see searcher.h), so no driver copies
// a searcher. Per-thread outputs merge deterministically:
//
//  * SearchBatch writes each query's result into its input slot, so the
//    output order is the input order regardless of scheduling.
//  * SelfJoin canonicalizes (sort + dedupe) the concatenated per-thread
//    pair buffers, so the result is byte-identical to the sequential
//    path's; merged counter sums are order-independent by construction.
//
// A loop width of 1 is the sequential reference path: no worker threads
// run and the loop executes inline on the caller.
//
// Both drivers borrow a persistent engine::Executor through the
// ExecutionContext (api::Db keeps one per opened snapshot) and construct
// no ThreadPool. One-shot callers build an Executor and a context
// themselves.

#ifndef PIGEONRING_ENGINE_ENGINE_H_
#define PIGEONRING_ENGINE_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/timer.h"
#include "engine/executor.h"
#include "engine/query_stats.h"
#include "engine/searcher.h"

namespace pigeonring::engine {

namespace internal {

/// Concatenates per-thread (or per-shard) pair buffers in order.
inline std::vector<IdPair> Concat(
    const std::vector<std::vector<IdPair>>& parts) {
  size_t total = 0;
  for (const auto& part : parts) total += part.size();
  std::vector<IdPair> pairs;
  pairs.reserve(total);
  for (const auto& part : parts) {
    pairs.insert(pairs.end(), part.begin(), part.end());
  }
  return pairs;
}

/// The one self-join loop (engine::SelfJoin, and each shard's tile in
/// shard::ScatterSelfJoin): searches every record of `probes` against
/// `records`, whose local hit l is global id `global_ids[l]` (l itself when
/// `global_ids` is null). Returns each hit as an ordered pair, unsorted and
/// possibly twice; adds the per-query counters into `*counters`. A probe's
/// trivial hit on itself (distance 0) is dropped together with its
/// candidate; with sharded records it surfaces only on the probe's owner
/// shard, so it is dropped exactly once fleet-wide.
template <Searcher S>
std::vector<IdPair> JoinProbes(const S& probes, const S& records,
                               const std::vector<int>* global_ids,
                               const ExecutionContext& context,
                               QueryStats* counters) {
  const int width = context.num_threads();
  std::vector<std::vector<IdPair>> found(static_cast<size_t>(width));
  std::vector<QueryStats> partial(static_cast<size_t>(width));
  context.pool().ParallelFor(
      static_cast<int64_t>(probes.size()), context.chunk(), width,
      [&](int thread, int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          const int probe = static_cast<int>(i);
          QueryStats query_stats;
          for (int l : records.Search(probes.query(probe), &query_stats)) {
            const int id = global_ids ? (*global_ids)[l] : l;
            if (id == probe) {
              --query_stats.candidates;
              continue;
            }
            found[thread].push_back(
                {std::min(probe, id), std::max(probe, id)});
          }
          partial[thread] += query_stats;
        }
      });
  for (const QueryStats& p : partial) *counters += p;
  return Concat(found);
}

/// Sorts and dedupes `pairs` into the canonical join order and fills
/// `stats` (when given) from the summed counters and the call's watch.
inline void FinishJoin(std::vector<IdPair>& pairs, const QueryStats& counters,
                       const StopWatch& watch, JoinStats* stats) {
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  if (stats != nullptr) {
    stats->candidates = counters.candidates;
    stats->pairs = static_cast<int64_t>(pairs.size());
    stats->total_millis = watch.ElapsedMillis();
  }
}

}  // namespace internal

/// Runs every query through `searcher` and returns the result ids per
/// query, in input order. `stats`, if given, receives the sum of the
/// per-query counters (its *_millis fields are summed per-query times, not
/// wall-clock time).
template <Searcher S>
std::vector<std::vector<int>> SearchBatch(
    const S& searcher, const std::vector<typename S::Query>& queries,
    const ExecutionContext& context, QueryStats* stats = nullptr) {
  std::vector<QueryStats> partial(static_cast<size_t>(context.num_threads()));
  std::vector<std::vector<int>> results(queries.size());
  context.pool().ParallelFor(
      static_cast<int64_t>(queries.size()), context.chunk(),
      context.num_threads(),
      [&](int thread, int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          QueryStats query_stats;
          results[i] = searcher.Search(queries[i], &query_stats);
          partial[thread] += query_stats;
        }
      });
  if (stats != nullptr) {
    QueryStats merged;
    for (const QueryStats& p : partial) merged += p;
    *stats = merged;
  }
  return results;
}

/// Probes every record of `searcher`'s collection against the collection
/// itself and returns each unordered matching pair (i, j) with i < j
/// exactly once, sorted — the same canonical order at any loop width.
template <Searcher S>
std::vector<IdPair> SelfJoin(const S& searcher,
                             const ExecutionContext& context,
                             JoinStats* stats = nullptr) {
  StopWatch watch;
  QueryStats counters;
  std::vector<IdPair> pairs =
      internal::JoinProbes(searcher, searcher, nullptr, context, &counters);
  internal::FinishJoin(pairs, counters, watch, stats);
  return pairs;
}

}  // namespace pigeonring::engine

#endif  // PIGEONRING_ENGINE_ENGINE_H_
