// The scatter-gather coordinator every api::Db serves through (ROADMAP
// item 4).
//
// A Fleet is the serving-time shape of one collection: the partitioner and
// one const searcher per nonempty shard, which every reader shares (the
// searchers keep their per-query scratch per thread). At shards = 1 the
// single shard is a copy of the built prototype adapter (index state
// shared behind shared_ptr, global ids [0, N)); at S > 1 the shards are
// projected out of it (see shard/split.h). Shards 1..S-1 each own an
// engine::Executor, so shards run their data-parallel loops on disjoint
// thread pools (shard-per-core locality; a shared pool would serialize the
// per-shard loops, see common/thread_pool.h). Shard 0 owns none: the
// coordinator runs it on the caller's executor.
//
// The scatter drivers mirror engine/engine.h's merge contracts exactly, so
// the gathered answer is byte-identical to engine::SearchBatch / SelfJoin
// over the full adapter at any shard count and any thread count:
//
//  * ScatterSearchOne / ScatterSearchBatch: every shard searches the same
//    query; local hits are remapped through the shard's ascending
//    global-id list and merged (each domain returns sorted ids, so the
//    merged union equals the unsharded sorted result; one shard's hits
//    pass through as they are). Stats are summed in ascending shard order
//    with the existing QueryStats::operator+= —
//    integral counters partition exactly across shards (split.h explains
//    why), so the sums reproduce the unsharded counters.
//  * ScatterSelfJoin: shard s answers the join tile "all N probes vs my
//    records" with engine::SelfJoin's own loop (engine::internal::
//    JoinProbes). Probes come from the *full* collection (`full.query(g)`),
//    so every (probe, record) pair is examined exactly once fleet-wide, on
//    the record's owner shard. The trivial self-candidate g == g surfaces
//    only on g's owner shard and is dropped there; concatenated pair
//    buffers are sorted + deduplicated into the same canonical order.
//
// Concurrency: the batch and join drivers Submit one job per shard 1..S-1
// to that shard's executor, run shard 0 themselves on the caller's
// ExecutionContext, then block on a latch for the rest. Every shard gets
// the caller's loop width divided across the S shards (floor, min 1), so
// concurrent shards do not oversubscribe the machine S-fold. An S = 1 call
// therefore submits nothing and runs exactly like engine::SearchBatch on
// the caller's executor; an S-shard call submits S-1 jobs. Each job drives
// ParallelFor on its own shard's pool, so jobs never contend for loop
// workers, and no job ever waits on the caller's pool — the caller may
// itself be a dispatcher of that pool's executor (Session::SubmitBatch)
// without a cycle. Jobs capture only stack-local state of the blocked
// caller.
//
// This header is deliberately narrow: the coordinator needs only
// (global_ids, Search, executor) per shard, so a follow-up can put a
// net::Client-backed remote shard behind the same shape for multi-node.

#ifndef PIGEONRING_SHARD_SCATTER_H_
#define PIGEONRING_SHARD_SCATTER_H_

#include <algorithm>
#include <cstddef>
#include <exception>
#include <latch>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/timer.h"
#include "engine/engine.h"
#include "shard/partitioner.h"
#include "shard/split.h"

namespace pigeonring::shard {

/// One collection, ready to serve: always at least one shard. Immutable
/// after assembly and shared between readers behind shared_ptr<const
/// Fleet>; the executors are internally synchronized (the same
/// const-DbState pattern the api layer uses).
template <engine::Searcher S>
struct Fleet {
  struct Shard {
    std::vector<int> global_ids;  // local id -> global id, ascending
    S adapter;                    // const; every reader searches it
    std::shared_ptr<const void> backing;
    // Null for shard 0, which runs on the caller's executor.
    std::unique_ptr<engine::Executor> executor;
  };

  Partitioner partitioner;
  int num_records = 0;
  std::vector<Shard> shards;  // nonempty shards, ascending shard id
};

/// Assembles a fleet from at least one part; every part but the first
/// gets its own single-thread executor.
template <engine::Searcher S>
std::shared_ptr<const Fleet<S>> MakeFleet(const Partitioner& partitioner,
                                          int num_records,
                                          std::vector<ShardPart<S>> parts) {
  PR_CHECK(!parts.empty());
  auto fleet = std::make_shared<Fleet<S>>();
  fleet->partitioner = partitioner;
  fleet->num_records = num_records;
  fleet->shards.reserve(parts.size());
  for (ShardPart<S>& part : parts) {
    fleet->shards.push_back(
        {std::move(part.global_ids), std::move(part.adapter),
         std::move(part.backing),
         fleet->shards.empty() ? nullptr
                               : std::make_unique<engine::Executor>(1)});
  }
  return fleet;
}

namespace internal {

/// Remaps shard `s`'s ascending local hits to global ids in place and
/// merges them into the ascending `out`; the first hits move in uncopied.
template <engine::Searcher S>
void MergeGlobal(const Fleet<S>& fleet, size_t s, std::vector<int>&& local,
                 std::vector<int>& out) {
  const std::vector<int>& global_ids = fleet.shards[s].global_ids;
  for (int& id : local) id = global_ids[static_cast<size_t>(id)];
  if (out.empty()) {
    out = std::move(local);
    return;
  }
  const auto mid = static_cast<std::ptrdiff_t>(out.size());
  out.insert(out.end(), local.begin(), local.end());
  std::inplace_merge(out.begin(), out.begin() + mid, out.end());
}

/// Runs `job(s, context)` once per shard and returns when all are done:
/// shards 1..S-1 as jobs on their own executors, shard 0 inline on the
/// caller's executor (see the header comment). Each context carries the
/// caller's width divided across the shards.
template <engine::Searcher S, typename Job>
void ForEachShard(const Fleet<S>& fleet, const engine::ExecutionContext& ctx,
                  Job&& job) {
  const size_t num_shards = fleet.shards.size();
  engine::ExecutionOptions options;
  options.num_threads =
      std::max(1, ctx.num_threads() / static_cast<int>(num_shards));
  options.chunk = static_cast<int>(ctx.chunk());
  std::latch done(static_cast<ptrdiff_t>(num_shards) - 1);
  for (size_t s = 1; s < num_shards; ++s) {
    engine::Executor& executor = *fleet.shards[s].executor;
    executor.Submit([&, s] {
      job(s, engine::ExecutionContext(executor, options));
      done.count_down();
    });
  }
  // The submitted jobs reference this frame: never unwind past them.
  std::exception_ptr error;
  try {
    job(size_t{0}, engine::ExecutionContext(ctx.executor(), options));
  } catch (...) {
    error = std::current_exception();
  }
  done.wait();
  if (error) std::rethrow_exception(error);
}

}  // namespace internal

/// Sequential scatter for one query (single-query latency does not warrant
/// a fan-out; the per-shard loops already are the parallelism).
template <engine::Searcher S>
std::vector<int> ScatterSearchOne(const Fleet<S>& fleet,
                                  const typename S::Query& query,
                                  engine::QueryStats* stats = nullptr) {
  engine::QueryStats merged;
  std::vector<int> ids;
  for (size_t s = 0; s < fleet.shards.size(); ++s) {
    engine::QueryStats shard_stats;
    internal::MergeGlobal(
        fleet, s, fleet.shards[s].adapter.Search(query, &shard_stats), ids);
    merged += shard_stats;
  }
  if (stats != nullptr) *stats = merged;
  return ids;
}

/// Scatters the whole batch to every shard, gathers per query. Blocks
/// until every shard has answered.
template <engine::Searcher S>
std::vector<std::vector<int>> ScatterSearchBatch(
    const Fleet<S>& fleet, const std::vector<typename S::Query>& queries,
    const engine::ExecutionContext& ctx,
    engine::QueryStats* stats = nullptr) {
  const size_t num_shards = fleet.shards.size();
  std::vector<std::vector<std::vector<int>>> shard_results(num_shards);
  std::vector<engine::QueryStats> shard_stats(num_shards);
  internal::ForEachShard(
      fleet, ctx, [&](size_t s, const engine::ExecutionContext& context) {
        shard_results[s] = engine::SearchBatch(
            fleet.shards[s].adapter, queries, context, &shard_stats[s]);
      });

  std::vector<std::vector<int>> results(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    for (size_t s = 0; s < num_shards; ++s) {
      internal::MergeGlobal(fleet, s, std::move(shard_results[s][q]),
                            results[q]);
    }
  }
  if (stats != nullptr) {
    engine::QueryStats merged;
    for (const engine::QueryStats& p : shard_stats) merged += p;
    *stats = merged;
  }
  return results;
}

/// Scatters the self-join as one "all probes vs my records" tile per shard,
/// gathers into the canonical sorted unique pair list. `full` supplies the
/// probe queries (the full collection's record g viewed as a query);
/// read-only and shared across shard jobs.
template <engine::Searcher S>
std::vector<engine::IdPair> ScatterSelfJoin(
    const Fleet<S>& fleet, const S& full, const engine::ExecutionContext& ctx,
    engine::JoinStats* stats = nullptr) {
  StopWatch watch;
  const size_t num_shards = fleet.shards.size();
  std::vector<std::vector<engine::IdPair>> shard_pairs(num_shards);
  std::vector<engine::QueryStats> shard_stats(num_shards);
  internal::ForEachShard(
      fleet, ctx, [&](size_t s, const engine::ExecutionContext& context) {
        shard_pairs[s] = engine::internal::JoinProbes(
            full, fleet.shards[s].adapter, &fleet.shards[s].global_ids,
            context, &shard_stats[s]);
      });
  engine::QueryStats counters;
  for (const engine::QueryStats& p : shard_stats) counters += p;
  std::vector<engine::IdPair> pairs = engine::internal::Concat(shard_pairs);
  engine::internal::FinishJoin(pairs, counters, watch, stats);
  return pairs;
}

}  // namespace pigeonring::shard

#endif  // PIGEONRING_SHARD_SCATTER_H_
