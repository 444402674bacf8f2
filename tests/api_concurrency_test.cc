// Concurrency tests for the shared-Db / per-caller-Session redesign.
//
// The load-bearing suites:
//  * ConcurrentSessions*: N threads share one Db, each through its own
//    Session, running the same search batch and self-join — every thread's
//    ids, pairs, and deterministic counters must be byte-identical to the
//    sequential single-session reference, in all four domains.
//    One case runs on a shards = 2 database, where every client thread
//    coordinates its own scatter.
//  * Async*: Session::SubmitBatch / SubmitSelfJoin futures must carry
//    exactly the synchronous results (also on a shards = 2 database, where
//    the snapshot dispatcher runs shard 0), be harvestable out of
//    submission order and from overlapping submissions, and resolve
//    validation errors without reaching the executor.
//  * OneThreadManyDatabases: the searchers keep their per-query scratch
//    per thread, so one thread hopping between databases of different
//    sizes and domains must still answer every query like brute force.
//  * Snapshot lifetime: Sessions (and in-flight futures) pin the snapshot,
//    so they keep working after every Db handle is gone.
//
// This binary runs under TSan and ASan/UBSan in CI — keep the datasets
// small.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/db.h"
#include "api_test_util.h"
#include "datagen/binary_vectors.h"
#include "datagen/graphs.h"
#include "datagen/strings.h"
#include "datagen/token_sets.h"
#include "editdist/pivotal.h"
#include "graphed/pars.h"
#include "hamming/search.h"
#include "setsim/pkwise.h"
#include "setsim/record.h"

namespace pigeonring::api {
namespace {

constexpr int kClientThreads = 4;

Db OpenOrDie(const IndexSpec& spec, Dataset dataset) {
  auto opened = Db::Open(spec, std::move(dataset));
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened).value();
}

Db OpenHamming(int shards = 1) {
  datagen::BinaryVectorConfig config;
  config.dimensions = 64;
  config.num_objects = 250;
  config.num_clusters = 15;
  config.cluster_fraction = 0.6;
  config.flip_rate = 0.05;
  config.seed = 1701;
  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 8;
  spec.chain_length = 3;
  spec.shards = shards;
  return OpenOrDie(spec, Dataset(datagen::GenerateBinaryVectors(config)));
}

Db OpenSets() {
  datagen::TokenSetConfig config;
  config.num_records = 250;
  config.avg_tokens = 12;
  config.universe_size = 700;
  config.duplicate_fraction = 0.4;
  config.seed = 1703;
  IndexSpec spec;
  spec.domain = Domain::kSet;
  spec.tau = 0.7;
  spec.chain_length = 2;
  return OpenOrDie(spec, Dataset(datagen::GenerateTokenSets(config)));
}

Db OpenStrings() {
  datagen::StringConfig config;
  config.num_records = 200;
  config.avg_length = 14;
  config.duplicate_fraction = 0.4;
  config.max_perturb_edits = 2;
  config.seed = 1705;
  IndexSpec spec;
  spec.domain = Domain::kEdit;
  spec.tau = 2;
  spec.chain_length = 3;
  return OpenOrDie(spec, Dataset(datagen::GenerateStrings(config)));
}

Db OpenStringsFastPath() {
  datagen::StringConfig config;
  config.num_records = 200;
  config.fixed_length = 12;
  config.duplicate_fraction = 0.4;
  config.max_perturb_edits = 2;
  config.seed = 1706;
  IndexSpec spec;
  spec.domain = Domain::kEdit;
  spec.tau = 2;
  spec.chain_length = 3;
  spec.edit_fast_path = EditFastPath::kOn;
  return OpenOrDie(spec, Dataset(datagen::GenerateStrings(config)));
}

Db OpenGraphs() {
  datagen::GraphConfig config;
  config.num_graphs = 50;
  config.avg_vertices = 8;
  config.avg_edges = 9;
  config.vertex_labels = 8;
  config.duplicate_fraction = 0.4;
  config.max_perturb_ops = 2;
  config.seed = 1707;
  IndexSpec spec;
  spec.domain = Domain::kGraph;
  spec.tau = 2;
  spec.chain_length = 2;
  return OpenOrDie(spec, Dataset(datagen::GenerateGraphs(config)));
}

std::vector<Query> SampleQueries(const Db& db, int count) {
  std::vector<Query> queries;
  const int n = db.num_records();
  for (int i = 0; i < count; ++i) {
    auto query = db.RecordQuery((i * 7) % n);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    queries.push_back(std::move(query).value());
  }
  return queries;
}

// N client threads over one shared Db, each with its own Session, each
// running the same batch (at 2 intra-call threads, to also exercise the
// shared executor's loop path) and the same self-join — byte-identical to
// the sequential single-session reference.
void ExpectConcurrentSessionsMatchSequential(const Db& db) {
  const std::vector<Query> queries = SampleQueries(db, 24);

  Session reference_session = db.NewSession();
  auto reference_batch = reference_session.SearchBatch(queries);
  ASSERT_TRUE(reference_batch.ok()) << reference_batch.status().ToString();
  auto reference_join = reference_session.SelfJoin();
  ASSERT_TRUE(reference_join.ok()) << reference_join.status().ToString();

  RunOptions options;
  options.num_threads = 2;
  options.chunk = 3;
  std::vector<std::optional<StatusOr<BatchResult>>> batches(kClientThreads);
  std::vector<std::optional<StatusOr<JoinResult>>> joins(kClientThreads);
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClientThreads; ++c) {
      clients.emplace_back([&, c] {
        Session session = db.NewSession();
        batches[c].emplace(session.SearchBatch(queries, options));
        joins[c].emplace(session.SelfJoin(options));
      });
    }
    for (std::thread& t : clients) t.join();
  }
  for (int c = 0; c < kClientThreads; ++c) {
    ASSERT_TRUE(batches[c]->ok()) << (*batches[c]).status().ToString();
    EXPECT_EQ((*batches[c])->ids, reference_batch->ids) << "client " << c;
    ExpectSameCounters((*batches[c])->stats, reference_batch->stats);
    ASSERT_TRUE(joins[c]->ok()) << (*joins[c]).status().ToString();
    EXPECT_EQ((*joins[c])->pairs, reference_join->pairs) << "client " << c;
    EXPECT_EQ((*joins[c])->stats.candidates,
              reference_join->stats.candidates);
  }
}

TEST(ConcurrentSessionsTest, Hamming) {
  ExpectConcurrentSessionsMatchSequential(OpenHamming());
}

TEST(ConcurrentSessionsTest, ShardedHamming) {
  // Each client thread coordinates its own scatter: shard 0 on the shared
  // snapshot executor, shard 1 on the shard's executor, both at 1 thread.
  ExpectConcurrentSessionsMatchSequential(OpenHamming(/*shards=*/2));
}

TEST(ConcurrentSessionsTest, Sets) {
  ExpectConcurrentSessionsMatchSequential(OpenSets());
}

TEST(ConcurrentSessionsTest, Strings) {
  ExpectConcurrentSessionsMatchSequential(OpenStrings());
}

TEST(ConcurrentSessionsTest, StringsFastPath) {
  // Every engine thread searches the one CaseDecSearcher, each with its own
  // per-thread dedup and Hamming scratch — the batch and join here are
  // what TSan watches for cross-thread scratch sharing.
  ExpectConcurrentSessionsMatchSequential(OpenStringsFastPath());
}

TEST(ConcurrentSessionsTest, Graphs) {
  ExpectConcurrentSessionsMatchSequential(OpenGraphs());
}

// --- one thread, many databases ---
//
// A searcher type keeps one scratch per thread, grown to the largest
// collection that thread has probed. One thread alternating between
// databases of different sizes and domains must still answer exactly,
// through Search and through SearchBatch run inline (num_threads 1) and on
// the pool (num_threads 4). The edit fast path's per-case searchers are
// Hamming searchers, so they share the thread's Hamming scratch with the
// Hamming databases, at a different row count.

struct BruteForceCase {
  std::string name;
  Db db;
  std::function<std::vector<int>(const Query&)> brute_force;
};

BruteForceCase HammingCase(int n, uint64_t seed) {
  datagen::BinaryVectorConfig config;
  config.dimensions = 64;
  config.num_objects = n;
  config.num_clusters = 6;
  config.cluster_fraction = 0.6;
  config.flip_rate = 0.05;
  config.seed = seed;
  auto vectors = std::make_shared<const std::vector<BitVector>>(
      datagen::GenerateBinaryVectors(config));
  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 8;
  spec.chain_length = 3;
  return {"hamming" + std::to_string(n), OpenOrDie(spec, Dataset(*vectors)),
          [vectors](const Query& q) {
            return hamming::BruteForceSearch(*vectors, std::get<BitVector>(q),
                                             8);
          }};
}

BruteForceCase SetCase(int n, uint64_t seed) {
  datagen::TokenSetConfig config;
  config.num_records = n;
  config.avg_tokens = 12;
  config.universe_size = 3 * n;
  config.duplicate_fraction = 0.4;
  config.seed = seed;
  const std::vector<std::vector<int>> raw = datagen::GenerateTokenSets(config);
  auto collection = std::make_shared<const setsim::SetCollection>(raw);
  IndexSpec spec;
  spec.domain = Domain::kSet;
  spec.tau = 0.7;
  spec.chain_length = 2;
  return {"sets" + std::to_string(n), OpenOrDie(spec, Dataset(raw)),
          [collection](const Query& q) {
            return setsim::BruteForceJaccardSearch(
                *collection,
                collection->MapQuery(std::get<SetQuery>(q).tokens), 0.7);
          }};
}

BruteForceCase StringCase(int n, uint64_t seed, int fixed_length) {
  datagen::StringConfig config;
  config.num_records = n;
  config.avg_length = 14;
  config.fixed_length = fixed_length;
  config.duplicate_fraction = 0.4;
  config.max_perturb_edits = 2;
  config.seed = seed;
  auto strings = std::make_shared<const std::vector<std::string>>(
      datagen::GenerateStrings(config));
  IndexSpec spec;
  spec.domain = Domain::kEdit;
  spec.tau = 2;
  spec.chain_length = 3;
  spec.edit_fast_path =
      fixed_length > 0 ? EditFastPath::kOn : EditFastPath::kOff;
  return {(fixed_length > 0 ? "strings_fast" : "strings") + std::to_string(n),
          OpenOrDie(spec, Dataset(*strings)), [strings](const Query& q) {
            return editdist::BruteForceEditSearch(
                *strings, std::get<std::string>(q), 2);
          }};
}

BruteForceCase GraphCase(int n, uint64_t seed) {
  datagen::GraphConfig config;
  config.num_graphs = n;
  config.avg_vertices = 8;
  config.avg_edges = 9;
  config.vertex_labels = 8;
  config.duplicate_fraction = 0.4;
  config.max_perturb_ops = 2;
  config.seed = seed;
  auto graphs = std::make_shared<const std::vector<graphed::Graph>>(
      datagen::GenerateGraphs(config));
  IndexSpec spec;
  spec.domain = Domain::kGraph;
  spec.tau = 2;
  spec.chain_length = 2;
  return {"graphs" + std::to_string(n), OpenOrDie(spec, Dataset(*graphs)),
          [graphs](const Query& q) {
            return graphed::BruteForceGedSearch(
                *graphs, std::get<graphed::Graph>(q), 2);
          }};
}

TEST(OneThreadManyDatabasesTest, AlternatingSearchAndBatchMatchBruteForce) {
  std::vector<BruteForceCase> cases;
  cases.push_back(HammingCase(300, 1711));
  cases.push_back(StringCase(120, 1712, /*fixed_length=*/12));
  cases.push_back(HammingCase(30, 1713));
  cases.push_back(SetCase(200, 1714));
  cases.push_back(StringCase(20, 1715, /*fixed_length=*/8));
  cases.push_back(StringCase(80, 1716, /*fixed_length=*/0));
  cases.push_back(SetCase(25, 1717));
  cases.push_back(GraphCase(30, 1718));

  std::vector<std::vector<Query>> queries;
  std::vector<std::vector<std::vector<int>>> expected;
  for (const BruteForceCase& c : cases) {
    queries.push_back(SampleQueries(c.db, 6));
    expected.emplace_back();
    for (const Query& q : queries.back()) {
      expected.back().push_back(c.brute_force(q));
    }
  }

  std::vector<Session> sessions;
  for (const BruteForceCase& c : cases) sessions.push_back(c.db.NewSession());
  for (int round = 0; round < 2; ++round) {
    for (size_t k = 0; k < cases.size(); ++k) {
      SCOPED_TRACE(cases[k].name + " round " + std::to_string(round));
      for (size_t i = 0; i < queries[k].size(); ++i) {
        auto one = sessions[k].Search(queries[k][i]);
        ASSERT_TRUE(one.ok()) << one.status().ToString();
        EXPECT_EQ(one->ids, expected[k][i]) << "query " << i;
      }
      for (int threads : {1, 4}) {
        RunOptions options;
        options.num_threads = threads;
        options.chunk = 1;
        auto batch = sessions[k].SearchBatch(queries[k], options);
        ASSERT_TRUE(batch.ok()) << batch.status().ToString();
        EXPECT_EQ(batch->ids, expected[k]) << "threads " << threads;
      }
    }
  }
}

TEST(AsyncSubmissionTest, FuturesCarryTheSynchronousResults) {
  const Db db = OpenHamming();
  Session session = db.NewSession();
  const std::vector<Query> queries = SampleQueries(db, 16);
  auto expected = session.SearchBatch(queries);
  ASSERT_TRUE(expected.ok());

  auto future = session.SubmitBatch(queries);
  ASSERT_TRUE(future.valid());
  auto result = future.Get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ids, expected->ids);
  ExpectSameCounters(result->stats, expected->stats);
  EXPECT_FALSE(future.valid()) << "Get() is one-shot";
  // Misuse stays a Status, never a thrown std::future_error.
  EXPECT_EQ(future.Get().status().code(), StatusCode::kFailedPrecondition);
  future.Wait();  // no-op, must not throw
  EXPECT_EQ(Future<BatchResult>().Get().status().code(),
            StatusCode::kFailedPrecondition);

  auto join_future = session.SubmitSelfJoin();
  auto sync_join = session.SelfJoin();
  ASSERT_TRUE(sync_join.ok());
  auto async_join = join_future.Get();
  ASSERT_TRUE(async_join.ok()) << async_join.status().ToString();
  EXPECT_EQ(async_join->pairs, sync_join->pairs);
}

TEST(AsyncSubmissionTest, ShardedSubmissionsCarryTheSequentialResults) {
  // A submission's job runs on a snapshot dispatcher thread, which then
  // coordinates the scatter: shard 0 runs right there, on the snapshot
  // executor's pool, while shard 1 runs on its own executor.
  const Db db = OpenHamming(/*shards=*/2);
  Session session = db.NewSession();
  const std::vector<Query> queries = SampleQueries(db, 16);
  auto expected = session.SearchBatch(queries);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto expected_join = session.SelfJoin();
  ASSERT_TRUE(expected_join.ok()) << expected_join.status().ToString();

  for (int threads : {1, 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    RunOptions options;
    options.num_threads = threads;
    auto batch_future = session.SubmitBatch(queries, options);
    auto join_future = session.SubmitSelfJoin(options);
    auto batch = batch_future.Get();
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch->ids, expected->ids);
    ExpectSameCounters(batch->stats, expected->stats);
    auto join = join_future.Get();
    ASSERT_TRUE(join.ok()) << join.status().ToString();
    EXPECT_EQ(join->pairs, expected_join->pairs);
    EXPECT_EQ(join->stats.pairs, expected_join->stats.pairs);
    EXPECT_EQ(join->stats.candidates, expected_join->stats.candidates);
  }
}

TEST(AsyncSubmissionTest, WaitForReportsReadinessWithoutConsuming) {
  const Db db = OpenHamming();
  Session session = db.NewSession();
  const std::vector<Query> queries = SampleQueries(db, 16);

  auto future = session.SubmitBatch(queries);
  ASSERT_TRUE(future.valid());
  // Poll to readiness: every wait is bounded, and readiness must arrive.
  while (!future.WaitFor(std::chrono::milliseconds(5))) {
  }
  // Ready means Get() will not block — and WaitFor did not consume it.
  EXPECT_TRUE(future.valid());
  EXPECT_TRUE(future.WaitFor(std::chrono::milliseconds(0)));
  auto result = future.Get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Empty and consumed handles report true immediately (Get() fails fast
  // on them), so drain loops of the form `while (!f.WaitFor(step))` always
  // terminate — the server's shutdown path depends on this.
  EXPECT_TRUE(future.WaitFor(std::chrono::milliseconds(0)));
  EXPECT_TRUE(Future<BatchResult>().WaitFor(std::chrono::hours(1)));

  // An invalid submission resolves up front, so it is ready at once.
  RunOptions bad_options;
  bad_options.chunk = 0;
  auto invalid = session.SubmitBatch(queries, bad_options);
  EXPECT_TRUE(invalid.WaitFor(std::chrono::milliseconds(0)));
  EXPECT_EQ(invalid.Get().status().code(), StatusCode::kInvalidArgument);
}

TEST(AsyncSubmissionTest, FuturesHarvestOutOfSubmissionOrder) {
  const Db db = OpenHamming();
  Session session = db.NewSession();

  // Distinct per-submission batches so a mixed-up future would be caught.
  constexpr int kSubmissions = 6;
  std::vector<std::vector<Query>> batches;
  std::vector<std::vector<std::vector<int>>> expected;
  for (int s = 0; s < kSubmissions; ++s) {
    batches.push_back(SampleQueries(db, 4 + s));
    auto reference = session.SearchBatch(batches.back());
    ASSERT_TRUE(reference.ok());
    expected.push_back(reference->ids);
  }

  std::vector<Future<BatchResult>> futures;
  for (int s = 0; s < kSubmissions; ++s) {
    futures.push_back(session.SubmitBatch(batches[s]));
  }
  // Harvest newest-first: completion order must not matter.
  for (int s = kSubmissions - 1; s >= 0; --s) {
    auto result = futures[s].Get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->ids, expected[s]) << "submission " << s;
  }
}

TEST(AsyncSubmissionTest, SubmissionsOverlapSyncCallsAndEachOther) {
  const Db db = OpenSets();
  Session session = db.NewSession();
  const std::vector<Query> queries = SampleQueries(db, 12);
  auto expected_batch = session.SearchBatch(queries);
  ASSERT_TRUE(expected_batch.ok());
  auto expected_join = session.SelfJoin();
  ASSERT_TRUE(expected_join.ok());

  // In-flight submissions while the same session keeps issuing sync calls:
  // each dispatcher thread has its own scratch, so nothing may interfere.
  auto join_future = session.SubmitSelfJoin();
  auto batch_future = session.SubmitBatch(queries);
  for (int i = 0; i < 3; ++i) {
    auto sync = session.SearchBatch(queries);
    ASSERT_TRUE(sync.ok());
    EXPECT_EQ(sync->ids, expected_batch->ids);
  }
  auto async_batch = batch_future.Get();
  ASSERT_TRUE(async_batch.ok());
  EXPECT_EQ(async_batch->ids, expected_batch->ids);
  auto async_join = join_future.Get();
  ASSERT_TRUE(async_join.ok());
  EXPECT_EQ(async_join->pairs, expected_join->pairs);
}

TEST(AsyncSubmissionTest, ManySessionsSubmitConcurrently) {
  const Db db = OpenStrings();
  Session reference_session = db.NewSession();
  const std::vector<Query> queries = SampleQueries(db, 10);
  auto expected = reference_session.SearchBatch(queries);
  ASSERT_TRUE(expected.ok());

  std::vector<std::optional<StatusOr<BatchResult>>> results(kClientThreads);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClientThreads; ++c) {
    clients.emplace_back([&, c] {
      Session session = db.NewSession();
      auto future = session.SubmitBatch(queries);
      results[c].emplace(future.Get());
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClientThreads; ++c) {
    ASSERT_TRUE(results[c]->ok()) << (*results[c]).status().ToString();
    EXPECT_EQ((*results[c])->ids, expected->ids) << "client " << c;
  }
}

TEST(AsyncSubmissionTest, InvalidSubmissionsResolveWithoutRunning) {
  const Db db = OpenHamming();
  Session session = db.NewSession();

  RunOptions bad_options;
  bad_options.chunk = 0;
  auto bad_chunk = session.SubmitBatch(SampleQueries(db, 2), bad_options);
  ASSERT_TRUE(bad_chunk.valid());
  EXPECT_EQ(bad_chunk.Get().status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(session.SubmitSelfJoin(bad_options).Get().status().code(),
            StatusCode::kInvalidArgument);

  // A mismatched query anywhere fails the whole submission with its index.
  std::vector<Query> queries = SampleQueries(db, 1);
  queries.push_back(Query(std::string("not a bit vector")));
  auto mismatch = session.SubmitBatch(queries).Get();
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(mismatch.status().message().find("query 1"), std::string::npos);
}

TEST(SnapshotLifetimeTest, SessionsOutliveEveryDbHandle) {
  std::optional<Db> db(OpenHamming());
  const std::vector<Query> queries = SampleQueries(*db, 8);
  Session session = db->NewSession();
  auto expected = session.SearchBatch(queries);
  ASSERT_TRUE(expected.ok());

  Future<BatchResult> in_flight = session.SubmitBatch(queries);
  db.reset();  // the session and its in-flight future pin the snapshot

  auto async = in_flight.Get();
  ASSERT_TRUE(async.ok()) << async.status().ToString();
  EXPECT_EQ(async->ids, expected->ids);

  auto after = session.SearchBatch(queries);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->ids, expected->ids);
  auto join = session.SelfJoin();
  EXPECT_TRUE(join.ok());
}

TEST(SnapshotLifetimeTest, DbCopiesShareTheSnapshot) {
  const Db db = OpenSets();
  const Db copy = db;  // a second handle, not a second index
  EXPECT_EQ(copy.num_records(), db.num_records());
  const std::vector<Query> queries = SampleQueries(db, 6);
  Session a = db.NewSession();
  Session b = copy.NewSession();
  auto ra = a.SearchBatch(queries);
  auto rb = b.SearchBatch(queries);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->ids, rb->ids);
  ExpectSameCounters(ra->stats, rb->stats);
}

}  // namespace
}  // namespace pigeonring::api
