// Tests for sharded scatter-gather execution (src/shard/).
//
// The load-bearing suite is the byte-identity pin: for every domain
// (including the edit fast path), a Db opened with shards in {2, 4} must
// answer SearchBatch / Search / SelfJoin with exactly the ids, pairs, and
// deterministic counters of the shards = 1 database, at several thread
// counts. Every Db serves through shard/scatter.h, so both sides of that
// pin run through the same drivers; api_test's DbGoldenDiffTest holds
// shards 1 and 2 to engine::SearchBatch / SelfJoin, code outside the
// scatter path. ScatterThreadsTest pins where each shard runs: shard 0 on
// the calling thread, shards 1..S-1 on their own executors. The rest
// covers the partitioner's mapping and codec, the shards <-> records edge
// cases (empty collection, one record, more shards than records), the
// Save/OpenIndex shard-map round-trip, the per-shard monitoring surface,
// and a writer-churn test that runs under TSan in CI (sharded readers
// scattering while a writer mutates).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "api/db.h"
#include "api_test_util.h"
#include "datagen/binary_vectors.h"
#include "datagen/graphs.h"
#include "datagen/strings.h"
#include "datagen/token_sets.h"
#include "shard/partitioner.h"
#include "shard/scatter.h"
#include "storage/bytes.h"
#include "test_scratch.h"

namespace pigeonring::api {
namespace {

Db OpenOrDie(const IndexSpec& spec, Dataset dataset) {
  auto opened = Db::Open(spec, std::move(dataset));
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened).value();
}

std::vector<BitVector> MakeVectors(int n, uint64_t seed) {
  datagen::BinaryVectorConfig config;
  config.dimensions = 64;
  config.num_objects = n;
  config.num_clusters = 12;
  config.cluster_fraction = 0.6;
  config.flip_rate = 0.05;
  config.seed = seed;
  return datagen::GenerateBinaryVectors(config);
}

std::vector<std::vector<int>> MakeSets(int n, uint64_t seed) {
  datagen::TokenSetConfig config;
  config.num_records = n;
  config.avg_tokens = 12;
  config.universe_size = 3 * n;
  config.duplicate_fraction = 0.4;
  config.seed = seed;
  return datagen::GenerateTokenSets(config);
}

std::vector<std::string> MakeStrings(int n, uint64_t seed, int fixed_length) {
  datagen::StringConfig config;
  config.num_records = n;
  config.avg_length = 14;
  config.duplicate_fraction = 0.4;
  config.max_perturb_edits = 2;
  config.fixed_length = fixed_length;
  config.seed = seed;
  return datagen::GenerateStrings(config);
}

std::vector<graphed::Graph> MakeGraphs(int n, uint64_t seed) {
  datagen::GraphConfig config;
  config.num_graphs = n;
  config.avg_vertices = 8;
  config.avg_edges = 9;
  config.vertex_labels = 8;
  config.duplicate_fraction = 0.4;
  config.max_perturb_ops = 2;
  config.seed = seed;
  return datagen::GenerateGraphs(config);
}

// One spec + dataset per domain; the edit domain appears twice (pivotal
// grams and the fixed-length fast path are distinct index structures, so
// both get the identity pin).
struct DomainCase {
  std::string name;
  IndexSpec spec;
  Dataset dataset;
};

std::vector<DomainCase> MakeDomainCases(int n) {
  std::vector<DomainCase> cases;
  {
    IndexSpec spec;
    spec.domain = Domain::kHamming;
    spec.tau = 8;
    spec.chain_length = 3;
    cases.push_back({"hamming", spec, MakeVectors(n, 71)});
  }
  {
    IndexSpec spec;
    spec.domain = Domain::kSet;
    spec.tau = 0.5;
    spec.chain_length = 2;
    cases.push_back({"sets", spec, MakeSets(n, 72)});
  }
  {
    IndexSpec spec;
    spec.domain = Domain::kEdit;
    spec.tau = 2;
    spec.chain_length = 2;
    spec.edit_fast_path = EditFastPath::kOff;
    cases.push_back({"strings", spec, MakeStrings(n, 73, 0)});
  }
  {
    IndexSpec spec;
    spec.domain = Domain::kEdit;
    spec.tau = 2;
    spec.chain_length = 2;
    spec.edit_fast_path = EditFastPath::kOn;
    cases.push_back({"strings_fast", spec, MakeStrings(n, 74, 12)});
  }
  {
    IndexSpec spec;
    spec.domain = Domain::kGraph;
    spec.tau = 2;
    spec.chain_length = 2;
    cases.push_back({"graphs", spec, MakeGraphs(n, 75)});
  }
  return cases;
}

// Every record viewed as a query — the paper's protocol, and it exercises
// every shard both as probe source and as candidate pool.
std::vector<Query> RecordQueries(const Db& db) {
  std::vector<Query> queries;
  for (int id = 0; id < db.num_records(); ++id) {
    auto query = db.RecordQuery(id);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    queries.push_back(std::move(query).value());
  }
  return queries;
}

// The identity pin: `sharded` must reproduce `unsharded`'s ids, pairs,
// and deterministic counters exactly, at 1 and at several threads.
void ExpectShardedMatchesUnsharded(const Db& unsharded, const Db& sharded) {
  ASSERT_EQ(sharded.num_records(), unsharded.num_records());
  Session baseline = unsharded.NewSession();
  Session session = sharded.NewSession();
  const std::vector<Query> queries = RecordQueries(unsharded);

  for (int threads : {1, 4}) {
    RunOptions options;
    options.num_threads = threads;

    auto expected = baseline.SearchBatch(queries, options);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    auto batch = session.SearchBatch(queries, options);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch->ids, expected->ids);
    ExpectSameCounters(batch->stats, expected->stats);

    auto expected_join = baseline.SelfJoin(options);
    ASSERT_TRUE(expected_join.ok()) << expected_join.status().ToString();
    auto join = session.SelfJoin(options);
    ASSERT_TRUE(join.ok()) << join.status().ToString();
    EXPECT_EQ(join->pairs, expected_join->pairs);
    EXPECT_EQ(join->stats.pairs, expected_join->stats.pairs);
    EXPECT_EQ(join->stats.candidates, expected_join->stats.candidates);
  }

  if (!queries.empty()) {
    auto expected = baseline.Search(queries.front());
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    auto single = session.Search(queries.front());
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    EXPECT_EQ(single->ids, expected->ids);
    ExpectSameCounters(single->stats, expected->stats);
  }
}

TEST(ShardIdentityTest, AllDomainsMatchUnshardedAtEveryShardCount) {
  for (DomainCase& domain_case : MakeDomainCases(240)) {
    SCOPED_TRACE(domain_case.name);
    Db unsharded = OpenOrDie(domain_case.spec, domain_case.dataset);
    for (int shards : {2, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      IndexSpec spec = domain_case.spec;
      spec.shards = shards;
      Db sharded = OpenOrDie(spec, domain_case.dataset);
      EXPECT_EQ(sharded.spec().shards, shards);
      ExpectShardedMatchesUnsharded(unsharded, sharded);
    }
  }
}

TEST(ShardEdgeTest, EmptySingleRecordAndMoreShardsThanRecords) {
  for (int n : {0, 1, 3}) {
    SCOPED_TRACE("records=" + std::to_string(n));
    for (DomainCase& domain_case : MakeDomainCases(std::max(n, 1))) {
      if (n == 0 && domain_case.name == "strings_fast") {
        // An empty collection resolves edit_fast_path=kOn away only via
        // kAuto; forcing kOn on empty data is legal but builds no cases —
        // the pivotal case already covers empty strings here.
        continue;
      }
      SCOPED_TRACE(domain_case.name);
      Dataset dataset = std::visit(
          [n](const auto& records) {
            using T = std::decay_t<decltype(records)>;
            return Dataset(T(records.begin(), records.begin() + n));
          },
          domain_case.dataset);
      Db unsharded = OpenOrDie(domain_case.spec, dataset);
      // 8 shards over <= 3 records: most shards are empty.
      IndexSpec spec = domain_case.spec;
      spec.shards = 8;
      Db sharded = OpenOrDie(spec, dataset);
      ExpectShardedMatchesUnsharded(unsharded, sharded);
    }
  }
}

TEST(ShardSpecTest, ValidateRejectsOutOfRangeShards) {
  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 4;
  for (int shards : {0, -3, shard::kMaxShards + 1}) {
    spec.shards = shards;
    auto opened = Db::Open(spec, Dataset(MakeVectors(4, 9)));
    EXPECT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument)
        << opened.status().ToString();
  }
}

TEST(ShardStatsTest, SizesAndPendingDeltaPartitionTheDatabase) {
  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 4;
  spec.shards = 4;
  const auto vectors = MakeVectors(10, 31);
  Db db = OpenOrDie(spec, Dataset(vectors));

  // 10 records round-robin over 4 shards: 3, 3, 2, 2.
  EXPECT_EQ(db.ShardSizes(), (std::vector<int>{3, 3, 2, 2}));

  auto writer = db.NewWriter();
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  // Insert ids 10 and 11 -> shards 2 and 3; remove base id 0 -> shard 0.
  ASSERT_TRUE(writer->Insert(Query(vectors[0])).ok());
  ASSERT_TRUE(writer->Insert(Query(vectors[1])).ok());
  ASSERT_TRUE(writer->Remove(0).ok());
  const std::vector<DbShardStat> stats = db.ShardStats();
  ASSERT_EQ(stats.size(), 4u);
  EXPECT_EQ(stats[0].records, 3);
  EXPECT_EQ(stats[0].pending_delta, 1);
  EXPECT_EQ(stats[1].pending_delta, 0);
  EXPECT_EQ(stats[2].pending_delta, 1);
  EXPECT_EQ(stats[3].pending_delta, 1);

  // Unsharded databases report a single all-covering entry.
  IndexSpec flat = spec;
  flat.shards = 1;
  Db unsharded = OpenOrDie(flat, Dataset(vectors));
  EXPECT_EQ(unsharded.ShardSizes(), (std::vector<int>{10}));
  EXPECT_EQ(unsharded.ShardStats().size(), 1u);
}

TEST(ShardPersistTest, SaveRecordsShardMapAndOpenIndexAdoptsIt) {
  const std::string sharded_path = ScratchPath("sharded.idx");
  const std::string flat_path = ScratchPath("flat.idx");

  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 8;
  const auto vectors = MakeVectors(60, 77);

  IndexSpec sharded_spec = spec;
  sharded_spec.shards = 4;
  Db sharded = OpenOrDie(sharded_spec, Dataset(vectors));
  ASSERT_TRUE(sharded.Save(sharded_path).ok());
  Db flat = OpenOrDie(spec, Dataset(vectors));
  ASSERT_TRUE(flat.Save(flat_path).ok());

  // Default spec adopts the persisted shard count; explicit shards > 1
  // overrides it; an unsharded file opens unsharded.
  auto adopted = Db::OpenIndex(spec, sharded_path);
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  EXPECT_EQ(adopted->spec().shards, 4);
  EXPECT_EQ(adopted->ShardSizes().size(), 4u);

  IndexSpec override_spec = spec;
  override_spec.shards = 2;
  auto overridden = Db::OpenIndex(override_spec, sharded_path);
  ASSERT_TRUE(overridden.ok()) << overridden.status().ToString();
  EXPECT_EQ(overridden->spec().shards, 2);

  auto flat_reopened = Db::OpenIndex(spec, flat_path);
  ASSERT_TRUE(flat_reopened.ok()) << flat_reopened.status().ToString();
  EXPECT_EQ(flat_reopened->spec().shards, 1);

  // Either way the answers match the in-memory database.
  ExpectShardedMatchesUnsharded(flat, *adopted);
  ExpectShardedMatchesUnsharded(flat, *overridden);
}

// --- where the scatter drivers run each shard ---

struct ThreadLog {
  std::mutex mu;
  std::vector<std::set<std::thread::id>> per_shard;
};

// A one-record Searcher that logs the thread each of its searches ran on.
struct RecordingSearcher {
  using Query = int;
  int shard = 0;
  std::shared_ptr<ThreadLog> log;

  int size() const { return 1; }
  const int& query(int) const { return shard; }
  std::vector<int> Search(const int&, engine::QueryStats*) const {
    std::lock_guard<std::mutex> lock(log->mu);
    log->per_shard[static_cast<size_t>(shard)].insert(
        std::this_thread::get_id());
    return {0};
  }
};

TEST(ScatterThreadsTest, CoordinatorRunsShardZeroAndSubmitsOnlyTheRest) {
  for (int num_shards : {1, 2, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    auto log = std::make_shared<ThreadLog>();
    log->per_shard.resize(static_cast<size_t>(num_shards));
    std::vector<shard::ShardPart<RecordingSearcher>> parts;
    for (int s = 0; s < num_shards; ++s) {
      parts.push_back({{s}, RecordingSearcher{s, log}, nullptr});
    }
    const auto fleet = shard::MakeFleet(
        shard::Partitioner(num_shards),
        num_shards, std::move(parts));
    // Only shards 1..S-1 own an executor, so S = 1 has nothing to submit.
    for (int s = 0; s < num_shards; ++s) {
      EXPECT_EQ(fleet->shards[static_cast<size_t>(s)].executor != nullptr,
                s > 0);
    }

    engine::Executor executor;
    const engine::ExecutionContext context(executor, {});
    std::vector<int> every_shard(static_cast<size_t>(num_shards));
    std::iota(every_shard.begin(), every_shard.end(), 0);
    const auto results =
        shard::ScatterSearchBatch(*fleet, std::vector<int>(4, 0), context);
    for (const std::vector<int>& ids : results) EXPECT_EQ(ids, every_shard);
    shard::ScatterSelfJoin(*fleet, fleet->shards[0].adapter, context);

    // Shard 0 ran only on this thread (a 1-thread context runs its loop
    // inline); every other shard ran only on threads of its own executor.
    const std::thread::id caller = std::this_thread::get_id();
    EXPECT_EQ(log->per_shard[0], std::set<std::thread::id>{caller});
    for (int s = 1; s < num_shards; ++s) {
      const auto& threads = log->per_shard[static_cast<size_t>(s)];
      EXPECT_FALSE(threads.empty());
      for (int t = 0; t < s; ++t) {
        for (std::thread::id id : log->per_shard[static_cast<size_t>(t)]) {
          EXPECT_EQ(threads.count(id), 0u) << "shards " << s << ", " << t;
        }
      }
    }
  }
}

// --- shard::Partitioner unit coverage ---

TEST(PartitionerTest, RoundRobinPartitionsEveryIdExactlyOnceAscending) {
  const shard::Partitioner partitioner(5);
  const auto owned = partitioner.Partition(137);
  ASSERT_EQ(owned.size(), 5u);
  std::set<int> seen;
  for (int s = 0; s < 5; ++s) {
    EXPECT_TRUE(std::is_sorted(owned[s].begin(), owned[s].end()));
    for (int g : owned[s]) {
      EXPECT_EQ(partitioner.ShardOf(g), s);
      EXPECT_TRUE(seen.insert(g).second) << "id " << g << " owned twice";
    }
  }
  EXPECT_EQ(seen.size(), 137u);
  // Round-robin balance is exact: shard sizes differ by at most one.
  for (const auto& ids : owned) {
    EXPECT_GE(static_cast<int>(ids.size()), 137 / 5);
    EXPECT_LE(static_cast<int>(ids.size()), 137 / 5 + 1);
  }
}

TEST(PartitionerTest, EncodeDecodeRoundTripsAndRejectsMalformedBytes) {
  const shard::Partitioner original(7);
  storage::ByteWriter w;
  original.Encode(w);
  const std::vector<uint8_t> bytes = std::move(w).Take();

  storage::ByteReader r(bytes.data(), bytes.size());
  shard::Partitioner decoded;
  ASSERT_TRUE(decoded.Decode(r));
  EXPECT_EQ(decoded, original);

  // Unknown mode, out-of-range shard counts, truncation, trailing bytes.
  const auto rejects = [](std::vector<uint8_t> image) {
    storage::ByteReader reader(image.data(), image.size());
    shard::Partitioner p;
    return !p.Decode(reader);
  };
  const auto encode = [](uint32_t mode, uint32_t shards) {
    storage::ByteWriter bad;
    bad.U32(mode);
    bad.U32(shards);
    return std::move(bad).Take();
  };
  EXPECT_TRUE(rejects(encode(1, 4)));
  EXPECT_TRUE(rejects(encode(2, 4)));
  EXPECT_TRUE(rejects(encode(0, 0)));
  EXPECT_TRUE(rejects(encode(0, 1)));
  EXPECT_TRUE(rejects(encode(0, shard::kMaxShards + 1)));
  EXPECT_TRUE(rejects(std::vector<uint8_t>(bytes.begin(), bytes.end() - 1)));
  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_TRUE(rejects(trailing));
}

// --- churn under sharding (runs under TSan in CI) ---
//
// Readers continuously mint sessions and scatter batches over a sharded
// database while a writer inserts and removes; after quiescing and
// compacting, the sharded database must answer identically to an
// unsharded cold open over the surviving records.

TEST(ShardChurnTest, ScatterReadersRaceWriterThenConvergeToColdRebuild) {
  constexpr int kBase = 24;
  constexpr int kInsertPool = 16;
  const auto vectors = MakeVectors(kBase + kInsertPool, 55);

  IndexSpec spec;
  spec.domain = Domain::kHamming;
  spec.tau = 8;
  spec.shards = 3;
  spec.delta_compact_threshold = 8;
  Db db = OpenOrDie(
      spec, Dataset(std::vector<BitVector>(vectors.begin(),
                                           vectors.begin() + kBase)));

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&db, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        Session session = db.NewSession();
        std::vector<Query> queries;
        for (int id = 0; id < std::min(db.num_records(), 8); ++id) {
          auto query = session.RecordQuery(id);
          if (query.ok()) queries.push_back(std::move(query).value());
        }
        if (queries.empty()) continue;
        RunOptions options;
        options.num_threads = 2;
        auto first = session.SearchBatch(queries, options);
        ASSERT_TRUE(first.ok()) << first.status().ToString();
        // A session's view is frozen: identical re-run, identical answer.
        auto second = session.SearchBatch(queries, options);
        ASSERT_TRUE(second.ok()) << second.status().ToString();
        ASSERT_EQ(first->ids, second->ids);
      }
    });
  }

  {
    auto writer = db.NewWriter();
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (int k = 0; k < kInsertPool; ++k) {
      ASSERT_TRUE(writer->Insert(Query(vectors[kBase + k])).ok());
      if (k % 3 == 0) {
        ASSERT_TRUE(writer->Remove(k).ok());
      }
    }
    ASSERT_TRUE(writer->Compact().ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  // Quiesced: rebuild the surviving dataset through RecordQuery and pin
  // the sharded database against an unsharded cold open over it.
  std::vector<BitVector> survivors;
  for (int id = 0; id < db.num_records(); ++id) {
    auto query = db.RecordQuery(id);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    survivors.push_back(std::get<BitVector>(std::move(query).value()));
  }
  IndexSpec flat = spec;
  flat.shards = 1;
  flat.delta_compact_threshold = 0;
  Db cold = OpenOrDie(flat, Dataset(survivors));
  ExpectShardedMatchesUnsharded(cold, db);
}

}  // namespace
}  // namespace pigeonring::api
