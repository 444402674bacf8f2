// End-to-end smoke of the network service on a loopback ephemeral port:
// real TCP, real frames. Pins the acceptance contract of the net
// subsystem: client search / batch / self-join results are byte-identical
// to an in-process api::Session over the same snapshot (all four
// domains), mutations through the server converge identically to direct
// api::Writer use (down to Save() byte-identity), overload produces typed
// kResourceExhausted frames, stats expose admission counters and per-op
// latency histograms, and graceful shutdown drains in-flight ops.
//
// Runs under the TSan CI job — keep the datasets small.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/db.h"
#include "common/bitvector.h"
#include "datagen/binary_vectors.h"
#include "datagen/graphs.h"
#include "datagen/strings.h"
#include "datagen/token_sets.h"
#include "net/client.h"
#include "net/server.h"
#include "storage/bytes.h"
#include "test_scratch.h"

namespace pigeonring::net {
namespace {

api::Db OpenOrDie(const api::IndexSpec& spec, api::Dataset dataset) {
  auto opened = api::Db::Open(spec, std::move(dataset));
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened).value();
}

api::Db OpenHamming(uint64_t seed = 3301, int shards = 1) {
  datagen::BinaryVectorConfig config;
  config.dimensions = 64;
  config.num_objects = 200;
  config.num_clusters = 12;
  config.cluster_fraction = 0.6;
  config.flip_rate = 0.05;
  config.seed = seed;
  api::IndexSpec spec;
  spec.domain = api::Domain::kHamming;
  spec.tau = 8;
  spec.chain_length = 3;
  spec.shards = shards;
  return OpenOrDie(spec, api::Dataset(datagen::GenerateBinaryVectors(config)));
}

api::Db OpenSets() {
  datagen::TokenSetConfig config;
  config.num_records = 200;
  config.avg_tokens = 12;
  config.universe_size = 600;
  config.duplicate_fraction = 0.4;
  config.seed = 3303;
  api::IndexSpec spec;
  spec.domain = api::Domain::kSet;
  spec.tau = 0.7;
  spec.chain_length = 2;
  return OpenOrDie(spec, api::Dataset(datagen::GenerateTokenSets(config)));
}

api::Db OpenStrings() {
  datagen::StringConfig config;
  config.num_records = 150;
  config.avg_length = 14;
  config.duplicate_fraction = 0.4;
  config.max_perturb_edits = 2;
  config.seed = 3305;
  api::IndexSpec spec;
  spec.domain = api::Domain::kEdit;
  spec.tau = 2;
  spec.chain_length = 3;
  return OpenOrDie(spec, api::Dataset(datagen::GenerateStrings(config)));
}

api::Db OpenGraphs() {
  datagen::GraphConfig config;
  config.num_graphs = 40;
  config.avg_vertices = 8;
  config.avg_edges = 9;
  config.vertex_labels = 8;
  config.duplicate_fraction = 0.4;
  config.max_perturb_ops = 2;
  config.seed = 3307;
  api::IndexSpec spec;
  spec.domain = api::Domain::kGraph;
  spec.tau = 2;
  spec.chain_length = 2;
  return OpenOrDie(spec, api::Dataset(datagen::GenerateGraphs(config)));
}

std::vector<api::Query> SampleQueries(api::Session& session, int count) {
  std::vector<api::Query> queries;
  const int n = session.num_records();
  for (int i = 0; i < count; ++i) {
    auto query = session.RecordQuery((i * 7) % n);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    queries.push_back(std::move(query).value());
  }
  return queries;
}

Client ConnectOrDie(int port) {
  auto client = Client::Connect("127.0.0.1", port);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).value();
}

std::vector<uint8_t> QueryBytes(const api::Query& query) {
  storage::ByteWriter w;
  EncodeQuery(w, query);
  return std::move(w).Take();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// The acceptance pin: over real TCP, search / batch / self-join results
// must be byte-identical to an in-process Session on the same snapshot.
void ExpectClientMatchesInProcess(api::Db db) {
  api::Session session = db.NewSession();
  const std::vector<api::Query> queries = SampleQueries(session, 12);

  auto server = Server::Start(db);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Client client = ConnectOrDie(server->port());
  ASSERT_TRUE(client.Ping().ok());

  // Single-query search, query by query.
  for (const api::Query& query : queries) {
    auto in_process = session.Search(query);
    ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();
    auto remote = client.Search(query);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    EXPECT_EQ(remote->ids, in_process->ids);
    EXPECT_EQ(remote->candidates, in_process->stats.candidates);
    EXPECT_EQ(remote->results, in_process->stats.results);
  }

  // Batch.
  auto in_batch = session.SearchBatch(queries);
  ASSERT_TRUE(in_batch.ok());
  auto remote_batch = client.SearchBatch(queries);
  ASSERT_TRUE(remote_batch.ok()) << remote_batch.status().ToString();
  EXPECT_EQ(remote_batch->ids, in_batch->ids);
  EXPECT_EQ(remote_batch->candidates, in_batch->stats.candidates);

  // Self-join.
  auto in_join = session.SelfJoin();
  ASSERT_TRUE(in_join.ok());
  auto remote_join = client.SelfJoin();
  ASSERT_TRUE(remote_join.ok()) << remote_join.status().ToString();
  EXPECT_EQ(remote_join->pairs, in_join->pairs);
  EXPECT_EQ(remote_join->candidates, in_join->stats.candidates);

  // Record sampling round-trips the same record the session sees.
  auto remote_record = client.RecordQuery(3);
  ASSERT_TRUE(remote_record.ok());
  auto local_record = session.RecordQuery(3);
  ASSERT_TRUE(local_record.ok());
  EXPECT_EQ(QueryBytes(*remote_record), QueryBytes(*local_record));
  EXPECT_EQ(client.RecordQuery(-1).status().code(), StatusCode::kOutOfRange);

  server->Stop();
}

TEST(NetSmoke, ClientMatchesInProcessHamming) {
  ExpectClientMatchesInProcess(OpenHamming());
}

TEST(NetSmoke, ClientMatchesInProcessSets) {
  ExpectClientMatchesInProcess(OpenSets());
}

TEST(NetSmoke, ClientMatchesInProcessStrings) {
  ExpectClientMatchesInProcess(OpenStrings());
}

TEST(NetSmoke, ClientMatchesInProcessGraphs) {
  ExpectClientMatchesInProcess(OpenGraphs());
}

// Wrong-shape queries fail over TCP with exactly the status an
// in-process Session returns — a single search reports Search's error
// (no batch "query 0: " prefix), a batch reports SearchBatch's — and the
// connection keeps serving.
TEST(NetSmoke, WrongShapeSearchErrorsMatchInProcess) {
  api::Db db = OpenHamming();
  api::Session session = db.NewSession();
  auto server = Server::Start(db);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Client client = ConnectOrDie(server->port());

  const api::Query good = SampleQueries(session, 1)[0];
  const std::vector<api::Query> bad = {
      api::Query(BitVector(32)),                        // wrong dimension
      api::Query(api::SetQuery{.tokens = {1, 2, 3}}),  // wrong domain
  };
  for (const api::Query& query : bad) {
    const Status local = session.Search(query).status();
    ASSERT_FALSE(local.ok());
    const Status remote = client.Search(query).status();
    EXPECT_EQ(remote.code(), local.code());
    EXPECT_EQ(remote.message(), local.message());

    const std::vector<api::Query> batch = {good, query};
    const Status local_batch = session.SearchBatch(batch).status();
    ASSERT_FALSE(local_batch.ok());
    const Status remote_batch = client.SearchBatch(batch).status();
    EXPECT_EQ(remote_batch.code(), local_batch.code());
    EXPECT_EQ(remote_batch.message(), local_batch.message());

    EXPECT_TRUE(client.Ping().ok());
  }
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->protocol_errors, 0);
}

// Reads run on each connection's thread and touch only that connection's
// Session: many connections reading at once (TSan-checked in CI) must
// each get replies identical to an in-process Session.
void ExpectConcurrentConnectionsMatchInProcess(api::Db db) {
  api::Session session = db.NewSession();
  const std::vector<api::Query> queries = SampleQueries(session, 50);
  std::vector<api::SearchResult> singles;
  for (const api::Query& query : queries) {
    auto result = session.Search(query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    singles.push_back(std::move(result).value());
  }
  auto batch = session.SearchBatch(queries);
  ASSERT_TRUE(batch.ok());
  auto join = session.SelfJoin();
  ASSERT_TRUE(join.ok());

  auto server = Server::Start(db);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server->port();
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      Client client = ConnectOrDie(port);
      for (size_t i = 0; i < queries.size(); ++i) {
        auto remote = client.Search(queries[i]);
        ASSERT_TRUE(remote.ok()) << remote.status().ToString();
        EXPECT_EQ(remote->ids, singles[i].ids);
        EXPECT_EQ(remote->candidates, singles[i].stats.candidates);
        EXPECT_EQ(remote->results, singles[i].stats.results);
      }
      auto remote_batch = client.SearchBatch(queries);
      ASSERT_TRUE(remote_batch.ok()) << remote_batch.status().ToString();
      EXPECT_EQ(remote_batch->ids, batch->ids);
      EXPECT_EQ(remote_batch->candidates, batch->stats.candidates);
      EXPECT_EQ(remote_batch->results, batch->stats.results);
      auto remote_join = client.SelfJoin();
      ASSERT_TRUE(remote_join.ok()) << remote_join.status().ToString();
      EXPECT_EQ(remote_join->pairs, join->pairs);
      EXPECT_EQ(remote_join->candidates, join->stats.candidates);
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(server->Snapshot().accepted, 4 * (50 + 2));
  server->Stop();
}

TEST(NetSmoke, ConcurrentConnectionsMatchInProcess) {
  ExpectConcurrentConnectionsMatchInProcess(OpenHamming());
  ExpectConcurrentConnectionsMatchInProcess(OpenHamming(3301, /*shards=*/2));
}

// Mutations through the server must converge identically to driving an
// api::Writer directly — same results, same record counts, and (after
// compaction) byte-identical Save() files.
TEST(NetSmoke, MutationsConvergeLikeDirectWriter) {
  api::Db served = OpenHamming(4401);
  api::Db direct = OpenHamming(4401);  // identical twin, mutated locally

  auto server = Server::Start(served);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Client client = ConnectOrDie(server->port());
  auto writer = direct.NewWriter();
  ASSERT_TRUE(writer.ok());

  // Identical mutation sequences: insert two records sampled from the
  // dataset, remove one original and one insert, then compact.
  api::Session sampler = direct.NewSession();
  const std::vector<api::Query> inserts = SampleQueries(sampler, 2);
  std::vector<int> remote_ids;
  std::vector<int> direct_ids;
  for (const api::Query& record : inserts) {
    auto remote = client.Insert(record);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    remote_ids.push_back(*remote);
    auto local = writer->Insert(record);
    ASSERT_TRUE(local.ok());
    direct_ids.push_back(*local);
  }
  EXPECT_EQ(remote_ids, direct_ids) << "id assignment must match";

  // Read-your-writes: the inserted record matches itself on the next
  // request, through the server, on this same connection.
  auto self_search = client.Search(inserts[0]);
  ASSERT_TRUE(self_search.ok());
  EXPECT_TRUE(std::find(self_search->ids.begin(), self_search->ids.end(),
                        remote_ids[0]) != self_search->ids.end());

  ASSERT_TRUE(client.Remove(5).ok());
  ASSERT_TRUE(writer->Remove(5).ok());
  ASSERT_TRUE(client.Remove(remote_ids[1]).ok());
  ASSERT_TRUE(writer->Remove(direct_ids[1]).ok());
  // The writer's typed no-op travels the wire typed.
  EXPECT_EQ(client.Remove(999999).code(), StatusCode::kNotFound);

  ASSERT_TRUE(client.Compact().ok());
  ASSERT_TRUE(writer->Compact().ok());

  // Converged: same counts, same results for the same queries.
  EXPECT_EQ(served.num_records(), direct.num_records());
  api::Session direct_session = direct.NewSession();
  const std::vector<api::Query> queries = SampleQueries(direct_session, 10);
  auto expected = direct_session.SearchBatch(queries);
  ASSERT_TRUE(expected.ok());
  auto remote = client.SearchBatch(queries);
  ASSERT_TRUE(remote.ok());
  EXPECT_EQ(remote->ids, expected->ids);

  // The strongest pin: both databases serialize byte-identically.
  const std::string served_path = ScratchPath("net_smoke_served.pri");
  const std::string direct_path = ScratchPath("net_smoke_direct.pri");
  ASSERT_TRUE(served.Save(served_path).ok());
  ASSERT_TRUE(direct.Save(direct_path).ok());
  EXPECT_EQ(ReadFileBytes(served_path), ReadFileBytes(direct_path));
  std::remove(served_path.c_str());
  std::remove(direct_path.c_str());

  server->Stop();
}

// A second connection opened before a mutation must observe it afterwards
// (the server re-mints per-connection sessions on mutation).
TEST(NetSmoke, MutationsAreVisibleAcrossConnections) {
  api::Db db = OpenHamming(4403);
  auto server = Server::Start(db);
  ASSERT_TRUE(server.ok());
  Client writer_client = ConnectOrDie(server->port());
  Client reader_client = ConnectOrDie(server->port());
  ASSERT_TRUE(reader_client.Ping().ok());  // session minted pre-mutation

  api::Session sampler = db.NewSession();
  const api::Query record = SampleQueries(sampler, 1)[0];
  auto id = writer_client.Insert(record);
  ASSERT_TRUE(id.ok());

  auto seen = reader_client.Search(record);
  ASSERT_TRUE(seen.ok());
  EXPECT_TRUE(std::find(seen->ids.begin(), seen->ids.end(), *id) !=
              seen->ids.end())
      << "reader connection must observe the committed insert";
}

TEST(NetSmoke, StatsExposeCountersAndLatencyHistograms) {
  api::Db db = OpenHamming();
  api::Session session = db.NewSession();
  const std::vector<api::Query> queries = SampleQueries(session, 4);

  auto server = Server::Start(db);
  ASSERT_TRUE(server.ok());
  Client client = ConnectOrDie(server->port());
  for (const api::Query& query : queries) {
    ASSERT_TRUE(client.Search(query).ok());
  }
  ASSERT_TRUE(client.SearchBatch(queries).ok());

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->num_records, db.num_records());
  EXPECT_EQ(stats->epoch, db.epoch());
  EXPECT_EQ(stats->accepted, 5);  // 4 searches + 1 batch
  EXPECT_EQ(stats->shed, 0);
  EXPECT_EQ(stats->protocol_errors, 0);

  bool saw_search = false;
  bool saw_batch = false;
  for (const OpStats& op : stats->ops) {
    if (op.op == static_cast<uint8_t>(Op::kSearch)) {
      saw_search = true;
      EXPECT_EQ(op.count, 4);
      EXPECT_GT(op.p50_micros, 0);
      EXPECT_GE(op.p99_micros, op.p50_micros);
    }
    if (op.op == static_cast<uint8_t>(Op::kBatch)) {
      saw_batch = true;
      EXPECT_EQ(op.count, 1);
    }
  }
  EXPECT_TRUE(saw_search);
  EXPECT_TRUE(saw_batch);

  // An unsharded index reports a single placement row covering everything.
  ASSERT_EQ(stats->shards.size(), 1u);
  EXPECT_EQ(stats->shards[0].records, db.num_records());
  EXPECT_EQ(stats->shards[0].pending_delta, 0);

  // The in-process snapshot agrees with the wire view.
  ServerStats snapshot = server->Snapshot();
  EXPECT_EQ(snapshot.accepted, stats->accepted);
}

// A sharded served index exposes one placement row per shard: rows sum to
// the committed record count, served inserts surface as pending delta on
// the round-robin owner shard, and compaction folds them back in.
TEST(NetSmoke, StatsExposePerShardPlacement) {
  datagen::BinaryVectorConfig config;
  config.dimensions = 64;
  config.num_objects = 202;
  config.num_clusters = 12;
  config.seed = 3309;
  api::IndexSpec spec;
  spec.domain = api::Domain::kHamming;
  spec.tau = 8;
  spec.chain_length = 3;
  spec.shards = 4;
  api::Db db =
      OpenOrDie(spec, api::Dataset(datagen::GenerateBinaryVectors(config)));

  auto server = Server::Start(db);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Client client = ConnectOrDie(server->port());

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->shards.size(), 4u);
  int total = 0;
  for (const ShardStats& shard : stats->shards) {
    total += shard.records;
    EXPECT_EQ(shard.pending_delta, 0);
  }
  EXPECT_EQ(total, db.num_records());

  // Two served inserts: ids 202 and 203 land as pending delta on their
  // round-robin owner shards (202 % 4 = 2, 203 % 4 = 3).
  api::Session sampler = db.NewSession();
  for (const api::Query& record : SampleQueries(sampler, 2)) {
    ASSERT_TRUE(client.Insert(record).ok());
  }
  stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->shards.size(), 4u);
  EXPECT_EQ(stats->shards[0].pending_delta, 0);
  EXPECT_EQ(stats->shards[1].pending_delta, 0);
  EXPECT_EQ(stats->shards[2].pending_delta, 1);
  EXPECT_EQ(stats->shards[3].pending_delta, 1);

  // Compaction folds the delta in; rows re-sum to the new total with no
  // pending rows left.
  ASSERT_TRUE(client.Compact().ok());
  stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->shards.size(), 4u);
  total = 0;
  for (const ShardStats& shard : stats->shards) {
    total += shard.records;
    EXPECT_EQ(shard.pending_delta, 0);
  }
  EXPECT_EQ(total, 204);
}

TEST(NetSmoke, OverloadShedsWithTypedResourceExhausted) {
  api::Db db = OpenHamming();
  api::Session session = db.NewSession();
  const api::Query query = SampleQueries(session, 1)[0];

  // max_inflight = 0 sheds every admission-controlled op — deterministic
  // overload.
  ServerOptions options;
  options.max_inflight = 0;
  auto server = Server::Start(db, options);
  ASSERT_TRUE(server.ok());
  Client client = ConnectOrDie(server->port());

  const Status shed = client.Search(query).status();
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.message().find("capacity"), std::string::npos);
  EXPECT_EQ(client.SelfJoin().status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(client.Insert(query).status().code(),
            StatusCode::kResourceExhausted);

  // Shedding is not an error spiral: the connection stays up and the
  // control plane (ping / stats / record) still answers.
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.RecordQuery(0).ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->shed, 3);
  EXPECT_EQ(stats->protocol_errors, 0);
}

TEST(NetSmoke, GracefulShutdownDrainsInFlightOps) {
  api::Db db = OpenHamming();
  auto server = Server::Start(db);
  ASSERT_TRUE(server.ok());
  const int port = server->port();

  // A client fires a self-join (the heaviest op) and must receive its
  // complete reply even though Stop() lands while it is in flight.
  std::optional<StatusOr<JoinReply>> remote_join;
  std::thread requester([&] {
    Client client = ConnectOrDie(port);
    remote_join.emplace(client.SelfJoin());
  });
  // Wait until the op is admitted (or already finished), then stop.
  while (server->Snapshot().accepted == 0) {
    std::this_thread::yield();
  }
  server->Stop();
  requester.join();

  ASSERT_TRUE(remote_join.has_value());
  ASSERT_TRUE(remote_join->ok())
      << "drained op must deliver its reply, got "
      << remote_join->status().ToString();
  api::Session session = db.NewSession();
  auto expected = session.SelfJoin();
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ((*remote_join)->pairs, expected->pairs);

  // After Stop: no new connections, and Stop is idempotent.
  EXPECT_EQ(Client::Connect("127.0.0.1", port).status().code(),
            StatusCode::kUnavailable);
  server->Stop();
}

TEST(NetSmoke, StartRejectsBadOptionsTyped) {
  api::Db db = OpenHamming();
  ServerOptions bad_host;
  bad_host.host = "not-an-address";
  EXPECT_EQ(Server::Start(db, bad_host).status().code(),
            StatusCode::kInvalidArgument);
  ServerOptions bad_inflight;
  bad_inflight.max_inflight = -1;
  EXPECT_EQ(Server::Start(db, bad_inflight).status().code(),
            StatusCode::kInvalidArgument);

  // Binding the same explicit port twice fails typed.
  auto first = Server::Start(db);
  ASSERT_TRUE(first.ok());
  ServerOptions taken;
  taken.port = first->port();
  EXPECT_EQ(Server::Start(db, taken).status().code(),
            StatusCode::kUnavailable);
}

}  // namespace
}  // namespace pigeonring::net
