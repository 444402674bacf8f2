// The four untraced workloads. Each generates its inputs from the seed,
// times only the steady-state window (set-up, connects, thread start and
// warm-up stay outside it), checks every answer, and fills the end-to-end
// metrics: setup_s, p50_ms, ops_per_s and peak_rss_mb.

#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <optional>
#include <thread>

#include "hamming/search.h"
#include "editdist/pivotal.h"
#include "graphed/pars.h"
#include "net/client.h"
#include "net/server.h"
#include "setsim/pkwise.h"
#include "setsim/record.h"

namespace perfbench {

namespace api = pr::api;

namespace {

constexpr int kSetupReps = 5;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

std::vector<api::Query> QueriesFor(const std::vector<pr::BitVector>& records,
                                   const std::vector<int>& ids) {
  std::vector<api::Query> queries;
  queries.reserve(ids.size());
  for (int id : ids) queries.emplace_back(records[id]);
  return queries;
}

void SetEndToEnd(Report& report, const Samples& setup_s, double p50_ms,
                 double ops_per_s) {
  report.Set("setup_s", setup_s.Median(), "s");
  report.Set("p50_ms", p50_ms, "ms");
  report.Set("ops_per_s", ops_per_s, "1/s");
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
}

// ---------------------------------------------------------------------
// serve

struct Served {
  api::Db db;
  std::optional<pr::net::Server> server;
  std::vector<pr::net::Client> clients;
};

}  // namespace

void RunServe(const Options& opt, Checker& check, Report& report) {
  const VectorSet set = ServeVectors(opt.seed);
  const api::IndexSpec spec = HammingSpec(set);
  const std::string path = opt.work_dir + "/serve.pgri";
  {
    api::Db built = Must(api::Db::Open(spec, api::Dataset(set.records)),
                         "serve: Db::Open");
    Must(built.Save(path), "serve: Db::Save");
  }
  const double file_bytes =
      static_cast<double>(std::filesystem::file_size(path));
  const double raw_bytes = static_cast<double>(set.records.size()) *
                           set.records[0].dimensions() / 8.0;

  // Set-up, repeated: OpenIndex + Server::Start + two Connects. The last
  // repetition serves; the earlier ones shut down before timing starts.
  constexpr int kConnections = 2;
  Samples setup_s;
  std::unique_ptr<Served> served;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    served.reset();
    const auto start = Clock::now();
    auto next = std::make_unique<Served>(Served{
        Must(api::Db::OpenIndex(spec, path), "serve: Db::OpenIndex"), {}, {}});
    next->server.emplace(
        Must(pr::net::Server::Start(next->db), "serve: Server::Start"));
    for (int c = 0; c < kConnections; ++c) {
      next->clients.push_back(Must(
          pr::net::Client::Connect("127.0.0.1", next->server->port()),
          "serve: Client::Connect"));
    }
    setup_s.Add(SecondsSince(start));
    served = std::move(next);
  }
  std::filesystem::remove(path);

  // Expected answers: the in-process Session over the same opened index,
  // itself checked against brute force on a sample.
  const std::vector<int> pool_ids =
      SampleIds(static_cast<int>(set.records.size()), 1000, opt.seed);
  const std::vector<api::Query> pool = QueriesFor(set.records, pool_ids);
  std::vector<std::vector<int>> expected(pool.size());
  {
    api::Session session = served->db.NewSession();
    for (size_t i = 0; i < pool.size(); ++i) {
      expected[i] = Must(session.Search(pool[i]), "serve: Session::Search").ids;
    }
  }
  for (size_t i = 0; i < 50; ++i) {
    check.Ids("serve: brute-force oracle",
              pr::hamming::BruteForceSearch(set.records,
                                            set.records[pool_ids[i]], set.tau),
              expected[i]);
  }

  auto search = [&](pr::net::Client& client, size_t i) {
    auto reply = client.Search(pool[i % pool.size()]);
    if (!reply.ok()) {
      check.Error("serve: Client::Search", reply.status());
      return;
    }
    check.Ids("serve: TCP reply vs Session", std::move(reply->ids),
              expected[i % pool.size()]);
  };
  for (int c = 0; c < kConnections; ++c) {
    for (size_t i = 0; i < 200; ++i) search(served->clients[c], i);
  }

  // The run alternates half-second slices of two phases, so a slow spell
  // of the machine lands on both rather than on whichever ran at the time:
  //  * open loop at a fixed offered rate, latency timed from each request's
  //    due time, so a stall charges every request queued behind it;
  //  * closed loop, each connection sending its next request as soon as the
  //    previous reply arrives; throughput is the median slice rate.
  constexpr double kOfferedPerSecond = 1000;
  constexpr double kSliceS = 0.5;
  const int slices = std::max(2, static_cast<int>(opt.seconds / kSliceS));
  const auto slice = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kSliceS));
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kConnections / kOfferedPerSecond));
  std::vector<Samples> latency(kConnections), late(kConnections),
      closed(kConnections);
  std::vector<std::vector<int64_t>> closed_done(
      kConnections, std::vector<int64_t>(slices, 0));
  {
    const auto t0 = Clock::now() + std::chrono::milliseconds(5);
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        size_t k = 0;
        for (int s = 0; s < slices; ++s) {
          const auto begin = t0 + slice * s;
          const auto end = begin + slice;
          if (s % 2 == 0) {
            for (auto due = begin + period * c / kConnections; due < end;
                 due += period) {
              SleepUntil(due);
              late[c].Add(Ms(Clock::now() - due));
              search(served->clients[c], k++ * kConnections + c);
              latency[c].Add(Ms(Clock::now() - due));
            }
          } else {
            std::this_thread::sleep_until(begin);
            while (Clock::now() < end) {
              const auto sent = Clock::now();
              search(served->clients[c], k++ * kConnections + c);
              const auto done = Clock::now();
              closed[c].Add(Ms(done - sent));
              if (done < end) ++closed_done[c][s];
            }
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  Samples open_ms, late_ms, closed_ms, closed_rate;
  for (int c = 0; c < kConnections; ++c) {
    open_ms.Append(latency[c]);
    late_ms.Append(late[c]);
    closed_ms.Append(closed[c]);
  }
  for (int s = 1; s < slices; s += 2) {
    int64_t done = 0;
    for (int c = 0; c < kConnections; ++c) done += closed_done[c][s];
    closed_rate.Add(static_cast<double>(done) / kSliceS);
  }

  const pr::net::ServerStats stats = served->server->Snapshot();
  check.Expect("serve: requests shed", stats.shed == 0,
               std::to_string(stats.shed) + " shed");
  check.Expect("serve: protocol errors", stats.protocol_errors == 0,
               std::to_string(stats.protocol_errors) + " protocol errors");
  for (pr::net::Client& client : served->clients) client.Close();
  served->server->Stop();

  SetEndToEnd(report, setup_s, open_ms.Median(), closed_rate.Median());
  Report::Note("serve: setup (OpenIndex+Start+Connect) %s",
               Describe(setup_s, "s").c_str());
  Report::Note("serve: open loop at %.0f/s, latency from due time %s",
               kOfferedPerSecond, Describe(open_ms, "ms").c_str());
  Report::Note("serve: open loop send lateness %s",
               Describe(late_ms, "ms").c_str());
  Report::Note("serve: closed loop over %d connections, req/s per slice %s; "
               "latency %s",
               kConnections, Describe(closed_rate, "").c_str(),
               Describe(closed_ms, "ms").c_str());
  Report::Note("serve: server accepted=%lld shed=%lld protocol_errors=%lld",
               static_cast<long long>(stats.accepted),
               static_cast<long long>(stats.shed),
               static_cast<long long>(stats.protocol_errors));
  Report::Note("serve: space_amp=%.4f (index %.0f bytes / raw %.0f bytes)",
               file_bytes / raw_bytes, file_bytes, raw_bytes);
}

// ---------------------------------------------------------------------
// join

namespace {

struct JoinDomain {
  const char* name;
  api::IndexSpec spec;
  api::Dataset data;
  int records;
  std::optional<api::Db> db;
  std::optional<api::Session> session;
  std::vector<api::IdPair> expected;
  int64_t candidates = 0;
  Samples ms;
};

// Ids joined with `probe` in a sorted pair list, sorted.
std::vector<int> Partners(const std::vector<api::IdPair>& pairs, int probe) {
  std::vector<int> out;
  for (const api::IdPair& p : pairs) {
    if (p.first == probe) out.push_back(p.second);
    if (p.second == probe) out.push_back(p.first);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<int> WithoutSelf(std::vector<int> ids, int self) {
  ids.erase(std::remove(ids.begin(), ids.end(), self), ids.end());
  return ids;
}

}  // namespace

void RunJoin(const Options& opt, Checker& check, Report& report) {
  constexpr int kThreads = 2;
  const VectorSet vectors = JoinVectors(opt.seed);
  const auto sets = JoinSets(opt.seed);
  const auto strings = JoinStrings(opt.seed);
  const auto graphs = JoinGraphs(opt.seed);
  std::vector<JoinDomain> domains;
  domains.push_back({"hamming", HammingSpec(vectors), vectors.records,
                     static_cast<int>(vectors.records.size()), {}, {}, {}, 0,
                     {}});
  domains.push_back({"sets", SetSpec(), sets, static_cast<int>(sets.size()),
                     {}, {}, {}, 0, {}});
  domains.push_back({"strings", StringSpec(), strings,
                     static_cast<int>(strings.size()), {}, {}, {}, 0, {}});
  domains.push_back({"graphs", GraphSpec(), graphs,
                     static_cast<int>(graphs.size()), {}, {}, {}, 0, {}});
  int total_records = 0;
  for (JoinDomain& d : domains) {
    d.spec.num_threads = kThreads;
    total_records += d.records;
  }

  // Set-up: Db::Open of all four datasets from raw records, repeated. The
  // dataset copies are made before the clock starts.
  Samples setup_s;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<api::Dataset> copies;
    for (const JoinDomain& d : domains) copies.push_back(d.data);
    const auto start = Clock::now();
    std::vector<api::Db> dbs;
    for (size_t i = 0; i < domains.size(); ++i) {
      dbs.push_back(Must(api::Db::Open(domains[i].spec, std::move(copies[i])),
                         "join: Db::Open"));
    }
    setup_s.Add(SecondsSince(start));
    for (size_t i = 0; i < domains.size(); ++i) {
      domains[i].session.reset();
      domains[i].db.emplace(std::move(dbs[i]));
    }
  }
  const api::RunOptions run{kThreads, -1};
  for (JoinDomain& d : domains) {
    d.session.emplace(d.db->NewSession());
    // Warm-up join; its pairs are the reference every timed round must
    // reproduce, and a seeded sample of probes checks them against the
    // domain's brute-force oracle.
    api::JoinResult warm = Must(d.session->SelfJoin(run), "join: SelfJoin");
    d.expected = std::move(warm.pairs);
    d.candidates = warm.stats.candidates;
  }
  const pr::setsim::SetCollection collection(sets);
  const int kProbes = 40;
  for (int id : SampleIds(domains[0].records, kProbes, opt.seed + 11)) {
    check.Ids("join: hamming oracle",
              WithoutSelf(pr::hamming::BruteForceSearch(
                              vectors.records, vectors.records[id],
                              vectors.tau),
                          id),
              Partners(domains[0].expected, id));
  }
  for (int id : SampleIds(domains[1].records, kProbes, opt.seed + 12)) {
    check.Ids("join: sets oracle",
              WithoutSelf(pr::setsim::BruteForceJaccardSearch(
                              collection, collection.record(id), 0.8),
                          id),
              Partners(domains[1].expected, id));
  }
  for (int id : SampleIds(domains[2].records, kProbes, opt.seed + 13)) {
    check.Ids("join: strings oracle",
              WithoutSelf(pr::editdist::BruteForceEditSearch(strings,
                                                             strings[id], 2),
                          id),
              Partners(domains[2].expected, id));
  }
  for (int id : SampleIds(domains[3].records, 10, opt.seed + 14)) {
    check.Ids("join: graphs oracle",
              WithoutSelf(pr::graphed::BruteForceGedSearch(graphs, graphs[id],
                                                           2),
                          id),
              Partners(domains[3].expected, id));
  }

  // Timed rounds: the four self-joins back to back, each checked against
  // the reference pairs.
  Samples round_ms;
  const auto start = Clock::now();
  while (round_ms.count() < 3 || SecondsSince(start) < opt.seconds) {
    double round = 0;
    for (JoinDomain& d : domains) {
      const auto t0 = Clock::now();
      auto joined = d.session->SelfJoin(run);
      const double ms = Ms(Clock::now() - t0);
      if (!joined.ok()) {
        check.Error("join: SelfJoin", joined.status());
        continue;
      }
      check.Expect("join: pairs vs reference", joined->pairs == d.expected,
                   std::string(d.name) + ": " +
                       std::to_string(joined->pairs.size()) + " pairs, want " +
                       std::to_string(d.expected.size()));
      d.ms.Add(ms);
      round += ms;
    }
    round_ms.Add(round);
  }

  // A round's typical time is the sum of the per-domain medians, which a
  // slow spell during one join cannot move the way it moves a round total.
  double typical_ms = 0;
  for (const JoinDomain& d : domains) typical_ms += d.ms.Median();
  SetEndToEnd(report, setup_s, typical_ms,
              static_cast<double>(total_records) / (typical_ms / 1e3));
  Report::Note("join: setup (four Db::Open from raw) %s",
               Describe(setup_s, "s").c_str());
  Report::Note("join: round of four self-joins at %d threads %s", kThreads,
               Describe(round_ms, "ms").c_str());
  for (const JoinDomain& d : domains) {
    Report::Note("join: %-8s records=%d candidates=%lld pairs=%zu %s",
                 d.name, d.records, static_cast<long long>(d.candidates),
                 d.expected.size(), Describe(d.ms, "ms").c_str());
  }
}

// ---------------------------------------------------------------------
// churn

void RunChurn(const Options& opt, Checker& check, Report& report) {
  // Half the serve workload's size, so the paced writer's 20% fits the run.
  const VectorSet set = ServeVectors(opt.seed, 50000);
  const int total = static_cast<int>(set.records.size());
  const int num_base = total * 4 / 5;
  const std::vector<pr::BitVector> base(set.records.begin(),
                                        set.records.begin() + num_base);
  api::IndexSpec spec = HammingSpec(set);
  spec.delta_compact_threshold = 1000;

  Samples setup_s;
  std::optional<api::Db> db;
  for (int rep = 0; rep < 3; ++rep) {
    api::Dataset copy(base);
    const auto start = Clock::now();
    api::Db opened = Must(api::Db::Open(spec, std::move(copy)),
                          "churn: Db::Open");
    setup_s.Add(SecondsSince(start));
    db.emplace(std::move(opened));
  }

  // Removals take base records from the top down, so a base record's id
  // never shifts when a compaction packs the survivors: every id below the
  // lowest removed one is stable across epochs. Reader queries are drawn
  // from the lower half of the base and must always find themselves.
  const std::vector<int> read_ids = SampleIds(num_base / 2, 1000, opt.seed);
  constexpr int kSessionEvery = 32;
  constexpr int kInsertsPerRemove = 10;
  // The writer is paced (open loop): a closed-loop writer holds the
  // database's mutex almost continuously and starves the reader.
  const int num_inserts = total - num_base;
  const double inserts_per_s = num_inserts / (0.8 * opt.seconds);

  api::Writer writer = Must(db->NewWriter(), "churn: NewWriter");
  {
    api::Session warm = db->NewSession();
    for (int i = 0; i < 200; ++i) {
      (void)warm.Search(api::Query(set.records[read_ids[i]]));
    }
  }

  std::atomic<bool> writing{true};
  Samples insert_ms;
  int inserted = 0, removed = 0;
  double write_s = 0;
  std::thread writer_thread([&] {
    const auto start = Clock::now();
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / inserts_per_s));
    auto due = start;
    for (int i = num_base; i < total; ++i, due += period) {
      SleepUntil(due);
      const auto t0 = Clock::now();
      auto id = writer.Insert(api::Query(set.records[i]));
      insert_ms.Add(Ms(Clock::now() - t0));
      if (!id.ok()) {
        check.Error("churn: Writer::Insert", id.status());
        continue;
      }
      ++inserted;
      if (inserted % kInsertsPerRemove == 0) {
        const pr::Status status = writer.Remove(num_base - 1 - removed);
        if (status.ok()) {
          ++removed;
        } else {
          check.Error("churn: Writer::Remove", status);
        }
      }
    }
    write_s = SecondsSince(start);
    writing = false;
  });

  // Two readers, so the read numbers do not hang on the speed of the one
  // CPU a single thread happens to run on.
  constexpr int kReaders = 2;
  std::vector<Samples> reader_ms(kReaders);
  std::vector<std::vector<double>> reader_done_s(kReaders);
  const auto read_start = Clock::now();
  {
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        std::optional<api::Session> session;
        for (size_t k = 0; writing.load(); ++k) {
          // The request that mints a fresh Session pays for it, as its
          // caller would.
          const auto t0 = Clock::now();
          if (k % kSessionEvery == 0) session.emplace(db->NewSession());
          const int id = read_ids[(k * kReaders + r) % read_ids.size()];
          auto result = session->Search(api::Query(set.records[id]));
          const auto done = Clock::now();
          reader_ms[r].Add(Ms(done - t0));
          reader_done_s[r].push_back(
              std::chrono::duration<double>(done - read_start).count());
          if (!result.ok()) {
            check.Error("churn: Session::Search", result.status());
            continue;
          }
          check.Expect("churn: query finds itself",
                       std::binary_search(result->ids.begin(),
                                          result->ids.end(), id),
                       "record " + std::to_string(id));
        }
      });
    }
    for (std::thread& t : readers) t.join();
  }
  Samples read_ms;
  std::vector<double> read_done_s;
  for (int r = 0; r < kReaders; ++r) {
    read_ms.Append(reader_ms[r]);
    read_done_s.insert(read_done_s.end(), reader_done_s[r].begin(),
                       reader_done_s[r].end());
  }
  const auto reads = static_cast<int64_t>(read_ms.count());
  const double read_s = SecondsSince(read_start);
  writer_thread.join();
  const uint64_t background_compactions = db->epoch();
  Must(writer.Compact(), "churn: Writer::Compact");

  // Quiesced: answers must equal a fresh Db::Open over the surviving
  // records (base survivors in id order, then the inserts in log order —
  // the order compaction packs them in).
  std::vector<pr::BitVector> survivors(base.begin(), base.end() - removed);
  survivors.insert(survivors.end(), set.records.begin() + num_base,
                   set.records.begin() + num_base + inserted);
  api::Db fresh = Must(api::Db::Open(spec, api::Dataset(survivors)),
                       "churn: fresh Db::Open");
  check.Expect("churn: record count", db->num_records() == fresh.num_records(),
               std::to_string(db->num_records()) + " vs " +
                   std::to_string(fresh.num_records()));
  {
    api::Session churned = db->NewSession();
    api::Session reference = fresh.NewSession();
    const std::vector<int> final_ids =
        SampleIds(static_cast<int>(survivors.size()), 200, opt.seed + 21);
    for (int id : final_ids) {
      const api::Query q(survivors[id]);
      auto got = churned.Search(q);
      auto want = reference.Search(q);
      if (!got.ok() || !want.ok()) {
        check.Error("churn: final Search",
                    got.ok() ? want.status() : got.status());
        continue;
      }
      check.Ids("churn: quiesced vs fresh Db::Open", got->ids, want->ids);
    }
  }

  // Reader throughput as the median over quarter-second windows: the
  // reader's stalls behind compaction publishes land in a few windows, and
  // a mean over the whole run would swing with their exact length.
  const Samples window_rate = WindowRates(read_done_s, read_s, 0.25);
  const double reads_per_s = window_rate.Median();
  SetEndToEnd(report, setup_s, read_ms.Median(), reads_per_s);
  Report::Note("churn: setup (Db::Open of %d base records) %s", num_base,
               Describe(setup_s, "s").c_str());
  Report::Note("churn: %d inserts + %d removes in %.3f s, paced at %.0f "
               "inserts/s; Writer::Insert %s",
               inserted, removed, write_s, inserts_per_s,
               Describe(insert_ms, "ms").c_str());
  Report::Note("churn: %d readers, reads %.0f/s over the run, median window "
               "%.0f/s; Session::Search (incl. minting every %d) %s",
               kReaders, static_cast<double>(reads) / read_s, reads_per_s,
               kSessionEvery, Describe(read_ms, "ms").c_str());
  Report::Note("churn: background compactions published=%llu",
               static_cast<unsigned long long>(background_compactions));
}

// ---------------------------------------------------------------------
// shard-batch

void RunShardBatch(const Options& opt, Checker& check, Report& report) {
  const VectorSet set = ServeVectors(opt.seed);
  api::IndexSpec spec = HammingSpec(set);
  spec.num_threads = 1;
  api::IndexSpec spec2 = spec;
  spec2.shards = 2;

  Samples setup_s;
  std::optional<api::Db> db2;
  for (int rep = 0; rep < 3; ++rep) {
    api::Dataset copy(set.records);
    const auto start = Clock::now();
    api::Db opened = Must(api::Db::Open(spec2, std::move(copy)),
                          "shard-batch: Db::Open");
    setup_s.Add(SecondsSince(start));
    db2.emplace(std::move(opened));
  }

  constexpr int kBatch = 100;
  constexpr int kBatches = 20;
  const std::vector<int> pool_ids = SampleIds(
      static_cast<int>(set.records.size()), kBatch * kBatches, opt.seed);
  std::vector<std::vector<api::Query>> batches(kBatches);
  for (int b = 0; b < kBatches; ++b) {
    batches[b] = QueriesFor(
        set.records, std::vector<int>(pool_ids.begin() + b * kBatch,
                                      pool_ids.begin() + (b + 1) * kBatch));
  }
  // Expected answers from the unsharded database (S = 1), itself checked
  // against brute force on a sample.
  std::vector<std::vector<std::vector<int>>> expected(kBatches);
  {
    api::Db db1 = Must(api::Db::Open(spec, api::Dataset(set.records)),
                       "shard-batch: Db::Open S=1");
    api::Session s1 = db1.NewSession();
    for (int b = 0; b < kBatches; ++b) {
      expected[b] =
          Must(s1.SearchBatch(batches[b]), "shard-batch: S=1 SearchBatch").ids;
    }
  }
  for (int i = 0; i < 50; ++i) {
    check.Ids("shard-batch: brute-force oracle",
              pr::hamming::BruteForceSearch(set.records,
                                            set.records[pool_ids[i]], set.tau),
              expected[0][i]);
  }

  api::Session session = db2->NewSession();
  for (int b = 0; b < 3; ++b) (void)session.SearchBatch(batches[b]);

  Samples batch_ms;
  std::vector<double> done_s;
  const auto start = Clock::now();
  for (int i = 0; batch_ms.count() < 20 || SecondsSince(start) < opt.seconds;
       ++i) {
    const int b = i % kBatches;
    const auto t0 = Clock::now();
    auto result = session.SearchBatch(batches[b]);
    const auto done = Clock::now();
    batch_ms.Add(Ms(done - t0));
    done_s.push_back(std::chrono::duration<double>(done - start).count());
    if (!result.ok()) {
      check.Error("shard-batch: SearchBatch", result.status());
      continue;
    }
    check.Expect("shard-batch: S=2 ids vs S=1 ids", result->ids == expected[b],
                 "batch " + std::to_string(b));
  }

  const Samples rate = WindowRates(done_s, SecondsSince(start), 0.5, kBatch);
  SetEndToEnd(report, setup_s, batch_ms.Median(), rate.Median());
  Report::Note("shard-batch: setup (Db::Open, shards=2) %s",
               Describe(setup_s, "s").c_str());
  Report::Note("shard-batch: SearchBatch of %d queries %s", kBatch,
               Describe(batch_ms, "ms").c_str());
  Report::Note("shard-batch: queries/s per half-second window %s",
               Describe(rate, "").c_str());
}

}  // namespace perfbench
