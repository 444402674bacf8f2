// The traced run: the workload's query pool at every rung of the stack,
// one layer at a time, with a span around each public call. The cost of a
// layer is the difference between adjacent rungs; every A-vs-B pair of
// rungs is measured interleaved (ABAB) so run order cannot bias it.
//
// Rungs, bottom to top: kernel verify -> domain searcher -> engine driver
// -> Session (with and without a pending delta) -> storage -> shard
// scatter -> the wire. The Hamming rungs use the workload's own dataset
// (the d = 256 serve distribution, or the join workload's d = 128 set);
// the set, string and graph rungs always use the join workload's datasets,
// the only ones in those domains.

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <optional>
#include <thread>

#include "editdist/pivotal.h"
#include "engine/engine.h"
#include "engine/searcher.h"
#include "graphed/pars.h"
#include "hamming/search.h"
#include "kernels/flat_bit_table.h"
#include "kernels/kernels.h"
#include "net/client.h"
#include "net/server.h"
#include "setsim/pkwise.h"
#include "setsim/record.h"
#include "workloads.h"

namespace perfbench {

namespace api = pr::api;

namespace {

constexpr int kPool = 300;
constexpr int kPairs = 5;  // ABAB repetitions per comparison

double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

// Times `fn` under a span; returns microseconds.
template <typename Fn>
double Timed(const char* span, int64_t request, Fn&& fn) {
  Span s(span, request);
  const auto t0 = Clock::now();
  fn();
  return Us(Clock::now() - t0);
}

// Runs `a` and `b` alternately `pairs` times (A B A B ...), returning the
// median of each side's microseconds.
template <typename A, typename B>
std::pair<double, double> Interleaved(int pairs, A&& a, B&& b) {
  Samples sa, sb;
  for (int i = 0; i < pairs; ++i) {
    if (i % 2 == 0) {
      sa.Add(a());
      sb.Add(b());
    } else {
      sb.Add(b());
      sa.Add(a());
    }
  }
  return {sa.Median(), sb.Median()};
}

double Pct(double base, double other) { return (other - base) / base * 100; }

struct Ctx {
  const Options& opt;
  Checker& check;
  Report& report;
  VectorSet vectors;  // the workload's Hamming dataset
  std::vector<pr::BitVector> pool;
  std::vector<api::Query> queries;
};

// ---------------------------------------------------------------------

void KernelRung(Ctx& c) {
  const auto& records = c.vectors.records;
  const int n = static_cast<int>(records.size());
  const auto table = pr::kernels::FlatBitTable::FromVectors(records);
  std::vector<int> all(n);
  std::iota(all.begin(), all.end(), 0);
  std::vector<uint8_t> verdicts(n);
  constexpr int kQueries = 100;
  int64_t pairs = 0, matches = 0;
  double total_us = 0;
  for (int i = 0; i < kQueries; ++i) {
    const pr::BitVector& q = c.pool[i];
    int found = 0;
    total_us += Timed("kernels.VerifyHammingLeqBatch", i, [&] {
      found = pr::kernels::VerifyHammingLeqBatch(
          table, q.words().data(), c.vectors.tau, all.data(), n,
          verdicts.data());
    });
    pairs += n;
    matches += found;
    if (i < 10) {
      std::vector<int> ids;
      for (int id = 0; id < n; ++id) {
        if (verdicts[id]) ids.push_back(id);
      }
      c.check.Ids("kernels: verdicts vs brute force", ids,
                  pr::hamming::BruteForceSearch(records, q, c.vectors.tau));
    }
  }
  c.check.Expect("kernels: query pool verifies matches", matches > 0,
                 "zero matches");
  c.report.Set("kernels.verify_ns_per_pair",
               total_us * 1e3 / static_cast<double>(pairs), "ns");
  c.report.Set("kernels.pairs", static_cast<double>(pairs), "count");
}

void HammingRung(Ctx& c, pr::hamming::HammingSearcher& searcher) {
  Samples filter_us, verify_us;
  int64_t candidates = 0, hits = 0, chains = 0, results = 0;
  for (size_t i = 0; i < c.pool.size(); ++i) {
    pr::hamming::SearchStats stats;
    std::vector<int> ids;
    Timed("hamming.Search", static_cast<int64_t>(i), [&] {
      ids = searcher.Search(c.pool[i], c.vectors.tau, c.vectors.chain_length,
                            pr::hamming::AllocationMode::kCostModel, &stats);
    });
    filter_us.Add(stats.filter_millis * 1e3);
    verify_us.Add(stats.verify_millis * 1e3);
    candidates += stats.candidates;
    hits += stats.index_hits;
    chains += stats.chain_checks;
    results += stats.results;
    if (i < 20) {
      c.check.Ids("hamming: Search vs brute force", ids,
                  pr::hamming::BruteForceSearch(c.vectors.records, c.pool[i],
                                                c.vectors.tau));
    }
  }
  c.check.Expect("hamming: query pool verifies matches", results > 0,
                 "zero results");
  const double n = static_cast<double>(c.pool.size());
  c.report.Set("hamming.search_us",
               Tracer::Get().Durations("hamming.Search").Median(), "us");
  c.report.Set("hamming.filter_us", filter_us.Median(), "us");
  c.report.Set("hamming.verify_us", verify_us.Median(), "us");
  c.report.Set("hamming.candidates_per_query",
               static_cast<double>(candidates) / n, "count");
  c.report.Set("hamming.index_hits_per_query", static_cast<double>(hits) / n,
               "count");
  c.report.Set("hamming.chain_checks_per_query",
               static_cast<double>(chains) / n, "count");
  c.report.Set("hamming.precision",
               static_cast<double>(results) /
                   static_cast<double>(std::max<int64_t>(1, candidates)),
               "ratio");
}

// engine::SearchBatch over the adapter vs the raw searcher loop, and the
// facade: Session::SearchBatch vs engine::SearchBatch. All at one thread.
void EngineAndFacadeRungs(Ctx& c, pr::hamming::HammingSearcher& searcher,
                          api::Session& session) {
  pr::engine::HammingAdapter adapter(searcher, c.vectors.tau,
                                     c.vectors.chain_length);
  pr::engine::Executor executor(1);
  const pr::engine::ExecutionContext context(executor, {1, 8});
  auto raw = [&] {
    return Timed("hamming.SearchLoop", 0, [&] {
      for (const pr::BitVector& q : c.pool) {
        (void)searcher.Search(q, c.vectors.tau, c.vectors.chain_length);
      }
    });
  };
  auto engine = [&] {
    return Timed("engine.SearchBatch", 0, [&] {
      (void)pr::engine::SearchBatch(adapter, c.pool, context);
    });
  };
  auto facade = [&] {
    return Timed("api.Session.SearchBatch", 0, [&] {
      auto result = session.SearchBatch(c.queries, {1, 8});
      if (!result.ok()) c.check.Error("api: SearchBatch", result.status());
    });
  };
  const auto [raw_us, engine_us] = Interleaved(kPairs, raw, engine);
  c.report.Set("engine.batch_overhead_us",
               (engine_us - raw_us) / static_cast<double>(c.pool.size()),
               "us");
  const auto [engine2_us, facade_us] = Interleaved(kPairs, engine, facade);
  c.report.Set("api.facade_overhead_pct", Pct(engine2_us, facade_us), "%");
}

// Session::Search vs SubmitBatch({q}) + Get, per query, interleaved.
void SessionRungs(Ctx& c, api::Db& db, api::Session& session) {
  Samples direct, hop;
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < c.queries.size(); ++i) {
      const int64_t request = static_cast<int64_t>(i);
      auto a = [&] {
        direct.Add(Timed("api.Session.Search", request, [&] {
          auto r = session.Search(c.queries[i]);
          if (!r.ok()) c.check.Error("api: Session::Search", r.status());
        }));
      };
      auto b = [&] {
        hop.Add(Timed("api.Session.SubmitBatch+Get", request, [&] {
          auto r = session.SubmitBatch({c.queries[i]}).Get();
          if (!r.ok()) c.check.Error("api: SubmitBatch", r.status());
        }));
      };
      if ((i + round) % 2 == 0) {
        a();
        b();
      } else {
        b();
        a();
      }
    }
  }
  c.report.Set("api.session_search_us", direct.Median(), "us");
  c.report.Set("engine.submit_hop_us", hop.Median() - direct.Median(), "us");

  Samples mint;
  for (int i = 0; i < 200; ++i) {
    mint.Add(Timed("api.Db.NewSession", i, [&] {
      api::Session s = db.NewSession();
      (void)s;
    }));
  }
  c.report.Set("api.new_session_us", mint.Median(), "us");
}

// Writer rungs: insert latency with background compaction on, then a
// Session holding K pending inserts vs the same records compacted.
void WriterRungs(Ctx& c) {
  const auto& records = c.vectors.records;
  constexpr int kInserts = 2000;
  const int num_base = static_cast<int>(records.size()) - kInserts;
  const std::vector<pr::BitVector> base(records.begin(),
                                        records.begin() + num_base);
  api::IndexSpec spec = HammingSpec(c.vectors);

  {
    spec.delta_compact_threshold = 512;
    api::Db db = Must(api::Db::Open(spec, api::Dataset(base)),
                      "ladder: Db::Open");
    Samples insert_us;
    {
      api::Writer writer = Must(db.NewWriter(), "ladder: NewWriter");
      for (int i = num_base; i < static_cast<int>(records.size()); ++i) {
        insert_us.Add(Timed("api.Writer.Insert", i, [&] {
          auto id = writer.Insert(api::Query(records[i]));
          if (!id.ok()) c.check.Error("api: Insert", id.status());
        }));
      }
    }
    c.report.Set("api.insert_us_p50", insert_us.Median(), "us");
    c.report.Set("api.insert_us_p99", insert_us.Percentile(99), "us");
    c.report.Set("api.compactions", static_cast<double>(db.epoch()), "count");
  }

  spec.delta_compact_threshold = 0;
  api::Db db = Must(api::Db::Open(spec, api::Dataset(base)),
                    "ladder: Db::Open");
  api::Writer writer = Must(db.NewWriter(), "ladder: NewWriter");
  for (int i = num_base; i < static_cast<int>(records.size()); ++i) {
    Must(writer.Insert(api::Query(records[i])).status(), "ladder: Insert");
  }
  api::Session pending = db.NewSession();
  const double compact_us = Timed("api.Writer.Compact", 0, [&] {
    Must(writer.Compact(), "ladder: Compact");
  });
  c.report.Set("api.compact_s", compact_us / 1e6, "s");
  api::Session compacted = db.NewSession();

  Samples delta_us, base_us;
  int64_t delta_cand = 0, base_cand = 0;
  for (size_t i = 0; i < c.queries.size(); ++i) {
    std::optional<api::SearchResult> a, b;
    auto run_a = [&] {
      delta_us.Add(Timed("api.Session.Search(delta)", i, [&] {
        a = Must(pending.Search(c.queries[i]), "delta Search");
      }));
    };
    auto run_b = [&] {
      base_us.Add(Timed("api.Session.Search(compacted)", i, [&] {
        b = Must(compacted.Search(c.queries[i]), "compacted Search");
      }));
    };
    if (i % 2 == 0) {
      run_a();
      run_b();
    } else {
      run_b();
      run_a();
    }
    delta_cand += a->stats.candidates;
    base_cand += b->stats.candidates;
    c.check.Ids("api: pending delta vs compacted", a->ids, b->ids);
  }
  const double n = static_cast<double>(c.queries.size());
  c.report.Set("api.delta_search_us", delta_us.Median(), "us");
  c.report.Set("api.compacted_search_us", base_us.Median(), "us");
  c.report.Set("api.delta_candidates_per_query",
               static_cast<double>(delta_cand) / n, "count");
  c.report.Set("api.compacted_candidates_per_query",
               static_cast<double>(base_cand) / n, "count");
}

void StorageRung(Ctx& c, api::Db& db, const api::IndexSpec& spec) {
  const std::string path = c.opt.work_dir + "/ladder.pgri";
  Samples save_s, open_s;
  std::optional<api::Db> opened;
  for (int i = 0; i < 3; ++i) {
    save_s.Add(Timed("storage.Save", i, [&] {
                 Must(db.Save(path), "ladder: Save");
               }) / 1e6);
    open_s.Add(Timed("storage.OpenIndex", i, [&] {
                 opened.emplace(Must(api::Db::OpenIndex(spec, path),
                                     "ladder: OpenIndex"));
               }) / 1e6);
  }
  const double bytes = static_cast<double>(std::filesystem::file_size(path));
  std::filesystem::remove(path);
  api::Session a = db.NewSession();
  api::Session b = opened->NewSession();
  for (int i = 0; i < 50; ++i) {
    c.check.Ids("storage: reopened vs built",
                Must(b.Search(c.queries[i]), "reopened Search").ids,
                Must(a.Search(c.queries[i]), "built Search").ids);
  }
  const auto& records = c.vectors.records;
  const double raw = static_cast<double>(records.size()) *
                     records[0].dimensions() / 8.0;
  c.report.Set("storage.save_s", save_s.Median(), "s");
  c.report.Set("storage.open_s", open_s.Median(), "s");
  c.report.Set("storage.file_bytes", bytes, "bytes");
  c.report.Set("storage.space_amp", bytes / raw, "ratio");
}

void ShardRung(Ctx& c, api::Db& db1) {
  api::IndexSpec spec = db1.spec();
  spec.shards = 2;
  Samples open_s;
  std::optional<api::Db> db2;
  for (int i = 0; i < 3; ++i) {
    api::Dataset copy(c.vectors.records);
    open_s.Add(Timed("shard.Db.Open", i, [&] {
                 db2.emplace(Must(api::Db::Open(spec, std::move(copy)),
                                  "ladder: Db::Open shards=2"));
               }) / 1e6);
  }
  api::Session s1 = db1.NewSession();
  api::Session s2 = db2->NewSession();
  constexpr int kBatch = 100;
  const std::vector<api::Query> batch(c.queries.begin(),
                                      c.queries.begin() + kBatch);
  std::vector<std::vector<int>> want, got;
  auto one = [&] {
    return Timed("shard.S1.SearchBatch", 0, [&] {
      want = Must(s1.SearchBatch(batch, {1, 8}), "S=1 SearchBatch").ids;
    });
  };
  auto two = [&] {
    return Timed("shard.S2.SearchBatch", 0, [&] {
      got = Must(s2.SearchBatch(batch, {1, 8}), "S=2 SearchBatch").ids;
    });
  };
  const auto [s1_us, s2_us] = Interleaved(4 * kPairs, one, two);
  c.check.Expect("shard: S=2 ids vs S=1 ids", got == want, "batch differs");
  c.report.Set("shard.batch_ms.s1", s1_us / 1e3, "ms");
  c.report.Set("shard.batch_ms.s2", s2_us / 1e3, "ms");
  c.report.Set("shard.scatter_overhead_pct", Pct(s1_us, s2_us), "%");
  c.report.Set("shard.open_s", open_s.Median(), "s");
}

void NetRung(Ctx& c, api::Db& db, api::Session& session) {
  pr::net::Server server =
      Must(pr::net::Server::Start(db), "ladder: Server::Start");
  constexpr int kConnections = 2;
  std::vector<pr::net::Client> clients;
  for (int i = 0; i < kConnections; ++i) {
    clients.push_back(Must(pr::net::Client::Connect("127.0.0.1", server.port()),
                           "ladder: Connect"));
  }
  Samples ping;
  for (int i = 0; i < 200; ++i) {
    ping.Add(Timed("net.Client.Ping", i, [&] {
      const pr::Status status = clients[0].Ping();
      if (!status.ok()) c.check.Error("net: Ping", status);
    }));
  }
  Samples wire, local;
  for (size_t i = 0; i < c.queries.size(); ++i) {
    std::vector<int> got, want;
    auto a = [&] {
      local.Add(Timed("api.Session.Search", i, [&] {
        want = Must(session.Search(c.queries[i]), "Session::Search").ids;
      }));
    };
    auto b = [&] {
      wire.Add(Timed("net.Client.Search", i, [&] {
        auto reply = clients[0].Search(c.queries[i]);
        if (reply.ok()) {
          got = std::move(reply->ids);
        } else {
          c.check.Error("net: Client::Search", reply.status());
        }
      }));
    };
    if (i % 2 == 0) {
      a();
      b();
    } else {
      b();
      a();
    }
    c.check.Ids("net: TCP reply vs Session", got, want);
  }

  // A short open loop at the serve workload's offered rate: how late the
  // generator sends is what vouches for serve's latency-from-due-time.
  constexpr double kRate = 1000;
  constexpr double kSeconds = 2;
  std::vector<Samples> late(kConnections);
  {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kConnections / kRate));
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(kSeconds));
    std::vector<std::thread> threads;
    for (int t = 0; t < kConnections; ++t) {
      threads.emplace_back([&, t] {
        auto due = start + period * t / kConnections;
        for (size_t k = 0; due < end; ++k, due += period) {
          SleepUntil(due);
          late[t].Add(
              std::chrono::duration<double, std::milli>(Clock::now() - due)
                  .count());
          auto reply = clients[t].Search(c.queries[k % c.queries.size()]);
          if (!reply.ok()) c.check.Error("net: open loop", reply.status());
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  Samples late_ms;
  for (const Samples& s : late) late_ms.Append(s);

  const pr::net::ServerStats stats = server.Snapshot();
  c.check.Expect("net: shed", stats.shed == 0, std::to_string(stats.shed));
  c.check.Expect("net: protocol errors", stats.protocol_errors == 0,
                 std::to_string(stats.protocol_errors));
  for (pr::net::Client& client : clients) client.Close();
  server.Stop();
  c.report.Set("net.ping_us", ping.Median(), "us");
  c.report.Set("net.client_search_us", wire.Median(), "us");
  c.report.Set("net.wire_us", wire.Median() - local.Median(), "us");
  c.report.Set("net.accepted", static_cast<double>(stats.accepted), "count");
  c.report.Set("loadgen.late_p99_ms", late_ms.Percentile(99), "ms");
}

// ---------------------------------------------------------------------
// The other three domains: the searcher called directly on sampled record
// queries, then the self-join through a Session at two threads.

// Span names are string literals: the tracer keeps the pointers.
template <typename SearchFn>
void DomainSearchRung(Ctx& c, const char* module, const char* span,
                      int num_records, SearchFn&& search) {
  Samples filter_us, verify_us;
  int64_t results = 0;
  const std::vector<int> ids = SampleIds(num_records, 200, c.opt.seed + 31);
  for (size_t i = 0; i < ids.size(); ++i) {
    double filter_ms = 0, verify_ms = 0;
    Timed(span, static_cast<int64_t>(i), [&] {
      results += search(ids[i], i < 10, &filter_ms, &verify_ms);
    });
    filter_us.Add(filter_ms * 1e3);
    verify_us.Add(verify_ms * 1e3);
  }
  c.check.Expect("domain: query pool verifies matches", results > 0, module);
  c.report.Set(std::string(module) + ".search_us",
               Tracer::Get().Durations(span).Median(), "us");
  c.report.Set(std::string(module) + ".filter_us", filter_us.Median(), "us");
  c.report.Set(std::string(module) + ".verify_us", verify_us.Median(), "us");
}

void JoinRung(Ctx& c, const char* module, const char* span,
              api::IndexSpec spec, api::Dataset data) {
  spec.num_threads = 2;
  api::Db db = Must(api::Db::Open(spec, std::move(data)), "ladder: Db::Open");
  api::Session session = db.NewSession();
  api::JoinResult joined;
  const double us = Timed(span, 0, [&] {
    joined = Must(session.SelfJoin({2, -1}), "ladder: SelfJoin");
  });
  c.report.Set(std::string(module) + ".join_ms", us / 1e3, "ms");
  c.report.Set(std::string(module) + ".join_candidates",
               static_cast<double>(joined.stats.candidates), "count");
  c.report.Set(std::string(module) + ".precision",
               static_cast<double>(joined.stats.pairs) /
                   static_cast<double>(
                       std::max<int64_t>(1, joined.stats.candidates)),
               "ratio");
}

void DomainRungs(Ctx& c) {
  const uint64_t seed = c.opt.seed;
  {
    const auto sets = JoinSets(seed);
    const pr::setsim::SetCollection collection(sets);
    pr::setsim::PkwiseSearcher searcher(&collection, 0.8, 5,
                                        pr::setsim::SetMeasure::kJaccard);
    DomainSearchRung(c, "setsim", "setsim.Search", collection.num_records(),
                     [&](int id, bool oracle, double* f, double* v) {
                       pr::setsim::SetSearchStats st;
                       const auto ids =
                           searcher.Search(collection.record(id), 2, &st);
                       if (oracle) {
                         c.check.Ids("setsim: Search vs brute force", ids,
                                     pr::setsim::BruteForceJaccardSearch(
                                         collection, collection.record(id),
                                         0.8));
                       }
                       *f = st.filter_millis;
                       *v = st.verify_millis;
                       return st.results;
                     });
    JoinRung(c, "setsim", "setsim.SelfJoin", SetSpec(), sets);
  }
  {
    const auto strings = JoinStrings(seed);
    pr::editdist::EditDistanceSearcher searcher(&strings, 2, 2);
    int64_t stage2 = 0, queries = 0;
    DomainSearchRung(c, "editdist", "editdist.Search",
                     static_cast<int>(strings.size()),
                     [&](int id, bool oracle, double* f, double* v) {
                       pr::editdist::EditSearchStats st;
                       const auto ids = searcher.Search(
                           strings[id], pr::editdist::EditFilter::kRing, 3,
                           &st);
                       if (oracle) {
                         c.check.Ids("editdist: Search vs brute force", ids,
                                     pr::editdist::BruteForceEditSearch(
                                         strings, strings[id], 2));
                       }
                       stage2 += st.candidates_stage2;
                       ++queries;
                       *f = st.filter_millis;
                       *v = st.verify_millis;
                       return st.results;
                     });
    c.report.Set("editdist.candidates_stage2",
                 static_cast<double>(stage2) / static_cast<double>(queries),
                 "count");
    JoinRung(c, "editdist", "editdist.SelfJoin", StringSpec(), strings);
  }
  {
    const auto graphs = JoinGraphs(seed);
    pr::graphed::GraphSearcher searcher(&graphs, 2, 1);
    int64_t subiso = 0, queries = 0;
    DomainSearchRung(c, "graphed", "graphed.Search",
                     static_cast<int>(graphs.size()),
                     [&](int id, bool oracle, double* f, double* v) {
                       pr::graphed::GraphSearchStats st;
                       const auto ids = searcher.Search(
                           graphs[id], pr::graphed::GraphFilter::kRing, 2,
                           &st);
                       if (oracle && id % 2 == 0) {
                         c.check.Ids("graphed: Search vs brute force", ids,
                                     pr::graphed::BruteForceGedSearch(
                                         graphs, graphs[id], 2));
                       }
                       subiso += st.subiso_tests;
                       ++queries;
                       *f = st.filter_millis;
                       *v = st.verify_millis;
                       return st.results;
                     });
    c.report.Set("graphed.subiso_tests",
                 static_cast<double>(subiso) / static_cast<double>(queries),
                 "count");
    JoinRung(c, "graphed", "graphed.SelfJoin", GraphSpec(), graphs);
  }
  // Join scaling on the join workload's Hamming dataset: one thread vs
  // two, interleaved.
  const VectorSet vectors = JoinVectors(seed);
  api::IndexSpec spec = HammingSpec(vectors);
  spec.num_threads = 2;
  api::Db db = Must(api::Db::Open(spec, api::Dataset(vectors.records)),
                    "ladder: Db::Open");
  api::Session session = db.NewSession();
  auto join = [&](int threads, const char* span) {
    return Timed(span, threads, [&] {
      Must(session.SelfJoin({threads, -1}), "ladder: SelfJoin");
    });
  };
  const auto [one_us, two_us] =
      Interleaved(2, [&] { return join(1, "hamming.SelfJoin(1 thread)"); },
                  [&] { return join(2, "hamming.SelfJoin(2 threads)"); });
  c.report.Set("engine.join_speedup", one_us / two_us, "ratio");
  c.report.Set("hamming.join_ms", two_us / 1e3, "ms");
}

// Span-recording overhead: the pool through Session::Search with the
// tracer off and on, interleaved.
void TraceOverhead(Ctx& c, api::Session& session) {
  auto pass = [&](bool traced) {
    Tracer::Get().SetEnabled(traced);
    const auto t0 = Clock::now();
    for (size_t i = 0; i < c.queries.size(); ++i) {
      Span span("trace.Session.Search", static_cast<int64_t>(i));
      (void)session.Search(c.queries[i]);
    }
    const double us = Us(Clock::now() - t0);
    Tracer::Get().SetEnabled(true);
    return us;
  };
  const auto [off_us, on_us] =
      Interleaved(2 * kPairs, [&] { return pass(false); },
                  [&] { return pass(true); });
  c.report.Set("trace.overhead_pct", Pct(off_us, on_us), "%");
}

}  // namespace

void RunLadder(const Options& opt, Checker& check, Report& report) {
  Ctx c{opt, check, report,
        opt.workload == "join" ? JoinVectors(opt.seed)
                               : ServeVectors(opt.seed),
        {}, {}};
  for (int id : SampleIds(static_cast<int>(c.vectors.records.size()), kPool,
                          opt.seed)) {
    c.pool.push_back(c.vectors.records[id]);
    c.queries.emplace_back(c.vectors.records[id]);
  }
  Tracer::Get().SetEnabled(true);

  // Each rung runs under a parent span, so the dump nests every call span
  // under the rung that made it.
  {
    Span rung("rung.kernels");
    KernelRung(c);
  }
  pr::hamming::HammingSearcher searcher(c.vectors.records);
  {
    Span rung("rung.hamming");
    HammingRung(c, searcher);
  }

  api::IndexSpec spec = HammingSpec(c.vectors);
  Samples open_s;
  std::optional<api::Db> db;
  {
    Span rung("rung.api.open");
    for (int i = 0; i < 3; ++i) {
      api::Dataset copy(c.vectors.records);
      open_s.Add(Timed("api.Db.Open", i, [&] {
                   db.emplace(Must(api::Db::Open(spec, std::move(copy)),
                                   "ladder: Db::Open"));
                 }) / 1e6);
    }
  }
  report.Set("api.open_s", open_s.Median(), "s");
  api::Session session = db->NewSession();

  auto rung = [](const char* name, auto&& body) {
    Span span(name);
    body();
  };
  rung("rung.engine", [&] { EngineAndFacadeRungs(c, searcher, session); });
  rung("rung.api.session", [&] { SessionRungs(c, *db, session); });
  rung("rung.api.writer", [&] { WriterRungs(c); });
  rung("rung.storage", [&] { StorageRung(c, *db, spec); });
  rung("rung.shard", [&] { ShardRung(c, *db); });
  rung("rung.net", [&] { NetRung(c, *db, session); });
  rung("rung.domains", [&] { DomainRungs(c); });
  TraceOverhead(c, session);

  // Self time per span name: where the traced run spent its time.
  for (const auto& [name, t] : Tracer::Get().SelfTimes()) {
    Report::Note("span %-34s n=%-6lld total=%10.3f ms self=%10.3f ms",
                 name.c_str(), static_cast<long long>(t.count), t.total_ms,
                 t.self_ms);
  }
  const std::string dump = opt.work_dir + "/spans-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".jsonl";
  if (Tracer::Get().Dump(dump)) {
    Report::Note("spans: %zu written to %s", Tracer::Get().size(),
                 dump.c_str());
  }
}

}  // namespace perfbench
