// Kernel panel: the verification hot path before and after the kernel
// layer, self-timed (no Google Benchmark dependency so it runs everywhere,
// including the CI bench-smoke job).
//
// Three panels:
//   1. verify:      per-pair threshold verification H(x, q) <= tau at
//                   several dimension counts — the pre-PR scalar loop over
//                   per-record BitVector words (full distance, then
//                   compare) vs kernels::VerifyHammingLeqBatch over a
//                   FlatBitTable (dispatched popcount + early exit).
//   2. isa sweep:   the same batched kernel pinned to each supported
//                   dispatch path at d = 512 — the smallest width whose
//                   rows leave the inlined small-row path (<= 4 words) and
//                   reach the dispatched kernels — to attribute the win
//                   between layout/early-exit and SIMD width.
//   3. end-to-end:  HammingSearcher::Search wall time on a clustered
//                   dataset (the full filter + rewired verify stack), with
//                   queries drawn from the indexed objects.
//
// `--json FILE` dumps the panels machine-readably; BENCH_kernels.json at
// the repo root is a committed baseline (protocol in docs/BENCHMARKS.md).
// The verify panel self-checks that both paths return identical verdicts
// before timing anything.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/bitvector.h"
#include "common/random.h"
#include "common/timer.h"
#include "datagen/binary_vectors.h"
#include "hamming/search.h"
#include "kernels/flat_bit_table.h"
#include "kernels/kernels.h"

namespace {

using namespace pigeonring;

// The pre-PR verification loop, replicated exactly: word-at-a-time
// popcount over each record's own heap-allocated word vector, full
// distance computed before the threshold compare (no early exit, no flat
// layout). This is the baseline the kernel panel is measured against.
int PrePrVerifyCount(const std::vector<BitVector>& objects,
                     const BitVector& query, int tau) {
  int hits = 0;
  for (const BitVector& x : objects) {
    const std::vector<uint64_t>& a = x.words();
    const std::vector<uint64_t>& b = query.words();
    int total = 0;
    for (size_t i = 0; i < a.size(); ++i) total += Popcount64(a[i] ^ b[i]);
    if (total <= tau) ++hits;
  }
  return hits;
}

std::vector<BitVector> MakeVectors(int n, int dimensions, uint64_t seed) {
  datagen::BinaryVectorConfig config;
  config.dimensions = dimensions;
  config.num_objects = n;
  config.num_clusters = std::max(1, n / 40);
  config.cluster_fraction = 0.5;
  config.flip_rate = 0.05;
  config.bit_bias = 0.3;
  config.seed = seed;
  return datagen::GenerateBinaryVectors(config);
}

struct VerifyPanelRow {
  int dimensions = 0;
  int tau = 0;
  int rows = 0;
  int queries = 0;
  double baseline_ns_per_pair = 0;
  double kernel_ns_per_pair = 0;
  double speedup = 0;
};

VerifyPanelRow RunVerifyPanel(int dimensions, int repeats) {
  VerifyPanelRow row;
  row.dimensions = dimensions;
  row.tau = dimensions / 10;  // selective threshold: most pairs early-exit
  row.rows = bench::Scaled(4000);
  row.queries = 32;
  const auto objects = MakeVectors(row.rows, dimensions, 7000 + dimensions);
  const auto queries = MakeVectors(row.queries, dimensions, 7100 + dimensions);
  const kernels::FlatBitTable table =
      kernels::FlatBitTable::FromVectors(objects);
  std::vector<int> ids(objects.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
  std::vector<uint8_t> verdicts(objects.size());

  // Parity self-check before timing.
  for (const BitVector& q : queries) {
    const int expected = PrePrVerifyCount(objects, q, row.tau);
    const int got = kernels::VerifyHammingLeqBatch(
        table, q.words().data(), row.tau, ids.data(),
        static_cast<int>(ids.size()), verdicts.data());
    if (expected != got) {
      std::fprintf(stderr, "FATAL: kernel/baseline verdict mismatch at d=%d\n",
                   dimensions);
      std::exit(1);
    }
  }

  const double pairs =
      static_cast<double>(row.rows) * row.queries * repeats;
  StopWatch watch;
  long long sink = 0;
  for (int r = 0; r < repeats; ++r) {
    for (const BitVector& q : queries) {
      sink += PrePrVerifyCount(objects, q, row.tau);
    }
  }
  row.baseline_ns_per_pair = watch.ElapsedMillis() * 1e6 / pairs;

  watch.Restart();
  for (int r = 0; r < repeats; ++r) {
    for (const BitVector& q : queries) {
      sink += kernels::VerifyHammingLeqBatch(
          table, q.words().data(), row.tau, ids.data(),
          static_cast<int>(ids.size()), verdicts.data());
    }
  }
  row.kernel_ns_per_pair = watch.ElapsedMillis() * 1e6 / pairs;
  row.speedup = row.baseline_ns_per_pair /
                std::max(1e-9, row.kernel_ns_per_pair);
  if (sink == 42) std::printf(" ");  // defeat dead-code elimination
  return row;
}

struct IsaSweepRow {
  std::string isa;
  double kernel_ns_per_pair = 0;
};

std::vector<IsaSweepRow> RunIsaSweep(int dimensions, int repeats) {
  std::vector<IsaSweepRow> rows;
  const int tau = dimensions / 10;
  const int n = bench::Scaled(4000);
  const auto objects = MakeVectors(n, dimensions, 7200);
  const auto queries = MakeVectors(32, dimensions, 7300);
  const kernels::FlatBitTable table =
      kernels::FlatBitTable::FromVectors(objects);
  std::vector<int> ids(objects.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
  std::vector<uint8_t> verdicts(objects.size());
  const kernels::Isa saved = kernels::ActiveIsa();
  long long sink = 0;
  for (kernels::Isa isa : {kernels::Isa::kScalar, kernels::Isa::kAvx2,
                           kernels::Isa::kAvx512}) {
    if (!kernels::SetActiveIsa(isa)) continue;
    StopWatch watch;
    for (int r = 0; r < repeats; ++r) {
      for (const BitVector& q : queries) {
        sink += kernels::VerifyHammingLeqBatch(
            table, q.words().data(), tau, ids.data(),
            static_cast<int>(ids.size()), verdicts.data());
      }
    }
    const double pairs = static_cast<double>(n) * queries.size() * repeats;
    rows.push_back({kernels::IsaName(isa),
                    watch.ElapsedMillis() * 1e6 / pairs});
  }
  kernels::SetActiveIsa(saved);
  if (sink == 42) std::printf(" ");
  return rows;
}

// The queries are indexed objects, so each one must at least find itself
// (`every_query_matches_itself`): a search that returns nothing is then a
// bug, not a quiet dataset.
struct SearchPanelRow {
  int num_objects = 0;
  int num_queries = 0;
  double millis_per_query = 0;
  int64_t results = 0;
  bool every_query_matches_itself = false;
};

SearchPanelRow RunSearchPanel() {
  SearchPanelRow row;
  row.num_objects = bench::Scaled(20000);
  row.num_queries = bench::Scaled(200);
  auto objects = MakeVectors(row.num_objects, 128, 7400);
  std::vector<int> query_ids;
  std::vector<BitVector> queries;
  Rng rng(7500);
  for (int i = 0; i < row.num_queries; ++i) {
    query_ids.push_back(static_cast<int>(rng.NextBounded(objects.size())));
    queries.push_back(objects[query_ids.back()]);
  }
  hamming::HammingSearcher searcher(std::move(objects));
  std::vector<std::vector<int>> results;
  results.reserve(queries.size());
  StopWatch watch;
  for (const BitVector& q : queries) {
    results.push_back(searcher.Search(q, 12, 4));
  }
  row.millis_per_query = watch.ElapsedMillis() / row.num_queries;
  row.every_query_matches_itself = true;
  for (size_t i = 0; i < results.size(); ++i) {
    row.results += static_cast<int64_t>(results[i].size());
    if (std::find(results[i].begin(), results[i].end(), query_ids[i]) ==
        results[i].end()) {
      row.every_query_matches_itself = false;
    }
  }
  return row;
}

void WriteJson(const std::string& path,
               const std::vector<VerifyPanelRow>& verify,
               const std::vector<IsaSweepRow>& sweep,
               const SearchPanelRow& search) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"kernels\",\n");
  std::fprintf(f, "  \"scale\": %g,\n", bench::Scale());
  std::fprintf(f, "  \"kernel_isa\": \"%s\",\n",
               kernels::IsaName(kernels::ActiveIsa()));
  std::fprintf(f, "  \"verify_leq\": [\n");
  for (size_t i = 0; i < verify.size(); ++i) {
    const VerifyPanelRow& r = verify[i];
    std::fprintf(f,
                 "    {\"dimensions\": %d, \"tau\": %d, \"rows\": %d, "
                 "\"queries\": %d, \"baseline_scalar_loop_ns_per_pair\": "
                 "%.3f, \"kernel_leq_ns_per_pair\": %.3f, \"speedup\": "
                 "%.3f}%s\n",
                 r.dimensions, r.tau, r.rows, r.queries,
                 r.baseline_ns_per_pair, r.kernel_ns_per_pair, r.speedup,
                 i + 1 == verify.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"isa_sweep_d512\": [\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    std::fprintf(f, "    {\"isa\": \"%s\", \"kernel_ns_per_pair\": %.3f}%s\n",
                 sweep[i].isa.c_str(), sweep[i].kernel_ns_per_pair,
                 i + 1 == sweep.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"search_hamming_d128\": {\"objects\": %d, \"queries\": "
               "%d, \"millis_per_query\": %.4f, \"results\": %lld, "
               "\"every_query_matches_itself\": %s}\n",
               search.num_objects, search.num_queries,
               search.millis_per_query,
               static_cast<long long>(search.results),
               search.every_query_matches_itself ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }
  std::printf(
      "== Kernel panel: verification before/after the kernel layer ==\n");
  std::printf("dispatch: best=%s active=%s\n\n",
              kernels::IsaName(kernels::BestIsa()),
              kernels::IsaName(kernels::ActiveIsa()));

  const int repeats = std::max(1, bench::Scaled(10));
  std::vector<VerifyPanelRow> verify;
  {
    Table table("verify H(x,q) <= tau: pre-PR scalar loop vs kernel batch",
                {"d", "tau", "baseline ns/pair", "kernel ns/pair", "speedup"});
    for (const int d : {64, 128, 256, 512}) {
      verify.push_back(RunVerifyPanel(d, repeats));
      const VerifyPanelRow& r = verify.back();
      table.AddRow({Table::Int(r.dimensions), Table::Int(r.tau),
                    Table::Num(r.baseline_ns_per_pair, 2),
                    Table::Num(r.kernel_ns_per_pair, 2),
                    Table::Num(r.speedup, 2) + "x"});
    }
    table.Print();
    std::printf("\n");
  }

  std::vector<IsaSweepRow> sweep = RunIsaSweep(512, repeats);
  {
    Table table("same batched kernel pinned per dispatch path (d = 512)",
                {"isa", "kernel ns/pair"});
    for (const IsaSweepRow& r : sweep) {
      table.AddRow({r.isa, Table::Num(r.kernel_ns_per_pair, 2)});
    }
    table.Print();
    std::printf("\n");
  }

  const SearchPanelRow search = RunSearchPanel();
  std::printf(
      "end-to-end HammingSearcher::Search (d=128, tau=12, l=4): %d objects, "
      "%d queries, %.3f ms/query, %lld results\n",
      search.num_objects, search.num_queries, search.millis_per_query,
      static_cast<long long>(search.results));

  if (!json_path.empty()) WriteJson(json_path, verify, sweep, search);
  // Written to the JSON above first, like every bench self-check verdict.
  if (!search.every_query_matches_itself) {
    std::fprintf(stderr, "FATAL: a query did not find its own record\n");
    return 1;
  }
  return 0;
}
