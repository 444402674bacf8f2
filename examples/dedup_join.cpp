// Whole-collection deduplication with similarity self-joins.
//
// Data-cleaning pipelines rarely issue one query at a time: they join a
// collection with itself and review every near-duplicate pair. This example
// runs pigeonring-accelerated self-joins over two object types through the
// public api::Db + api::Session facade and uses the analytic chain-length
// advisor (core/advisor.h) to pick l instead of hand-tuning it.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "api/db.h"
#include "common/table.h"
#include "core/advisor.h"
#include "datagen/binary_vectors.h"
#include "datagen/strings.h"

using namespace pigeonring;

namespace {

// Opens `dataset` under `spec` and self-joins it; exits on any error.
api::JoinResult SelfJoin(const api::IndexSpec& spec,
                         const api::Dataset& dataset) {
  auto opened = api::Db::Open(spec, dataset);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    std::exit(1);
  }
  auto joined = opened->NewSession().SelfJoin();
  if (!joined.ok()) {
    std::fprintf(stderr, "self-join failed: %s\n",
                 joined.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(joined).value();
}

void AddRow(Table& table, const std::string& method,
            const api::JoinResult& joined) {
  table.AddRow({method, Table::Int(joined.stats.pairs),
                Table::Int(joined.stats.candidates),
                Table::Num(joined.stats.total_millis, 1)});
}

}  // namespace

int main() {
  // --- Binary-code dedup ----------------------------------------------
  datagen::BinaryVectorConfig vec_config;
  vec_config.dimensions = 128;
  vec_config.num_objects = 20000;
  vec_config.num_clusters = 500;
  vec_config.flip_rate = 0.03;
  vec_config.seed = 15;
  const api::Dataset codes(datagen::GenerateBinaryVectors(vec_config));
  api::IndexSpec code_spec;
  code_spec.domain = api::Domain::kHamming;
  code_spec.tau = 16;
  code_spec.num_parts = vec_config.dimensions / 16;  // the paper's m

  // Ask the §3.1 model which chain length to use: per-part distances of
  // unrelated codes are ~Binomial(d/m, 1/2); verification costs roughly
  // d/64 word operations vs ~1 per box check.
  const int m = code_spec.num_parts;
  const int tau = static_cast<int>(code_spec.tau);
  core::FilterAnalysis analysis(
      core::DiscretePmf::Binomial(vec_config.dimensions / m, 0.5), m, tau);
  core::ChainCostModel costs;
  costs.box_check_cost = 1.0;
  costs.verify_cost = 8.0;
  const int advised_l = core::SuggestChainLength(analysis, m, costs);
  std::printf("advisor suggests chain length l = %d for tau = %d, m = %d\n",
              advised_l, tau, m);

  Table table("binary-code self-join, tau = 16",
              {"method", "pairs", "candidate probes", "time (ms)"});
  for (int l : {1, advised_l}) {
    code_spec.chain_length = l;
    AddRow(table, l == 1 ? "GPH baseline" : "Ring (advised l)",
           SelfJoin(code_spec, codes));
  }
  table.Print();

  // --- String dedup -----------------------------------------------------
  datagen::StringConfig str_config;
  str_config.num_records = 8000;
  str_config.avg_length = 24;
  str_config.duplicate_fraction = 0.25;
  str_config.max_perturb_edits = 2;
  str_config.seed = 16;
  const std::vector<std::string> names = datagen::GenerateStrings(str_config);
  api::IndexSpec name_spec;
  name_spec.domain = api::Domain::kEdit;
  name_spec.tau = 2;
  name_spec.kappa = 2;
  name_spec.edit_fast_path = api::EditFastPath::kOff;  // the q-gram path
  Table table2("string self-join, ed <= 2",
               {"method", "pairs", "candidate probes", "time (ms)"});
  name_spec.chain_length = 1;
  AddRow(table2, "Pivotal", SelfJoin(name_spec, api::Dataset(names)));
  name_spec.chain_length = 3;
  const api::JoinResult ring = SelfJoin(name_spec, api::Dataset(names));
  AddRow(table2, "Ring (l=3)", ring);
  if (!ring.pairs.empty()) {
    std::printf("\nexample duplicate pair: \"%s\" ~ \"%s\"\n",
                names[ring.pairs.front().first].c_str(),
                names[ring.pairs.front().second].c_str());
  }
  std::printf("\n");
  table2.Print();
  std::printf(
      "\nBoth joins return identical pair sets; the pigeonring filter cuts\n"
      "the candidate probes that each probe record must verify.\n");
  return 0;
}
