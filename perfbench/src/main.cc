// perfbench: the pigeonring stack's benchmark.
//
//   perfbench --workload serve|join|churn|shard-batch --seed N
//             --seconds S --trace 0|1 [--work-dir DIR]
//             [--inject-wrong-answer]
//
// --trace 0 runs the workload untraced and prints the end-to-end metrics;
// --trace 1 runs the workload's query pool at every layer rung with spans
// recorded and prints the per-layer metrics. The last line of stdout is
// the JSON result; the exit code is nonzero when any answer was wrong.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve|join|churn|shard-batch "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--inject-wrong-answer]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value() != "0";
    } else if (arg == "--work-dir") {
      opt.work_dir = value();
    } else if (arg == "--inject-wrong-answer") {
      opt.inject_wrong_answer = true;
    } else {
      Usage();
    }
  }
  if (opt.seconds <= 0) Usage();

  using Run = void (*)(const perfbench::Options&, perfbench::Checker&,
                       perfbench::Report&);
  Run run = nullptr;
  if (opt.workload == "serve") run = perfbench::RunServe;
  if (opt.workload == "join") run = perfbench::RunJoin;
  if (opt.workload == "churn") run = perfbench::RunChurn;
  if (opt.workload == "shard-batch") run = perfbench::RunShardBatch;
  if (run == nullptr) Usage();
  if (opt.trace) run = perfbench::RunLadder;

  perfbench::Checker check(opt.inject_wrong_answer);
  perfbench::Report report;
  run(opt, check, report);
  const bool correct = check.failed() == 0 && check.attempted() > 0;
  report.Print(correct, check.attempted(), check.failed());
  return correct ? 0 : 1;
}
