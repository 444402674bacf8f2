// Entry points of the benchmark: one untraced run per workload, and the
// traced layer ladder. Each fills `report` and counts every checked
// operation in `check`.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "bench.h"

namespace perfbench {

void RunServe(const Options& opt, Checker& check, Report& report);
void RunJoin(const Options& opt, Checker& check, Report& report);
void RunChurn(const Options& opt, Checker& check, Report& report);
void RunShardBatch(const Options& opt, Checker& check, Report& report);

void RunLadder(const Options& opt, Checker& check, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
