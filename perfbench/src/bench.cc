#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "common/random.h"
#include "datagen/binary_vectors.h"
#include "datagen/graphs.h"
#include "datagen/strings.h"
#include "datagen/token_sets.h"

namespace perfbench {

void SleepUntil(Clock::time_point due) {
  std::this_thread::sleep_until(due - std::chrono::microseconds(200));
  while (Clock::now() < due) {
  }
}

// ---------------------------------------------------------------------
// Samples

void Samples::Sort() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Samples::Sum() const {
  double sum = 0;
  for (double v : values_) sum += v;
  return sum;
}

namespace {

// Nearest rank: the smallest sample with at least p% of samples <= it.
size_t RankOf(double p, size_t n) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(n))) -
         1;
}

}  // namespace

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0;
  Sort();
  return values_[RankOf(p, values_.size())];
}

bool Samples::HasTail(double p, size_t min_beyond) const {
  if (values_.empty()) return false;
  return values_.size() - 1 - RankOf(p, values_.size()) >= min_beyond;
}

double Samples::HighestTrustedPercentile() const {
  for (double p : {99.9, 99.0, 90.0, 75.0, 50.0}) {
    if (HasTail(p)) return p;
  }
  return 0;
}

Samples WindowRates(const std::vector<double>& event_s, double span_s,
                    double window_s, double weight) {
  std::vector<int64_t> counts(static_cast<size_t>(span_s / window_s), 0);
  for (double t : event_s) {
    const auto w = static_cast<size_t>(t / window_s);
    if (w < counts.size()) ++counts[w];
  }
  Samples rates;
  for (int64_t n : counts) {
    rates.Add(weight * static_cast<double>(n) / window_s);
  }
  return rates;
}

std::string Describe(const Samples& samples, const std::string& unit) {
  char buf[256];
  if (samples.empty()) return "n=0";
  std::string out;
  std::snprintf(buf, sizeof buf, "p50=%.4g%s", samples.Median(),
                unit.c_str());
  out = buf;
  const double tail = samples.HighestTrustedPercentile();
  if (tail > 50) {
    std::snprintf(buf, sizeof buf, " p%g=%.4g%s", tail,
                  samples.Percentile(tail), unit.c_str());
    out += buf;
  }
  std::snprintf(buf, sizeof buf, " n=%zu", samples.count());
  return out + buf;
}

// ---------------------------------------------------------------------
// Checker

bool Checker::Ids(const char* what, std::vector<int> got,
                  const std::vector<int>& want) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (inject_) {
      inject_ = false;
      got.push_back(-1);
    }
  }
  const bool ok = got == want;
  std::string detail;
  if (!ok) {
    detail = "got " + std::to_string(got.size()) + " ids, want " +
             std::to_string(want.size());
  }
  return Expect(what, ok, detail);
}

bool Checker::Expect(const char* what, bool ok, const std::string& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (reported_++ < 5) {
      std::fprintf(stderr, "perfbench: wrong answer in %s: %s\n", what,
                   detail.c_str());
    }
  }
  return ok;
}

void Checker::Error(const char* what, const pr::Status& status) {
  Expect(what, false, status.ToString());
}

int64_t Checker::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

int64_t Checker::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

// ---------------------------------------------------------------------
// Tracer

namespace {

thread_local int32_t current_span = -1;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int32_t Tracer::Open(const char* name, int64_t request) {
  SpanRecord span;
  span.name = name;
  span.parent = current_span;
  span.request = request;
  int32_t index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<int32_t>(spans_.size());
    spans_.push_back(span);
  }
  current_span = index;
  const int64_t start = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].start_ns = start;
  return index;
}

void Tracer::Close(int32_t index) {
  const int64_t end = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].end_ns = end;
  current_span = spans_[index].parent;
}

Samples Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  Samples out;
  for (const SpanRecord& span : spans_) {
    if (span.end_ns != 0 && name == span.name) {
      out.Add(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  return out;
}

std::map<std::string, Tracer::Totals> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0 && span.end_ns != 0) {
      child_ns[span.parent] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, Totals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    if (span.end_ns == 0) continue;
    Totals& t = totals[span.name];
    const int64_t duration = span.end_ns - span.start_ns;
    ++t.count;
    t.total_ms += static_cast<double>(duration) / 1e6;
    t.self_ms += static_cast<double>(duration - child_ns[i]) / 1e6;
  }
  return totals;
}

bool Tracer::Dump(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << span.name
        << "\",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << ",\"parent\":" << span.parent << ",\"request\":" << span.request
        << "}\n";
  }
  return static_cast<bool>(out);
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

Span::Span(const char* name, int64_t request) {
  Tracer& tracer = Tracer::Get();
  if (tracer.enabled()) index_ = tracer.Open(name, request);
}

Span::~Span() {
  if (index_ >= 0) Tracer::Get().Close(index_);
}

// ---------------------------------------------------------------------
// Report

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Note(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::printf("\n");
  std::fflush(stdout);
}

void Report::Print(bool correct, int64_t attempted, int64_t failed) const {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, metric] : metrics_) {
    if (!first) line += ", ";
    first = false;
    const double value = std::isfinite(metric.first) ? metric.first : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", value);
    line += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            metric.second + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Die(const char* what, const pr::Status& status) {
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
               status.ToString().c_str());
  std::exit(1);
}

// ---------------------------------------------------------------------
// Inputs

namespace {

// Derives an independent stream seed per dataset from the workload seed.
uint64_t Derive(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

VectorSet ServeVectors(uint64_t seed, int num_records) {
  pr::datagen::BinaryVectorConfig config;
  config.dimensions = 256;
  config.num_objects = num_records;
  config.num_clusters = num_records / 50;
  config.cluster_fraction = 0.5;
  config.flip_rate = 0.04;
  config.bit_bias = 0.3;
  config.seed = Derive(seed, 1);
  return {pr::datagen::GenerateBinaryVectors(config), 16, 4};
}

VectorSet JoinVectors(uint64_t seed) {
  pr::datagen::BinaryVectorConfig config;
  config.dimensions = 128;
  config.num_objects = 20000;
  config.num_clusters = 500;
  config.cluster_fraction = 0.5;
  config.flip_rate = 0.05;
  config.bit_bias = 0.3;
  config.seed = Derive(seed, 2);
  return {pr::datagen::GenerateBinaryVectors(config), 8, 4};
}

std::vector<std::vector<int>> JoinSets(uint64_t seed) {
  pr::datagen::TokenSetConfig config;
  config.num_records = 20000;
  config.avg_tokens = 14;
  config.universe_size = 20000;
  config.duplicate_fraction = 0.35;
  config.seed = Derive(seed, 3);
  return pr::datagen::GenerateTokenSets(config);
}

std::vector<std::string> JoinStrings(uint64_t seed) {
  // Four independently seeded corpora of 5k strings each. One 20k corpus
  // varies a lot from seed to seed (its near-copy chains can double the
  // result pairs), and that would swamp every timing of the join; the
  // union of four averages it out.
  std::vector<std::string> out;
  for (uint64_t part = 0; part < 4; ++part) {
    pr::datagen::StringConfig config;
    config.num_records = 5000;
    config.avg_length = 16;
    config.duplicate_fraction = 0.35;
    config.max_perturb_edits = 2;
    config.seed = Derive(seed, 40 + part);
    const auto strings = pr::datagen::GenerateStrings(config);
    out.insert(out.end(), strings.begin(), strings.end());
  }
  return out;
}

std::vector<pr::graphed::Graph> JoinGraphs(uint64_t seed) {
  pr::datagen::GraphConfig config;
  config.num_graphs = 800;
  config.avg_vertices = 10;
  config.avg_edges = 11;
  config.vertex_labels = 20;
  config.edge_labels = 3;
  config.duplicate_fraction = 0.4;
  config.max_perturb_ops = 2;
  config.seed = Derive(seed, 5);
  return pr::datagen::GenerateGraphs(config);
}

std::vector<int> SampleIds(int num_records, int count, uint64_t seed) {
  pr::Rng rng(Derive(seed, 6));
  std::vector<int> ids(count);
  for (int& id : ids) {
    id = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(num_records)));
  }
  return ids;
}

pr::api::IndexSpec HammingSpec(const VectorSet& set) {
  pr::api::IndexSpec spec;
  spec.domain = pr::api::Domain::kHamming;
  spec.tau = set.tau;
  spec.chain_length = set.chain_length;
  return spec;
}

pr::api::IndexSpec SetSpec() {
  pr::api::IndexSpec spec;
  spec.domain = pr::api::Domain::kSet;
  spec.tau = 0.8;
  spec.chain_length = 2;
  return spec;
}

pr::api::IndexSpec StringSpec() {
  pr::api::IndexSpec spec;
  spec.domain = pr::api::Domain::kEdit;
  spec.tau = 2;
  spec.chain_length = 3;
  return spec;
}

pr::api::IndexSpec GraphSpec() {
  pr::api::IndexSpec spec;
  spec.domain = pr::api::Domain::kGraph;
  spec.tau = 2;
  spec.chain_length = 2;
  return spec;
}

}  // namespace perfbench
