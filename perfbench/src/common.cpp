#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void Oracle::report_failure(const char* what) {
  std::fprintf(stderr, "perfbench: oracle failure: %s\n", what);
}

szp::core::Params codec_params() {
  szp::core::Params p;
  p.mode = szp::core::ErrorMode::kRel;
  p.error_bound = 1e-3;
  return p;
}

szp::engine::EngineConfig engine_config(szp::engine::BackendKind kind,
                                        unsigned threads) {
  szp::engine::EngineConfig cfg;
  cfg.params = codec_params();
  cfg.backend = kind;
  cfg.threads = threads;
  return cfg;
}

std::uint64_t InputSet::raw_bytes() const {
  std::uint64_t b = 0;
  for (const Input& in : items) b += in.field.size_bytes();
  return b;
}

std::uint64_t InputSet::ref_bytes() const {
  std::uint64_t b = 0;
  for (const Input& in : items) b += in.ref.size();
  return b;
}

// ------------------------------------------------------------ tracer ----

namespace {
std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}
}  // namespace

Tracer& tracer() {
  static Tracer t;
  return t;
}

std::int64_t Tracer::open(const char* name) {
  Record r;
  r.name = name;
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.op = r.parent < 0 ? next_op_++ : records_[static_cast<size_t>(r.parent)].op;
  r.begin_ns = now_ns();
  const auto idx = static_cast<std::int64_t>(records_.size());
  records_.push_back(r);
  stack_.push_back(idx);
  return idx;
}

void Tracer::close(std::int64_t idx) {
  records_[static_cast<size_t>(idx)].end_ns = now_ns();
  stack_.pop_back();
}

std::map<std::string, double> Tracer::layer_self_seconds() const {
  std::vector<std::uint64_t> child_ns(records_.size(), 0);
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      child_ns[static_cast<size_t>(r.parent)] += r.end_ns - r.begin_ns;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    self[layer_of(r.name)] +=
        static_cast<double>(r.end_ns - r.begin_ns - child_ns[i]) * 1e-9;
  }
  return self;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  const std::uint64_t t0 = records_.empty() ? 0 : records_.front().begin_ns;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << r.name << "\",\"cat\":\""
       << layer_of(r.name) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << static_cast<double>(r.begin_ns - t0) * 1e-3
       << ",\"dur\":" << static_cast<double>(r.end_ns - r.begin_ns) * 1e-3
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent
       << ",\"op\":" << r.op << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
