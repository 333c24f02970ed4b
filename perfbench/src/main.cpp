// perfbench: the repository's layered benchmark.
//
//   perfbench --workload hacc-serial|hacc-archive|rtm-inline --seed N
//             --seconds S --trace 0|1 [--out DIR] [--revision REV]
//   perfbench --self-test
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same loop
// with spans on every other repetition, then the per-layer probes, and
// prints the per-layer metrics. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. A result file
// with the environment goes to DIR (default .bench_out), and a traced run
// also writes its spans there as a Chrome trace.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "env.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
  std::string out = ".bench_out";
  std::string revision = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out DIR] [--revision REV]\n"
               "       perfbench --self-test\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("bad --seconds");
    } else if (k == "--trace") {
      a.trace = std::string(v) == "1";
      if (!a.trace && std::string(v) != "0") usage("bad --trace");
    } else if (k == "--out") {
      a.out = v;
    } else if (k == "--revision") {
      a.revision = v;
    } else {
      usage("unknown option");
    }
  }
  return a;
}

/// A JSON number with every digit; non-finite values become 0 and are
/// reported through `finite`.
std::string num(double v, bool* finite = nullptr) {
  if (!std::isfinite(v)) {
    if (finite != nullptr) *finite = false;
    v = 0;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

std::string array(const std::vector<double>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ", ";
    s += num(v[i]);
  }
  return s + "]";
}

/// {"name": {"value": v, "unit": u}, ...}
std::string metrics_json(const Metrics& m, bool& finite) {
  std::string s = "{";
  for (size_t i = 0; i < m.size(); ++i) {
    if (i > 0) s += ", ";
    s += quoted(m[i].name);
    s += ": {\"value\": ";
    s += num(m[i].value, &finite);
    s += ", \"unit\": ";
    s += quoted(m[i].unit);
    s += "}";
  }
  return s + "}";
}

/// Each layer's self time in the traced run, printed and as JSON.
std::string self_times_json() {
  std::string s = "{";
  for (const auto& [layer, secs] : tracer().layer_self_seconds()) {
    if (s.size() > 1) s += ", ";
    s += quoted(layer);
    s += ": ";
    s += num(secs);
    std::printf("self time %-9s %.6f s\n", layer.c_str(), secs);
  }
  return s + "}";
}

struct Workload {
  InputSet set;
  RunOptions opts;
  RunStats (*run)(const InputSet&, const RunOptions&) = nullptr;
};

/// Input sizes: hacc-serial's six 8 MiB fields fit the LLC;
/// hacc-archive's 24 fields (four instances of each HACC field, 16 MiB
/// each, 384 MiB in all) exceed a 300 MiB LLC, so its reads and writes
/// stream from memory. A point query's cost grows with its field's
/// length (it reads and scans the whole length-byte array), so 16 MiB
/// fields keep a query near 1 ms and leave room in a run for several
/// commit and extract repetitions. rtm-inline runs 48 snapshots of
/// 60x112x112: the seed jitters each one's timestep within its slice, and
/// the sparsity, which sets decode speed, moves with it, so more slices
/// keep a run's mix of sparse and dense snapshots steadier across seeds.
/// Every workload runs at least 1000 point queries in its timed loop;
/// a set-up's warm-up repetition runs only a few, enough to warm the
/// query path, so set-up stays short next to the timed loop.
Workload make_workload(const Args& a, unsigned threads) {
  Workload w;
  RunOptions& o = w.opts;
  o.seconds = a.seconds;
  o.threads = threads;
  o.seed = a.seed;
  o.setups = 3;
  o.warmup_queries = 12;
  o.alternate_trace = a.trace;
  if (a.workload == "hacc-serial") {
    w.set = hacc_set(a.seed, size_t{1} << 21, 1, threads);
    o.min_reps = 8;
    o.queries_per_rep = 150;
    w.run = run_serial;
  } else if (a.workload == "hacc-archive") {
    w.set = hacc_set(a.seed, size_t{1} << 22, 4, threads);
    o.min_reps = 4;
    o.queries_per_rep = 250;
    w.run = run_archive;
  } else if (a.workload == "rtm-inline") {
    w.set = rtm_set(a.seed, 48, threads);
    o.min_reps = 8;
    o.queries_per_rep = 150;
    w.run = run_inline;
  } else {
    usage("unknown --workload (hacc-serial, hacc-archive, rtm-inline)");
  }
  return w;
}

Metrics end_to_end(const InputSet& set, const RunStats& st) {
  const double raw = static_cast<double>(set.raw_bytes());
  return {
      {"compress_gbps", raw / median(st.comp_s) * 1e-9, "GB/s"},
      {"decompress_gbps", raw / median(st.decomp_s) * 1e-9, "GB/s"},
      {"ratio", raw / static_cast<double>(set.ref_bytes()), "x"},
      {"ok_frac", st.oracle.ok_frac(), "frac"},
      {"query_p50_us", quantile(st.query_s, 0.5) * 1e6, "us"},
      {"query_p90_us", quantile(st.query_s, 0.9) * 1e6, "us"},
      {"setup_s", median(st.setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

int run(const Args& a) {
  std::string detail;
  const bool self_ok = oracle_self_test(detail);
  std::printf("oracle self-test: %s (%s)\n", self_ok ? "pass" : "FAIL",
              detail.c_str());
  if (a.self_test) return self_ok ? 0 : 1;

  const unsigned threads = nproc();
  const std::uint64_t llc = llc_bytes();
  Workload w = make_workload(a, threads);
  const RunStats st = w.run(w.set, w.opts);
  Oracle oracle = st.oracle;

  Metrics metrics;
  std::string self_json = "{}";  // layer self times, traced runs only
  std::string trace_path;
  if (a.trace) {
    const InputSet probe = probe_set(w.set, 6, size_t{1} << 19);
    tracer().set_enabled(true);
    metrics = layer_metrics(a.workload, w.set, probe, st, w.opts, oracle);
    tracer().set_enabled(false);
    // The strict contract max|x - x_hat| <= eb over every checked decode
    // of the run, reported beside the verdicts that gate ok_frac.
    metrics.push_back({"oracle.strict_eb_frac", oracle.strict_frac(), "frac"});
    metrics.push_back({"oracle.max_err_over_eb", oracle.max_err_over_eb, "x"});
    self_json = self_times_json();
  } else {
    metrics = end_to_end(w.set, st);
  }
  // Peak memory is read before the copy reference allocates its buffer.
  const double rss = peak_rss_mb();
  const std::uint64_t ref_buf = std::max<std::uint64_t>(4 * llc, 256u << 20);
  const double memcpy_ref = memcpy_gbps(ref_buf, 3);
  if (a.trace) metrics.push_back({"ref.memcpy_gbps", memcpy_ref, "GB/s"});

  bool finite = true;
  const std::string mjson = metrics_json(metrics, finite);
  const bool correct = self_ok && finite && oracle.attempted > 0 &&
                       oracle.failed == 0;

  std::error_code ec;
  std::filesystem::create_directories(a.out, ec);
  const std::string stem = a.out + "/" + a.workload + "-seed" +
                           std::to_string(a.seed) + "-trace" +
                           (a.trace ? "1" : "0");
  if (a.trace) {
    trace_path = stem + ".trace.json";
    if (!tracer().write_chrome_trace(trace_path)) trace_path.clear();
  }
  const double input = static_cast<double>(w.set.raw_bytes());
  const double over_llc = llc > 0 ? input / static_cast<double>(llc) : 0;
  std::ostringstream env;
  env << "{\"nproc\": " << threads << ", \"llc_bytes\": " << llc
      << ", \"input_bytes\": " << w.set.raw_bytes()
      << ", \"input_over_llc\": " << num(over_llc)
      << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
      << ", \"revision\": " << quoted(a.revision)
      << ", \"threads\": {";
  for (size_t i = 0; i < st.threads.size(); ++i) {
    env << (i == 0 ? "" : ", ") << quoted(st.threads[i].first) << ": "
        << st.threads[i].second;
  }
  env << "}"
      << ", \"ref.memcpy_gbps\": " << num(memcpy_ref)
      << ", \"memcpy_buffer_bytes\": " << ref_buf
      << ", \"peak_rss_mb\": " << num(rss) << "}";
  std::ostringstream samples;
  samples << "{\"setups\": " << st.setup_s.size()
          << ", \"compress_reps\": " << st.comp_s.size()
          << ", \"decompress_reps\": " << st.decomp_s.size()
          << ", \"traced_reps\": " << st.comp_traced_s.size()
          << ", \"queries\": " << st.query_s.size()
          << ", \"submits\": " << st.submit_s.size()
          << ", \"setup_s\": " << array(st.setup_s)
          << ", \"compress_s\": " << array(st.comp_s)
          << ", \"decompress_s\": " << array(st.decomp_s)
          << ", \"compress_wall_s\": " << array(st.comp_wall_s)
          << ", \"decompress_wall_s\": " << array(st.decomp_wall_s)
          << ", \"compress_traced_s\": " << array(st.comp_traced_s)
          << ", \"query_s\": " << array(st.query_s) << "}";
  std::ofstream(stem + ".json")
      << "{\"workload\": " << quoted(a.workload) << ", \"seed\": " << a.seed
      << ", \"seconds\": " << num(a.seconds)
      << ", \"trace\": " << (a.trace ? 1 : 0) << ", \"env\": " << env.str()
      << ", \"samples\": " << samples.str() << ", \"oracle\": {\"attempted\": "
      << oracle.attempted << ", \"failed\": " << oracle.failed
      << ", \"strict_checked\": " << oracle.strict_checked
      << ", \"strict_ok\": " << oracle.strict_ok
      << ", \"max_err_over_eb\": " << num(oracle.max_err_over_eb)
      << ", \"self_test\": " << (self_ok ? "true" : "false")
      << "}, \"layer_self_s\": " << self_json
      << ", \"trace_file\": " << quoted(trace_path)
      << ", \"metrics\": " << mjson << "}\n";

  std::printf("env %s\n", env.str().c_str());
  for (const Metric& m : metrics) {
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(oracle.attempted),
              static_cast<unsigned long long>(oracle.failed), mjson.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args a = perfbench::parse(argc, argv);
  if (!a.self_test && a.workload.empty()) perfbench::usage("no --workload");
  try {
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
