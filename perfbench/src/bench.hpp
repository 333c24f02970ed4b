// Shared pieces of the layered benchmark: timing, order statistics, the
// output oracle's tally, the benchmark's own span recorder, the generated
// inputs and the per-workload measurement record.
//
// Everything here lives in the benchmark, not in the program: spans are
// recorded around calls into the szp modules' public functions, never
// inside them.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "szp/core/format.hpp"
#include "szp/data/field.hpp"
#include "szp/engine/engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolation quantile (numpy's default); q in [0, 1]. Returns
/// 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Output oracle tally. A verdict covers one field in one repetition:
/// its stream, its full decode, or all of its point queries together, so
/// a broken codec fails most verdicts rather than a few. `attempted`
/// counts verdicts; `failed` those whose operation threw or whose output
/// the oracle rejected.
///
/// A decode passes when every element is within eb plus one float ulp of
/// |x|, the guarantee the codec's own property tests state. The strict
/// contract max|x - x_hat| <= eb is tallied apart (`strict_*`,
/// `max_err_over_eb`) and reported, but does not fail the verdict.
struct Oracle {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t strict_checked = 0;
  std::uint64_t strict_ok = 0;
  double max_err_over_eb = 0;
  bool quiet = false;  // no failure descriptions (self-test)

  /// Tally one verdict; the first few failures are described on stderr.
  void record(bool ok, const char* what = "operation") {
    ++attempted;
    if (!ok && ++failed <= 5 && !quiet) report_failure(what);
  }
  /// Tally one full decode of `original` under absolute bound `eb`.
  void record_decode(const std::vector<float>& original,
                     const std::vector<float>& decoded, double eb);
  void merge(const Oracle& other);
  static void report_failure(const char* what);
  [[nodiscard]] double ok_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(attempted - failed) /
                                static_cast<double>(attempted);
  }
  [[nodiscard]] double strict_frac() const {
    return strict_checked == 0 ? 0.0
                               : static_cast<double>(strict_ok) /
                                     static_cast<double>(strict_checked);
  }
};

// ------------------------------------------------------------ spans ----

/// In-memory span recorder for the caller thread. Span names are
/// "<layer>.<call>"; a span's parent is the span open around it, and
/// every span of one operation shares the operation id of its root.
class Tracer {
 public:
  struct Record {
    const char* name = "";
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;  // index of the parent record, -1 for a root
    std::uint64_t op = 0;
  };

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  [[nodiscard]] std::int64_t open(const char* name);
  void close(std::int64_t idx);

  /// Self time per layer (span duration minus the time its child spans
  /// cover), summed over every span of the layer.
  [[nodiscard]] std::map<std::string, double> layer_self_seconds() const;

  /// Chrome trace-event JSON ("X" events, microseconds).
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::uint64_t next_op_ = 1;
  std::vector<Record> records_;
  std::vector<std::int64_t> stack_;
};

[[nodiscard]] Tracer& tracer();

/// RAII span on the global tracer; one branch when tracing is off.
class Span {
 public:
  explicit Span(const char* name)
      : idx_(tracer().enabled() ? tracer().open(name) : -1) {}
  ~Span() {
    if (idx_ >= 0) tracer().close(idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t idx_;
};

/// Run `fn` inside a span and return its wall time in seconds.
template <typename Fn>
double timed(const char* span_name, Fn&& fn) {
  const Span span(span_name);
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now());
}

// ------------------------------------------------------------ inputs ----

/// The codec configuration of every workload: REL 1e-3, the paper's
/// defaults otherwise.
[[nodiscard]] szp::core::Params codec_params();
/// An engine configuration with codec_params().
[[nodiscard]] szp::engine::EngineConfig engine_config(
    szp::engine::BackendKind kind, unsigned threads = 0);

/// One generated field plus what the oracle needs: its value range, the
/// resolved absolute bound, and the serial backend's stream of it (the
/// reference every other backend must reproduce byte for byte).
struct Input {
  szp::data::Field field;
  double eb_abs = 0;
  std::vector<szp::byte_t> ref;
};

struct InputSet {
  std::vector<Input> items;    // canonical order
  std::vector<size_t> order;   // seeded processing order
  double gen_s = 0;            // generation + reference streams
  [[nodiscard]] std::uint64_t raw_bytes() const;
  [[nodiscard]] std::uint64_t ref_bytes() const;
};

/// HACC 1D particle fields vx/vy/vz/xx/yy/zz, `n` elements each;
/// `copies` independent instances of each (named "vx.0", "vx.1", ...
/// when more than one).
[[nodiscard]] InputSet hacc_set(std::uint64_t seed, size_t n, size_t copies,
                                unsigned threads);
/// RTM snapshots at `count` seeded timesteps, one per equal stratum of
/// [0, 3600), ascending (early sparse, later dense).
[[nodiscard]] InputSet rtm_set(std::uint64_t seed, size_t count,
                               unsigned threads);
/// Up to `max_items` items spread evenly over `set`, each cut to its
/// first `max_elems` elements, with fresh reference streams. Feeds the
/// layer probes so they stay short on every workload.
[[nodiscard]] InputSet probe_set(const InputSet& set, size_t max_items,
                                 size_t max_elems);

// ------------------------------------------------------ measurements ----

struct RunOptions {
  double seconds = 1;         // timed loop length
  unsigned min_reps = 3;      // timed repetitions at least
  unsigned setups = 3;        // set-ups (each ends with a warm-up rep)
  unsigned threads = 1;       // nproc
  size_t queries_per_rep = 0; // point queries per timed repetition
  size_t warmup_queries = 0;  // point queries per set-up warm-up
  std::uint64_t seed = 1;     // query positions
  bool alternate_trace = false;  // traced run: spans on every other rep
};

/// Timings of one workload run. Per-rep vectors hold the untraced
/// repetitions; `comp_traced_s` the repetitions timed with spans on.
/// Set-up, compress, decompress and query times are rescaled to the
/// nominal host (env.hpp); `comp_wall_s` and `decomp_wall_s` hold the
/// untraced repetitions' wall times as measured.
struct RunStats {
  Oracle oracle;
  std::vector<double> setup_s;
  std::vector<double> comp_s, decomp_s, comp_traced_s;
  std::vector<double> comp_wall_s, decomp_wall_s;
  std::vector<double> query_s;
  // archive
  std::vector<double> open_s;
  std::uint64_t query_reads = 0, query_bytes = 0;  // over query_s
  // pipeline
  std::vector<double> submit_s, finish_s, submit_frac;
  /// Threads the workload loop ran on, by role.
  std::vector<std::pair<std::string, unsigned>> threads;
};

[[nodiscard]] RunStats run_serial(const InputSet& set, const RunOptions& o);
[[nodiscard]] RunStats run_archive(const InputSet& set, const RunOptions& o);
[[nodiscard]] RunStats run_inline(const InputSet& set, const RunOptions& o);

// ------------------------------------------------------------ oracle ----

[[nodiscard]] bool same_bytes(const std::vector<szp::byte_t>& got,
                              const std::vector<szp::byte_t>& want);
/// Equal lengths and |x - x_hat| <= eb + ulp(|x|) at every element: the
/// codec's guarantee, which the decode verdicts gate on.
[[nodiscard]] bool within_guarantee(const std::vector<float>& original,
                                    const std::vector<float>& decoded,
                                    double eb);
/// `got` equals full[begin, begin + got.size()).
[[nodiscard]] bool slice_equal(const std::vector<float>& full, size_t begin,
                               const std::vector<float>& got);
/// Tampered-stream self-test: true when the oracle rejects every tampered
/// output it is fed and accepts the untampered ones.
[[nodiscard]] bool oracle_self_test(std::string& detail);

// ------------------------------------------------------------ output ----

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Per-layer metrics of a traced run: probes on `probe`, plus the
/// workload's own traced loop (`native`) for the layers it exercises.
/// The probes' own output checks are tallied into `oracle`.
[[nodiscard]] Metrics layer_metrics(const std::string& workload,
                                    const InputSet& set, const InputSet& probe,
                                    const RunStats& native,
                                    const RunOptions& o, Oracle& oracle);

}  // namespace perfbench
