// Per-layer probes of the traced run. Each probe times calls into one
// module's public functions on the probe inputs (a few short fields cut
// from the workload's own inputs) and reports the median of several
// passes after one discarded warm-up pass; the overhead ratios time their
// two sides in alternation. Layers the workload itself drives (pipeline
// on rtm-inline, archive queries on hacc-archive) are read from the
// workload's own traced loop instead.
//
// Throughputs are uncompressed field bytes per second, except the
// gpusim copies, which are bytes copied per second.
#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "szp/archive/archive_v2.hpp"
#include "szp/core/block_codec.hpp"
#include "szp/core/device.hpp"
#include "szp/core/host_codec.hpp"
#include "szp/core/stages.hpp"
#include "szp/engine/engine.hpp"
#include "szp/engine/thread_pool.hpp"
#include "szp/gpusim/buffer.hpp"
#include "szp/gpusim/launch.hpp"
#include "szp/robust/io.hpp"
#include "szp/robust/try_decode.hpp"

namespace perfbench {

namespace se = szp::engine;
namespace sc = szp::core;
namespace gs = szp::gpusim;

namespace {

/// Passes of a timed probe: at least this many, for at least this long.
constexpr size_t kMinPasses = 5;
constexpr double kMinProbeSeconds = 0.25;
/// Alternating pairs behind each overhead ratio.
constexpr unsigned kPairs = 7;

/// Median wall time of `fn` over the probe's passes, after one discarded
/// warm-up call.
template <typename Fn>
double median_time(const char* span, Fn&& fn) {
  fn();
  std::vector<double> t;
  const Clock::time_point t0 = Clock::now();
  while (t.size() < kMinPasses ||
         seconds_between(t0, Clock::now()) < kMinProbeSeconds) {
    t.push_back(timed(span, fn));
  }
  return median(t);
}

/// Medians of `a` and `b` timed in alternation (after one warm-up call
/// each), so a slow drift in machine speed moves both alike. For the
/// overhead ratios, which compare two nearby timings.
template <typename A, typename B>
std::pair<double, double> paired_medians(const char* span_a, A&& a,
                                         const char* span_b, B&& b) {
  a();
  b();
  std::vector<double> ta, tb;
  for (unsigned r = 0; r < kPairs; ++r) {
    ta.push_back(timed(span_a, a));
    tb.push_back(timed(span_b, b));
  }
  return {median(ta), median(tb)};
}

double gbps(double bytes, double s) { return s > 0 ? bytes / s * 1e-9 : 0; }

struct Adder {
  Metrics& m;
  void operator()(std::string name, double value, std::string unit) const {
    m.push_back({std::move(name), value, std::move(unit)});
  }
};

void core_probes(const InputSet& set, const InputSet& probe, const Adder& add) {
  const sc::Params params = codec_params();
  const unsigned L = params.block_len;
  const double raw = static_cast<double>(probe.raw_bytes());

  std::vector<std::vector<std::int32_t>> quant(probe.items.size());
  for (size_t i = 0; i < probe.items.size(); ++i) {
    quant[i].resize(probe.items[i].field.count());
  }
  add("core.quantize_gbps", gbps(raw, median_time("core.quantize", [&] {
        for (size_t i = 0; i < probe.items.size(); ++i) {
          sc::quantize(probe.items[i].field.span(), probe.items[i].eb_abs,
                       quant[i]);
        }
      })), "GB/s");

  // encode_block over every block; keep each block's magnitudes and
  // fixed length for the bit-shuffle probes.
  std::vector<std::vector<std::uint32_t>> mags(probe.items.size());
  std::vector<std::vector<std::uint8_t>> fixed(probe.items.size());
  sc::BlockScratch bs;
  add("core.encode_block_gbps", gbps(raw, median_time("core.encode_block", [&] {
        for (size_t i = 0; i < probe.items.size(); ++i) {
          const Input& in = probe.items[i];
          const size_t n = in.field.count();
          const size_t nb = sc::num_blocks(n, L);
          mags[i].resize(nb * L);
          fixed[i].resize(nb);
          size_t elems = 0;
          for (size_t b = 0; b < nb; ++b) {
            fixed[i][b] = sc::encode_block<float>(in.field.span(), n, b, L,
                                                  in.eb_abs, params, bs, elems);
            std::copy(bs.mags.begin(), bs.mags.end(), mags[i].begin() + b * L);
          }
        }
      })), "GB/s");

  std::vector<std::vector<szp::byte_t>> planes(probe.items.size());
  for (size_t i = 0; i < probe.items.size(); ++i) {
    planes[i].resize(mags[i].size() * sizeof(std::uint32_t));
  }
  const auto each_block = [&](auto&& fn) {
    for (size_t i = 0; i < probe.items.size(); ++i) {
      for (size_t b = 0; b < fixed[i].size(); ++b) {
        const unsigned f = fixed[i][b] & 63u;
        if (f == 0) continue;
        fn(std::span<std::uint32_t>(mags[i].data() + b * L, L), f,
           std::span<szp::byte_t>(planes[i].data() + b * L * 4, f * L / 8));
      }
    }
  };
  add("core.bit_shuffle_gbps", gbps(raw, median_time("core.bit_shuffle", [&] {
        each_block(
            [](auto m, unsigned f, auto p) { sc::bit_shuffle(m, f, p); });
      })), "GB/s");
  add("core.bit_unshuffle_gbps",
      gbps(raw, median_time("core.bit_unshuffle", [&] {
        each_block(
            [](auto m, unsigned f, auto p) { sc::bit_unshuffle(p, f, m); });
      })), "GB/s");

  add("core.value_range_gbps", gbps(raw, median_time("core.value_range", [&] {
        for (const Input& in : probe.items) {
          (void)sc::value_range_of(in.field.span());
        }
      })), "GB/s");

  sc::HostScratch hs;
  std::vector<std::vector<szp::byte_t>> streams(probe.items.size());
  add("core.compress_host_gbps",
      gbps(raw, median_time("core.compress_host", [&] {
        for (size_t i = 0; i < probe.items.size(); ++i) {
          streams[i] = sc::compress_host(probe.items[i].field.span(), params,
                                         probe.items[i].eb_abs,
                                         sc::serial_executor(), hs);
        }
      })), "GB/s");
  add("core.decompress_host_gbps",
      gbps(raw, median_time("core.decompress_host", [&] {
        for (const Input& in : probe.items) {
          (void)sc::decompress_host(in.ref, sc::serial_executor(), hs);
        }
      })), "GB/s");

  // Exact block statistics over the workload's own reference streams.
  double blocks = 0, zero = 0, nonzero = 0, f_sum = 0;
  for (const Input& in : set.items) {
    const sc::StreamStats s = sc::inspect_stream(in.ref);
    const double nz = static_cast<double>(s.num_blocks - s.zero_blocks);
    blocks += static_cast<double>(s.num_blocks);
    zero += static_cast<double>(s.zero_blocks);
    nonzero += nz;
    f_sum += s.mean_fixed_length * nz;
  }
  add("core.zero_block_frac", blocks > 0 ? zero / blocks : 0, "frac");
  add("core.mean_fixed_len", nonzero > 0 ? f_sum / nonzero : 0, "bits");
}

void engine_probes(const InputSet& probe, unsigned threads, Oracle& oracle,
                   const Adder& add) {
  const double raw = static_cast<double>(probe.raw_bytes());
  const sc::Params params = codec_params();
  std::vector<std::vector<szp::byte_t>> out(probe.items.size());
  const auto compress_all = [&](se::Engine& eng) {
    for (size_t i = 0; i < probe.items.size(); ++i) {
      out[i] = eng.compress(probe.items[i].field.span()).bytes;
    }
  };
  const auto decompress_all = [&](se::Engine& eng) {
    for (const Input& in : probe.items) (void)eng.decompress(in.ref);
  };
  const auto check = [&] {
    const Span span("bench.oracle");
    for (size_t i = 0; i < probe.items.size(); ++i) {
      oracle.record(same_bytes(out[i], probe.items[i].ref),
                    "stream != serial reference");
    }
  };

  se::Engine serial(engine_config(se::BackendKind::kSerial));
  sc::HostScratch hs;
  const auto [t_eng, t_host] = paired_medians(
      "engine.compress", [&] { compress_all(serial); }, "core.compress_host",
      [&] {
        for (const Input& in : probe.items) {
          (void)sc::compress_host(in.field.span(), params, in.eb_abs,
                                  sc::serial_executor(), hs);
        }
      });
  add("engine.serial_overhead_frac", 1.0 - t_host / t_eng, "frac");

  se::Engine par(engine_config(se::BackendKind::kParallelHost, threads));
  const auto [t_ser, t_par] = paired_medians(
      "engine.compress", [&] { compress_all(serial); }, "engine.compress",
      [&] { compress_all(par); });
  check();
  add("engine.parallel_compress_gbps", gbps(raw, t_par), "GB/s");
  add("engine.parallel_decompress_gbps",
      gbps(raw, median_time("engine.decompress", [&] { decompress_all(par); })),
      "GB/s");
  add("engine.parallel_speedup", t_ser / t_par, "x");

  se::Engine dev(engine_config(se::BackendKind::kDevice));
  add("engine.device_compress_gbps",
      gbps(raw, median_time("engine.compress", [&] { compress_all(dev); })),
      "GB/s");
  check();
  add("engine.device_decompress_gbps",
      gbps(raw, median_time("engine.decompress", [&] { decompress_all(dev); })),
      "GB/s");
}

void gpusim_probes(const InputSet& probe, const Adder& add) {
  const sc::Params params = codec_params();
  se::Engine eng(engine_config(se::BackendKind::kDevice));
  gs::Device& dev = eng.device();
  struct Bufs {
    gs::DeviceBuffer<float> in, dec;
    gs::DeviceBuffer<szp::byte_t> cmp;
    std::vector<float> host;
    size_t cmp_bytes = 0;
  };
  std::vector<Bufs> bufs;
  for (const Input& in : probe.items) {
    const size_t n = in.field.count();
    bufs.push_back({gs::DeviceBuffer<float>(dev, n),
                    gs::DeviceBuffer<float>(dev, n),
                    gs::DeviceBuffer<szp::byte_t>(
                        dev, sc::max_compressed_bytes(n, params.block_len)),
                    std::vector<float>(n), 0});
  }
  const double raw = static_cast<double>(probe.raw_bytes());
  const size_t items = probe.items.size();
  const auto each = [&](auto&& fn) {
    for (size_t i = 0; i < items; ++i) fn(probe.items[i], bufs[i]);
  };
  add("gpusim.h2d_gbps", gbps(raw, median_time("gpusim.h2d", [&] {
        each([&](const Input& in, Bufs& b) {
          gs::copy_h2d(dev, b.in, in.field.span());
        });
      })), "GB/s");
  add("gpusim.d2h_gbps", gbps(raw, median_time("gpusim.d2h", [&] {
        each([&](const Input&, Bufs& b) {
          gs::copy_d2h<float>(dev, b.host, b.in, b.host.size());
        });
      })), "GB/s");
  add("gpusim.kernel_compress_gbps",
      gbps(raw, median_time("gpusim.kernel_compress", [&] {
        each([&](const Input& in, Bufs& b) {
          b.cmp_bytes = se::device_compress(dev, b.in, in.field.count(), params,
                                            in.eb_abs, b.cmp)
                            .bytes;
        });
      })), "GB/s");
  add("gpusim.kernel_decompress_gbps",
      gbps(raw, median_time("gpusim.kernel_decompress", [&] {
        each([&](const Input&, Bufs& b) {
          (void)se::device_decompress(dev, b.cmp, b.dec, b.cmp_bytes);
        });
      })), "GB/s");
  // A no-op kernel over the compress kernel's grid (one warp per 32
  // blocks): what a launch costs before any codec work.
  const double t_launch = median_time("gpusim.launch", [&] {
    each([&](const Input& in, Bufs&) {
      const size_t nb = sc::num_blocks(in.field.count(), params.block_len);
      gs::launch(dev, "perfbench_noop", std::max<size_t>(1, (nb + 31) / 32),
                 [](const gs::BlockCtx&) {});
    });
  });
  add("gpusim.launch_us", t_launch / static_cast<double>(items) * 1e6, "us");
}

/// The archive's share of commit and extract time: each is timed in
/// alternation with the bare codec work it wraps on the same fields.
void archive_overhead_probes(const InputSet& probe, unsigned threads,
                             Oracle& oracle, const Adder& add) {
  szp::archive::WriterOptions wo;
  wo.params = codec_params();
  wo.backend = se::BackendKind::kParallelHost;
  wo.threads = threads;
  const std::string dir = "probe.szpa";
  std::unique_ptr<szp::robust::MemFs> fs;
  std::unique_ptr<szp::archive::ArchiveWriter> w;
  const auto fresh_writer = [&] {
    w.reset();
    fs = std::make_unique<szp::robust::MemFs>();
    w = std::make_unique<szp::archive::ArchiveWriter>(*fs, dir, wo);
    for (const Input& in : probe.items) w->add(in.field);
  };
  // Parallel Engine::compress of every field, spread over a pool the way
  // commit spreads them.
  se::ThreadPool pool(threads);
  std::vector<std::vector<szp::byte_t>> out(probe.items.size());
  std::vector<double> t_commit, t_codec;
  for (unsigned r = 0; r <= kPairs; ++r) {
    fresh_writer();
    const double c = timed("archive.commit", [&] { (void)w->commit(); });
    const double e = timed("engine.compress", [&] {
      pool.run(probe.items.size(), [&](size_t i) {
        se::Engine eng(engine_config(se::BackendKind::kSerial));
        out[i] = eng.compress(probe.items[i].field.span()).bytes;
      });
    });
    if (r == 0) continue;  // warm-up
    t_commit.push_back(c);
    t_codec.push_back(e);
  }
  add("archive.commit_overhead_frac", 1.0 - median(t_codec) / median(t_commit),
      "frac");

  const szp::archive::ArchiveReader reader(*fs, dir);
  se::Engine serial(engine_config(se::BackendKind::kSerial));
  std::vector<szp::data::Field> extracted(probe.items.size());
  const auto [t_extract, t_decode] = paired_medians(
      "archive.extract",
      [&] {
        for (size_t i = 0; i < probe.items.size(); ++i) {
          extracted[i] =
              reader.extract(reader.entry_index(probe.items[i].field.name));
        }
      },
      "engine.decompress",
      [&] {
        for (const Input& in : probe.items) (void)serial.decompress(in.ref);
      });
  {
    const Span check("bench.oracle");
    for (size_t i = 0; i < probe.items.size(); ++i) {
      const Input& in = probe.items[i];
      oracle.record_decode(in.field.values, extracted[i].values, in.eb_abs);
    }
  }
  add("archive.extract_overhead_frac", 1.0 - t_decode / t_extract, "frac");
}

}  // namespace

Metrics layer_metrics(const std::string& workload, const InputSet& set,
                      const InputSet& probe, const RunStats& native,
                      const RunOptions& o, Oracle& oracle) {
  Metrics m;
  const Adder add{m};
  core_probes(set, probe, add);
  engine_probes(probe, o.threads, oracle, add);
  gpusim_probes(probe, add);

  RunOptions mini = o;
  mini.setups = 1;
  mini.min_reps = 3;
  mini.seconds = 0;
  mini.alternate_trace = false;

  mini.queries_per_rep = 0;
  const RunStats pipe =
      workload == "rtm-inline" ? native : run_inline(probe, mini);
  add("pipeline.submit_wait_frac", median(pipe.submit_frac), "frac");
  add("pipeline.finish_ms", median(pipe.finish_s) * 1e3, "ms");
  add("pipeline.stall_ms_p50", quantile(pipe.submit_s, 0.5) * 1e3, "ms");
  add("pipeline.stall_ms_p90", quantile(pipe.submit_s, 0.9) * 1e3, "ms");

  mini.queries_per_rep = 500;
  const RunStats arc =
      workload == "hacc-archive" ? native : run_archive(probe, mini);
  for (const RunStats* r : {&pipe, &arc}) {
    if (r != &native) oracle.merge(r->oracle);
  }
  archive_overhead_probes(probe, o.threads, oracle, add);
  const double q =
      static_cast<double>(std::max<size_t>(arc.query_s.size(), 1));
  add("archive.query_bytes_read", static_cast<double>(arc.query_bytes) / q,
      "B");
  add("archive.query_reads", static_cast<double>(arc.query_reads) / q,
      "count");
  add("archive.query_p99_us", quantile(arc.query_s, 0.99) * 1e6, "us");
  add("archive.open_us", median(arc.open_s) * 1e6, "us");

  std::vector<char> verified(set.items.size());
  const double t_verify = median_time("robust.verify", [&] {
    for (size_t i = 0; i < set.items.size(); ++i) {
      verified[i] = szp::robust::verify_stream(set.items[i].ref).ok() ? 1 : 0;
    }
  });
  {
    const Span check("bench.oracle");
    for (const char ok : verified) {
      oracle.record(ok != 0, "verify_stream rejected a stream");
    }
  }
  add("robust.verify_gbps",
      gbps(static_cast<double>(set.raw_bytes()), t_verify), "GB/s");

  add("data.gen_s", set.gen_s, "s");
  add("trace.overhead_frac",
      1.0 - median(native.comp_s) / median(native.comp_traced_s), "frac");
  return m;
}

}  // namespace perfbench
