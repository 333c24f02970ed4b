// Input generation and the three workload loops. Every loop is a closed
// loop on the caller thread: the next operation starts when the previous
// one has returned. Timers wrap only calls into the szp modules; the
// oracle checks between them are untimed.
//
// Every repetition also runs passes of the host-speed reference (env.hpp)
// right before its timed operations, on as many threads as they use, and
// rescales their times by the passes' slowdown. The shared host's speed
// drifts by 10-30% over seconds to minutes; the codec and the reference
// drift together, so the rescaled times follow the program, not the host.
#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "env.hpp"
#include "szp/archive/archive_v2.hpp"
#include "szp/core/random_access.hpp"
#include "szp/data/generators.hpp"
#include "szp/data/registry.hpp"
#include "szp/engine/engine.hpp"
#include "szp/engine/thread_pool.hpp"
#include "szp/pipeline/pipeline.hpp"
#include "szp/robust/io.hpp"
#include "szp/util/rng.hpp"

namespace perfbench {

namespace sd = szp::data;
namespace se = szp::engine;

namespace {

constexpr size_t kQueryLen = 4096;
/// Reference passes before and after each commit. On every core of a
/// shared host one pass varies more than a 1-thread pass does, and there
/// is only one commit a repetition, so it takes several.
constexpr int kCommitPasses = 3;

std::uint64_t mix(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t s = seed ^ (0x9E3779B97F4A7C15ull * (k + 1));
  return szp::splitmix64(s);
}

/// Resolve each item's bound and compute its serial reference stream.
void add_references(InputSet& set, unsigned threads) {
  se::ThreadPool pool(threads);
  pool.run(set.items.size(), [&](size_t i) {
    Input& in = set.items[i];
    in.eb_abs = szp::core::resolve_eb(codec_params(), in.field.value_range());
    se::Engine eng(engine_config(se::BackendKind::kSerial));
    in.ref = eng.compress(in.field.span()).bytes;
  });
}

// ------------------------------------------------------- query plans ----

/// Seeded point queries of one repetition, grouped by item: begins[i]
/// holds the window starts for item i, in generation order.
std::vector<std::vector<size_t>> query_plan(szp::Rng& rng, const InputSet& set,
                                            size_t count) {
  std::vector<std::vector<size_t>> begins(set.items.size());
  for (size_t q = 0; q < count; ++q) {
    const size_t i = rng.next_below(set.items.size());
    const size_t n = set.items[i].field.count();
    begins[i].push_back(n <= kQueryLen ? 0 : rng.next_below(n - kQueryLen + 1));
  }
  return begins;
}

/// Wall time of one repetition's operations, and the slowdowns of the
/// host-speed reference passes (env.hpp) run right before each kind of
/// them, on as many threads as the operation they precede.
struct RepTimes {
  double comp = 0;    // the workload's compress operation(s)
  double decomp = 0;  // the workload's decompress operation(s)
  double other = 0;   // constructions, opens and queries
  std::vector<double> comp_host, decomp_host;
};

/// Set up `o.setups` times (each set-up ends with one warm-up repetition
/// with `o.warmup_queries` queries, whose samples are discarded), then
/// repeat with `o.queries_per_rep` queries until both `o.min_reps` and
/// `o.seconds` are reached. `rep(keep, queries)` returns its times and
/// adds its samples to `st` only when `keep` is set. A repetition's
/// compress and decompress times are each rescaled by host_scale() of the
/// reference passes run before them, a set-up by that of both kinds.
/// (Query samples are rescaled where they are taken.) Set-ups run
/// untraced. With `o.alternate_trace` every other
/// repetition runs with spans on; only its compress time is kept (apart),
/// so every other sample comes from untraced repetitions. Otherwise the
/// caller's tracing state holds throughout.
template <typename Make, typename Rep>
void drive(RunStats& st, const RunOptions& o, Make&& make, Rep&& rep) {
  Tracer& tr = tracer();
  const bool was_tracing = tr.enabled();
  tr.set_enabled(false);
  for (unsigned k = 0; k < o.setups; ++k) {
    const Clock::time_point t0 = Clock::now();
    make();
    const double made = seconds_between(t0, Clock::now());
    const RepTimes w = rep(false, o.warmup_queries);
    std::vector<double> passes = w.comp_host;
    passes.insert(passes.end(), w.decomp_host.begin(), w.decomp_host.end());
    st.setup_s.push_back((made + w.comp + w.decomp + w.other) *
                         host_scale(passes));
  }
  tr.set_enabled(was_tracing);
  const Clock::time_point t0 = Clock::now();
  for (unsigned r = 0;
       r < o.min_reps || seconds_between(t0, Clock::now()) < o.seconds; ++r) {
    const bool traced_rep = o.alternate_trace && r % 2 == 1;
    if (o.alternate_trace) tr.set_enabled(traced_rep);
    const RepTimes t = rep(!traced_rep, o.queries_per_rep);
    const double comp = t.comp * host_scale(t.comp_host);
    if (traced_rep) {
      st.comp_traced_s.push_back(comp);
    } else {
      st.comp_s.push_back(comp);
      st.decomp_s.push_back(t.decomp * host_scale(t.decomp_host));
      st.comp_wall_s.push_back(t.comp);
      st.decomp_wall_s.push_back(t.decomp);
    }
  }
  tr.set_enabled(was_tracing);
}

/// Point queries on an in-memory stream through core random access, on
/// the caller thread, rescaled by one reference pass run before them. One
/// verdict for the field: every result must equal the matching slice of
/// the full decode.
void stream_queries(RunStats& st, RepTimes& t, bool keep,
                    const std::vector<szp::byte_t>& stream,
                    const std::vector<float>& full,
                    const std::vector<size_t>& begins) {
  if (begins.empty()) return;
  const double scale = 1.0 / reference_slowdown(1);
  bool ok = true;
  const char* why = "query != slice of full decode";
  for (const size_t b : begins) {
    const size_t e = std::min(b + kQueryLen, full.size());
    std::vector<float> v;
    try {
      const double q = timed("core.decompress_range", [&] {
        v = szp::core::decompress_range(stream, b, e);
      });
      t.other += q;
      if (keep) st.query_s.push_back(q * scale);
    } catch (const std::exception& ex) {
      ok = false;
      why = "core::decompress_range threw";
      continue;
    }
    const Span check("bench.oracle");
    ok = slice_equal(full, b, v) && ok;
  }
  st.oracle.record(ok, why);
}

}  // namespace

// ------------------------------------------------------------ inputs ----

InputSet hacc_set(std::uint64_t seed, size_t n, size_t copies,
                  unsigned threads) {
  static const char* kNames[] = {"vx", "vy", "vz", "xx", "yy", "zz"};
  const Clock::time_point t0 = Clock::now();
  const size_t count = 6 * copies;
  InputSet set;
  set.items.resize(count);
  {
    se::ThreadPool pool(threads);
    pool.run(count, [&](size_t k) {
      // Same generators and parameters as the HACC suite of data/registry;
      // the seed comes from the workload seed instead of the suite.
      const size_t i = k % 6;
      std::string name = kNames[i];
      if (copies > 1) {
        name += '.';
        name += std::to_string(k / 6);
      }
      set.items[k].field =
          i < 3 ? sd::particle_stream(name, n, mix(seed, k), 7600.0, 130.0)
                : sd::particle_positions(name, n, mix(seed, k), 256.0, 0.05);
    });
  }
  add_references(set, threads);
  set.order.resize(count);
  for (size_t i = 0; i < count; ++i) set.order[i] = i;
  szp::Rng rng(mix(seed, 100));
  for (size_t i = count - 1; i > 0; --i) {
    std::swap(set.order[i], set.order[rng.next_below(i + 1)]);
  }
  set.gen_s = seconds_between(t0, Clock::now());
  return set;
}

InputSet rtm_set(std::uint64_t seed, size_t count, unsigned threads) {
  const Clock::time_point t0 = Clock::now();
  const sd::Dims dims = sd::scaled_dims(sd::Suite::kRtm, 1.0);
  szp::Rng rng(mix(seed, 200));
  std::vector<size_t> steps(count);
  const double width = 3600.0 / static_cast<double>(count);
  for (size_t i = 0; i < count; ++i) {
    const double lo = static_cast<double>(i) * width;
    const double hi = static_cast<double>(i + 1) * width;
    steps[i] = static_cast<size_t>(rng.uniform(lo, hi));
  }
  InputSet set;
  set.items.resize(count);
  {
    se::ThreadPool pool(threads);
    pool.run(count, [&](size_t i) {
      sd::RtmParams p;
      p.timestep = steps[i];
      // As data::make_rtm_snapshot: the front stays inside the volume.
      p.wave_speed = 1.4 * static_cast<double>(dims[0]) / 3600.0;
      set.items[i].field = sd::rtm_wavefield(
          "snapshot_t" + std::to_string(steps[i]), dims, mix(seed, 201), p);
    });
  }
  add_references(set, threads);
  set.order.resize(count);
  for (size_t i = 0; i < count; ++i) set.order[i] = i;
  set.gen_s = seconds_between(t0, Clock::now());
  return set;
}

InputSet probe_set(const InputSet& set, size_t max_items, size_t max_elems) {
  InputSet probe;
  const size_t n = set.items.size();
  const size_t m = std::min(max_items, n);
  for (size_t k = 0; k < m; ++k) {
    const size_t i = m == 1 ? 0 : k * (n - 1) / (m - 1);
    Input in;
    in.field = set.items[i].field;
    if (in.field.count() > max_elems) {
      in.field.values.resize(max_elems);
      in.field.dims = sd::Dims{{max_elems}};
    }
    probe.items.push_back(std::move(in));
    probe.order.push_back(k);
  }
  add_references(probe, 1);
  return probe;
}

// --------------------------------------------------------- workloads ----

RunStats run_serial(const InputSet& set, const RunOptions& o) {
  RunStats st;
  st.threads = {{"caller", 1}};
  szp::Rng rng(mix(o.seed, 300));
  std::unique_ptr<se::Engine> eng;
  const auto make = [&] {
    eng = std::make_unique<se::Engine>(engine_config(se::BackendKind::kSerial));
  };
  const auto rep = [&](bool keep, size_t queries) {
    RepTimes t;
    const auto plan = query_plan(rng, set, queries);
    for (const size_t i : set.order) {
      const Input& in = set.items[i];
      std::vector<szp::byte_t> s;
      std::vector<float> x;
      t.comp_host.push_back(reference_slowdown(1));
      try {
        t.comp += timed("engine.compress",
                        [&] { s = eng->compress(in.field.span()).bytes; });
      } catch (const std::exception& ex) {
        st.oracle.record(false, ex.what());
        continue;
      }
      {
        const Span check("bench.oracle");
        st.oracle.record(same_bytes(s, in.ref), "stream != serial reference");
      }
      t.decomp_host.push_back(reference_slowdown(1));
      try {
        t.decomp += timed("engine.decompress", [&] { x = eng->decompress(s); });
      } catch (const std::exception& ex) {
        st.oracle.record(false, ex.what());
        continue;
      }
      {
        const Span check("bench.oracle");
        st.oracle.record_decode(in.field.values, x, in.eb_abs);
      }
      stream_queries(st, t, keep, s, x, plan[i]);
    }
    return t;
  };
  drive(st, o, make, rep);
  return st;
}

RunStats run_archive(const InputSet& set, const RunOptions& o) {
  RunStats st;
  st.threads = {{"caller", 1}, {"archive_writer", o.threads}};
  szp::Rng rng(mix(o.seed, 400));
  szp::archive::WriterOptions wo;
  wo.params = codec_params();
  wo.backend = se::BackendKind::kParallelHost;
  wo.threads = o.threads;
  const std::string dir = "bench.szpa";
  // A commit compresses on nproc threads; a reader decodes on the serial
  // backend.
  const auto make = [] {};  // the writer and reader are built per repetition
  const auto rep = [&](bool keep, size_t queries) {
    RepTimes t;
    const auto plan = query_plan(rng, set, queries);
    szp::robust::MemFs fs;
    {
      std::unique_ptr<szp::archive::ArchiveWriter> w;
      t.other += timed("archive.writer", [&] {
        w = std::make_unique<szp::archive::ArchiveWriter>(fs, dir, wo);
      });
      for (const size_t i : set.order) {
        t.other += timed("archive.add", [&] { w->add(set.items[i].field); });
      }
      for (int k = 0; k < kCommitPasses; ++k) {
        t.comp_host.push_back(reference_slowdown(o.threads));
      }
      try {
        t.comp += timed("archive.commit", [&] { (void)w->commit(); });
      } catch (const std::exception& ex) {
        st.oracle.record(false, ex.what());
        return t;
      }
      for (int k = 0; k < kCommitPasses; ++k) {
        t.comp_host.push_back(reference_slowdown(o.threads));
      }
    }
    std::unique_ptr<szp::archive::ArchiveReader> r;
    try {
      const double s = timed("archive.open", [&] {
        r = std::make_unique<szp::archive::ArchiveReader>(fs, dir);
      });
      t.other += s;
      if (keep) st.open_s.push_back(s);
    } catch (const std::exception& ex) {
      st.oracle.record(false, ex.what());
      return t;
    }
    {
      // The commit's oracle: every entry's stream is the serial reference.
      const Span check("bench.oracle");
      st.oracle.record(r->entries().size() == set.items.size(),
                       "archive entry count");
      for (const Input& in : set.items) {
        bool ok = false;
        try {
          ok = same_bytes(r->read_stream(r->entry_index(in.field.name)),
                          in.ref);
        } catch (const std::exception&) {
          ok = false;
        }
        st.oracle.record(ok, "archive stream != serial reference");
      }
    }
    for (const size_t i : set.order) {
      const Input& in = set.items[i];
      size_t e = 0;
      sd::Field out;
      t.decomp_host.push_back(reference_slowdown(1));
      try {
        e = r->entry_index(in.field.name);
        t.decomp += timed("archive.extract", [&] { out = r->extract(e); });
      } catch (const std::exception& ex) {
        st.oracle.record(false, ex.what());
        continue;
      }
      {
        const Span check("bench.oracle");
        st.oracle.record_decode(in.field.values, out.values, in.eb_abs);
      }
      // One verdict for all of this field's queries, which are rescaled
      // by one reference pass run before them.
      const double scale = plan[i].empty() ? 1.0 : 1.0 / reference_slowdown(1);
      bool queries_ok = true;
      for (const size_t b : plan[i]) {
        const szp::archive::IoStats before = r->io_stats();
        const size_t end = std::min(b + kQueryLen, in.field.count());
        std::vector<float> v;
        try {
          const double q = timed("archive.query",
                                 [&] { v = r->extract_range(e, b, end); });
          t.other += q;
          if (keep) {
            st.query_s.push_back(q * scale);
            st.query_reads += r->io_stats().reads - before.reads;
            st.query_bytes += r->io_stats().bytes_read - before.bytes_read;
          }
        } catch (const std::exception&) {
          queries_ok = false;
          continue;
        }
        const Span check("bench.oracle");
        queries_ok = slice_equal(out.values, b, v) && queries_ok;
      }
      if (!plan[i].empty()) {
        st.oracle.record(queries_ok, "query != slice of full extract");
      }
    }
    return t;
  };
  drive(st, o, make, rep);
  return st;
}

RunStats run_inline(const InputSet& set, const RunOptions& o) {
  RunStats st;
  szp::Rng rng(mix(o.seed, 500));
  std::unique_ptr<se::Engine> dec;
  szp::pipeline::Config pc;
  pc.workers = 1;
  pc.params = codec_params();
  pc.backend = se::BackendKind::kDevice;
  const auto make = [&] {
    dec = std::make_unique<se::Engine>(engine_config(se::BackendKind::kDevice));
    st.threads = {{"caller", 1},
                  {"pipeline_workers", pc.workers},
                  {"pipeline_device_streams", pc.device_streams},
                  {"gpusim_launch_workers", dec->device().workers()}};
  };
  const auto rep = [&](bool keep, size_t queries) {
    RepTimes t;
    const auto plan = query_plan(rng, set, queries);
    std::vector<sd::Field> snaps;
    for (const size_t i : set.order) snaps.push_back(set.items[i].field);
    std::unique_ptr<szp::pipeline::InlinePipeline> pl;
    t.other += timed("pipeline.create", [&] {
      pl = std::make_unique<szp::pipeline::InlinePipeline>(pc);
    });
    std::vector<szp::pipeline::SnapshotResult> res;
    std::vector<double> submits;
    double fin = 0;
    t.comp_host.push_back(reference_slowdown(o.threads));
    try {
      t.comp = timed("pipeline.run", [&] {
        for (sd::Field& s : snaps) {
          submits.push_back(
              timed("pipeline.submit", [&] { pl->submit(std::move(s)); }));
        }
        fin = timed("pipeline.finish", [&] { res = pl->finish(); });
      });
    } catch (const std::exception& ex) {
      for (size_t k = 0; k < set.order.size(); ++k) {
        st.oracle.record(false, ex.what());
      }
      return t;
    }
    t.comp_host.push_back(reference_slowdown(o.threads));
    pl.reset();
    if (keep) {
      double waited = 0;
      for (const double s : submits) waited += s;
      st.submit_s.insert(st.submit_s.end(), submits.begin(), submits.end());
      st.finish_s.push_back(fin);
      st.submit_frac.push_back(waited / t.comp);
    }
    for (size_t k = 0; k < set.order.size(); ++k) {
      const Input& in = set.items[set.order[k]];
      if (k >= res.size()) {
        st.oracle.record(false, "pipeline returned too few results");
        continue;
      }
      {
        const Span check("bench.oracle");
        st.oracle.record(same_bytes(res[k].stream, in.ref),
                         "stream != serial reference");
      }
      std::vector<float> x;
      t.decomp_host.push_back(reference_slowdown(o.threads));
      try {
        t.decomp += timed("engine.decompress",
                          [&] { x = dec->decompress(res[k].stream); });
      } catch (const std::exception& ex) {
        st.oracle.record(false, ex.what());
        continue;
      }
      {
        const Span check("bench.oracle");
        st.oracle.record_decode(in.field.values, x, in.eb_abs);
      }
      stream_queries(st, t, keep, res[k].stream, x, plan[set.order[k]]);
    }
    return t;
  };
  drive(st, o, make, rep);
  return st;
}

}  // namespace perfbench
