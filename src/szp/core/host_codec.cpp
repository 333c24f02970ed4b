#include "szp/core/host_codec.hpp"

#include <cstring>

#include "szp/obs/hostprof/hostprof.hpp"

namespace szp::core {

namespace hostprof = obs::hostprof;

namespace {

/// Cache line granularity for the cross-chunk output-sharing counter.
constexpr std::uint64_t kCacheLineBytes = 64;

/// Contiguous block range [begin, end) owned by one executor task.
struct BlockRange {
  size_t begin = 0, end = 0;
};

BlockRange chunk_range(size_t nblocks, size_t nchunks, size_t c) {
  const size_t per = div_ceil(nblocks, nchunks);
  BlockRange r;
  r.begin = std::min(nblocks, c * per);
  r.end = std::min(nblocks, r.begin + per);
  return r;
}

/// Chunks worth creating for `nblocks` of work on `exec`: one per executor
/// slot, never more than the block count (empty chunks are legal but
/// pointless).
size_t chunk_count(size_t nblocks, const Executor& exec) {
  return std::max<size_t>(1,
                          std::min<size_t>(exec.width(),
                                           std::max<size_t>(1, nblocks)));
}

/// Pass 1 of compression, shared with the size probe: per-block
/// quantize/predict/encode over contiguous chunks, length bytes to
/// `lengths`, each chunk's payloads appended to its arena. Then the global
/// synchronization: an exclusive prefix sum over the chunk totals (block
/// offsets within a chunk are implied by arena order). Returns the total
/// payload bytes.
template <typename T>
std::uint64_t encode_chunks(std::span<const T> data, const Params& params,
                            double eb_abs, Executor& exec,
                            HostScratch& scratch, std::span<byte_t> lengths) {
  const unsigned L = params.block_len;
  const size_t n = data.size();
  const size_t nblocks = num_blocks(n, L);
  const size_t nchunks = chunk_count(nblocks, exec);
  if (scratch.chunks.size() < nchunks) scratch.chunks.resize(nchunks);
  scratch.chunk_bytes.assign(nchunks, 0);
  scratch.chunk_offset.assign(nchunks, 0);

  exec.run(nchunks, [&](size_t c) {
    const BlockRange r = chunk_range(nblocks, nchunks, c);
    HostScratch::Chunk& ch = scratch.chunks[c];
    std::uint64_t used = 0;
    for (size_t b = r.begin; b < r.end; ++b) {
      size_t lane_elems = 0;
      const std::uint8_t lb =
          encode_block<T>(data, n, b, L, eb_abs, params, ch.block, lane_elems);
      lengths[b] = lb;
      const size_t cl = encoded_block_bytes(lb, L, params);
      if (cl == 0) continue;
      const hostprof::ScopedTimer bb(hostprof::Bucket::kBB);
      // The arena keeps its size across calls (the vector's capacity grows
      // geometrically), so steady-state blocks append without resizing;
      // bytes past `used` are stale and never read.
      if (used + cl > ch.payload.size()) ch.payload.resize(used + cl);
      write_block_payload(ch.block, lb, L, params.bit_shuffle,
                          std::span(ch.payload).subspan(used, cl));
      used += cl;
    }
    scratch.chunk_bytes[c] = used;
  });

  std::uint64_t total = 0;
  const hostprof::ScopedTimer gs(hostprof::Bucket::kGS);
  for (size_t c = 0; c < nchunks; ++c) {
    scratch.chunk_offset[c] = total;
    total += scratch.chunk_bytes[c];
  }
  return total;
}

template <typename T>
std::vector<byte_t> compress_impl(std::span<const T> data,
                                  const Params& params, double eb_abs,
                                  Executor& exec, HostScratch& scratch) {
  params.validate();
  const unsigned L = params.block_len;
  const size_t n = data.size();
  const size_t nblocks = num_blocks(n, L);
  const Header h = Header::make(params, n, eb_abs, std::is_same_v<T, double>);

  const size_t groups =
      num_checksum_groups(nblocks, params.checksum_group_blocks);
  const size_t footer_bytes =
      h.checksummed() ? ChecksumFooter::bytes_for(groups) : 0;

  // The length byte area is written in place during pass 1 (disjoint per
  // chunk); payload bytes go to per-chunk arenas first because their final
  // offsets are only known after the prefix sum.
  std::vector<byte_t> out(payload_offset(nblocks), byte_t{0});
  const size_t nchunks = chunk_count(nblocks, exec);
  const std::uint64_t total_payload =
      encode_chunks(data, params, eb_abs, exec, scratch,
                    std::span(out).subspan(lengths_offset(), nblocks));

  const size_t base = payload_offset(nblocks);
  out.resize(base + total_payload + footer_bytes, byte_t{0});
  h.serialize(std::span(out).first(Header::kSize));

  // Pass 2 (parallel): scatter each chunk's arena to its synchronized
  // offset — consecutive blocks are consecutive in the stream, so one
  // memcpy per chunk.
  exec.run(nchunks, [&](size_t c) {
    if (scratch.chunk_bytes[c] == 0) return;
    const hostprof::ScopedTimer bb(hostprof::Bucket::kBB);
    std::memcpy(out.data() + base + scratch.chunk_offset[c],
                scratch.chunks[c].payload.data(), scratch.chunk_bytes[c]);
  });

  if (h.checksummed()) {
    ChecksumFooter footer;
    footer.group_blocks = params.checksum_group_blocks;
    const auto spans =
        checksum_group_spans(out, h, params.checksum_group_blocks);
    footer.offsets.resize(spans.size());
    footer.crcs.resize(spans.size());
    const size_t gchunks = chunk_count(spans.size(), exec);
    exec.run(gchunks, [&](size_t c) {
      const hostprof::ScopedTimer crc(hostprof::Bucket::kChecksum);
      const BlockRange r = chunk_range(spans.size(), gchunks, c);
      for (size_t g = r.begin; g < r.end; ++g) {
        footer.offsets[g] = spans[g].payload_begin - base;
        footer.crcs[g] = checksum_group_crc(out, spans[g]);
      }
    });
    footer.serialize(std::span(out).subspan(base + total_payload,
                                            footer_bytes));
  }

  // Deterministic counters: everything below derives from serial state
  // (submission-side sizes and the post-GS offsets), so the fingerprint is
  // stable run to run regardless of which worker claimed which chunk.
  if (hostprof::enabled()) {
    auto& prof = hostprof::Profiler::instance();
    prof.count(hostprof::HostCounter::kCompressCalls);
    prof.count(hostprof::HostCounter::kBlocksEncoded, nblocks);
    prof.count(hostprof::HostCounter::kBytesRead, n * sizeof(T));
    prof.count(hostprof::HostCounter::kBytesWritten, out.size());
    prof.count(hostprof::HostCounter::kChunks, nchunks);
    for (size_t c = 1; c < nchunks; ++c) {
      // Adjacent chunks whose boundary lands mid cache line: the pass-2
      // scatter has two threads writing the same 64-byte line.
      if (scratch.chunk_bytes[c] == 0 || scratch.chunk_bytes[c - 1] == 0) {
        continue;
      }
      const std::uint64_t at = base + scratch.chunk_offset[c];
      if ((at - 1) / kCacheLineBytes == at / kCacheLineBytes) {
        prof.count(hostprof::HostCounter::kFalseSharedBoundaries);
      }
    }
    for (size_t c = 0; c < nchunks; ++c) {
      const BlockRange r = chunk_range(nblocks, nchunks, c);
      prof.observe_chunk(r.end - r.begin, scratch.chunk_bytes[c]);
    }
  }
  return out;
}

template <typename T>
std::vector<T> decompress_impl(std::span<const byte_t> stream, Executor& exec,
                               HostScratch& scratch) {
  const Header h = Header::deserialize(stream);
  if (h.is_f64() != std::is_same_v<T, double>) {
    throw format_error("decompress: stream data type mismatch (f32 vs f64)");
  }
  const unsigned L = h.block_len;
  const size_t n = h.num_elements;
  const size_t nblocks = num_blocks(n, L);
  if (stream.size() < payload_offset(nblocks)) {
    throw format_error("decompress: truncated length area");
  }

  // One pass over the length bytes rebuilds the compressor's prefix sum at
  // group granularity; each chunk derives its own block offsets from it.
  const auto lengths = stream.subspan(lengths_offset(), nblocks);
  LengthScan scan;
  {
    const hostprof::ScopedTimer gs(hostprof::Bucket::kGS);
    scan = scan_lengths(lengths, L, h.zero_block_bypass(),
                        scan_group_blocks(h));
  }
  if (!scan.valid) throw format_error("decompress: invalid length byte");
  const size_t base = payload_offset(nblocks);
  if (stream.size() < base + scan.payload_bytes) {
    throw format_error("decompress: truncated payload");
  }
  // v2 streams are integrity-checked before any payload is interpreted;
  // a flipped bit fails here instead of dequantizing into garbage.
  if (h.checksummed()) {
    const hostprof::ScopedTimer crc(hostprof::Bucket::kChecksum);
    verify_footer(stream.subspan(base + scan.payload_bytes), h, lengths, scan,
                  stream.subspan(base, scan.payload_bytes), 0, 0,
                  scan.groups());
  }

  std::vector<T> out(n, T{0});
  const size_t nchunks = chunk_count(nblocks, exec);
  if (scratch.chunks.size() < nchunks) scratch.chunks.resize(nchunks);

  // Parallel per-block decode into disjoint output ranges.
  exec.run(nchunks, [&](size_t c) {
    const BlockRange r = chunk_range(nblocks, nchunks, c);
    BlockScratch& bs = scratch.chunks[c].block;
    size_t off = base + scan.block_offset(lengths, r.begin);
    for (size_t b = r.begin; b < r.end; ++b) {
      const size_t begin = b * L;
      const size_t len = std::min<size_t>(L, n - begin);
      const std::uint8_t lb = lengths[b];
      const size_t cl = block_payload_bytes(lb, L, h.zero_block_bypass());
      if (cl == 0) continue;  // zero block: out is pre-zeroed
      // BB covers undoing the payload packing; QP covers the prediction
      // inverse and dequantize — the mirror of the compress-side split.
      hostprof::SplitTimer stage(hostprof::Bucket::kBB);
      read_block_payload(stream.subspan(off, cl), lb, L, h.bit_shuffle(), bs);
      off += cl;
      stage.split(hostprof::Bucket::kQP);
      reconstruct_block(bs, h, 0, std::span(out).subspan(begin, len));
    }
  });

  if (hostprof::enabled()) {
    auto& prof = hostprof::Profiler::instance();
    prof.count(hostprof::HostCounter::kDecompressCalls);
    prof.count(hostprof::HostCounter::kBlocksDecoded, nblocks);
    prof.count(hostprof::HostCounter::kBytesRead, stream.size());
    prof.count(hostprof::HostCounter::kBytesWritten, n * sizeof(T));
    prof.count(hostprof::HostCounter::kChunks, nchunks);
  }
  return out;
}

/// max - min in one pass of independent per-lane selects, so the loop
/// vectorizes. Equal to std::minmax_element's (*max - *min) for finite
/// input, down to the sign of a zero range (see the constant case).
template <typename T>
double value_range_impl(std::span<const T> data) {
  if (data.empty()) return 0;
  constexpr size_t kLanes = 16;
  T mn[kLanes], mx[kLanes];
  std::fill(std::begin(mn), std::end(mn), data[0]);
  std::fill(std::begin(mx), std::end(mx), data[0]);
  const size_t full = data.size() - data.size() % kLanes;
  for (size_t i = 0; i < full; i += kLanes) {
    for (size_t k = 0; k < kLanes; ++k) {
      const T x = data[i + k];
      mn[k] = x < mn[k] ? x : mn[k];
      mx[k] = mx[k] < x ? x : mx[k];
    }
  }
  for (size_t i = full; i < data.size(); ++i) {
    mn[0] = data[i] < mn[0] ? data[i] : mn[0];
    mx[0] = mx[0] < data[i] ? data[i] : mx[0];
  }
  for (size_t k = 1; k < kLanes; ++k) {
    mn[0] = mn[k] < mn[0] ? mn[k] : mn[0];
    mx[0] = mx[0] < mx[k] ? mx[k] : mx[0];
  }
  // A constant field: minmax_element pairs the first minimum with the last
  // maximum, which only matters for the sign of a zero range (+0 vs -0).
  if (mn[0] == mx[0]) {
    return static_cast<double>(data.back()) - static_cast<double>(data.front());
  }
  return static_cast<double>(mx[0]) - static_cast<double>(mn[0]);
}

}  // namespace

Executor& serial_executor() {
  static Executor exec;
  return exec;
}

double value_range_of(std::span<const float> data) {
  return value_range_impl(data);
}

double value_range_of(std::span<const double> data) {
  return value_range_impl(data);
}

std::vector<byte_t> compress_host(std::span<const float> data,
                                  const Params& params, double eb_abs,
                                  Executor& exec, HostScratch& scratch) {
  return compress_impl(data, params, eb_abs, exec, scratch);
}

std::vector<byte_t> compress_host(std::span<const double> data,
                                  const Params& params, double eb_abs,
                                  Executor& exec, HostScratch& scratch) {
  return compress_impl(data, params, eb_abs, exec, scratch);
}

std::vector<float> decompress_host(std::span<const byte_t> stream,
                                   Executor& exec, HostScratch& scratch) {
  return decompress_impl<float>(stream, exec, scratch);
}

std::vector<double> decompress_host_f64(std::span<const byte_t> stream,
                                        Executor& exec, HostScratch& scratch) {
  return decompress_impl<double>(stream, exec, scratch);
}

size_t compressed_bytes_probe(std::span<const float> data,
                              const Params& params, double eb_abs,
                              Executor& exec, HostScratch& scratch) {
  params.validate();
  const size_t nblocks = num_blocks(data.size(), params.block_len);
  std::vector<byte_t> lengths(nblocks);
  return payload_offset(nblocks) +
         encode_chunks(data, params, eb_abs, exec, scratch, lengths) +
         (params.checksum_group_blocks > 0
              ? ChecksumFooter::bytes_for(num_checksum_groups(
                    nblocks, params.checksum_group_blocks))
              : 0);
}

}  // namespace szp::core
