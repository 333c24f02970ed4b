#include "szp/core/format.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "szp/core/block_codec.hpp"
#include "szp/util/bytestream.hpp"
#include "szp/util/crc32c.hpp"

namespace szp::core {

void Params::validate() const {
  if (block_len == 0 || block_len % 8 != 0) {
    throw format_error("Params: block_len must be a positive multiple of 8");
  }
  if (error_bound <= 0) {
    throw format_error("Params: error_bound must be positive");
  }
  if (mode == ErrorMode::kRel && error_bound >= 1.0) {
    throw format_error("Params: REL error bound must be in (0, 1)");
  }
  if (lorenzo_layers < 1 || lorenzo_layers > 2) {
    throw format_error("Params: lorenzo_layers must be 1 or 2");
  }
  if (outlier_mode && block_len > 256) {
    throw format_error(
        "Params: outlier mode stores u8 in-block positions (L <= 256)");
  }
  if (checksum_group_blocks > 0xFFFF) {
    throw format_error("Params: checksum_group_blocks must fit in 16 bits");
  }
}

std::uint8_t Header::make_flags(const Params& p) {
  std::uint8_t f = 0;
  if (p.lorenzo) f |= 1u;
  if (p.zero_block_bypass) f |= 2u;
  if (p.bit_shuffle) f |= 4u;
  if (p.outlier_mode) f |= 16u;
  if (p.lorenzo && p.lorenzo_layers == 2) f |= 32u;
  return f;
}

Header Header::make(const Params& p, size_t num_elements, double eb_abs,
                    bool f64) {
  Header h;
  h.version = p.checksum_group_blocks > 0 ? kVersion : kVersionV1;
  h.num_elements = num_elements;
  h.eb_abs = eb_abs;
  h.block_len = static_cast<std::uint16_t>(p.block_len);
  h.flags = make_flags(p);
  if (f64) h.flags |= 8u;
  h.checksum_group_blocks = static_cast<std::uint16_t>(p.checksum_group_blocks);
  return h;
}

void Header::serialize(std::span<byte_t> out) const {
  if (out.size() < kSize) throw format_error("Header: buffer too small");
  ByteWriter w;
  w.put(kMagic);
  w.put(version);
  w.put(block_len);
  w.put(num_elements);
  w.put(eb_abs);
  w.put(flags);
  w.put(version >= 2 ? checksum_group_blocks : std::uint16_t{0});
  while (w.size() < kCrcOffset) w.put(byte_t{0});
  // v2 headers are self-checking; v1 keeps the old all-zero padding.
  if (version >= 2) {
    w.put(crc32c(std::span<const byte_t>(w.bytes()).first(kCrcOffset)));
  }
  while (w.size() < kSize) w.put(byte_t{0});
  const auto& bytes = w.bytes();
  std::copy(bytes.begin(), bytes.end(), out.begin());
}

Header Header::deserialize(std::span<const byte_t> in) {
  if (in.size() < kSize) throw format_error("Header: stream truncated");
  ByteReader r(in);
  if (r.get<std::uint32_t>() != kMagic) {
    throw format_error("Header: bad magic");
  }
  Header h;
  h.version = r.get<std::uint16_t>();
  if (h.version != kVersionV1 && h.version != kVersion) {
    throw format_error("Header: unsupported version");
  }
  h.block_len = r.get<std::uint16_t>();
  h.num_elements = r.get<std::uint64_t>();
  h.eb_abs = r.get<double>();
  h.flags = r.get<std::uint8_t>();
  h.checksum_group_blocks = r.get<std::uint16_t>();
  if (h.version >= 2) {
    std::uint32_t stored;
    std::memcpy(&stored, in.data() + kCrcOffset, sizeof(stored));
    if (stored != crc32c(in.first(kCrcOffset))) {
      throw format_error("Header: checksum mismatch");
    }
  }
  if (h.block_len == 0 || h.block_len % 8 != 0) {
    throw format_error("Header: invalid block length");
  }
  // num_blocks() computes div_ceil(n, L) = (n + L - 1) / L; a hostile
  // element count near 2^64 would wrap that sum and sail past every
  // downstream truncation check.
  if (h.num_elements >
      std::numeric_limits<std::uint64_t>::max() - h.block_len) {
    throw format_error("Header: element count overflow");
  }
  if (h.eb_abs <= 0) throw format_error("Header: invalid error bound");
  if (h.version >= 2 && h.checksum_group_blocks == 0) {
    throw format_error("Header: invalid checksum group size");
  }
  if (h.version < 2) h.checksum_group_blocks = 0;
  return h;
}

double resolve_eb(const Params& p, double value_range) {
  p.validate();
  if (p.mode == ErrorMode::kAbs) return p.error_bound;
  if (!std::isfinite(value_range)) {
    throw format_error(
        "REL error bound: value range is not finite (input holds a "
        "non-finite value, NaN or Inf, or its range overflows)");
  }
  const double eb = p.error_bound * value_range;
  if (eb <= 0) {
    // Constant dataset under REL: any positive bound reproduces it exactly.
    return p.error_bound > 0 ? p.error_bound : 1e-30;
  }
  return eb;
}

// ------------------------------------------------- integrity footer ----

void ChecksumFooter::serialize(std::span<byte_t> out) const {
  if (out.size() < bytes()) {
    throw format_error("ChecksumFooter: buffer too small");
  }
  ByteWriter w;
  w.put(kMagic);
  w.put(group_blocks);
  w.put(checked_cast<std::uint32_t>(crcs.size()));
  for (size_t g = 0; g < crcs.size(); ++g) {
    w.put(offsets[g]);
    w.put(crcs[g]);
  }
  w.put(crc32c(w.bytes()));
  const auto& b = w.bytes();
  std::copy(b.begin(), b.end(), out.begin());
}

ChecksumFooter ChecksumFooter::deserialize(std::span<const byte_t> in) {
  if (in.size() < kFixedBytes) {
    throw format_error("ChecksumFooter: truncated");
  }
  ByteReader r(in);
  if (r.get<std::uint32_t>() != kMagic) {
    throw format_error("ChecksumFooter: bad magic");
  }
  ChecksumFooter f;
  f.group_blocks = r.get<std::uint32_t>();
  const auto groups = r.get<std::uint32_t>();
  const size_t total = bytes_for(groups);
  if (in.size() < total) throw format_error("ChecksumFooter: truncated");
  std::uint32_t stored;
  std::memcpy(&stored, in.data() + total - 4, sizeof(stored));
  if (stored != crc32c(in.first(total - 4))) {
    throw format_error("ChecksumFooter: footer checksum mismatch");
  }
  f.offsets.reserve(groups);
  f.crcs.reserve(groups);
  for (std::uint32_t g = 0; g < groups; ++g) {
    f.offsets.push_back(r.get<std::uint64_t>());
    f.crcs.push_back(r.get<std::uint32_t>());
  }
  if (f.group_blocks == 0 && groups != 0) {
    throw format_error("ChecksumFooter: zero group size with groups present");
  }
  return f;
}

// ------------------------------------------------------ length scan ----

namespace {

/// Per-byte counts of a run of length bytes. `max_masked` is the largest
/// byte with the outlier flag cleared: every byte is valid iff it is at
/// most kMaxFixedLength (0..32 and 64..96 map to 0..32; 33..63, 97..127
/// and anything with the top bit set do not).
struct LengthSums {
  std::uint64_t fixed = 0;    // sum of F (the byte with the flag cleared)
  std::uint64_t zero = 0;     // zero bytes
  std::uint64_t outlier = 0;  // bytes with the outlier flag
  std::uint8_t max_masked = 0;
};

constexpr std::uint8_t kFlagMask =
    static_cast<std::uint8_t>(~kOutlierFlag);
// A tile is kSteps rows of one 16-byte vector. Each lane sums at most
// kSteps values of F <= 32 into a byte (invalid bytes may wrap, but they
// fail the max check regardless), then the tile widens once into u32
// lanes. The branch-free loops vectorize under GCC's -O2 cost model.
constexpr size_t kLanes = 16;
constexpr size_t kSteps = 4;
constexpr size_t kTile = kLanes * kSteps;

LengthSums sum_lengths(const byte_t* p, size_t len) {
  std::uint32_t fixed[kLanes] = {}, zero[kLanes] = {}, outlier[kLanes] = {};
  std::uint8_t mx[kLanes] = {};
  const size_t full = len - len % kTile;
  for (size_t t = 0; t < full; t += kTile) {
    std::uint8_t f[kLanes] = {}, z[kLanes] = {}, o[kLanes] = {};
    for (size_t s = 0; s < kSteps; ++s) {
      for (size_t k = 0; k < kLanes; ++k) {
        const std::uint8_t lb = p[t + s * kLanes + k];
        const std::uint8_t v = lb & kFlagMask;
        mx[k] = std::max(mx[k], v);
        f[k] = static_cast<std::uint8_t>(f[k] + v);
        z[k] = static_cast<std::uint8_t>(z[k] + (lb == 0));
        o[k] = static_cast<std::uint8_t>(o[k] + (lb >= kOutlierFlag));
      }
    }
    for (size_t k = 0; k < kLanes; ++k) {
      fixed[k] += f[k];
      zero[k] += z[k];
      outlier[k] += o[k];
    }
  }
  LengthSums s;
  for (size_t k = 0; k < kLanes; ++k) {
    s.fixed += fixed[k];
    s.zero += zero[k];
    s.outlier += outlier[k];
    s.max_masked = std::max(s.max_masked, mx[k]);
  }
  for (size_t i = full; i < len; ++i) {
    const std::uint8_t v = p[i] & kFlagMask;
    s.max_masked = std::max(s.max_masked, v);
    s.fixed += v;
    s.zero += p[i] == 0;
    s.outlier += p[i] >= kOutlierFlag;
  }
  return s;
}

/// Payload bytes of `count` valid blocks with sums `s`.
std::uint64_t payload_of(const LengthSums& s, size_t count, unsigned block_len,
                         bool zero_bypass) {
  const std::uint64_t sign_maps = zero_bypass ? count - s.zero : count;
  return block_len / 8 * (s.fixed + sign_maps) +
         kOutlierExtraBytes * s.outlier;
}

}  // namespace

LengthScan scan_lengths(std::span<const byte_t> lengths, unsigned block_len,
                        bool zero_bypass, unsigned group_blocks) {
  if (group_blocks == 0) {
    throw std::invalid_argument("scan_lengths: group_blocks must be positive");
  }
  LengthScan scan;
  scan.block_len = block_len;
  scan.zero_bypass = zero_bypass;
  scan.group_blocks = group_blocks;
  scan.group_begin.resize(div_ceil(lengths.size(), size_t{group_blocks}));
  std::uint8_t max_masked = 0;
  std::uint64_t off = 0;
  for (size_t g = 0; g < scan.group_begin.size(); ++g) {
    const size_t first = g * group_blocks;
    const size_t count = std::min<size_t>(group_blocks, lengths.size() - first);
    const LengthSums s = sum_lengths(lengths.data() + first, count);
    scan.group_begin[g] = off;
    off += payload_of(s, count, block_len, zero_bypass);
    max_masked = std::max(max_masked, s.max_masked);
    scan.zero_blocks += s.zero;
    scan.outlier_blocks += s.outlier;
    scan.fixed_length_sum += s.fixed;
  }
  scan.payload_bytes = off;
  scan.valid = max_masked <= kMaxFixedLength;
  return scan;
}

std::uint64_t LengthScan::block_offset(std::span<const byte_t> lengths,
                                       size_t block) const {
  if (block >= lengths.size()) return payload_bytes;
  const size_t g = block / group_blocks;
  const size_t first = g * group_blocks;
  return group_begin[g] +
         payload_of(sum_lengths(lengths.data() + first, block - first),
                    block - first, block_len, zero_bypass);
}

// -------------------------------------------------- checksum groups ----

std::vector<GroupSpan> checksum_group_spans(std::span<const byte_t> stream,
                                            const Header& h,
                                            unsigned group_blocks) {
  const size_t nblocks = num_blocks(h.num_elements, h.block_len);
  if (stream.size() < payload_offset(nblocks)) {
    throw format_error("checksum_group_spans: truncated length area");
  }
  if (group_blocks == 0) return {};
  const LengthScan scan =
      scan_lengths(stream.subspan(lengths_offset(), nblocks), h.block_len,
                   h.zero_block_bypass(), group_blocks);
  if (!scan.valid) {
    throw format_error("checksum_group_spans: invalid length byte");
  }
  const size_t base = payload_offset(nblocks);
  if (base + scan.payload_bytes > stream.size()) {
    throw format_error("checksum_group_spans: truncated payload");
  }
  std::vector<GroupSpan> spans(scan.groups());
  for (size_t g = 0; g < spans.size(); ++g) {
    spans[g].first_block = g * group_blocks;
    spans[g].last_block = std::min(nblocks, spans[g].first_block + group_blocks);
    spans[g].payload_begin = base + scan.group_begin[g];
    spans[g].payload_end = base + scan.group_end(g);
  }
  return spans;
}

std::uint32_t checksum_group_crc(std::span<const byte_t> stream,
                                 const GroupSpan& g) {
  Crc32c crc;
  crc.update(stream.subspan(lengths_offset() + g.first_block,
                            g.last_block - g.first_block));
  crc.update(
      stream.subspan(g.payload_begin, g.payload_end - g.payload_begin));
  return crc.value();
}

void verify_footer(std::span<const byte_t> footer_bytes, const Header& h,
                   std::span<const byte_t> lengths, const LengthScan& scan,
                   std::span<const byte_t> payload,
                   std::uint64_t payload_start, size_t first_group,
                   size_t last_group) {
  const ChecksumFooter footer = ChecksumFooter::deserialize(footer_bytes);
  if (footer.group_blocks != h.checksum_group_blocks ||
      footer.group_blocks != scan.group_blocks) {
    throw format_error("verify_footer: group size disagrees with header");
  }
  if (footer.crcs.size() != scan.groups()) {
    throw format_error("verify_footer: group count mismatch");
  }
  for (size_t g = first_group; g < last_group; ++g) {
    const std::uint64_t begin = scan.group_begin[g];
    const std::uint64_t end = scan.group_end(g);
    if (footer.offsets[g] != begin) {
      throw format_error("verify_footer: group offset mismatch");
    }
    if (begin < payload_start || end - payload_start > payload.size()) {
      throw format_error("verify_footer: payload window misses group " +
                         std::to_string(g));
    }
    const size_t first_block = g * scan.group_blocks;
    Crc32c crc;
    crc.update(lengths.subspan(
        first_block,
        std::min<size_t>(scan.group_blocks, lengths.size() - first_block)));
    crc.update(payload.subspan(begin - payload_start, end - begin));
    if (footer.crcs[g] != crc.value()) {
      throw format_error("verify_footer: checksum mismatch in group " +
                         std::to_string(g));
    }
  }
}

StreamStats inspect_stream(std::span<const byte_t> stream) {
  const Header h = Header::deserialize(stream);
  StreamStats s;
  s.version = h.version;
  s.num_blocks = num_blocks(h.num_elements, h.block_len);
  if (stream.size() < payload_offset(s.num_blocks)) {
    throw format_error("inspect_stream: truncated length area");
  }
  const LengthScan scan =
      scan_lengths(stream.subspan(lengths_offset(), s.num_blocks),
                   h.block_len, h.zero_block_bypass(), scan_group_blocks(h));
  if (!scan.valid) {
    throw format_error("inspect_stream: invalid length byte");
  }
  s.zero_blocks = scan.zero_blocks;
  s.outlier_blocks = scan.outlier_blocks;
  s.payload_bytes = scan.payload_bytes;
  if (h.checksummed()) {
    const size_t footer_off = payload_offset(s.num_blocks) + s.payload_bytes;
    if (footer_off > stream.size()) {
      throw format_error("inspect_stream: truncated payload");
    }
    const ChecksumFooter footer =
        ChecksumFooter::deserialize(stream.subspan(footer_off));
    s.footer_bytes = footer.bytes();
    s.checksum_groups = footer.crcs.size();
  }
  const size_t nonzero = s.num_blocks - s.zero_blocks;
  s.mean_fixed_length =
      nonzero > 0 ? static_cast<double>(scan.fixed_length_sum) /
                        static_cast<double>(nonzero)
                  : 0;
  return s;
}

}  // namespace szp::core
