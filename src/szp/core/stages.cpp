#include "szp/core/stages.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

namespace szp::core {

namespace {

// Quantized magnitudes must leave headroom for the Lorenzo delta, whose
// magnitude can double: |r_i| <= 2^29 keeps |l_i| <= 2^30 < INT32_MAX.
constexpr double kMaxQuantMagnitude = 536870912.0;  // 2^29

/// Cold path of quantize: name the cause of a rejected block. Non-finite
/// input gets its own message; otherwise the bound is too small.
template <typename T>
[[noreturn]] void throw_unquantizable(std::span<const T> in) {
  for (const T v : in) {
    if (!std::isfinite(v)) {
      throw format_error(
          "quantize: input holds a non-finite value (NaN or Inf)");
    }
  }
  throw format_error(
      "quantize: error bound too small for the data magnitude "
      "(quantization integer exceeds 2^29)");
}

/// r = llround(x * inv) (round half away from zero) without libm: truncate
/// |x * inv| to an integer, add 1 when the remainder is >= 0.5 (exact below
/// 2^29), restore the sign. Out-of-range and NaN elements are never
/// converted; they set `bad`, and the block is rejected after the loop.
template <typename T>
void quantize_impl(std::span<const T> in, double eb_abs,
                   std::span<std::int32_t> out) {
  assert(in.size() == out.size());
  const double inv = 1.0 / (2.0 * eb_abs);
  bool bad = false;
  for (size_t i = 0; i < in.size(); ++i) {
    const double scaled = static_cast<double>(in[i]) * inv;
    const double mag = std::fabs(scaled);
    const bool ok = mag < kMaxQuantMagnitude;
    bad |= !ok;
    const double safe = ok ? mag : 0.0;
    const auto whole = static_cast<std::int32_t>(safe);
    const std::int32_t r =
        whole + static_cast<std::int32_t>(safe - whole >= 0.5);
    out[i] = scaled < 0 ? -r : r;
  }
  if (bad) throw_unquantizable(in);
}

template <typename T>
void dequantize_impl(std::span<const std::int32_t> in, double eb_abs,
                     std::span<T> out) {
  assert(in.size() == out.size());
  const double scale = 2.0 * eb_abs;
  for (size_t i = 0; i < in.size(); ++i) {
    out[i] = static_cast<T>(static_cast<double>(in[i]) * scale);
  }
}

/// Transpose an 8x8 bit matrix held in a word, row r = byte r and column
/// c = bit c: bit c of byte r moves to bit r of byte c. Self-inverse.
std::uint64_t transpose8(std::uint64_t x) {
  std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
  x ^= t ^ (t << 28);
  return x;
}

}  // namespace

void quantize(std::span<const float> in, double eb_abs,
              std::span<std::int32_t> out) {
  quantize_impl(in, eb_abs, out);
}
void quantize(std::span<const double> in, double eb_abs,
              std::span<std::int32_t> out) {
  quantize_impl(in, eb_abs, out);
}

void dequantize(std::span<const std::int32_t> in, double eb_abs,
                std::span<float> out) {
  dequantize_impl(in, eb_abs, out);
}
void dequantize(std::span<const std::int32_t> in, double eb_abs,
                std::span<double> out) {
  dequantize_impl(in, eb_abs, out);
}

void lorenzo_forward(std::span<std::int32_t> r) {
  // Back to front, so each element reads its predecessor before that is
  // overwritten (and the loop vectorizes); r_{-1} = 0 leaves r_0 as is.
  // |r_i| <= 2^29 so the difference cannot wrap.
  for (size_t i = r.size(); i-- > 1;) r[i] -= r[i - 1];
}

void lorenzo_inverse(std::span<std::int32_t> l) {
  // Unsigned accumulation: corrupt (unchecksummed v1) streams can hold
  // arbitrary deltas, and signed wrap would be UB. The reconstruction is
  // garbage either way, but it must be *defined* garbage so the salvage
  // and fuzz paths stay sanitizer-clean.
  std::uint32_t acc = 0;
  for (auto& v : l) {
    acc += static_cast<std::uint32_t>(v);
    v = static_cast<std::int32_t>(acc);
  }
}

void lorenzo2_forward(std::span<std::int32_t> r) {
  std::int64_t prev = 0, prev2 = 0;
  for (auto& v : r) {
    const std::int64_t cur = v;
    const std::int64_t l = cur - 2 * prev + prev2;
    if (l > std::numeric_limits<std::int32_t>::max() ||
        l < std::numeric_limits<std::int32_t>::min()) {
      throw format_error("lorenzo2: second difference overflows 32 bits");
    }
    v = static_cast<std::int32_t>(l);
    prev2 = prev;
    prev = cur;
  }
}

void lorenzo2_inverse(std::span<std::int32_t> l) {
  // Two cumulative sums undo two differences.
  lorenzo_inverse(l);
  lorenzo_inverse(l);
}

// Sign split and merge use the two's-complement identity |v| = (u ^ -s) + s
// with the sign s as 0/1, so neither has a data-dependent branch.
void split_signs(std::span<const std::int32_t> in,
                 std::span<std::uint32_t> magnitudes,
                 std::span<byte_t> signs) {
  const size_t n = in.size();
  assert(magnitudes.size() == n);
  assert(signs.size() >= div_ceil(n, size_t{8}));
  std::fill(signs.begin() + static_cast<long>(n / 8), signs.end(), byte_t{0});
  for (size_t i = 0; i < n; i += 8) {
    const size_t len = std::min<size_t>(8, n - i);
    std::uint32_t bits = 0;
    for (size_t e = 0; e < len; ++e) {
      const auto u = static_cast<std::uint32_t>(in[i + e]);
      const std::uint32_t s = u >> 31;
      magnitudes[i + e] = (u ^ (0u - s)) + s;
      bits |= s << e;
    }
    signs[i / 8] = static_cast<byte_t>(bits);
  }
}

void apply_signs(std::span<const std::uint32_t> magnitudes,
                 std::span<const byte_t> signs, std::span<std::int32_t> out) {
  assert(out.size() == magnitudes.size());
  for (size_t i = 0; i < magnitudes.size(); ++i) {
    const std::uint32_t s = (signs[i / 8] >> (i % 8)) & 1u;
    out[i] = static_cast<std::int32_t>((magnitudes[i] ^ (0u - s)) + s);
  }
}

unsigned fixed_length_of(std::span<const std::uint32_t> magnitudes) {
  std::uint32_t mx = 0;
  for (const std::uint32_t m : magnitudes) mx |= m;
  return static_cast<unsigned>(std::bit_width(mx));
}

// Bit planes as 8x8 transposes: per group of 8 elements and per byte q of
// their magnitudes, row e of the matrix is byte q of element e, so the
// transposed row b is the group's byte of plane 8q + b.
void bit_shuffle(std::span<const std::uint32_t> magnitudes, unsigned f,
                 std::span<byte_t> out) {
  const size_t n = magnitudes.size();
  const size_t groups = div_ceil(n, size_t{8});
  assert(f <= 32 && out.size() >= static_cast<size_t>(f) * groups);
  for (size_t j = 0; j < groups; ++j) {
    std::uint32_t m[8] = {};
    for (size_t e = 0; e < 8 && 8 * j + e < n; ++e) {
      m[e] = magnitudes[8 * j + e];
    }
    for (unsigned q = 0; 8 * q < f; ++q) {
      std::uint64_t x = 0;
      for (unsigned e = 0; e < 8; ++e) {
        x |= static_cast<std::uint64_t>((m[e] >> (8 * q)) & 0xFFu) << (8 * e);
      }
      x = transpose8(x);
      for (unsigned b = 0; b < 8 && 8 * q + b < f; ++b) {
        out[(8 * q + b) * groups + j] = static_cast<byte_t>(x >> (8 * b));
      }
    }
  }
}

void bit_unshuffle(std::span<const byte_t> in, unsigned f,
                   std::span<std::uint32_t> magnitudes) {
  const size_t n = magnitudes.size();
  const size_t groups = div_ceil(n, size_t{8});
  assert(f <= 32 && in.size() >= static_cast<size_t>(f) * groups);
  for (size_t j = 0; j < groups; ++j) {
    std::uint32_t m[8] = {};
    for (unsigned q = 0; 8 * q < f; ++q) {
      std::uint64_t x = 0;
      for (unsigned b = 0; b < 8 && 8 * q + b < f; ++b) {
        x |= static_cast<std::uint64_t>(in[(8 * q + b) * groups + j])
             << (8 * b);
      }
      x = transpose8(x);
      for (unsigned e = 0; e < 8; ++e) {
        m[e] |= static_cast<std::uint32_t>((x >> (8 * e)) & 0xFFu) << (8 * q);
      }
    }
    for (size_t e = 0; e < 8 && 8 * j + e < n; ++e) {
      magnitudes[8 * j + e] = m[e];
    }
  }
}

// Direct packing, LSB-first: F bits per element into F * L/8 bytes.
void bit_pack(std::span<const std::uint32_t> magnitudes, unsigned f,
              std::span<byte_t> out) {
  const size_t bytes =
      static_cast<size_t>(f) * div_ceil(magnitudes.size(), size_t{8});
  assert(f <= 32 && out.size() >= bytes);
  const std::uint64_t mask = (std::uint64_t{1} << f) - 1;
  std::uint64_t acc = 0;
  unsigned pending = 0;
  size_t o = 0;
  for (const std::uint32_t m : magnitudes) {
    acc |= (m & mask) << pending;
    pending += f;
    for (; pending >= 8; pending -= 8, acc >>= 8) {
      out[o++] = static_cast<byte_t>(acc);
    }
  }
  if (pending > 0) out[o++] = static_cast<byte_t>(acc);
  std::fill(out.begin() + static_cast<long>(o),
            out.begin() + static_cast<long>(bytes), byte_t{0});
}

void bit_unpack(std::span<const byte_t> in, unsigned f,
                std::span<std::uint32_t> magnitudes) {
  // Baseline codecs hand this a width from their own block metadata.
  if (f > 32 || in.size() < static_cast<size_t>(f) *
                                 div_ceil(magnitudes.size(), size_t{8})) {
    throw format_error("bit_unpack: invalid width or truncated planes");
  }
  const std::uint64_t mask = (std::uint64_t{1} << f) - 1;
  std::uint64_t acc = 0;
  unsigned avail = 0;
  size_t i = 0;
  for (auto& m : magnitudes) {
    for (; avail < f; avail += 8) {
      acc |= static_cast<std::uint64_t>(in[i++]) << avail;
    }
    m = static_cast<std::uint32_t>(acc & mask);
    acc >>= f;
    avail -= f;
  }
}

}  // namespace szp::core
