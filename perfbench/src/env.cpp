// Machine facts recorded with every result: core count, last-level cache,
// peak memory, a streaming-copy bandwidth reference and the host-speed
// reference the end-to-end timings are rescaled by.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>

#include "env.hpp"

namespace perfbench {

unsigned nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n)
               : std::max(1u, std::thread::hardware_concurrency());
}

std::uint64_t llc_bytes() {
  for (const int level : {_SC_LEVEL4_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE,
                          _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(level);
    if (v > 0) return static_cast<std::uint64_t>(v);
  }
  return 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 * 1e-6;  // KiB -> MB
}

double memcpy_gbps(std::uint64_t buffer_bytes, unsigned reps) {
  // One buffer of `buffer_bytes`; each pass copies its first half onto
  // its second half, so every pass streams the whole buffer.
  const size_t half = static_cast<size_t>(buffer_bytes / 2);
  std::unique_ptr<char[]> buf(new char[2 * half]);
  std::memset(buf.get(), 1, 2 * half);
  // Called through a volatile pointer so the copy into a buffer that is
  // never read cannot be optimized away.
  void* (*volatile copy)(void*, const void*, size_t) = std::memcpy;
  std::vector<double> t;
  for (unsigned r = 0; r <= reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    copy(buf.get() + half, buf.get(), half);
    if (r > 0) t.push_back(seconds_between(t0, Clock::now()));
  }
  return static_cast<double>(half) / median(t) * 1e-9;
}

namespace {

/// Keeps the reference's output live.
volatile std::uint64_t reference_sink = 0;

/// One pass of the reference block codec; returns a checksum of its
/// output.
std::uint64_t reference_pass() {
  // 64 Ki floats of a seeded random walk (256 KiB, cache-resident), coded
  // in blocks of 32: quantize, delta, zigzag, the block's bit length, then
  // one 32-bit word per bit plane.
  constexpr size_t kN = size_t{1} << 16;
  constexpr size_t kBlock = 32;
  constexpr int kRounds = 3;
  static const std::vector<float> in = [] {
    std::vector<float> v(kN);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    float walk = 0;
    for (float& f : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      walk += static_cast<float>((x >> 40) & 1023) - 511.5f;
      f = walk * 0.01f;
    }
    return v;
  }();
  constexpr size_t kOut = 4096;  // packed words, reused as a ring
  std::uint32_t out[kOut];
  std::uint64_t bits = 0;
  size_t o = 0;
  for (int round = 0; round < kRounds; ++round) {
    const float inv_eb = 1.0f / (0.002f + 1e-5f * static_cast<float>(round));
    long prev = 0;
    for (size_t b = 0; b < kN; b += kBlock) {
      std::uint32_t z[kBlock];
      std::uint32_t any = 0;
      for (size_t i = 0; i < kBlock; ++i) {
        const long q = std::lround(in[b + i] * inv_eb);
        const long d = q - prev;
        prev = q;
        z[i] = static_cast<std::uint32_t>((d << 1) ^ (d >> 63));
        any |= z[i];
      }
      const int len = any == 0 ? 0 : 32 - __builtin_clz(any);
      bits += static_cast<std::uint64_t>(len);
      for (int k = 0; k < len; ++k) {
        std::uint32_t plane = 0;
        for (size_t i = 0; i < kBlock; ++i) plane |= ((z[i] >> k) & 1u) << i;
        out[o++ % kOut] = plane;
      }
    }
  }
  return o == 0 ? bits : bits + out[(o - 1) % kOut];
}

}  // namespace

double reference_slowdown(unsigned threads) {
  const size_t n = std::max(threads, 1u);
  std::vector<std::uint64_t> sums(n);
  const Clock::time_point t0 = Clock::now();
  {
    std::vector<std::jthread> helpers;
    for (size_t i = 1; i < n; ++i) {
      helpers.emplace_back([&sums, i] { sums[i] = reference_pass(); });
    }
    sums[0] = reference_pass();
  }
  const double s = seconds_between(t0, Clock::now());
  for (const std::uint64_t v : sums) reference_sink = reference_sink + v;
  return s / kReferenceNominalS;
}

double host_scale(const std::vector<double>& slowdowns) {
  return slowdowns.empty() ? 1.0 : 1.0 / median(slowdowns);
}

}  // namespace perfbench
