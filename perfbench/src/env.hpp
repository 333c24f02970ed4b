#pragma once

#include <cstdint>

#include "bench.hpp"

namespace perfbench {

[[nodiscard]] unsigned nproc();
/// Last-level cache size in bytes (0 when the system does not say).
[[nodiscard]] std::uint64_t llc_bytes();
/// Peak resident set of this process so far, in MB (10^6 bytes).
[[nodiscard]] double peak_rss_mb();
/// Median memcpy bandwidth (bytes copied per second, in GB/s) over `reps`
/// passes across a buffer of `buffer_bytes`, after one warm-up pass.
[[nodiscard]] double memcpy_gbps(std::uint64_t buffer_bytes, unsigned reps);

/// How much slower than nominal the shared host runs one pass of the
/// host-speed reference right now: the pass's wall time divided by its
/// nominal time. The pass runs on `threads` threads at once (the calling
/// thread and `threads - 1` more) and lasts until the last one ends, so on
/// several threads it follows the slowest core, as a parallel operation
/// does. Each thread runs a small block codec written here, not szp's: it
/// quantizes, delta-codes and bit-plane-packs a fixed, cache-resident
/// array of floats, the same kind of scalar work as szp's host codec but
/// none of its code, so no change to szp can move it.
[[nodiscard]] double reference_slowdown(unsigned threads);

/// Nominal time of a pass: roughly what it takes on an idle 4-vCPU x86-64
/// VM (the machine the benchmark was written on). It sets only the scale
/// of the rescaled numbers, never a ratio between two runs on one machine.
inline constexpr double kReferenceNominalS = 0.004;

/// Factor that rescales timings taken beside passes with these slowdowns
/// to the nominal host: 1 / median(slowdowns), or 1 without passes.
[[nodiscard]] double host_scale(const std::vector<double>& slowdowns);

}  // namespace perfbench
