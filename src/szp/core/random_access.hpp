// Random-access decompression (extension; enabled by cuSZp's design).
//
// Because every block is coded independently and offsets are a pure
// prefix sum of the per-block length bytes, any element range can be
// reconstructed from the 1-byte-per-block length array plus the payloads
// of the covered blocks — no full decompression. This is the access
// pattern post-hoc analysis needs (read one slice/region out of a
// compressed snapshot).
//
// A range read works on a StreamView: the pieces of a stream a reader
// fetched, not necessarily the whole stream. plan_range() scans the length
// bytes once and says which payload bytes and which footer bytes the range
// needs; decompress_range() then verifies and decodes from a view holding
// them, so a reader that fetches pieces (an archive) never assembles a
// stream-sized buffer.
#pragma once

#include <span>
#include <vector>

#include "szp/core/format.hpp"

namespace szp::core {

/// The parts of one stream a range read looks at.
struct StreamView {
  std::span<const byte_t> header;   // the stream's first Header::kSize bytes
  std::span<const byte_t> lengths;  // its length bytes (at least one per block)
  std::span<const byte_t> payload;  // a window of the payload area that
  std::uint64_t payload_start = 0;  // ...starts this many bytes into it
  std::span<const byte_t> footer;   // the stream's last footer.size() bytes,
                                    // holding the checksum footer (v2)
  size_t stream_bytes = 0;          // size of the whole stream
};

/// Where the bytes of one range read lie, from one validating scan of the
/// length bytes.
struct RangePlan {
  Header header;
  size_t begin = 0, end = 0;                // element range [begin, end)
  size_t first_block = 0, last_block = 0;   // blocks it decodes
  size_t cover_first = 0, cover_last = 0;   // blocks it reads: whole
                                            // checksum groups on v2
  std::uint64_t payload_begin = 0;          // payload-relative extent of
  std::uint64_t payload_end = 0;            // [cover_first, cover_last)
  std::uint64_t footer_offset = 0;  // stream offset where the payload ends
  LengthScan scan;
};

/// Plan a read of elements [begin, end) from `view.header`,
/// `view.lengths` and `view.stream_bytes` (the windows are not read).
/// Validates every length byte and that the payload fits the stream;
/// throws format_error otherwise.
[[nodiscard]] RangePlan plan_range(const StreamView& view, size_t begin,
                                   size_t end);

/// Decode a planned range from `view`, whose payload window must hold
/// [plan.payload_begin, plan.payload_end) and whose footer window must
/// reach back to plan.footer_offset. On v2 streams it first checks the
/// footer's self-CRC, group size and count, and the offsets and CRCs of
/// the covering groups. `plan` must come from plan_range on this view.
[[nodiscard]] std::vector<float> decompress_range(const StreamView& view,
                                                  const RangePlan& plan);

/// Decompress elements [begin, end) of a whole cuSZp stream. Equivalent to
/// decompress_serial(stream)[begin..end) but decodes only covered blocks.
[[nodiscard]] std::vector<float> decompress_range(
    std::span<const byte_t> stream, size_t begin, size_t end);

/// Bytes of compressed payload in the blocks decompress_range decodes for
/// the range (excluding the length array and the rest of the covering
/// checksum groups) — for tests and for sizing partial reads.
[[nodiscard]] size_t range_payload_bytes(std::span<const byte_t> stream,
                                         size_t begin, size_t end);

}  // namespace szp::core
