#include "szp/core/random_access.hpp"

#include <algorithm>

#include "szp/core/block_codec.hpp"

namespace szp::core {

namespace {

/// A view of a whole stream, before planning: its payload window is set
/// once the plan has located the payload area.
StreamView whole_stream(std::span<const byte_t> stream) {
  StreamView view;
  view.header = stream.first(std::min(stream.size(), Header::kSize));
  view.lengths = stream.subspan(view.header.size());
  view.footer = stream;
  view.stream_bytes = stream.size();
  return view;
}

/// The length bytes of the planned stream, one per block.
std::span<const byte_t> block_lengths(const StreamView& view,
                                      const RangePlan& plan) {
  return view.lengths.first(
      num_blocks(plan.header.num_elements, plan.header.block_len));
}

}  // namespace

RangePlan plan_range(const StreamView& view, size_t begin, size_t end) {
  RangePlan plan;
  plan.header = Header::deserialize(view.header);
  const Header& h = plan.header;
  if (begin > end || end > h.num_elements) {
    throw format_error("decompress_range: range out of bounds");
  }
  const unsigned L = h.block_len;
  const size_t nblocks = num_blocks(h.num_elements, L);
  if (view.stream_bytes < payload_offset(nblocks) ||
      view.lengths.size() < nblocks) {
    throw format_error("decompress_range: truncated length area");
  }
  const auto lengths = view.lengths.first(nblocks);
  const unsigned gb = scan_group_blocks(h);
  // Every length byte is validated and summed, not only the range's: the
  // full prefix sum is what locates the footer.
  plan.scan = scan_lengths(lengths, L, h.zero_block_bypass(), gb);
  if (!plan.scan.valid) {
    throw format_error("decompress_range: invalid length byte");
  }
  plan.footer_offset = payload_offset(nblocks) + plan.scan.payload_bytes;
  if (plan.footer_offset > view.stream_bytes) {
    throw format_error("decompress_range: truncated payload");
  }
  plan.begin = begin;
  plan.end = end;
  if (begin == end) return plan;
  plan.first_block = begin / L;
  plan.last_block = div_ceil(end, size_t{L});
  plan.cover_first = plan.first_block;
  plan.cover_last = plan.last_block;
  if (h.checksummed()) {
    // A group's CRC covers all of its bytes, so v2 reads whole groups.
    plan.cover_first = plan.first_block / gb * gb;
    plan.cover_last =
        std::min(nblocks, div_ceil(plan.last_block, size_t{gb}) * gb);
  }
  plan.payload_begin = plan.scan.block_offset(lengths, plan.cover_first);
  plan.payload_end = plan.scan.block_offset(lengths, plan.cover_last);
  return plan;
}

std::vector<float> decompress_range(const StreamView& view,
                                    const RangePlan& plan) {
  const Header& h = plan.header;
  const unsigned L = h.block_len;
  const auto lengths = block_lengths(view, plan);
  if (plan.payload_begin < view.payload_start ||
      plan.payload_end - view.payload_start > view.payload.size()) {
    throw format_error("decompress_range: payload window misses the range");
  }
  if (h.checksummed()) {
    // Random access keeps its locality: only the groups covering the range
    // are CRC-verified, plus the footer itself.
    if (view.footer.size() > view.stream_bytes ||
        view.stream_bytes - view.footer.size() > plan.footer_offset) {
      throw format_error("decompress_range: footer window misses the footer");
    }
    const size_t footer_window_at = view.stream_bytes - view.footer.size();
    const size_t gb = h.checksum_group_blocks;
    verify_footer(view.footer.subspan(plan.footer_offset - footer_window_at),
                  h, lengths, plan.scan, view.payload, view.payload_start,
                  plan.cover_first / gb, div_ceil(plan.cover_last, gb));
  }

  std::vector<float> out(plan.end - plan.begin, 0.0f);
  if (out.empty()) return out;
  BlockScratch scratch;
  std::uint64_t off =
      plan.scan.block_offset(lengths, plan.first_block) - view.payload_start;
  for (size_t b = plan.first_block; b < plan.last_block; ++b) {
    const std::uint8_t lb = lengths[b];
    const size_t cl = block_payload_bytes(lb, L, h.zero_block_bypass());
    if (cl != 0) {  // zero blocks: out is pre-zeroed
      // Decode the intersection of this block with [begin, end).
      const size_t block_begin = b * L;
      const size_t from = std::max(block_begin, plan.begin);
      const size_t to =
          std::min<size_t>({block_begin + L, h.num_elements, plan.end});
      read_block_payload(view.payload.subspan(off, cl), lb, L,
                         h.bit_shuffle(), scratch);
      reconstruct_block(scratch, h, from - block_begin,
                        std::span(out).subspan(from - plan.begin, to - from));
    }
    off += cl;
  }
  return out;
}

std::vector<float> decompress_range(std::span<const byte_t> stream,
                                    size_t begin, size_t end) {
  StreamView view = whole_stream(stream);
  const RangePlan plan = plan_range(view, begin, end);
  view.payload = stream.subspan(
      payload_offset(num_blocks(plan.header.num_elements,
                                plan.header.block_len)));
  return decompress_range(view, plan);
}

size_t range_payload_bytes(std::span<const byte_t> stream, size_t begin,
                           size_t end) {
  const StreamView view = whole_stream(stream);
  const RangePlan plan = plan_range(view, begin, end);
  const auto lengths = block_lengths(view, plan);
  return plan.scan.block_offset(lengths, plan.last_block) -
         plan.scan.block_offset(lengths, plan.first_block);
}

}  // namespace szp::core
