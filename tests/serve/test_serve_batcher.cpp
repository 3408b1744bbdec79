// Serve batching policy (pure coalesce()/slice_from_union()) and the
// wire protocol codecs, no sockets or threads involved.
#include <gtest/gtest.h>

#include "dassa/common/error.hpp"
#include "dassa/serve/batcher.hpp"
#include "dassa/serve/protocol.hpp"

using namespace dassa;
using namespace dassa::serve;

namespace {

Slab2D slab(std::size_t row_off, std::size_t col_off, std::size_t row_cnt,
            std::size_t col_cnt) {
  return Slab2D{row_off, col_off, row_cnt, col_cnt};
}

}  // namespace

TEST(ServeBatcher, DisjointSlabsStaySeparate) {
  const std::vector<BatchGroup> groups =
      coalesce({slab(0, 0, 4, 10), slab(0, 100, 4, 10)}, 0);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].span, slab(0, 0, 4, 10));
  EXPECT_EQ(groups[0].jobs, std::vector<std::size_t>{0});
  EXPECT_EQ(groups[1].span, slab(0, 100, 4, 10));
  EXPECT_EQ(groups[1].jobs, std::vector<std::size_t>{1});
}

TEST(ServeBatcher, OverlappingSlabsShareOneUnion) {
  const std::vector<BatchGroup> groups =
      coalesce({slab(0, 0, 4, 20), slab(0, 10, 4, 20), slab(0, 25, 4, 10)},
               0);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].span, slab(0, 0, 4, 35));
  EXPECT_EQ(groups[0].jobs, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ServeBatcher, AdjacentSlabsMergeOnlyWithGapAllowance) {
  // [0, 10) and [12, 20): a 2-column hole.
  const std::vector<Slab2D> slabs = {slab(0, 0, 4, 10), slab(0, 12, 4, 8)};
  EXPECT_EQ(coalesce(slabs, 0).size(), 2u);
  EXPECT_EQ(coalesce(slabs, 1).size(), 2u);
  const std::vector<BatchGroup> merged = coalesce(slabs, 2);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].span, slab(0, 0, 4, 20));
}

TEST(ServeBatcher, RowExtentsUnionAcrossMembers) {
  const std::vector<BatchGroup> groups =
      coalesce({slab(0, 0, 4, 20), slab(10, 5, 6, 20)}, 0);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].span, slab(0, 0, 16, 25));
}

namespace {

/// Every member of every group, sliced out of the group's union read,
/// equals a direct read of the member from the same 24 x 32 array.
void expect_members_match_direct_reads(const std::vector<Slab2D>& slabs) {
  const Slab2D whole = slab(0, 0, 24, 32);
  std::vector<double> full(whole.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    full[i] = static_cast<double>(i) + 0.5;
  }
  for (const BatchGroup& g : coalesce(slabs, 0)) {
    const std::vector<double> union_read =
        slice_from_union(full, whole, g.span);
    for (const std::size_t i : g.jobs) {
      EXPECT_EQ(slice_from_union(union_read, g.span, slabs[i]),
                slice_from_union(full, whole, slabs[i]))
          << slabs[i].str() << " in " << g.span.str();
    }
  }
}

}  // namespace

TEST(ServeBatcher, JoinerBelowGroupKeepsGroupRows) {
  // Rows [10, 20) opens the group; rows [0, 5) joins it. The union
  // must be rows [0, 20), not [0, 10) (which drops the first member).
  const std::vector<Slab2D> slabs = {slab(10, 0, 10, 10), slab(0, 5, 5, 10)};
  const std::vector<BatchGroup> groups = coalesce(slabs, 0);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].span, slab(0, 0, 20, 15));
  expect_members_match_direct_reads(slabs);
}

TEST(ServeBatcher, JoinerStraddlingGroupStartKeepsGroupRows) {
  // Mirror case: the joiner (rows [5, 15)) overlaps the group's first
  // rows instead of lying wholly below them; the union is [5, 20).
  const std::vector<Slab2D> slabs = {slab(10, 0, 10, 10), slab(5, 5, 10, 10)};
  const std::vector<BatchGroup> groups = coalesce(slabs, 0);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].span, slab(5, 0, 15, 15));
  expect_members_match_direct_reads(slabs);
}

TEST(ServeBatcher, SweepIsDeterministicAndOrderIndependent) {
  // The same slabs in any input order produce the same column spans.
  const std::vector<Slab2D> a = {slab(0, 50, 2, 10), slab(0, 0, 2, 10),
                                 slab(0, 55, 2, 10), slab(0, 5, 2, 10)};
  const std::vector<Slab2D> b = {a[1], a[3], a[0], a[2]};
  const std::vector<BatchGroup> ga = coalesce(a, 0);
  const std::vector<BatchGroup> gb = coalesce(b, 0);
  ASSERT_EQ(ga.size(), 2u);
  ASSERT_EQ(gb.size(), 2u);
  EXPECT_EQ(ga[0].span, gb[0].span);
  EXPECT_EQ(ga[1].span, gb[1].span);
}

TEST(ServeBatcher, IdenticalSlabsAllCoalesce) {
  const std::vector<Slab2D> slabs(8, slab(0, 32, 16, 64));
  const std::vector<BatchGroup> groups = coalesce(slabs, 0);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].span, slab(0, 32, 16, 64));
  EXPECT_EQ(groups[0].jobs.size(), 8u);
}

TEST(ServeBatcher, EmptySlabsGetTheirOwnGroups) {
  const std::vector<BatchGroup> groups =
      coalesce({slab(0, 0, 4, 10), slab(0, 0, 0, 0)}, 1000);
  ASSERT_EQ(groups.size(), 2u);
}

TEST(ServeBatcher, EmptyInputYieldsNoGroups) {
  EXPECT_TRUE(coalesce({}, 0).empty());
}

TEST(ServeBatcher, SliceFromUnionExtractsExactRows) {
  // Union 3x5 at (1, 10); ask for the 2x2 at (2, 12).
  const Slab2D span = slab(1, 10, 3, 5);
  std::vector<double> data(span.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<double>(i);
  }
  const std::vector<double> piece =
      slice_from_union(data, span, slab(2, 12, 2, 2));
  EXPECT_EQ(piece, (std::vector<double>{7, 8, 12, 13}));
}

TEST(ServeBatcher, SliceWholeSpanIsIdentity) {
  const Slab2D span = slab(0, 0, 2, 3);
  const std::vector<double> data = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(slice_from_union(data, span, span), data);
}

TEST(ServeBatcher, SliceRejectsEscapingSlab) {
  const Slab2D span = slab(0, 0, 2, 3);
  const std::vector<double> data(span.size(), 0.0);
  EXPECT_THROW((void)slice_from_union(data, span, slab(0, 2, 2, 2)),
               InvalidArgument);
  EXPECT_THROW((void)slice_from_union(data, span, slab(1, 0, 2, 1)),
               InvalidArgument);
}

// ---- Wire protocol ------------------------------------------------

TEST(ServeProtocol, RequestRoundTripColumns) {
  ReadRequest req;
  req.id = 77;
  req.addressing = Addressing::kColumns;
  req.row_off = 3;
  req.row_cnt = 9;
  req.col_off = 1000;
  req.col_cnt = 512;
  EXPECT_EQ(decode_request(encode_request(req)), req);
}

TEST(ServeProtocol, RequestRoundTripTime) {
  ReadRequest req;
  req.id = 1;
  req.addressing = Addressing::kTime;
  req.row_cnt = 4;
  req.begin_s = 555000111;
  req.end_s = 555000141;
  EXPECT_EQ(decode_request(encode_request(req)), req);
}

TEST(ServeProtocol, ResponseRoundTripOk) {
  ReadResponse resp;
  resp.id = 42;
  resp.ok = true;
  resp.row_off = 2;
  resp.col_off = 100;
  resp.shape = Shape2D{2, 3};
  resp.data = {1.5, -2.5, 3.25, 0.0, 1e-300, 7e40};
  const ReadResponse back = decode_response(encode_response(resp));
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.id, resp.id);
  EXPECT_EQ(back.row_off, resp.row_off);
  EXPECT_EQ(back.col_off, resp.col_off);
  EXPECT_EQ(back.shape, resp.shape);
  EXPECT_EQ(back.data, resp.data);
}

TEST(ServeProtocol, ResponseRoundTripError) {
  ReadResponse resp;
  resp.id = 9;
  resp.ok = false;
  resp.code = ErrorCode::kShuttingDown;
  resp.error = "server is draining";
  const ReadResponse back = decode_response(encode_response(resp));
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.code, ErrorCode::kShuttingDown);
  EXPECT_EQ(back.error, resp.error);
}

TEST(ServeProtocol, DecodeRejectsMalformedFrames) {
  // Empty frame.
  EXPECT_THROW((void)decode_request({}), FormatError);
  EXPECT_THROW((void)decode_response({}), FormatError);

  ReadRequest req;
  req.addressing = Addressing::kColumns;
  std::vector<std::byte> frame = encode_request(req);

  // Trailing garbage after a valid request.
  std::vector<std::byte> padded = frame;
  padded.push_back(std::byte{0});
  EXPECT_THROW((void)decode_request(padded), FormatError);

  // Truncated request.
  std::vector<std::byte> cut(frame.begin(), frame.end() - 4);
  EXPECT_THROW((void)decode_request(cut), FormatError);

  // Wrong message type byte.
  std::vector<std::byte> wrong = frame;
  wrong[0] = std::byte{0x7f};
  EXPECT_THROW((void)decode_request(wrong), FormatError);

  // Unknown addressing mode.
  std::vector<std::byte> mode = frame;
  mode[9] = std::byte{0x09};
  EXPECT_THROW((void)decode_request(mode), FormatError);
}

TEST(ServeProtocol, DecodeResponseRejectsShapePayloadDisagreement) {
  ReadResponse resp;
  resp.id = 1;
  resp.ok = true;
  resp.shape = Shape2D{2, 2};
  resp.data = {1, 2, 3, 4};
  std::vector<std::byte> frame = encode_response(resp);

  // Drop one double: payload no longer matches rows x cols.
  std::vector<std::byte> short_frame(frame.begin(),
                                     frame.end() - sizeof(double));
  EXPECT_THROW((void)decode_response(short_frame), FormatError);

  // Drop half a double: not even whole elements.
  std::vector<std::byte> ragged(frame.begin(), frame.end() - 3);
  EXPECT_THROW((void)decode_response(ragged), FormatError);

  // Unknown error code.
  ReadResponse err;
  err.id = 1;
  err.ok = false;
  err.code = ErrorCode::kInternal;
  std::vector<std::byte> err_frame = encode_response(err);
  err_frame[9] = std::byte{0x77};  // low byte of the u32 code
  EXPECT_THROW((void)decode_response(err_frame), FormatError);
}
