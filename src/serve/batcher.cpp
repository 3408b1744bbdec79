#include "dassa/serve/batcher.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "dassa/common/error.hpp"

namespace dassa::serve {

std::vector<BatchGroup> coalesce(const std::vector<Slab2D>& slabs,
                                 std::size_t gap_cols) {
  DASSA_CHECK(gap_cols < std::numeric_limits<std::size_t>::max() / 2,
              "coalesce gap is implausibly large");
  std::vector<BatchGroup> groups;
  if (slabs.empty()) return groups;

  // Sweep order: ascending column offset, ties by input order -- the
  // determinism the concurrency tests rely on.
  std::vector<std::size_t> order(slabs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return slabs[a].col_off < slabs[b].col_off ||
           (slabs[a].col_off == slabs[b].col_off && a < b);
  });

  std::size_t group_end = 0;  // exclusive column end of the open group
  for (const std::size_t i : order) {
    const Slab2D& s = slabs[i];
    const std::size_t end = s.col_off + s.col_cnt;
    // A slab joins the open group when it starts within gap_cols of
    // the group's current end; empty slabs never merge (a zero-size
    // read shares nothing).
    const bool joins = !groups.empty() && !s.empty() &&
                       !slabs[groups.back().jobs.front()].empty() &&
                       s.col_off <= group_end + gap_cols;
    if (joins) {
      BatchGroup& g = groups.back();
      g.jobs.push_back(i);
      group_end = std::max(group_end, end);
      // Old row end first: moving row_off down before reading it would
      // shrink the union and drop the group's own rows.
      const std::size_t row_end =
          std::max(g.span.row_off + g.span.row_cnt, s.row_off + s.row_cnt);
      g.span.row_off = std::min(g.span.row_off, s.row_off);
      g.span.row_cnt = row_end - g.span.row_off;
      g.span.col_cnt = group_end - g.span.col_off;
    } else {
      groups.push_back(BatchGroup{s, {i}});
      group_end = end;
    }
  }
  return groups;
}

std::vector<double> slice_from_union(const std::vector<double>& span_data,
                                     const Slab2D& span, const Slab2D& slab) {
  DASSA_CHECK(span_data.size() == span.size(),
              "union payload does not match the union slab");
  DASSA_CHECK(slab.row_off >= span.row_off && slab.col_off >= span.col_off &&
                  slab.row_off + slab.row_cnt <= span.row_off + span.row_cnt &&
                  slab.col_off + slab.col_cnt <= span.col_off + span.col_cnt,
              "member slab " + slab.str() + " escapes union " + span.str());
  std::vector<double> out(slab.size());
  const std::size_t r0 = slab.row_off - span.row_off;
  const std::size_t c0 = slab.col_off - span.col_off;
  for (std::size_t r = 0; r < slab.row_cnt; ++r) {
    const double* src = span_data.data() + (r0 + r) * span.col_cnt + c0;
    std::copy_n(src, slab.col_cnt, out.data() + r * slab.col_cnt);
  }
  return out;
}

}  // namespace dassa::serve
