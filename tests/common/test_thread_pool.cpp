#include "dassa/common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "dassa/common/error.hpp"

namespace dassa {
namespace {

TEST(ThreadPoolTest, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool pool(0), InvalidArgument);
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t, std::size_t b,
                                     std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForStaticChunksAreContiguous) {
  ThreadPool pool(4);
  std::vector<std::pair<std::size_t, std::size_t>> chunks(4);
  pool.parallel_for(10, [&](std::size_t t, std::size_t b, std::size_t e) {
    chunks[t] = {b, e};
  });
  // even_chunk(10, 4): 3,3,2,2.
  EXPECT_EQ(chunks[0], (std::pair<std::size_t, std::size_t>{0, 3}));
  EXPECT_EQ(chunks[1], (std::pair<std::size_t, std::size_t>{3, 6}));
  EXPECT_EQ(chunks[2], (std::pair<std::size_t, std::size_t>{6, 8}));
  EXPECT_EQ(chunks[3], (std::pair<std::size_t, std::size_t>{8, 10}));
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t, std::size_t) {
    ran = true;
  });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(10,
                        [](std::size_t, std::size_t b, std::size_t) {
                          if (b == 0) throw IoError("boom");
                        }),
      IoError);
  // The pool must still be usable afterwards.
  std::atomic<int> ok{0};
  pool.parallel_for(4, [&](std::size_t, std::size_t b, std::size_t e) {
    ok.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(ok.load(), 4);
}

TEST(ThreadPoolTest, NestedSubmissionFromTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit([&] {
      count.fetch_add(1);
      pool.submit([&] { count.fetch_add(1); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPoolTest, BackToBackParallelForsStayInTheirOwnFrame) {
  // parallel_for keeps its completion latch on the caller's stack, and
  // the next call builds its latch in the same place. The last worker
  // must be done with a latch before its caller can return.
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  const std::size_t calls = 20000;
  for (std::size_t i = 0; i < calls; ++i) {
    pool.parallel_for(4, [&total](std::size_t, std::size_t b, std::size_t e) {
      total.fetch_add(e - b);
    });
  }
  EXPECT_EQ(total.load(), 4 * calls);
}

TEST(ThreadPoolTest, ManyMoreItemsThanThreads) {
  ThreadPool pool(2);
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(100000, [&](std::size_t, std::size_t b, std::size_t e) {
    std::int64_t local = 0;
    for (std::size_t i = b; i < e; ++i) local += static_cast<std::int64_t>(i);
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), 100000LL * 99999 / 2);
}

}  // namespace
}  // namespace dassa
