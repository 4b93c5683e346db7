// Support-library tests: interval arithmetic (including a randomized
// soundness property against concrete evaluation), bit utilities, the
// table printer, the parallel loop, and the persistent thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "support/bitops.h"
#include "support/interval.h"
#include "support/memoize.h"
#include "support/table_printer.h"
#include "support/thread_pool.h"

namespace spmwcet {
namespace {

TEST(Interval, BasicLattice) {
  const Interval bot;
  const Interval p = Interval::point(5);
  const Interval r = Interval::range(1, 9);
  EXPECT_TRUE(bot.is_bottom());
  EXPECT_TRUE(p.is_point());
  EXPECT_TRUE(r.contains(p));
  EXPECT_FALSE(p.contains(r));
  EXPECT_EQ(p.join(bot), p);
  EXPECT_EQ(p.meet(bot), bot);
  EXPECT_EQ(r.meet(Interval::range(5, 20)), Interval::range(5, 9));
  EXPECT_EQ(r.join(Interval::range(20, 30)), Interval::range(1, 30));
  EXPECT_TRUE(Interval::range(9, 1).is_bottom());
  EXPECT_TRUE(Interval::top().contains(r));
}

TEST(Interval, Arithmetic) {
  const Interval a = Interval::range(2, 4);
  const Interval b = Interval::range(-1, 3);
  EXPECT_EQ(a.add(b), Interval::range(1, 7));
  EXPECT_EQ(a.sub(b), Interval::range(-1, 5));
  EXPECT_EQ(a.neg(), Interval::range(-4, -2));
  EXPECT_EQ(a.mul(b), Interval::range(-4, 12));
  EXPECT_EQ(Interval::point(3).shl(Interval::point(4)), Interval::point(48));
  EXPECT_EQ(Interval::range(-16, 16).asr(Interval::point(2)),
            Interval::range(-4, 4));
  EXPECT_EQ(Interval::point(-7).asr(Interval::point(1)), Interval::point(-4));
  EXPECT_EQ(Interval::point(0xFF).band(Interval::point(0x0F)),
            Interval::point(0x0F));
  EXPECT_EQ(Interval::range(0, 100).band(Interval::point(7)),
            Interval::range(0, 7));
}

TEST(Interval, Refinement) {
  const Interval x = Interval::range(0, 100);
  EXPECT_EQ(x.assume_lt(Interval::point(10)), Interval::range(0, 9));
  EXPECT_EQ(x.assume_le(Interval::point(10)), Interval::range(0, 10));
  EXPECT_EQ(x.assume_gt(Interval::point(90)), Interval::range(91, 100));
  EXPECT_EQ(x.assume_ge(Interval::point(90)), Interval::range(90, 100));
  EXPECT_EQ(x.assume_eq(Interval::point(5)), Interval::point(5));
  EXPECT_TRUE(Interval::point(5).assume_ne(Interval::point(5)).is_bottom());
  EXPECT_EQ(Interval::range(5, 9).assume_ne(Interval::point(5)),
            Interval::range(6, 9));
}

TEST(Interval, WideningReachesInfinity) {
  Interval x = Interval::point(0);
  const Interval grown = Interval::range(0, 10);
  const Interval widened = grown.widen(x);
  EXPECT_GE(widened.hi(), Interval::kInf);
  EXPECT_EQ(widened.lo(), 0);
  // Widening is idempotent once stable.
  EXPECT_EQ(widened.widen(widened), widened);
}

class IntervalSoundness : public ::testing::TestWithParam<unsigned> {};

TEST_P(IntervalSoundness, OperationsCoverConcreteResults) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int64_t> bound_d(-1000, 1000);
  std::uniform_int_distribution<int> shift_d(0, 8);

  for (int iter = 0; iter < 200; ++iter) {
    int64_t a1 = bound_d(rng), a2 = bound_d(rng);
    int64_t b1 = bound_d(rng), b2 = bound_d(rng);
    if (a1 > a2) std::swap(a1, a2);
    if (b1 > b2) std::swap(b1, b2);
    const Interval A = Interval::range(a1, a2);
    const Interval B = Interval::range(b1, b2);

    std::uniform_int_distribution<int64_t> pick_a(a1, a2), pick_b(b1, b2);
    const int64_t x = pick_a(rng), y = pick_b(rng);
    const int64_t s = shift_d(rng);

    EXPECT_TRUE(A.add(B).contains(x + y));
    EXPECT_TRUE(A.sub(B).contains(x - y));
    EXPECT_TRUE(A.mul(B).contains(x * y));
    EXPECT_TRUE(A.neg().contains(-x));
    EXPECT_TRUE(A.shl(Interval::point(s)).contains(x << s));
    // Arithmetic shift matches two's-complement >> semantics.
    EXPECT_TRUE(A.asr(Interval::point(s)).contains(x >> s));
    EXPECT_TRUE(A.join(B).contains(x));
    EXPECT_TRUE(A.join(B).contains(y));
    if (x < y) { EXPECT_TRUE(A.assume_lt(B).contains(x)); }
    if (x >= y) { EXPECT_TRUE(A.assume_ge(B).contains(x)); }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, IntervalSoundness, ::testing::Range(1u, 9u));

TEST(Bitops, FieldHelpers) {
  EXPECT_EQ(bits(0xABCD, 15, 12), 0xAu);
  EXPECT_EQ(bits(0xABCD, 3, 0), 0xDu);
  EXPECT_EQ(place(0x5, 6, 4), 0x50u);
  EXPECT_TRUE(fits_unsigned(255, 8));
  EXPECT_FALSE(fits_unsigned(256, 8));
  EXPECT_TRUE(fits_signed(-128, 8));
  EXPECT_FALSE(fits_signed(-129, 8));
  EXPECT_EQ(sign_extend(0xFF, 8), -1);
  EXPECT_EQ(sign_extend(0x7F, 8), 127);
  EXPECT_EQ(align_up(5, 4), 8u);
  EXPECT_EQ(align_up(8, 4), 8u);
  EXPECT_EQ(align_down(7, 4), 4u);
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(768));
  EXPECT_EQ(log2_pow2(1024), 10u);
}

TEST(TablePrinter, AlignsColumnsAndCountsRows) {
  TablePrinter t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "12345"});
  EXPECT_EQ(t.row_count(), 2u);
  std::ostringstream os;
  t.render(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  // Header separator line is present.
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TablePrinter, CsvOutput) {
  TablePrinter t({"x", "y"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.render_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(TablePrinter, RejectsAridityMismatch) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(ThreadPool, VisitsEveryIndexExactlyOnceAtEveryWidth) {
  for (const unsigned jobs : {1u, 2u, 8u}) {
    support::ThreadPool pool(jobs);
    constexpr std::size_t n = 1000;
    std::vector<std::atomic<int>> visits(n);
    pool.for_each(n, [&](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(visits[i].load(), 1) << "jobs=" << jobs << " i=" << i;
  }
}

TEST(ThreadPool, SlotIndexedWritesAreDeterministic) {
  constexpr std::size_t n = 64;
  std::vector<std::size_t> serial(n), parallel(n);
  support::ThreadPool(1).for_each(n, [&](std::size_t i) { serial[i] = i * i; });
  support::ThreadPool(8).for_each(n,
                                  [&](std::size_t i) { parallel[i] = i * i; });
  EXPECT_EQ(serial, parallel);
}

TEST(ThreadPool, ResolveJobsNeverReturnsZero) {
  EXPECT_GE(support::resolve_jobs(0), 1u);
  EXPECT_EQ(support::resolve_jobs(1), 1u);
  EXPECT_EQ(support::resolve_jobs(16), 16u);
  EXPECT_EQ(support::ThreadPool(0).workers(), support::resolve_jobs(0));
}

TEST(ThreadPool, ReusesWorkersAcrossBatches) {
  // The whole point of the pool: many batches, one set of threads, every
  // index of every batch visited exactly once.
  support::ThreadPool pool(4);
  EXPECT_EQ(pool.workers(), 4u);
  for (int batch = 0; batch < 50; ++batch) {
    constexpr std::size_t n = 97;
    std::vector<std::atomic<int>> visits(n);
    pool.for_each(n, [&](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(visits[i].load(), 1) << "batch=" << batch << " i=" << i;
  }
}

TEST(ThreadPool, SingleWorkerRunsInPlace) {
  support::ThreadPool pool(1);
  EXPECT_EQ(pool.workers(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  pool.for_each(seen.size(),
                [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, HandlesEmptyAndTinyBatches) {
  support::ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.for_each(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  pool.for_each(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 1);
  pool.for_each(2, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 3);
}

TEST(Memoizer, ComputesOncePerKeyAndCountsHits) {
  support::Memoizer<int, int> memo;
  int computes = 0;
  const auto make = [&] { return ++computes; };
  EXPECT_EQ(*memo.get(1, make), 1);
  EXPECT_EQ(*memo.get(1, make), 1); // served, not recomputed
  EXPECT_EQ(*memo.get(2, make), 2);
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(memo.stats().misses, 2u);
  EXPECT_EQ(memo.stats().hits, 1u);
  EXPECT_EQ(memo.stats().evictions, 0u);
}

TEST(Memoizer, CapacityEvictsLeastRecentlyUsed) {
  support::Memoizer<int, int> memo(2);
  int computes = 0;
  const auto make = [&] { return ++computes; };
  (void)memo.get(1, make);
  (void)memo.get(2, make);
  (void)memo.get(1, make); // 1 is now more recently used than 2
  (void)memo.get(3, make); // evicts 2
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.stats().evictions, 1u);
  // 1 and 3 survive; 2 recomputes.
  EXPECT_EQ(computes, 3);
  (void)memo.get(1, make);
  (void)memo.get(3, make);
  EXPECT_EQ(computes, 3);
  EXPECT_EQ(*memo.get(2, make), 4);
  EXPECT_EQ(memo.stats().evictions, 2u); // inserting 2 evicted another entry
}

TEST(Memoizer, EvictionKeepsOutstandingValuesAlive) {
  support::Memoizer<int, std::vector<int>> memo(1);
  const std::shared_ptr<const std::vector<int>> held =
      memo.get(1, [] { return std::vector<int>{1, 2, 3}; });
  (void)memo.get(2, [] { return std::vector<int>{4}; }); // evicts key 1
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_EQ(held->size(), 3u); // the evicted value stays valid
}

TEST(Memoizer, SetCapacityTrimsAndZeroUnbounds) {
  support::Memoizer<int, int> memo;
  for (int k = 0; k < 8; ++k) (void)memo.get(k, [&] { return k; });
  EXPECT_EQ(memo.size(), 8u);
  memo.set_capacity(3);
  EXPECT_EQ(memo.size(), 3u);
  memo.set_capacity(0);
  for (int k = 10; k < 20; ++k) (void)memo.get(k, [&] { return k; });
  EXPECT_GE(memo.size(), 10u); // unbounded again
}

TEST(Memoizer, ThrowingComputesAreForgottenNotZombified) {
  support::Memoizer<int, int> memo(2);
  // A stream of failing keys must not occupy (unevictable) capacity.
  for (int k = 100; k < 110; ++k)
    EXPECT_THROW(
        (void)memo.get(k, []() -> int { throw std::runtime_error("boom"); }),
        std::runtime_error);
  EXPECT_EQ(memo.size(), 0u);
  // A failed key retries and can succeed later.
  EXPECT_THROW(
      (void)memo.get(1, []() -> int { throw std::runtime_error("boom"); }),
      std::runtime_error);
  EXPECT_EQ(*memo.get(1, [] { return 42; }), 42);
  // A failing key reserves (and may evict) one slot like any insertion,
  // but it releases it on the throw: the most-recently-used computed
  // entry survives and no zombie stays behind.
  (void)memo.get(2, [] { return 7; });
  EXPECT_THROW(
      (void)memo.get(3, []() -> int { throw std::runtime_error("boom"); }),
      std::runtime_error);
  int computes = 0;
  EXPECT_EQ(*memo.get(2, [&] { return ++computes; }), 7);
  EXPECT_EQ(computes, 0);
  EXPECT_LE(memo.size(), 2u);
}

TEST(Memoizer, ConcurrentFirstCallersComputeOnce) {
  support::Memoizer<int, int> memo(4);
  std::atomic<int> computes{0};
  std::vector<std::thread> threads;
  std::vector<int> results(8, -1);
  for (std::size_t t = 0; t < results.size(); ++t)
    threads.emplace_back([&, t] {
      results[t] = *memo.get(7, [&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return ++computes;
      });
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(computes.load(), 1);
  for (const int r : results) EXPECT_EQ(r, 1);
}

TEST(ThreadPool, BatchesFromManyThreadsSerialize) {
  // The pool may be shared: concurrent for_each callers queue up instead of
  // corrupting each other's batch state.
  support::ThreadPool pool(3);
  constexpr std::size_t n = 64;
  std::vector<std::atomic<int>> visits(n);
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c)
    callers.emplace_back([&] {
      pool.for_each(n, [&](std::size_t i) { ++visits[i]; });
    });
  for (auto& t : callers) t.join();
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(visits[i].load(), 4);
}

} // namespace
} // namespace spmwcet
