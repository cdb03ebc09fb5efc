// Tests of the benchmark's own arithmetic: percentiles and sample counts,
// self time over nested and cross-thread spans, client/server span
// matching, the Env decorator's file classification, and the oracle.
//
//   cmake --build .bench_build --target perfbench_test && .bench_build/perfbench_test
#include <gtest/gtest.h>

#include <thread>

#include "decorators.h"
#include "lsm/write_batch.h"
#include "mem_env.h"
#include "oracle.h"
#include "trace.h"

namespace perfbench {
namespace {

Span MakeSpan(uint64_t id, uint64_t parent, uint32_t thread, uint64_t start,
              uint64_t end, SpanName name = SpanName::kDbGet,
              uint64_t request = 0) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.thread = thread;
  s.start_ns = start;
  s.end_ns = end;
  s.name = name;
  s.request = request;
  return s;
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; i--) v.push_back(i);
  EXPECT_EQ(Percentile(&v, 0.5), 50);
  EXPECT_EQ(Percentile(&v, 0.99), 99);
  EXPECT_EQ(Percentile(&v, 1.0), 100);
  EXPECT_EQ(Percentile(&v, 0.0), 1);
  EXPECT_EQ(v.size(), 100u);  // reordered, not consumed
}

TEST(Percentile, SmallSamples) {
  std::vector<double> empty;
  EXPECT_EQ(Percentile(&empty, 0.5), 0);
  std::vector<double> one = {7};
  EXPECT_EQ(Percentile(&one, 0.5), 7);
  EXPECT_EQ(Percentile(&one, 0.99), 7);
  // With fewer than 100 samples p99 is the maximum.
  std::vector<double> ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(Percentile(&ten, 0.99), 10);
  EXPECT_EQ(Percentile(&ten, 0.5), 5);
}

TEST(SelfTimes, NestedOnOneThread) {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 0, 100),   // parent
      MakeSpan(2, 1, 0, 10, 30),   // child
      MakeSpan(3, 2, 0, 15, 20),   // grandchild
      MakeSpan(4, 1, 0, 50, 60),   // second child
  };
  const std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100u - 20 - 10);
  EXPECT_EQ(self[1], 20u - 5);
  EXPECT_EQ(self[2], 5u);
  EXPECT_EQ(self[3], 10u);
}

TEST(SelfTimes, CrossThreadChildrenCountOnceAndClip) {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 0, 100),
      MakeSpan(2, 1, 1, 10, 50),   // overlaps the next child
      MakeSpan(3, 1, 2, 40, 80),
      MakeSpan(4, 1, 3, 90, 130),  // outlives the parent
  };
  const std::vector<uint64_t> self = SelfTimes(spans);
  // Covered: [10, 80) and [90, 100) = 80.
  EXPECT_EQ(self[0], 20u);
  EXPECT_EQ(self[3], 40u);
}

TEST(SelfTimes, UnknownParentIsIgnored) {
  const std::vector<Span> spans = {MakeSpan(5, 99, 0, 0, 10)};
  EXPECT_EQ(SelfTimes(spans)[0], 10u);
}

TEST(Tracer, RecordsNestingThreadsAndBudget) {
  Tracer tracer(4);
  {
    ScopedSpan off(&tracer, SpanName::kDbGet, 1);  // disabled: not recorded
  }
  tracer.SetEnabled(true);
  {
    ScopedSpan outer(&tracer, SpanName::kDbGet, 7);
    ScopedSpan inner(&tracer, SpanName::kTableRead, 0, 4096);
  }
  std::thread([&] {
    ScopedSpan other(&tracer, SpanName::kBackgroundJob, 0);
  }).join();
  std::vector<Span> spans = tracer.Collect();
  ASSERT_EQ(spans.size(), 3u);
  const Span& outer = spans[0];
  const Span& inner = spans[1];
  const Span& other = spans[2];
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(outer.request, 7u);
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(inner.detail, 4096u);
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.end_ns, outer.end_ns);
  EXPECT_NE(other.thread, outer.thread);
  EXPECT_EQ(other.parent, 0u);

  {
    ScopedSpan fourth(&tracer, SpanName::kDbGet, 0);
    ScopedSpan fifth(&tracer, SpanName::kDbGet, 0);  // over budget
  }
  EXPECT_EQ(tracer.Collect().size(), 4u);
  EXPECT_EQ(tracer.dropped(), 1u);
  EXPECT_TRUE(tracer.nearly_full());
  tracer.Clear();
  EXPECT_TRUE(tracer.Collect().empty());
}

TEST(MatchRequests, SameRequestOtherThreadInside) {
  const SpanName server[] = {SpanName::kDbMultiGet, SpanName::kDbWrite};
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 0, 100, SpanName::kClientRequest, 42),
      MakeSpan(2, 0, 0, 200, 300, SpanName::kClientRequest, 42),
      MakeSpan(3, 0, 0, 400, 500, SpanName::kClientRequest, 43),
      // Server side, on worker threads.
      MakeSpan(10, 0, 1, 220, 280, SpanName::kDbMultiGet, 42),
      MakeSpan(11, 0, 2, 20, 70, SpanName::kDbMultiGet, 42),
      MakeSpan(12, 0, 1, 390, 450, SpanName::kDbWrite, 43),  // starts early
      MakeSpan(13, 0, 0, 410, 420, SpanName::kDbWrite, 43),  // same thread
  };
  const auto matches = MatchRequests(spans, SpanName::kClientRequest, server);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0], std::make_pair(size_t{0}, size_t{4}));
  EXPECT_EQ(matches[1], std::make_pair(size_t{1}, size_t{3}));
}

TEST(RequestIds, BothEndsOfARequestAgree) {
  lilsm::WriteBatch a;
  a.Put(5, "value");
  lilsm::WriteBatch b;  // what the server rebuilds from the wire
  ASSERT_TRUE(lilsm::WriteBatch::SetContents(&b, a.Contents()).ok());
  EXPECT_EQ(BatchRequestId(a), BatchRequestId(b));
  const lilsm::Key keys[] = {3, 1, 2};
  const std::vector<lilsm::Key> copy(std::begin(keys), std::end(keys));
  EXPECT_EQ(KeysRequestId(keys), KeysRequestId(copy));
  const lilsm::Key other[] = {1, 2, 3};
  EXPECT_NE(KeysRequestId(keys), KeysRequestId(other));
}

TEST(TracedEnv, ClassifiesFilesByName) {
  MemEnv mem;
  lilsm::SimEnv sim(&mem);
  Tracer tracer(100);
  TracedEnv env(&sim, &tracer);
  ASSERT_TRUE(env.CreateDir("db").ok());
  tracer.SetEnabled(true);
  for (const char* name : {"db/000001.log", "db/000002.lst",
                           "db/MANIFEST-000003"}) {
    std::unique_ptr<lilsm::WritableFile> f;
    ASSERT_TRUE(env.NewWritableFile(name, &f).ok());
    ASSERT_TRUE(f->Append("0123456789").ok());
    ASSERT_TRUE(f->Sync().ok());
  }
  std::unique_ptr<lilsm::RandomAccessFile> table;
  ASSERT_TRUE(env.NewRandomAccessFile("db/000002.lst", &table).ok());
  char scratch[16];
  lilsm::Slice got;
  ASSERT_TRUE(table->Read(2, 4, &got, scratch).ok());
  EXPECT_EQ(got.ToString(), "2345");

  std::vector<SpanName> names;
  for (const Span& s : tracer.Collect()) names.push_back(s.name);
  const std::vector<SpanName> want = {
      SpanName::kWalAppend, SpanName::kWalSync, SpanName::kTableAppend,
      SpanName::kManifestAppend, SpanName::kTableRead};
  EXPECT_EQ(names, want);
  EXPECT_EQ(sim.io_stats()->random_reads.load(), 1u);
}

TEST(Oracle, CatchesAFlippedValueByte) {
  Oracle oracle({10, 20, 30, 40}, 120);
  const std::string v = oracle.Write(1);
  ASSERT_EQ(v.size(), 120u);
  EXPECT_TRUE(oracle.CheckGet(1, lilsm::Status::OK(), v));
  std::string flipped = v;
  flipped[57] ^= 0x01;
  EXPECT_FALSE(oracle.CheckGet(1, lilsm::Status::OK(), flipped));
  // An update changes the expected value.
  const std::string v2 = oracle.Write(1);
  EXPECT_NE(v, v2);
  EXPECT_FALSE(oracle.CheckGet(1, lilsm::Status::OK(), v));
  // Absent keys must be NotFound; errors never pass.
  EXPECT_TRUE(oracle.CheckGet(0, lilsm::Status::NotFound("x"), ""));
  EXPECT_FALSE(oracle.CheckGet(0, lilsm::Status::OK(), v));
  EXPECT_FALSE(oracle.CheckGet(1, lilsm::Status::IOError("x"), v2));
  EXPECT_EQ(oracle.live(), 1u);
}

TEST(Oracle, ChecksScanKeysOrderAndValues) {
  Oracle oracle({10, 20, 30, 40, 50}, 16);
  oracle.Write(1);
  oracle.Write(2);
  oracle.Write(4);
  using Entries = std::vector<std::pair<lilsm::Key, std::string>>;
  const Entries good = {{20, oracle.Expected(1)}, {30, oracle.Expected(2)},
                        {50, oracle.Expected(4)}};
  EXPECT_TRUE(oracle.CheckScan(15, 10, good));
  EXPECT_TRUE(oracle.CheckScan(15, 2, Entries(good.begin(), good.end() - 1)));
  EXPECT_FALSE(oracle.CheckScan(15, 2, good));  // one entry too many
  Entries swapped = good;
  std::swap(swapped[0], swapped[1]);
  EXPECT_FALSE(oracle.CheckScan(15, 10, swapped));
  Entries missing = good;
  missing.erase(missing.begin() + 1);
  EXPECT_FALSE(oracle.CheckScan(15, 10, missing));
  Entries flipped = good;
  flipped[2].second[0] ^= 0x40;
  EXPECT_FALSE(oracle.CheckScan(15, 10, flipped));
}

}  // namespace
}  // namespace perfbench
