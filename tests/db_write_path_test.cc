// The write path: every Put/Delete/Write goes through the writer queue.
// Covers the byte-level contract of a group of one (a single writer's WAL
// holds exactly the records LogWriter writes for the same batches and
// sequence numbers) and the kInline concurrency regression: concurrent
// writers, alone or racing a thread that loops FlushMemTable and
// CompactUntilStable, must keep every acked write. Inline maintenance runs
// on whichever thread holds the queue front, so two inline merges never
// pick the same inputs. CI reruns this suite under ASan (repeated) and
// TSan (see ci.yml).
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "lsm/db.h"
#include "lsm/dbformat.h"
#include "lsm/wal.h"
#include "lsm/write_batch.h"
#include "tests/test_util.h"
#include "util/env.h"
#include "workload/dataset.h"

namespace lilsm {
namespace {

using testing_util::ScratchDir;

constexpr uint32_t kValueSize = 16;

/// Writer w's i-th key: disjoint dense ranges per writer.
Key KeyFor(uint64_t writer, uint64_t i) { return writer * 1'000'000 + i + 1; }

std::string ValueFor(Key key) { return DeriveValue(key, kValueSize); }

/// The i-th batch of the WAL-equivalence stream: single Puts, Deletes and
/// multi-entry batches mixing both.
WriteBatch MakeBatch(uint64_t i) {
  WriteBatch batch;
  switch (i % 3) {
    case 0:
      batch.Put(KeyFor(0, i), ValueFor(KeyFor(0, i)));
      break;
    case 1:
      batch.Delete(KeyFor(0, i - 1));
      break;
    default:
      for (uint64_t j = 0; j < 1 + i % 5; j++) {
        const Key key = KeyFor(1, i * 8 + j);
        if (j % 2 == 0) {
          batch.Put(key, ValueFor(key));
        } else {
          batch.Delete(key);
        }
      }
      break;
  }
  return batch;
}

// A group of one must append exactly the record the batch would get from
// LogWriter directly: the same bytes, in the same order, carrying the
// same sequence numbers (a disable_wal write appends nothing but still
// consumes its sequence numbers).
TEST(DbWritePathTest, SingleWriterWalIsLogWriterRecords) {
  constexpr uint64_t kBatches = 60;
  ScratchDir dir("write_path");
  Env* env = Env::Default();
  const std::string dbname = dir.file("db");
  DBOptions options;
  options.value_size = kValueSize;
  options.write_buffer_size = 64 << 20;  // no flush: one WAL holds it all
  {
    std::unique_ptr<DB> db;
    ASSERT_LILSM_OK(DB::Open(options, dbname, &db));
    for (uint64_t i = 0; i < kBatches; i++) {
      WriteOptions wopts;
      wopts.sync = (i % 7 == 0);
      wopts.disable_wal = (i % 11 == 5);
      WriteBatch batch = MakeBatch(i);
      ASSERT_LILSM_OK(db->Write(wopts, &batch));
    }
  }

  std::vector<std::string> children;
  ASSERT_LILSM_OK(env->GetChildren(dbname, &children));
  std::vector<std::string> wals;
  for (const std::string& name : children) {
    uint64_t number = 0;
    if (ParseFileName(name, &number) == FileKind::kWalFile) {
      wals.push_back(dbname + "/" + name);
    }
  }
  ASSERT_EQ(wals.size(), 1u);

  const std::string expected_log = dir.file("expected.log");
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_LILSM_OK(env->NewWritableFile(expected_log, &file));
    LogWriter log(std::move(file));
    SequenceNumber seq = 1;
    for (uint64_t i = 0; i < kBatches; i++) {
      WriteBatch batch = MakeBatch(i);
      WriteBatch::SetSequence(&batch, seq);
      seq += batch.Count();
      if (i % 11 == 5) continue;  // disable_wal
      ASSERT_LILSM_OK(log.AddRecord(batch.Contents()));
    }
    ASSERT_LILSM_OK(log.Close());
  }

  std::string got, want;
  ASSERT_LILSM_OK(ReadFileToString(env, wals[0], &got));
  ASSERT_LILSM_OK(ReadFileToString(env, expected_log, &want));
  ASSERT_FALSE(want.empty());
  EXPECT_TRUE(got == want) << "WAL differs from the LogWriter records ("
                           << got.size() << " vs " << want.size()
                           << " bytes)";
}

/// Four kInline writers with tiny buffers, optionally racing a thread
/// that loops FlushMemTable and CompactUntilStable. Every acked key must
/// read back, live and after a reopen, and nothing else may appear. Each
/// key is written once, so once flushed the tree must hold exactly one
/// entry per key: two merges of the same inputs leave a duplicate.
void RunInlineRace(bool maintenance_thread) {
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 600;
  ScratchDir dir("inline_race");
  const std::string dbname = dir.file("db");
  DBOptions options;  // kInline
  options.write_buffer_size = 4 << 10;
  options.sstable_target_size = 8 << 10;
  options.l0_compaction_trigger = 2;
  options.value_size = kValueSize;
  std::unique_ptr<DB> db;
  ASSERT_LILSM_OK(DB::Open(options, dbname, &db));

  std::mutex error_mu;
  std::string error;
  auto record = [&](const Status& s, const char* what) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (error.empty()) error = std::string(what) + ": " + s.ToString();
  };
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w] {
      for (uint64_t i = 0; i < kPerWriter; i++) {
        const Key key = KeyFor(w, i);
        Status s = db->Put(key, ValueFor(key));
        if (!s.ok()) {
          record(s, "put");
          return;
        }
      }
    });
  }
  std::thread maintainer;
  if (maintenance_thread) {
    maintainer = std::thread([&] {
      while (!stop.load(std::memory_order_acquire)) {
        Status s = db->FlushMemTable();
        if (s.ok()) s = db->CompactUntilStable();
        if (!s.ok()) {
          record(s, "maintenance");
          return;
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  if (maintainer.joinable()) maintainer.join();
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_LILSM_OK(db->FlushMemTable());

  auto verify = [&](const char* phase) {
    uint64_t tree_entries = 0;
    for (int level = 0; level < kNumLevels; level++) {
      tree_entries += db->EntriesAtLevel(level);
    }
    ASSERT_EQ(tree_entries, kWriters * kPerWriter) << phase;
    std::string value;
    for (int w = 0; w < kWriters; w++) {
      for (uint64_t i = 0; i < kPerWriter; i++) {
        const Key key = KeyFor(w, i);
        Status s = db->Get(key, &value);
        ASSERT_TRUE(s.ok()) << phase << ": writer " << w << " lost acked key "
                            << key << ": " << s.ToString();
        ASSERT_EQ(value, ValueFor(key)) << phase << ": key " << key;
      }
    }
    uint64_t entries = 0;
    auto iter = db->NewIterator();
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) entries++;
    ASSERT_LILSM_OK(iter->status());
    ASSERT_EQ(entries, kWriters * kPerWriter) << phase;
  };
  verify("live");
  db.reset();
  ASSERT_LILSM_OK(DB::Open(options, dbname, &db));
  verify("reopened");
}

TEST(DbWritePathTest, ConcurrentInlineWritersKeepEveryAck) {
  RunInlineRace(/*maintenance_thread=*/false);
}

TEST(DbWritePathTest, InlineWritersRacingMaintenanceKeepEveryAck) {
  RunInlineRace(/*maintenance_thread=*/true);
}

}  // namespace
}  // namespace lilsm
