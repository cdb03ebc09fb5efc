// The benchmark's two decorators over lilsm's public interfaces. Every run
// calls through them, traced or not; with the tracer off they only forward.
//
//  * TracedDB wraps a DB. The in-process loop calls it directly and the
//    embedded Server is started on it, so both paths produce the same
//    lsm.db.* spans, each tagged with a request id hashed from its keys.
//  * TracedEnv wraps the SimEnv. It tells WAL (.log), table (.lst) and
//    MANIFEST I/O apart by ParseFileName and times each file call, and it
//    wraps Env::Schedule work in a background-job span.
#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "lsm/db.h"
#include "trace.h"
#include "util/sim_env.h"

namespace perfbench {

/// Request id of a point read, a MultiGet key list, or a write batch.
uint64_t KeysRequestId(std::span<const lilsm::Key> keys);
uint64_t BatchRequestId(const lilsm::WriteBatch& batch);

class TracedEnv final : public lilsm::Env {
 public:
  TracedEnv(lilsm::SimEnv* base, Tracer* tracer)
      : base_(base), tracer_(tracer) {}

  lilsm::Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<lilsm::RandomAccessFile>* result) override;
  lilsm::Status NewWritableFile(
      const std::string& fname,
      std::unique_ptr<lilsm::WritableFile>* result) override;
  lilsm::Status NewSequentialFile(
      const std::string& fname,
      std::unique_ptr<lilsm::SequentialFile>* result) override;

  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  lilsm::Status GetChildren(const std::string& dir,
                            std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  lilsm::Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  lilsm::Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  lilsm::Status RemoveDir(const std::string& dirname) override {
    return base_->RemoveDir(dirname);
  }
  lilsm::Status GetFileSize(const std::string& fname,
                            uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  lilsm::Status RenameFile(const std::string& src,
                           const std::string& target) override {
    return base_->RenameFile(src, target);
  }
  lilsm::Status SyncDir(const std::string& dirname) override {
    return base_->SyncDir(dirname);
  }
  uint64_t NowNanos() override { return base_->NowNanos(); }
  void Schedule(std::function<void()> work) override;
  /// Blocks until every job passed to Schedule has returned, its span
  /// included, so the spans can be collected.
  void WaitForScheduledJobs() const;
  std::unique_ptr<lilsm::ReadBatch> NewReadBatch(int io_depth) override {
    return base_->NewReadBatch(io_depth);
  }

 private:
  lilsm::SimEnv* const base_;
  Tracer* const tracer_;
  std::atomic<int> jobs_in_flight_{0};
};

class TracedDB final : public lilsm::DB {
 public:
  TracedDB(std::unique_ptr<lilsm::DB> base, Tracer* tracer)
      : base_(std::move(base)), tracer_(tracer) {}

  using DB::Get;
  using DB::MultiGet;
  using DB::Put;
  using DB::RangeLookup;
  using DB::Write;

  lilsm::Status Put(const lilsm::WriteOptions& options, lilsm::Key key,
                    const lilsm::Slice& value) override;
  lilsm::Status Delete(const lilsm::WriteOptions& options,
                       lilsm::Key key) override;
  lilsm::Status Write(const lilsm::WriteOptions& options,
                      lilsm::WriteBatch* batch) override;
  lilsm::Status Get(const lilsm::ReadOptions& options, lilsm::Key key,
                    std::string* value) override;
  lilsm::Status MultiGet(const lilsm::ReadOptions& options,
                         std::span<const lilsm::Key> keys,
                         std::vector<std::string>* values,
                         std::vector<lilsm::Status>* statuses) override;
  std::unique_ptr<lilsm::Iterator> NewIterator(
      const lilsm::ReadOptions& options) override {
    return base_->NewIterator(options);
  }
  lilsm::Status RangeLookup(
      const lilsm::ReadOptions& options, lilsm::Key start, size_t count,
      std::vector<std::pair<lilsm::Key, std::string>>* out) override;

  const lilsm::Snapshot* GetSnapshot() override {
    return base_->GetSnapshot();
  }
  void ReleaseSnapshot(const lilsm::Snapshot* snapshot) override {
    base_->ReleaseSnapshot(snapshot);
  }
  lilsm::Status FlushMemTable() override { return base_->FlushMemTable(); }
  lilsm::Status CompactUntilStable() override {
    return base_->CompactUntilStable();
  }
  lilsm::Status CompactAll() override { return base_->CompactAll(); }
  lilsm::Status ReconfigureIndexes(
      lilsm::IndexType type, const lilsm::IndexConfig& config) override {
    return base_->ReconfigureIndexes(type, config);
  }
  void SetIndexGranularity(lilsm::IndexGranularity granularity) override {
    base_->SetIndexGranularity(granularity);
  }
  void ClearBlockCache() override { base_->ClearBlockCache(); }
  size_t TotalIndexMemory() const override {
    return base_->TotalIndexMemory();
  }
  size_t TotalFilterMemory() const override {
    return base_->TotalFilterMemory();
  }
  size_t BlockCacheMemory() const override {
    return base_->BlockCacheMemory();
  }
  size_t LevelIndexMemory(int level) const override {
    return base_->LevelIndexMemory(level);
  }
  int NumFilesAtLevel(int level) const override {
    return base_->NumFilesAtLevel(level);
  }
  uint64_t BytesAtLevel(int level) const override {
    return base_->BytesAtLevel(level);
  }
  uint64_t EntriesAtLevel(int level) const override {
    return base_->EntriesAtLevel(level);
  }
  lilsm::SequenceNumber LastSequence() const override {
    return base_->LastSequence();
  }
  lilsm::Stats* stats() const override { return base_->stats(); }

 private:
  std::unique_ptr<lilsm::DB> base_;
  Tracer* const tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
