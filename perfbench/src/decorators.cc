#include "decorators.h"

#include <thread>

#include "lsm/dbformat.h"

namespace perfbench {

using lilsm::Key;
using lilsm::Slice;
using lilsm::Status;

uint64_t KeysRequestId(std::span<const Key> keys) {
  return HashBytes(keys.data(), keys.size_bytes());
}

uint64_t BatchRequestId(const lilsm::WriteBatch& batch) {
  const Slice rep = batch.Contents();
  return HashBytes(rep.data(), rep.size());
}

namespace {

// The file kind by lilsm's own naming rules (ParseFileName takes the base
// name).
lilsm::FileKind KindOf(const std::string& fname) {
  const size_t slash = fname.rfind('/');
  uint64_t number = 0;
  return lilsm::ParseFileName(
      slash == std::string::npos ? fname : fname.substr(slash + 1), &number);
}

class TracedRandomAccessFile final : public lilsm::RandomAccessFile {
 public:
  TracedRandomAccessFile(std::unique_ptr<lilsm::RandomAccessFile> base,
                         SpanName name, Tracer* tracer)
      : base_(std::move(base)), name_(name), tracer_(tracer) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    ScopedSpan span(tracer_, name_, 0, static_cast<uint32_t>(n));
    return base_->Read(offset, n, result, scratch);
  }
  Status ReadDeferred(uint64_t offset, size_t n, Slice* result, char* scratch,
                      uint64_t* latency_ns) const override {
    return base_->ReadDeferred(offset, n, result, scratch, latency_ns);
  }
  int FileDescriptor() const override { return base_->FileDescriptor(); }

 private:
  const std::unique_ptr<lilsm::RandomAccessFile> base_;
  const SpanName name_;
  Tracer* const tracer_;
};

class TracedWritableFile final : public lilsm::WritableFile {
 public:
  TracedWritableFile(std::unique_ptr<lilsm::WritableFile> base,
                     lilsm::FileKind kind, Tracer* tracer)
      : base_(std::move(base)), kind_(kind), tracer_(tracer) {}

  Status Append(const Slice& data) override {
    const SpanName name = kind_ == lilsm::FileKind::kWalFile
                              ? SpanName::kWalAppend
                          : kind_ == lilsm::FileKind::kTableFile
                              ? SpanName::kTableAppend
                              : SpanName::kManifestAppend;
    ScopedSpan span(tracer_, name, 0, static_cast<uint32_t>(data.size()));
    return base_->Append(data);
  }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override {
    if (kind_ != lilsm::FileKind::kWalFile) return base_->Sync();
    ScopedSpan span(tracer_, SpanName::kWalSync, 0);
    return base_->Sync();
  }
  Status Close() override { return base_->Close(); }

 private:
  const std::unique_ptr<lilsm::WritableFile> base_;
  const lilsm::FileKind kind_;
  Tracer* const tracer_;
};

class TracedSequentialFile final : public lilsm::SequentialFile {
 public:
  TracedSequentialFile(std::unique_ptr<lilsm::SequentialFile> base,
                       Tracer* tracer)
      : base_(std::move(base)), tracer_(tracer) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    ScopedSpan span(tracer_, SpanName::kSequentialRead, 0,
                    static_cast<uint32_t>(n));
    return base_->Read(n, result, scratch);
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  const std::unique_ptr<lilsm::SequentialFile> base_;
  Tracer* const tracer_;
};

}  // namespace

Status TracedEnv::NewRandomAccessFile(
    const std::string& fname,
    std::unique_ptr<lilsm::RandomAccessFile>* result) {
  std::unique_ptr<lilsm::RandomAccessFile> file;
  Status s = base_->NewRandomAccessFile(fname, &file);
  if (!s.ok()) return s;
  const SpanName name = KindOf(fname) == lilsm::FileKind::kTableFile
                            ? SpanName::kTableRead
                            : SpanName::kOtherRead;
  result->reset(new TracedRandomAccessFile(std::move(file), name, tracer_));
  return s;
}

Status TracedEnv::NewWritableFile(
    const std::string& fname, std::unique_ptr<lilsm::WritableFile>* result) {
  std::unique_ptr<lilsm::WritableFile> file;
  Status s = base_->NewWritableFile(fname, &file);
  if (!s.ok()) return s;
  result->reset(new TracedWritableFile(std::move(file), KindOf(fname),
                                       tracer_));
  return s;
}

Status TracedEnv::NewSequentialFile(
    const std::string& fname, std::unique_ptr<lilsm::SequentialFile>* result) {
  std::unique_ptr<lilsm::SequentialFile> file;
  Status s = base_->NewSequentialFile(fname, &file);
  if (!s.ok()) return s;
  result->reset(new TracedSequentialFile(std::move(file), tracer_));
  return s;
}

void TracedEnv::Schedule(std::function<void()> work) {
  // The job outlives the span that scheduled it, so it is a root span that
  // names its scheduler through the request id instead of a parent link.
  const uint64_t scheduler = tracer_->enabled() ? tracer_->CurrentSpan() : 0;
  jobs_in_flight_.fetch_add(1, std::memory_order_relaxed);
  base_->Schedule([this, scheduler, work = std::move(work)]() {
    {
      ScopedSpan span(tracer_, SpanName::kBackgroundJob, scheduler);
      work();
    }
    jobs_in_flight_.fetch_sub(1, std::memory_order_release);
  });
}

void TracedEnv::WaitForScheduledJobs() const {
  while (jobs_in_flight_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
}

Status TracedDB::Put(const lilsm::WriteOptions& options, Key key,
                     const Slice& value) {
  if (!tracer_->enabled()) return base_->Put(options, key, value);
  ScopedSpan span(tracer_, SpanName::kDbWrite, KeysRequestId({&key, 1}), 1);
  return base_->Put(options, key, value);
}

Status TracedDB::Delete(const lilsm::WriteOptions& options, Key key) {
  if (!tracer_->enabled()) return base_->Delete(options, key);
  ScopedSpan span(tracer_, SpanName::kDbWrite, KeysRequestId({&key, 1}), 1);
  return base_->Delete(options, key);
}

Status TracedDB::Write(const lilsm::WriteOptions& options,
                       lilsm::WriteBatch* batch) {
  if (!tracer_->enabled()) return base_->Write(options, batch);
  ScopedSpan span(tracer_, SpanName::kDbWrite, BatchRequestId(*batch),
                  batch->Count());
  return base_->Write(options, batch);
}

Status TracedDB::Get(const lilsm::ReadOptions& options, Key key,
                     std::string* value) {
  if (!tracer_->enabled()) return base_->Get(options, key, value);
  ScopedSpan span(tracer_, SpanName::kDbGet, KeysRequestId({&key, 1}), 1);
  return base_->Get(options, key, value);
}

Status TracedDB::MultiGet(const lilsm::ReadOptions& options,
                          std::span<const Key> keys,
                          std::vector<std::string>* values,
                          std::vector<Status>* statuses) {
  if (!tracer_->enabled()) {
    return base_->MultiGet(options, keys, values, statuses);
  }
  ScopedSpan span(tracer_, SpanName::kDbMultiGet, KeysRequestId(keys),
                  static_cast<uint32_t>(keys.size()));
  return base_->MultiGet(options, keys, values, statuses);
}

Status TracedDB::RangeLookup(const lilsm::ReadOptions& options, Key start,
                             size_t count,
                             std::vector<std::pair<Key, std::string>>* out) {
  if (!tracer_->enabled()) {
    return base_->RangeLookup(options, start, count, out);
  }
  ScopedSpan span(tracer_, SpanName::kDbScan, KeysRequestId({&start, 1}),
                  static_cast<uint32_t>(count));
  return base_->RangeLookup(options, start, count, out);
}

}  // namespace perfbench
