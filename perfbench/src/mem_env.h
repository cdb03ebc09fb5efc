// MemEnv: an in-memory base Env for the benchmark. SimEnv wraps it, so the
// device cost every run pays is SimEnv's model and nothing else: no page
// cache state, no fdatasync of a shared disk, and no file left behind.
// Thread-safe; a file's bytes live in one string guarded by a reader/writer
// lock, so concurrent table reads only share the lock.
#ifndef PERFBENCH_MEM_ENV_H_
#define PERFBENCH_MEM_ENV_H_

#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "util/env.h"

namespace perfbench {

using lilsm::Env;
using lilsm::RandomAccessFile;
using lilsm::SequentialFile;
using lilsm::Slice;
using lilsm::Status;
using lilsm::WritableFile;

class MemEnv final : public Env {
 public:
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    std::shared_ptr<File> f = Find(fname);
    if (f == nullptr) return Status::IOError(fname, "no such file");
    result->reset(new Reader(std::move(f)));
    return Status::OK();
  }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    auto f = std::make_shared<File>();
    std::lock_guard<std::mutex> l(mu_);
    files_[fname] = f;
    result->reset(new Writer(std::move(f)));
    return Status::OK();
  }

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    std::shared_ptr<File> f = Find(fname);
    if (f == nullptr) return Status::IOError(fname, "no such file");
    result->reset(new Sequential(std::move(f)));
    return Status::OK();
  }

  bool FileExists(const std::string& fname) override {
    std::lock_guard<std::mutex> l(mu_);
    return files_.count(fname) != 0 || dirs_.count(fname) != 0;
  }

  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    result->clear();
    const std::string prefix = dir + "/";
    std::lock_guard<std::mutex> l(mu_);
    if (dirs_.count(dir) == 0) return Status::IOError(dir, "no such dir");
    for (auto it = files_.lower_bound(prefix);
         it != files_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
      const std::string name = it->first.substr(prefix.size());
      if (name.find('/') == std::string::npos) result->push_back(name);
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& fname) override {
    std::lock_guard<std::mutex> l(mu_);
    if (files_.erase(fname) == 0) {
      return Status::IOError(fname, "no such file");
    }
    return Status::OK();
  }

  Status CreateDir(const std::string& dirname) override {
    std::lock_guard<std::mutex> l(mu_);
    dirs_.insert(dirname);
    return Status::OK();
  }

  Status RemoveDir(const std::string& dirname) override {
    std::lock_guard<std::mutex> l(mu_);
    if (dirs_.erase(dirname) == 0) {
      return Status::IOError(dirname, "no such dir");
    }
    return Status::OK();
  }

  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    std::shared_ptr<File> f = Find(fname);
    if (f == nullptr) {
      *size = 0;
      return Status::IOError(fname, "no such file");
    }
    std::shared_lock<std::shared_mutex> l(f->mu);
    *size = f->data.size();
    return Status::OK();
  }

  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    std::lock_guard<std::mutex> l(mu_);
    auto it = files_.find(src);
    if (it == files_.end()) return Status::IOError(src, "no such file");
    std::shared_ptr<File> f = std::move(it->second);
    files_.erase(it);
    files_[target] = std::move(f);
    return Status::OK();
  }

  uint64_t NowNanos() override {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  struct File {
    mutable std::shared_mutex mu;
    std::string data;
  };

  class Reader final : public RandomAccessFile {
   public:
    explicit Reader(std::shared_ptr<File> f) : f_(std::move(f)) {}
    Status Read(uint64_t offset, size_t n, Slice* result,
                char* scratch) const override {
      std::shared_lock<std::shared_mutex> l(f_->mu);
      const size_t size = f_->data.size();
      const size_t got = offset >= size ? 0 : std::min<size_t>(n, size - offset);
      if (got > 0) std::memcpy(scratch, f_->data.data() + offset, got);
      *result = Slice(scratch, got);
      return Status::OK();
    }

   private:
    const std::shared_ptr<File> f_;
  };

  class Writer final : public WritableFile {
   public:
    explicit Writer(std::shared_ptr<File> f) : f_(std::move(f)) {}
    Status Append(const Slice& data) override {
      std::unique_lock<std::shared_mutex> l(f_->mu);
      f_->data.append(data.data(), data.size());
      return Status::OK();
    }
    Status Flush() override { return Status::OK(); }
    Status Sync() override { return Status::OK(); }
    Status Close() override { return Status::OK(); }

   private:
    const std::shared_ptr<File> f_;
  };

  class Sequential final : public SequentialFile {
   public:
    explicit Sequential(std::shared_ptr<File> f) : f_(std::move(f)) {}
    Status Read(size_t n, Slice* result, char* scratch) override {
      std::shared_lock<std::shared_mutex> l(f_->mu);
      const size_t size = f_->data.size();
      const size_t got = pos_ >= size ? 0 : std::min<size_t>(n, size - pos_);
      if (got > 0) std::memcpy(scratch, f_->data.data() + pos_, got);
      pos_ += got;
      *result = Slice(scratch, got);
      return Status::OK();
    }
    Status Skip(uint64_t n) override {
      pos_ += n;
      return Status::OK();
    }

   private:
    const std::shared_ptr<File> f_;
    uint64_t pos_ = 0;
  };

  std::shared_ptr<File> Find(const std::string& fname) {
    std::lock_guard<std::mutex> l(mu_);
    auto it = files_.find(fname);
    return it == files_.end() ? nullptr : it->second;
  }

  std::mutex mu_;
  std::map<std::string, std::shared_ptr<File>> files_;
  std::set<std::string> dirs_;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEM_ENV_H_
