#include "util/env.h"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "util/mutex.h"
#include "util/thread_pool.h"

namespace lilsm {

namespace {

Status PosixError(const std::string& context, int err) {
  if (err == ENOENT) {
    return Status::NotFound(context, std::strerror(err));
  }
  return Status::IOError(context, std::strerror(err));
}

class PosixRandomAccessFile final : public RandomAccessFile {
 public:
  PosixRandomAccessFile(std::string fname, int fd)
      : fname_(std::move(fname)), fd_(fd) {}
  ~PosixRandomAccessFile() override { ::close(fd_); }

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    // pread may return fewer bytes than asked (signals, readahead limits,
    // network filesystems); loop until the range is full or EOF. r == 0
    // is genuine end-of-file, and the short slice must be reported as-is:
    // footer and corruption checks rely on that semantic.
    size_t got = 0;
    while (got < n) {
      ssize_t r = ::pread(fd_, scratch + got, n - got,
                          static_cast<off_t>(offset + got));
      if (r < 0) {
        if (errno == EINTR) continue;
        *result = Slice();
        return PosixError(fname_, errno);
      }
      if (r == 0) break;
      got += static_cast<size_t>(r);
    }
    *result = Slice(scratch, got);
    return Status::OK();
  }

  int FileDescriptor() const override { return fd_; }

 private:
  const std::string fname_;
  const int fd_;
};

class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(std::string fname, int fd)
      : fname_(std::move(fname)), fd_(fd), pos_(0) {}

  ~PosixWritableFile() override {
    if (fd_ >= 0) {
      Close();
    }
  }

  Status Append(const Slice& data) override {
    size_t write_size = data.size();
    const char* write_data = data.data();

    size_t copy_size = std::min(write_size, kBufSize - pos_);
    std::memcpy(buf_ + pos_, write_data, copy_size);
    write_data += copy_size;
    write_size -= copy_size;
    pos_ += copy_size;
    if (write_size == 0) {
      return Status::OK();
    }

    Status s = FlushBuffer();
    if (!s.ok()) return s;

    if (write_size < kBufSize) {
      std::memcpy(buf_, write_data, write_size);
      pos_ = write_size;
      return Status::OK();
    }
    return WriteUnbuffered(write_data, write_size);
  }

  Status Flush() override { return FlushBuffer(); }

  Status Sync() override {
    Status s = FlushBuffer();
    if (!s.ok()) return s;
    if (::fdatasync(fd_) != 0) {
      return PosixError(fname_, errno);
    }
    return Status::OK();
  }

  Status Close() override {
    Status s = FlushBuffer();
    if (::close(fd_) != 0 && s.ok()) {
      s = PosixError(fname_, errno);
    }
    fd_ = -1;
    return s;
  }

 private:
  Status FlushBuffer() {
    Status s = WriteUnbuffered(buf_, pos_);
    pos_ = 0;
    return s;
  }

  Status WriteUnbuffered(const char* data, size_t size) {
    while (size > 0) {
      ssize_t r = ::write(fd_, data, size);
      if (r < 0) {
        if (errno == EINTR) continue;
        return PosixError(fname_, errno);
      }
      data += r;
      size -= static_cast<size_t>(r);
    }
    return Status::OK();
  }

  static constexpr size_t kBufSize = 64 * 1024;

  const std::string fname_;
  int fd_;
  char buf_[kBufSize];
  size_t pos_;
};

class PosixSequentialFile final : public SequentialFile {
 public:
  PosixSequentialFile(std::string fname, int fd)
      : fname_(std::move(fname)), fd_(fd) {}
  ~PosixSequentialFile() override { ::close(fd_); }

  Status Read(size_t n, Slice* result, char* scratch) override {
    while (true) {
      ssize_t r = ::read(fd_, scratch, n);
      if (r < 0) {
        if (errno == EINTR) continue;
        return PosixError(fname_, errno);
      }
      *result = Slice(scratch, static_cast<size_t>(r));
      return Status::OK();
    }
  }

  Status Skip(uint64_t n) override {
    if (::lseek(fd_, static_cast<off_t>(n), SEEK_CUR) == -1) {
      return PosixError(fname_, errno);
    }
    return Status::OK();
  }

 private:
  const std::string fname_;
  const int fd_;
};

/// Process-wide I/O pool backing the portable ReadBatch. Sized for disk
/// parallelism, not CPU work: threads block in pread almost all the time.
ThreadPool* IoPool() {
  static ThreadPool pool(static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 2u, 16u)));
  return &pool;
}

/// Portable batch backend: the waiting thread and up to io_depth-1 pool
/// helpers pull requests from a shared index and serve each one with a
/// blocking FullyRead. Per-wave concurrency thus never exceeds io_depth,
/// matching what an SQ-depth-limited ring would admit.
class ThreadPoolReadBatch final : public ReadBatch {
 public:
  explicit ThreadPoolReadBatch(int io_depth)
      : io_depth_(std::max(1, io_depth)) {}

  void Add(ReadRequest* req) override { requests_.push_back(req); }

  Status Wait() override {
    const size_t n = requests_.size();
    if (n == 0) return Status::OK();
    std::atomic<size_t> next{0};
    auto drain = [&] {
      size_t i;
      while ((i = next.fetch_add(1, std::memory_order_relaxed)) < n) {
        ReadRequest* r = requests_[i];
        r->status = FullyRead(r->file, r->offset, r->n, &r->result,
                              r->scratch);
      }
    };
    const int helpers =
        static_cast<int>(std::min<size_t>(static_cast<size_t>(io_depth_), n)) -
        1;
    Mutex mu;
    CondVar cv(&mu);
    int outstanding = helpers;
    for (int h = 0; h < helpers; h++) {
      IoPool()->Submit([&] {
        drain();
        MutexLock l(&mu);
        if (--outstanding == 0) cv.Signal();
      });
    }
    drain();
    if (helpers > 0) {
      MutexLock l(&mu);
      while (outstanding != 0) cv.Wait();
    }
    Status s;
    for (ReadRequest* r : requests_) {
      if (s.ok() && !r->status.ok()) s = r->status;
    }
    requests_.clear();
    return s;
  }

 private:
  const int io_depth_;
  std::vector<ReadRequest*> requests_;
};

class PosixEnv final : public Env {
 public:
  Status NewRandomAccessFile(const std::string& fname,
                             std::unique_ptr<RandomAccessFile>* result) override {
    int fd = ::open(fname.c_str(), O_RDONLY);
    if (fd < 0) {
      result->reset();
      return PosixError(fname, errno);
    }
    result->reset(new PosixRandomAccessFile(fname, fd));
    return Status::OK();
  }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    int fd = ::open(fname.c_str(), O_TRUNC | O_WRONLY | O_CREAT, 0644);
    if (fd < 0) {
      result->reset();
      return PosixError(fname, errno);
    }
    result->reset(new PosixWritableFile(fname, fd));
    return Status::OK();
  }

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    int fd = ::open(fname.c_str(), O_RDONLY);
    if (fd < 0) {
      result->reset();
      return PosixError(fname, errno);
    }
    result->reset(new PosixSequentialFile(fname, fd));
    return Status::OK();
  }

  bool FileExists(const std::string& fname) override {
    return ::access(fname.c_str(), F_OK) == 0;
  }

  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    result->clear();
    ::DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) {
      return PosixError(dir, errno);
    }
    struct ::dirent* entry;
    while ((entry = ::readdir(d)) != nullptr) {
      result->emplace_back(entry->d_name);
    }
    ::closedir(d);
    return Status::OK();
  }

  Status RemoveFile(const std::string& fname) override {
    if (::unlink(fname.c_str()) != 0) {
      return PosixError(fname, errno);
    }
    return Status::OK();
  }

  Status CreateDir(const std::string& dirname) override {
    if (::mkdir(dirname.c_str(), 0755) != 0 && errno != EEXIST) {
      return PosixError(dirname, errno);
    }
    return Status::OK();
  }

  Status RemoveDir(const std::string& dirname) override {
    if (::rmdir(dirname.c_str()) != 0) {
      return PosixError(dirname, errno);
    }
    return Status::OK();
  }

  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    struct ::stat st;
    if (::stat(fname.c_str(), &st) != 0) {
      *size = 0;
      return PosixError(fname, errno);
    }
    *size = static_cast<uint64_t>(st.st_size);
    return Status::OK();
  }

  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    if (::rename(src.c_str(), target.c_str()) != 0) {
      return PosixError(src, errno);
    }
    return Status::OK();
  }

  Status SyncDir(const std::string& dirname) override {
    int fd = ::open(dirname.c_str(), O_RDONLY);
    if (fd < 0) {
      return PosixError(dirname, errno);
    }
    Status s;
    if (::fsync(fd) != 0) {
      s = PosixError(dirname, errno);
    }
    ::close(fd);
    return s;
  }

  uint64_t NowNanos() override {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
};

}  // namespace

Env* Env::Default() {
  static PosixEnv env;
  return &env;
}

void Env::Schedule(std::function<void()> work) {
  // One background thread shared process-wide (the LevelDB arrangement):
  // lazily constructed on first use, drained and joined at process exit.
  static ThreadPool pool(1);
  pool.Submit(std::move(work));
}

std::unique_ptr<ReadBatch> Env::NewReadBatch(int io_depth) {
  return std::make_unique<ThreadPoolReadBatch>(io_depth);
}

Status FullyRead(const RandomAccessFile* file, uint64_t offset, size_t n,
                 Slice* result, char* scratch) {
  size_t got = 0;
  while (got < n) {
    Slice chunk;
    Status s = file->Read(offset + got, n - got, &chunk, scratch + got);
    if (!s.ok()) {
      *result = Slice();
      return s;
    }
    if (chunk.empty()) break;  // EOF inside the range: report a short slice.
    if (chunk.data() != scratch + got) {
      std::memmove(scratch + got, chunk.data(), chunk.size());
    }
    got += chunk.size();
  }
  *result = Slice(scratch, got);
  return Status::OK();
}

namespace {

/// Blocks until `fd` is ready for `events` (POLLIN/POLLOUT), retrying
/// EINTR. Regular files poll ready immediately, so file-backed callers
/// never stall here.
Status PollFd(int fd, short events, const char* what) {
  struct ::pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  while (::poll(&pfd, 1, -1) < 0) {
    if (errno != EINTR) return PosixError(what, errno);
  }
  return Status::OK();
}

}  // namespace

Status FullyWrite(int fd, const char* data, size_t n, FdWriteFn write_fn) {
  if (write_fn == nullptr) write_fn = ::write;
  size_t sent = 0;
  while (sent < n) {
    ssize_t r = write_fn(fd, data + sent, n - sent);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        Status s = PollFd(fd, POLLOUT, "FullyWrite poll");
        if (!s.ok()) return s;
        continue;
      }
      return PosixError("FullyWrite", errno);
    }
    sent += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status FullyReadFd(int fd, char* data, size_t n, size_t* got,
                   FdReadFn read_fn) {
  if (read_fn == nullptr) read_fn = ::read;
  *got = 0;
  while (*got < n) {
    ssize_t r = read_fn(fd, data + *got, n - *got);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        Status s = PollFd(fd, POLLIN, "FullyReadFd poll");
        if (!s.ok()) return s;
        continue;
      }
      return PosixError("FullyReadFd", errno);
    }
    if (r == 0) break;  // EOF inside the range: report the short count.
    *got += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status ReadFileToString(Env* env, const std::string& fname,
                        std::string* data) {
  data->clear();
  std::unique_ptr<SequentialFile> file;
  Status s = env->NewSequentialFile(fname, &file);
  if (!s.ok()) return s;
  static const size_t kBufferSize = 64 * 1024;
  std::string scratch(kBufferSize, '\0');
  while (true) {
    Slice fragment;
    s = file->Read(kBufferSize, &fragment, scratch.data());
    if (!s.ok()) break;
    data->append(fragment.data(), fragment.size());
    if (fragment.empty()) break;
  }
  return s;
}

Status WriteStringToFile(Env* env, const Slice& data,
                         const std::string& fname) {
  std::unique_ptr<WritableFile> file;
  Status s = env->NewWritableFile(fname, &file);
  if (!s.ok()) return s;
  s = file->Append(data);
  if (s.ok()) s = file->Sync();
  if (s.ok()) s = file->Close();
  if (!s.ok()) env->RemoveFile(fname);
  return s;
}

}  // namespace lilsm
