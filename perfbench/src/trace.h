// Spans for the traced run, and the arithmetic the benchmark reports:
// percentiles, self time, and client/server span matching.
//
// A span is one timed call into a public interface (a DB method, an Env
// file operation, a Client request). Each carries its name, start and end,
// its parent (the innermost span open on the same thread when it began,
// or 0), a request id and the recording thread. Spans are kept in memory
// in per-thread buffers and collected once, after the measured phase, so
// recording costs two clock reads and an append.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : uint16_t {
  kClientRequest,   // one Client round trip (client thread)
  kDbGet,           // DB::Get
  kDbMultiGet,      // DB::MultiGet; detail = keys
  kDbWrite,         // DB::Put / DB::Write / DB::Delete
  kDbScan,          // DB::RangeLookup; detail = requested count
  kTableRead,       // RandomAccessFile::Read on a .lst file; detail = bytes
  kOtherRead,       // RandomAccessFile::Read on any other file
  kSequentialRead,  // SequentialFile::Read (WAL / MANIFEST replay)
  kWalAppend,       // WritableFile::Append on a .log file; detail = bytes
  kWalSync,         // WritableFile::Sync on a .log file
  kTableAppend,     // WritableFile::Append on a .lst file; detail = bytes
  kManifestAppend,  // WritableFile::Append on MANIFEST / CURRENT / temp
  kBackgroundJob,   // work run through Env::Schedule; request = scheduler
  kNumNames
};

const char* SpanNameString(SpanName name);

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;       // unique within a Tracer, never 0
  uint64_t parent = 0;   // id of the enclosing span, 0 for a root
  uint64_t request = 0;  // request id (hash of the request's keys), 0 = none
  uint32_t thread = 0;   // recording thread, numbered from 0
  SpanName name = SpanName::kNumNames;
  uint32_t detail = 0;   // bytes or keys, per SpanName

  uint64_t duration() const { return end_ns - start_ns; }
};

/// Records spans from any number of threads. Begin/End must nest on each
/// thread. Collect() may only run while no thread is recording.
class Tracer {
 public:
  static constexpr uint32_t kNoSpan = UINT32_MAX;

  /// At most `max_spans` spans are kept; later ones are counted as dropped.
  explicit Tracer(size_t max_spans);
  ~Tracer();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// True once three quarters of the span budget is used.
  bool nearly_full() const {
    return recorded_.load(std::memory_order_relaxed) * 4 >= max_spans_ * 3;
  }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread. Returns kNoSpan (and records
  /// nothing) when tracing is off or the budget is spent.
  uint32_t Begin(SpanName name, uint64_t request, uint32_t detail = 0);
  void End(uint32_t handle);
  /// Id of the innermost span open on the calling thread, 0 if none.
  uint64_t CurrentSpan();

  /// Every finished span, ordered by thread then start.
  std::vector<Span> Collect() const;
  /// Forgets every span (buffers stay registered).
  void Clear();

  static uint64_t NowNanos();

 private:
  struct ThreadBuffer;
  ThreadBuffer* Local();

  const size_t max_spans_;
  const uint64_t uid_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span; a null tracer or a disabled one records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanName name, uint64_t request,
             uint32_t detail = 0)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        handle_(tracer_ != nullptr ? tracer_->Begin(name, request, detail)
                                   : Tracer::kNoSpan) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* const tracer_;
  const uint32_t handle_;
};

/// FNV-1a over raw bytes: the request id both ends of a request derive
/// from the same keys or batch bytes.
uint64_t HashBytes(const void* data, size_t n);

/// Self time of every span: its duration minus the part of it covered by
/// the union of its children's intervals. Children on other threads count
/// too (clipped to the parent), so a parent that waits on parallel work is
/// not charged twice for it.
std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans);

/// Pairs each `client` span with the `server` span of the same request: the
/// same request id, on another thread, inside the client's interval. Each
/// server span is used once. Returns (client index, server index) pairs.
std::vector<std::pair<size_t, size_t>> MatchRequests(
    const std::vector<Span>& spans, SpanName client,
    std::span<const SpanName> server);

/// Nearest-rank percentile (q in [0, 1]) of `values`, which it reorders.
/// 0 for an empty input.
double Percentile(std::vector<double>* values, double q);

/// Writes the spans as tab-separated lines, one per span, after a header.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
