#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kClientRequest:
      return "client.request";
    case SpanName::kDbGet:
      return "lsm.db.get";
    case SpanName::kDbMultiGet:
      return "lsm.db.multiget";
    case SpanName::kDbWrite:
      return "lsm.db.write";
    case SpanName::kDbScan:
      return "lsm.db.scan";
    case SpanName::kTableRead:
      return "util.sim_env.table_read";
    case SpanName::kOtherRead:
      return "util.sim_env.other_read";
    case SpanName::kSequentialRead:
      return "util.sim_env.sequential_read";
    case SpanName::kWalAppend:
      return "lsm.wal.append";
    case SpanName::kWalSync:
      return "lsm.wal.sync";
    case SpanName::kTableAppend:
      return "util.sim_env.table_append";
    case SpanName::kManifestAppend:
      return "util.sim_env.manifest_append";
    case SpanName::kBackgroundJob:
      return "lsm.compaction.background";
    case SpanName::kNumNames:
      break;
  }
  return "?";
}

struct Tracer::ThreadBuffer {
  uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<uint32_t> open;  // indices into spans, innermost last
};

namespace {

std::atomic<uint64_t> next_tracer_uid{1};

struct LocalSlot {
  uint64_t uid = 0;
  void* buffer = nullptr;
};
thread_local LocalSlot local_slot;

}  // namespace

Tracer::Tracer(size_t max_spans)
    : max_spans_(max_spans), uid_(next_tracer_uid.fetch_add(1)) {}

Tracer::~Tracer() = default;

uint64_t Tracer::NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::ThreadBuffer* Tracer::Local() {
  if (local_slot.uid != uid_) {
    std::lock_guard<std::mutex> l(mu_);
    auto buf = std::make_unique<ThreadBuffer>();
    buf->thread = static_cast<uint32_t>(buffers_.size());
    // Address space only: pages are touched as spans land, and the buffer
    // never moves while a thread records.
    buf->spans.reserve(max_spans_);
    local_slot.uid = uid_;
    local_slot.buffer = buf.get();
    buffers_.push_back(std::move(buf));
  }
  return static_cast<ThreadBuffer*>(local_slot.buffer);
}

uint32_t Tracer::Begin(SpanName name, uint64_t request, uint32_t detail) {
  if (recorded_.fetch_add(1, std::memory_order_relaxed) >= max_spans_) {
    recorded_.fetch_sub(1, std::memory_order_relaxed);
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return kNoSpan;
  }
  ThreadBuffer* buf = Local();
  Span span;
  span.id = (uint64_t{buf->thread + 1} << 32) | buf->spans.size();
  span.parent = buf->open.empty() ? 0 : buf->spans[buf->open.back()].id;
  span.request = request;
  span.thread = buf->thread;
  span.name = name;
  span.detail = detail;
  const uint32_t handle = static_cast<uint32_t>(buf->spans.size());
  buf->spans.push_back(span);
  buf->open.push_back(handle);
  buf->spans[handle].start_ns = NowNanos();
  return handle;
}

void Tracer::End(uint32_t handle) {
  if (handle == kNoSpan) return;
  const uint64_t now = NowNanos();
  ThreadBuffer* buf = Local();
  buf->spans[handle].end_ns = now;
  // Spans nest per thread, so the handle is the innermost open span.
  buf->open.pop_back();
}

uint64_t Tracer::CurrentSpan() {
  ThreadBuffer* buf = Local();
  return buf->open.empty() ? 0 : buf->spans[buf->open.back()].id;
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> l(mu_);
  std::vector<Span> out;
  for (const auto& buf : buffers_) {
    for (const Span& s : buf->spans) {
      if (s.end_ns != 0) out.push_back(s);
    }
  }
  return out;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> l(mu_);
  for (auto& buf : buffers_) {
    buf->spans.clear();
    buf->open.clear();
  }
  recorded_ = 0;
  dropped_ = 0;
}

uint64_t HashBytes(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 14695981039346656037ull;
  for (size_t i = 0; i < n; i++) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h == 0 ? 1 : h;
}

std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); i++) index[spans[i].id] = i;
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); i++) {
    if (spans[i].parent == 0) continue;
    auto it = index.find(spans[i].parent);
    if (it != index.end()) children[it->second].push_back(i);
  }
  std::vector<uint64_t> self(spans.size());
  std::vector<std::pair<uint64_t, uint64_t>> cover;
  for (size_t i = 0; i < spans.size(); i++) {
    const Span& p = spans[i];
    cover.clear();
    for (size_t c : children[i]) {
      const uint64_t s = std::max(spans[c].start_ns, p.start_ns);
      const uint64_t e = std::min(spans[c].end_ns, p.end_ns);
      if (s < e) cover.emplace_back(s, e);
    }
    std::sort(cover.begin(), cover.end());
    uint64_t covered = 0;
    uint64_t run_start = 0;
    uint64_t run_end = 0;
    for (const auto& [s, e] : cover) {
      if (s > run_end) {
        covered += run_end - run_start;
        run_start = s;
        run_end = e;
      } else {
        run_end = std::max(run_end, e);
      }
    }
    covered += run_end - run_start;
    self[i] = p.duration() - covered;
  }
  return self;
}

std::vector<std::pair<size_t, size_t>> MatchRequests(
    const std::vector<Span>& spans, SpanName client,
    std::span<const SpanName> server) {
  std::unordered_map<uint64_t, std::vector<size_t>> by_request;
  for (size_t i = 0; i < spans.size(); i++) {
    if (std::find(server.begin(), server.end(), spans[i].name) !=
        server.end()) {
      by_request[spans[i].request].push_back(i);
    }
  }
  std::vector<bool> used(spans.size(), false);
  std::vector<std::pair<size_t, size_t>> out;
  for (size_t i = 0; i < spans.size(); i++) {
    const Span& c = spans[i];
    if (c.name != client) continue;
    auto it = by_request.find(c.request);
    if (it == by_request.end()) continue;
    for (size_t j : it->second) {
      const Span& s = spans[j];
      if (!used[j] && s.thread != c.thread && s.start_ns >= c.start_ns &&
          s.end_ns <= c.end_ns) {
        used[j] = true;
        out.emplace_back(i, j);
        break;
      }
    }
  }
  return out;
}

double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  const size_t n = values->size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values->begin(), values->begin() + (rank - 1),
                   values->end());
  return (*values)[rank - 1];
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\trequest\tthread\tname\tstart_ns\tend_ns\tdetail\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu\t%llu\t%llu\t%u\t%s\t%llu\t%llu\t%u\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.thread,
                 SpanNameString(s.name),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.detail);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
