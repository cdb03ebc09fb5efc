#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <unordered_map>

#include "client/client.h"
#include "decorators.h"
#include "mem_env.h"
#include "oracle.h"
#include "server/server.h"
#include "trace.h"
#include "util/random.h"
#include "workload/dataset.h"
#include "workload/ycsb.h"

namespace perfbench {

using lilsm::Client;
using lilsm::Counter;
using lilsm::DBOptions;
using lilsm::IndexGranularity;
using lilsm::LevelModelPolicy;
using lilsm::ReadOptions;
using lilsm::Server;
using lilsm::Stats;
using lilsm::Timer;
using lilsm::WriteBatch;
using lilsm::WriteOptions;
using lilsm::YcsbOp;
using lilsm::YcsbWorkload;

namespace {

// ---- the common set-up -------------------------------------------------

constexpr size_t kNumKeys = 200'000;    // loaded keys
constexpr size_t kPoolKeys = 100'000;   // disjoint keys for YCSB-E inserts
constexpr size_t kKeySize = 24;
constexpr size_t kValueSize = 120;
constexpr size_t kEntryBytes = kKeySize + kValueSize;
constexpr size_t kBufferBytes = 1 << 20;  // write buffer and SST target

constexpr size_t kRestartWrites = 2500;  // fill the WAL before each close
constexpr size_t kRestartReads = 100;
/// Timed Puts after the measured phase of a workload whose phase has no
/// or few writes of its own.
constexpr size_t kWritePhasePuts = 150'000;

constexpr int kClients = 2;
constexpr size_t kMultiGetKeys = 32;
constexpr int kServerWorkers = 4;

constexpr double kWarmupSeconds = 0.5;   // caches fill; not measured
constexpr double kWindowSeconds = 0.5;   // traced runs alternate windows
constexpr size_t kMaxSpans = 1'000'000;   // 48 MB of spans

struct Spec {
  const char* name;
  YcsbWorkload ycsb;
  bool served;  // through an embedded Server and Client connections
  IndexGranularity granularity;
  LevelModelPolicy policy;
  size_t block_cache_bytes;
  /// Op count at which the exact counts are taken (0: not deterministic).
  uint64_t prefix_ops;
  /// Whether write_p50/p99 time the measured phase's writes. Otherwise they
  /// time the write phase run after it (see WritePhase): read_zipf's phase
  /// has no writes, and scan_e's inserts are 5% of its ops, each run just
  /// after a scan has evicted the memtable from cache, so their latency is
  /// a handful of DRAM misses, and on a shared 4-vCPU VM its median swung
  /// by a quarter between runs.
  bool measured_writes;
  /// Restart cycles after the measured phase. server_a runs four: each of
  /// its reopens leaves one more L0 file, since DB::Open schedules no
  /// background compaction, and from the fifth cycle on L0 sits at
  /// l0_slowdown_trigger and every WAL-filling Put sleeps, about 3 s a
  /// cycle that no metric times.
  int restart_cycles;
};

const Spec kSpecs[] = {
    {"read_zipf", YcsbWorkload::kC, false, IndexGranularity::kFile,
     LevelModelPolicy::kLazyRebuild, 0, 300'000, false, 8},
    {"ycsb_a_level", YcsbWorkload::kA, false, IndexGranularity::kLevel,
     LevelModelPolicy::kCompactionMaintained, size_t{64} << 20, 300'000,
     true, 8},
    {"scan_e", YcsbWorkload::kE, false, IndexGranularity::kFile,
     LevelModelPolicy::kLazyRebuild, 0, 20'000, false, 8},
    {"server_a", YcsbWorkload::kA, true, IndexGranularity::kFile,
     LevelModelPolicy::kLazyRebuild, size_t{8} << 20, 0, true, 4},
};

const Spec* FindSpec(const std::string& name) {
  for (const Spec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

uint64_t Now() { return Tracer::NowNanos(); }

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

double Median(std::vector<double> v) { return Percentile(&v, 0.5); }

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Pins the calling thread to one CPU (threads it starts later inherit the
/// pin); -1 leaves the thread as it is.
void PinCallingThread(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

double PeakRssMiB() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- counter deltas ----------------------------------------------------

constexpr int kTimers = static_cast<int>(Timer::kNumTimers);
constexpr int kCounters = static_cast<int>(Counter::kNumCounters);

/// Sums of Stats deltas over the slices they were taken across.
struct StatsDelta {
  std::array<double, kTimers> ns{};
  std::array<double, kTimers> n{};
  std::array<double, kCounters> count{};

  void Add(const Stats& before, const Stats& after) {
    for (int i = 0; i < kTimers; i++) {
      const auto t = static_cast<Timer>(i);
      ns[i] += static_cast<double>(after.TimeNanos(t) - before.TimeNanos(t));
      n[i] += static_cast<double>(after.TimerCount(t) - before.TimerCount(t));
    }
    for (int i = 0; i < kCounters; i++) {
      const auto c = static_cast<Counter>(i);
      count[i] += static_cast<double>(after.Count(c) - before.Count(c));
    }
  }
  double Ns(Timer t) const { return ns[static_cast<int>(t)]; }
  double N(Timer t) const { return n[static_cast<int>(t)]; }
  double MeanNs(Timer t) const { return Ratio(Ns(t), N(t)); }
  double C(Counter c) const { return count[static_cast<int>(c)]; }
};

struct IoCounts {
  uint64_t reads = 0;
  uint64_t blocks = 0;
  uint64_t write_bytes = 0;
  uint64_t wait_ns = 0;

  static IoCounts Of(lilsm::SimEnv* sim) {
    const lilsm::IoStats* io = sim->io_stats();
    return {io->random_reads.load(), io->blocks_read.load(),
            io->write_bytes.load(), io->simulated_wait_ns.load()};
  }
  IoCounts operator-(const IoCounts& o) const {
    return {reads - o.reads, blocks - o.blocks, write_bytes - o.write_bytes,
            wait_ns - o.wait_ns};
  }
  IoCounts& operator+=(const IoCounts& o) {
    reads += o.reads;
    blocks += o.blocks;
    write_bytes += o.write_bytes;
    wait_ns += o.wait_ns;
    return *this;
  }
};

/// One window of the measured phase. The first is the warm-up, which no
/// metric counts; traced runs alternate untraced and traced windows.
struct Window {
  double seconds = 0;
  bool warmup = false;
  bool traced = false;
  uint64_t ops = 0;
  uint64_t writes = 0;
  uint64_t scans = 0;
  std::vector<double> reads_ns;   // per read request
  std::vector<double> writes_ns;  // per write request

  void Merge(const Window& o) {
    ops += o.ops;
    writes += o.writes;
    scans += o.scans;
    reads_ns.insert(reads_ns.end(), o.reads_ns.begin(), o.reads_ns.end());
    writes_ns.insert(writes_ns.end(), o.writes_ns.begin(), o.writes_ns.end());
  }
};

/// What one restart cycle reports.
struct Reopen {
  double ms = 0;          // open plus kRestartReads Gets
  double first_read_us = 0;
  double recover_ns = 0;  // Timer::kRecover
  double model_load_ns = 0;
  double wal_records = 0;
  double models_from_disk = 0;
  double sidecar_fallbacks = 0;
};

// ---- the benchmark -----------------------------------------------------

class Bench {
 public:
  Bench(const Spec& spec, const RunConfig& config)
      : spec_(spec),
        config_(config),
        sim_(&mem_, lilsm::SimEnvOptions()),
        tracer_(kMaxSpans),
        env_(&sim_, &tracer_),
        socket_(config.work_dir + "/" + spec.name + ".sock"),
        sorted_keys_(lilsm::GenerateKeys(lilsm::Dataset::kRandom,
                                         kNumKeys + kPoolKeys, config.seed)),
        oracle_(sorted_keys_, kValueSize) {
    SplitKeys();
  }

  ~Bench() { Close(); }

  void Run(RunResult* result) {
    if (spec_.served) {
      // Env::Schedule's maintenance thread starts with its first job and
      // inherits the caller's CPU.
      PinCallingThread(config_.maintenance_cpu);
      env_.Schedule([] {});
    }
    PinCallingThread(config_.request_cpu);
    const uint64_t t0 = Now();
    if (!SetUp()) return Fail(result);
    const double setup_s = Seconds(Now() - t0);
    if (spec_.served) {
      MeasureServed();
      // Background compactions are still running; settle them so the
      // snapshot sees a tree in a state that repeats.
      if (!Report(db_->CompactUntilStable(), "settle")) return Fail(result);
      TakeSnapshot();
    } else {
      MeasureInProcess();
      if (!spec_.measured_writes) WritePhase();
    }
    tracer_.SetEnabled(false);
    env_.WaitForScheduledJobs();
    spans_ = tracer_.Collect();
    tracer_.Clear();
    for (int c = 0; c < spec_.restart_cycles; c++) {
      if (!RestartCycle()) return Fail(result);
    }
    result->attempted = attempted_;
    result->failed = failed_;
    if (config_.trace) {
      LayerMetrics(result);
    } else {
      EndToEndMetrics(setup_s, result);
    }
  }

 private:
  /// Drives the measured phase's clock: a warm-up window, then
  /// config.seconds cut into windows of kWindowSeconds. Traced runs
  /// trace every other window, summing the engine's Stats and the SimEnv
  /// counts over the traced ones, and stop tracing once the span budget is
  /// three quarters used.
  class Slicer {
   public:
    explicit Slicer(Bench* bench)
        : b_(bench), start_(Now()), window_start_(start_) {
      Begin();
      b_->windows_.back().warmup = true;
    }
    /// Returns true once the phase's time is up; the last window stays open
    /// until Finish, however long the caller goes on.
    bool Tick(uint64_t now) {
      if (now - start_ >= PhaseNs()) return true;
      if (now - window_start_ < (b_->windows_.size() == 1 ? kWarmupNs
                                                             : kWindowNs)) {
        return false;
      }
      Close(now);
      traced_ = b_->config_.trace && !traced_ && !b_->tracer_.nearly_full();
      b_->tracer_.SetEnabled(traced_);
      window_start_ = now;
      Begin();
      return false;
    }
    void Finish() {
      Close(Now());
      b_->tracer_.SetEnabled(false);
    }

   private:
    static constexpr uint64_t kWarmupNs =
        static_cast<uint64_t>(kWarmupSeconds * 1e9);
    static constexpr uint64_t kWindowNs =
        static_cast<uint64_t>(kWindowSeconds * 1e9);
    uint64_t PhaseNs() const {
      return kWarmupNs + static_cast<uint64_t>(b_->config_.seconds * 1e9);
    }
    void Begin() {
      stats_ = *b_->db_->stats();
      io_ = IoCounts::Of(&b_->sim_);
      b_->windows_.emplace_back().traced = traced_;
      b_->window_.store(b_->windows_.size() - 1, std::memory_order_relaxed);
    }
    void Close(uint64_t now) {
      b_->windows_.back().seconds = Seconds(now - window_start_);
      if (!traced_) return;
      b_->traced_stats_.Add(stats_, *b_->db_->stats());
      b_->traced_io_ += IoCounts::Of(&b_->sim_) - io_;
    }

    Bench* const b_;
    const uint64_t start_;
    uint64_t window_start_;
    bool traced_ = false;
    Stats stats_;
    IoCounts io_;
  };

  struct ClientLog {
    std::vector<Window> windows;  // indexed like windows_
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t user_bytes = 0;

    Window& At(size_t i) {
      if (windows.size() <= i) windows.resize(i + 1);
      return windows[i];
    }
  };

  // ---- keys, set-up and tear-down ----

  /// Splits the keys into the loaded ones and a disjoint insert pool,
  /// every k-th key going to the pool so inserts land all over the key
  /// space, and shuffles the load order.
  void SplitKeys() {
    const size_t stride = sorted_keys_.size() / kPoolKeys;
    for (size_t i = 0; i < sorted_keys_.size(); i++) {
      if (i % stride == stride / 2 && pool_idx_.size() < kPoolKeys) {
        pool_idx_.push_back(i);
      } else if (load_idx_.size() < kNumKeys) {
        load_idx_.push_back(i);
      }
    }
    load_order_ = load_idx_;
    lilsm::Random rnd(config_.seed ^ 0x10adull);
    for (size_t i = load_order_.size(); i > 1; i--) {
      std::swap(load_order_[i - 1], load_order_[rnd.Uniform(i)]);
    }
  }

  DBOptions Options() {
    DBOptions o;
    o.env = &env_;
    o.write_buffer_size = kBufferBytes;
    o.sstable_target_size = kBufferBytes;
    o.key_size = kKeySize;
    o.value_size = kValueSize;
    o.index_type = lilsm::IndexType::kPGM;
    o.index_granularity = spec_.granularity;
    o.level_model_policy = spec_.policy;
    o.block_cache_bytes = spec_.block_cache_bytes;
    if (spec_.served) {
      // lilsm_server's shipped defaults.
      o.concurrency = lilsm::ConcurrencyMode::kBackground;
      o.group_commit = true;
      o.io_depth = 1;
    }
    return o;
  }

  void Close() {
    clients_.clear();
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    db_.reset();
  }

  bool Report(const lilsm::Status& s, const char* what) {
    if (!s.ok()) {
      error_ = std::string(what) + ": " + s.ToString();
      return false;
    }
    return true;
  }

  bool OpenDb() {
    std::unique_ptr<lilsm::DB> db;
    if (!Report(lilsm::DB::Open(Options(), kDbName, &db), "open")) {
      return false;
    }
    db_ = std::make_unique<TracedDB>(std::move(db), &tracer_);
    return true;
  }

  /// Serves the open DB and connects the clients (served workloads only).
  bool StartServer() {
    if (!spec_.served) return true;
    lilsm::ServerOptions so;
    so.socket_path = socket_;
    so.num_workers = kServerWorkers;
    if (!Report(Server::Start(db_.get(), so, &server_), "server start")) {
      return false;
    }
    clients_.resize(kClients);
    for (auto& client : clients_) {
      if (!Report(Client::Connect(socket_, &client), "connect")) return false;
    }
    return true;
  }

  /// Builds the measured tree in the empty in-memory Env: open, load the
  /// keys in shuffled order, flush and settle, and start the server if the
  /// workload has one.
  bool SetUp() {
    if (!OpenDb()) return false;
    for (size_t idx : load_order_) {
      const std::string value = oracle_.Write(idx);
      if (!Report(db_->Put(WriteOptions(), sorted_keys_[idx], value),
                  "load")) {
        return false;
      }
    }
    user_bytes_ = load_order_.size() * kEntryBytes;
    if (!Report(db_->FlushMemTable(), "flush") ||
        !Report(db_->CompactUntilStable(), "settle")) {
      return false;
    }
    // The server starts on the loaded DB, inside the timed set-up.
    return StartServer();
  }

  // ---- the measured phase ----

  /// Index of the key a YCSB op names: loaded keys first, then the pool.
  size_t KeyIndex(uint64_t key_index) const {
    if (key_index < load_idx_.size()) return load_idx_[key_index];
    return pool_idx_[(key_index - load_idx_.size()) % pool_idx_.size()];
  }

  void Check(bool ok) {
    attempted_++;
    if (!ok) failed_++;
  }

  void MeasureInProcess() {
    lilsm::YcsbGenerator gen(spec_.ycsb, kNumKeys, config_.seed ^ 0x5ca1ab1e);
    std::string value;
    std::vector<std::pair<Key, std::string>> scan;
    Slicer slicer(this);
    uint64_t ops = 0;
    for (bool done = false; !done;) {
      const YcsbOp op = gen.Next();
      const size_t idx = KeyIndex(op.key_index);
      const Key key = sorted_keys_[idx];
      Window& w = windows_.back();
      uint64_t t0 = 0;
      uint64_t t1 = 0;
      if (op.type == YcsbOp::Type::kRead) {
        t0 = Now();
        const lilsm::Status s = db_->Get(ReadOptions(), key, &value);
        t1 = Now();
        w.reads_ns.push_back(static_cast<double>(t1 - t0));
        Check(oracle_.CheckGet(idx, s, value));
      } else if (op.type == YcsbOp::Type::kScan) {
        t0 = Now();
        const lilsm::Status s =
            db_->RangeLookup(ReadOptions(), key, op.scan_length, &scan);
        t1 = Now();
        w.reads_ns.push_back(static_cast<double>(t1 - t0));
        Check(s.ok() && oracle_.CheckScan(key, op.scan_length, scan));
        w.scans++;
      } else {  // kUpdate, kInsert
        t1 = TimedPut(idx, &w.writes_ns);
        w.writes++;
      }
      w.ops++;
      if (++ops == spec_.prefix_ops) TakeSnapshot();
      done = slicer.Tick(t1) && ops >= spec_.prefix_ops;
    }
    slicer.Finish();
  }

  /// One checked Put of key `idx`, its latency appended to `ns` unless
  /// that is null; returns the clock at its end.
  uint64_t TimedPut(size_t idx, std::vector<double>* ns) {
    const std::string value = oracle_.Write(idx);
    const uint64_t t0 = Now();
    const lilsm::Status s = db_->Put(WriteOptions(), sorted_keys_[idx], value);
    const uint64_t t1 = Now();
    if (ns != nullptr) ns->push_back(static_cast<double>(t1 - t0));
    user_bytes_ += kEntryBytes;
    if (!s.ok()) oracle_.Unwrite(idx);
    Check(s.ok());
    return t1;
  }

  /// kWritePhasePuts timed updates of the loaded keys in ascending order,
  /// from a seeded start, wrapping at the end. In key order each insert
  /// lands at the memtable's tail, so a Put's time is the write path's own
  /// work (batch, WAL record and CRC, memtable insert) rather than cache
  /// misses in a random skiplist search, which a busy shared host made
  /// swing by up to 45% between runs.
  void WritePhase() {
    lilsm::Random rnd(config_.seed ^ 0x3a1e5ull);
    const size_t start = rnd.Uniform(load_idx_.size());
    write_phase_ns_.reserve(kWritePhasePuts);
    for (size_t i = 0; i < kWritePhasePuts; i++) {
      TimedPut(load_idx_[(start + i) % load_idx_.size()], &write_phase_ns_);
    }
  }

  /// Closed-loop YCSB-A through Client c: its own stripe of the loaded
  /// keys (so its oracle view is exact), reads batched into MultiGet
  /// frames of kMultiGetKeys keys, each update one write frame.
  void ClientLoop(int c, std::atomic<bool>* stop, ClientLog* log) {
    Client* client = clients_[c].get();
    const size_t stripe = load_idx_.size() / kClients;
    lilsm::YcsbGenerator gen(YcsbWorkload::kA, stripe,
                             config_.seed ^ (0xc11e47ull + c));
    std::vector<size_t> pending;
    std::vector<Key> keys;
    std::vector<std::string> values;
    std::vector<lilsm::Status> statuses;
    while (!stop->load(std::memory_order_relaxed)) {
      const YcsbOp op = gen.Next();
      const size_t idx = load_idx_[op.key_index * kClients + c];
      Window& w = log->At(window_.load(std::memory_order_relaxed));
      if (op.type == YcsbOp::Type::kRead) {
        pending.push_back(idx);
        if (pending.size() < kMultiGetKeys) continue;
        keys.clear();
        for (size_t i : pending) keys.push_back(sorted_keys_[i]);
        const uint64_t t0 = Now();
        lilsm::Status s;
        {
          ScopedSpan span(&tracer_, SpanName::kClientRequest,
                          KeysRequestId(keys), keys.size());
          s = client->MultiGet(keys, &values, &statuses);
        }
        w.reads_ns.push_back(static_cast<double>(Now() - t0));
        for (size_t i = 0; i < pending.size(); i++) {
          log->attempted++;
          if (!s.ok() || statuses.size() != pending.size() ||
              !oracle_.CheckGet(pending[i], statuses[i], values[i])) {
            log->failed++;
          }
        }
        w.ops += pending.size();
        pending.clear();
      } else {
        WriteBatch batch;
        batch.Put(sorted_keys_[idx], oracle_.Write(idx));
        const uint64_t t0 = Now();
        lilsm::Status s;
        {
          ScopedSpan span(&tracer_, SpanName::kClientRequest,
                          BatchRequestId(batch), 1);
          s = client->Write(batch);
        }
        w.writes_ns.push_back(static_cast<double>(Now() - t0));
        log->user_bytes += kEntryBytes;
        if (!s.ok()) oracle_.Unwrite(idx);
        log->attempted++;
        if (!s.ok()) log->failed++;
        w.ops++;
        w.writes++;
      }
    }
  }

  void MeasureServed() {
    std::atomic<bool> stop{false};
    std::vector<ClientLog> logs(kClients);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; c++) {
      threads.emplace_back([this, c, &stop, &logs] {
        ClientLoop(c, &stop, &logs[c]);
      });
    }
    Slicer slicer(this);
    while (!slicer.Tick(Now())) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop = true;
    for (auto& t : threads) t.join();
    slicer.Finish();
    for (const ClientLog& log : logs) {
      for (size_t i = 0; i < log.windows.size(); i++) {
        windows_[i].Merge(log.windows[i]);
      }
      attempted_ += log.attempted;
      failed_ += log.failed;
      user_bytes_ += log.user_bytes;
    }
  }

  /// Exact state after the fixed op prefix (or, served, after the phase).
  void TakeSnapshot() {
    const IoCounts io = IoCounts::Of(&sim_);
    uint64_t tree_bytes = 0;
    for (int level = 0; level < lilsm::kNumLevels; level++) {
      tree_bytes += db_->BytesAtLevel(level);
    }
    const Stats* stats = db_->stats();
    snapshot_ = {
        {"device_reads", io.reads},
        {"device_blocks", io.blocks},
        {"device_write_bytes", io.write_bytes},
        {"user_write_bytes", user_bytes_},
        {"index_mem_bytes", db_->TotalIndexMemory()},
        {"tree_bytes", tree_bytes},
        {"live_keys", oracle_.live()},
        {"compactions", stats->Count(Counter::kCompactions)},
        {"flushes", stats->Count(Counter::kFlushes)},
    };
  }

  uint64_t SnapshotValue(const char* name) const {
    for (const auto& [n, v] : snapshot_) {
      if (n == name) return v;
    }
    return 0;
  }

  // ---- restart cycles ----

  /// Writes kRestartWrites updates (so the reopen replays a WAL), closes,
  /// then times open plus kRestartReads checked Gets.
  bool RestartCycle() {
    lilsm::Random& rnd = restart_rnd_;
    if (spec_.served) {
      for (size_t w = 0; w < kRestartWrites; w++) {
        const size_t idx = load_idx_[rnd.Uniform(load_idx_.size())];
        const std::string value = oracle_.Write(idx);
        const lilsm::Status s =
            clients_[0]->Put(sorted_keys_[idx], lilsm::Slice(value));
        if (!s.ok()) oracle_.Unwrite(idx);
        Check(s.ok());
      }
    } else {
      for (size_t w = 0; w < kRestartWrites; w++) {
        TimedPut(load_idx_[rnd.Uniform(load_idx_.size())], nullptr);
      }
    }
    Close();
    Reopen r;
    std::string value;
    const uint64_t t0 = Now();
    if (!OpenDb() || !StartServer()) return false;
    for (size_t i = 0; i < kRestartReads; i++) {
      const size_t idx = load_idx_[rnd.Uniform(load_idx_.size())];
      const uint64_t r0 = Now();
      const lilsm::Status s =
          spec_.served ? clients_[0]->Get(sorted_keys_[idx], &value)
                       : db_->Get(ReadOptions(), sorted_keys_[idx], &value);
      if (i == 0) r.first_read_us = static_cast<double>(Now() - r0) / 1e3;
      Check(oracle_.CheckGet(idx, s, value));
    }
    r.ms = static_cast<double>(Now() - t0) / 1e6;
    const Stats* stats = db_->stats();
    r.recover_ns = static_cast<double>(stats->TimeNanos(Timer::kRecover));
    r.model_load_ns = static_cast<double>(stats->TimeNanos(Timer::kModelLoad));
    r.wal_records =
        static_cast<double>(stats->Count(Counter::kWalRecordsReplayed));
    r.models_from_disk =
        static_cast<double>(stats->Count(Counter::kModelsLoadedFromDisk));
    r.sidecar_fallbacks =
        static_cast<double>(stats->Count(Counter::kModelSidecarFallbacks));
    if (r.wal_records == 0) {
      error_ = "a restart cycle replayed an empty WAL";
      return false;
    }
    reopens_.push_back(r);
    return true;
  }

  // ---- metrics ----

  void Add(RunResult* result, const char* name, const char* unit,
           double value, uint64_t samples) {
    result->metrics.push_back({name, unit, value, samples});
  }

  void EndToEndMetrics(double setup_s, RunResult* result) {
    uint64_t ops = 0;
    double seconds = 0;
    std::vector<double> reads_ns, writes_ns;
    for (const Window& w : windows_) {
      if (w.warmup) continue;
      ops += w.ops;
      seconds += w.seconds;
      reads_ns.insert(reads_ns.end(), w.reads_ns.begin(), w.reads_ns.end());
      writes_ns.insert(writes_ns.end(), w.writes_ns.begin(),
                       w.writes_ns.end());
    }
    if (!spec_.measured_writes) writes_ns = write_phase_ns_;
    std::vector<double> reopen_ms;
    for (const Reopen& r : reopens_) reopen_ms.push_back(r.ms);
    const double user_bytes =
        static_cast<double>(SnapshotValue("user_write_bytes"));
    const double live_bytes =
        static_cast<double>(SnapshotValue("live_keys") * kEntryBytes);
    Add(result, "setup_s", "s", setup_s, 1);
    Add(result, "ops_s", "ops/s", Ratio(static_cast<double>(ops), seconds),
        ops);
    AddLatency(result, "read", &reads_ns);
    AddLatency(result, "write", &writes_ns);
    Add(result, "reopen_ms", "ms", Median(reopen_ms), reopen_ms.size());
    Add(result, "index_mem_bytes", "bytes",
        static_cast<double>(SnapshotValue("index_mem_bytes")), 1);
    Add(result, "write_amp", "x",
        Ratio(static_cast<double>(SnapshotValue("device_write_bytes")),
              user_bytes),
        1);
    Add(result, "space_amp", "x",
        Ratio(static_cast<double>(SnapshotValue("tree_bytes")), live_bytes),
        1);
    Add(result, "rss_mb", "MiB", PeakRssMiB(), 1);
    if (spec_.prefix_ops != 0) result->exact = snapshot_;
  }

  void AddLatency(RunResult* result, const std::string& kind,
                  std::vector<double>* ns) {
    Add(result, (kind + "_p50_us").c_str(), "us", Percentile(ns, 0.5) / 1e3,
        ns->size());
    Add(result, (kind + "_p99_us").c_str(), "us", Percentile(ns, 0.99) / 1e3,
        ns->size());
  }

  void LayerMetrics(RunResult* result);

  void Fail(RunResult* result) {
    result->error = error_.empty() ? "run failed" : error_;
    result->attempted = attempted_;
    result->failed = failed_;
  }

  static constexpr const char* kDbName = "db";

  const Spec& spec_;
  const RunConfig& config_;
  MemEnv mem_;
  lilsm::SimEnv sim_;
  Tracer tracer_;
  TracedEnv env_;
  const std::string socket_;

  const std::vector<Key> sorted_keys_;  // loaded and pool keys, ascending
  Oracle oracle_;
  std::vector<size_t> load_idx_;    // oracle index of each loaded key
  std::vector<size_t> pool_idx_;    // oracle index of each pool key
  std::vector<size_t> load_order_;  // shuffled load_idx_
  std::unique_ptr<TracedDB> db_;
  std::unique_ptr<Server> server_;
  std::vector<std::unique_ptr<Client>> clients_;

  uint64_t user_bytes_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Window> windows_;          // the measured phase
  std::atomic<size_t> window_{0};        // index of the open window
  std::vector<double> write_phase_ns_;
  std::vector<std::pair<std::string, uint64_t>> snapshot_;
  lilsm::Random restart_rnd_{config_.seed ^ 0x7e57a27ull};
  std::vector<Reopen> reopens_;

  StatsDelta traced_stats_;
  IoCounts traced_io_;
  std::vector<Span> spans_;
  std::string error_;
};

void Bench::LayerMetrics(RunResult* result) {
  const StatsDelta& st = traced_stats_;
  // Totals over the untraced (0) and traced (1) windows.
  std::array<double, 2> seconds{}, all_ops{};
  double writes = 0;
  double scans = 0;
  for (const Window& w : windows_) {
    if (w.warmup) continue;
    seconds[w.traced] += w.seconds;
    all_ops[w.traced] += static_cast<double>(w.ops);
    if (!w.traced) continue;
    writes += static_cast<double>(w.writes);
    scans += static_cast<double>(w.scans);
  }
  const double ops = all_ops[1];
  const double reads =
      st.C(Counter::kPointLookups) + st.C(Counter::kMultiGetKeys);
  const uint64_t n = static_cast<uint64_t>(ops);
  auto add = [&](const char* name, const char* unit, double value,
                 uint64_t samples) { Add(result, name, unit, value, samples); };

  // Span aggregates: count, total duration, total self time, total detail.
  const std::vector<uint64_t> self = SelfTimes(spans_);
  struct Agg {
    double count = 0, ns = 0, self_ns = 0, detail = 0;
  };
  std::array<Agg, static_cast<int>(SpanName::kNumNames)> agg{};
  std::unordered_map<uint64_t, SpanName> name_of;
  for (const Span& s : spans_) name_of[s.id] = s.name;
  double scan_device_reads = 0;
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    Agg& a = agg[static_cast<int>(s.name)];
    a.count++;
    a.ns += static_cast<double>(s.duration());
    a.self_ns += static_cast<double>(self[i]);
    a.detail += s.detail;
    if (s.name == SpanName::kTableRead) {
      auto it = name_of.find(s.parent);
      if (it != name_of.end() && it->second == SpanName::kDbScan) {
        scan_device_reads++;
      }
    }
  }
  auto span = [&](SpanName name) -> const Agg& {
    return agg[static_cast<int>(name)];
  };
  auto mean_ns = [&](SpanName name) {
    return Ratio(span(name).ns, span(name).count);
  };
  auto mean_self_ns = [&](SpanName name) {
    return Ratio(span(name).self_ns, span(name).count);
  };
  auto count = [&](SpanName name) {
    return static_cast<uint64_t>(span(name).count);
  };

  // client / server
  const SpanName db_calls[] = {SpanName::kDbGet, SpanName::kDbMultiGet,
                               SpanName::kDbWrite};
  const auto matches =
      MatchRequests(spans_, SpanName::kClientRequest, db_calls);
  double overhead_ns = 0;
  for (const auto& [c, d] : matches) {
    overhead_ns += static_cast<double>(spans_[c].duration()) -
                   static_cast<double>(spans_[d].duration());
  }
  add("client.request_us", "us", mean_ns(SpanName::kClientRequest) / 1e3,
      count(SpanName::kClientRequest));
  add("server.overhead_us", "us",
      Ratio(overhead_ns, static_cast<double>(matches.size())) / 1e3,
      matches.size());
  add("server.queue_us", "us", st.MeanNs(Timer::kServerQueue) / 1e3,
      static_cast<uint64_t>(st.N(Timer::kServerQueue)));
  add("server.bytes_per_op", "B/op",
      Ratio(st.C(Counter::kServerBytesIn) + st.C(Counter::kServerBytesOut),
            ops),
      n);

  // lsm.db
  add("lsm.db.get_self_ns", "ns", mean_self_ns(SpanName::kDbGet),
      count(SpanName::kDbGet));
  add("lsm.db.multiget_self_ns_per_key", "ns",
      Ratio(span(SpanName::kDbMultiGet).self_ns,
            span(SpanName::kDbMultiGet).detail),
      count(SpanName::kDbMultiGet));
  add("lsm.db.put_self_ns", "ns", mean_self_ns(SpanName::kDbWrite),
      count(SpanName::kDbWrite));
  add("lsm.db.tables_per_read", "tables/read",
      Ratio(st.C(Counter::kTablesConsulted), reads),
      static_cast<uint64_t>(reads));
  add("lsm.db.table_lookup_ns", "ns", st.MeanNs(Timer::kTableLookup),
      static_cast<uint64_t>(st.N(Timer::kTableLookup)));
  add("lsm.db.group_size", "writes/group",
      Ratio(st.C(Counter::kGroupCommitBatchSize), st.C(Counter::kGroupCommits)),
      static_cast<uint64_t>(st.C(Counter::kGroupCommits)));
  add("lsm.db.stalls", "count",
      st.C(Counter::kWriteStalls) + st.C(Counter::kWriteSlowdowns), n);
  add("lsm.memtable.get_ns", "ns", st.MeanNs(Timer::kMemtableGet),
      static_cast<uint64_t>(st.N(Timer::kMemtableGet)));

  // lsm.wal
  add("lsm.wal.append_ns", "ns", mean_ns(SpanName::kWalAppend),
      count(SpanName::kWalAppend));
  add("lsm.wal.bytes_per_write", "B/write",
      Ratio(span(SpanName::kWalAppend).detail, writes),
      static_cast<uint64_t>(writes));
  add("lsm.wal.syncs_per_write", "syncs/write",
      Ratio(span(SpanName::kWalSync).count, writes),
      static_cast<uint64_t>(writes));

  // bloom, index, table
  add("bloom.probes_per_read", "probes/read",
      Ratio(st.N(Timer::kBloomCheck), reads), static_cast<uint64_t>(reads));
  add("bloom.probe_ns", "ns", st.MeanNs(Timer::kBloomCheck),
      static_cast<uint64_t>(st.N(Timer::kBloomCheck)));
  add("bloom.negative_ratio", "ratio",
      Ratio(st.C(Counter::kBloomNegatives),
            st.C(Counter::kBloomNegatives) +
                st.C(Counter::kBloomFalsePositive)),
      static_cast<uint64_t>(st.N(Timer::kBloomCheck)));
  add("index.predicts_per_read", "predicts/read",
      Ratio(st.N(Timer::kIndexPredict), reads), static_cast<uint64_t>(reads));
  add("index.predict_ns", "ns", st.MeanNs(Timer::kIndexPredict),
      static_cast<uint64_t>(st.N(Timer::kIndexPredict)));
  add("index.segments_per_read", "segments/read",
      Ratio(st.C(Counter::kSegmentsFetched), reads),
      static_cast<uint64_t>(reads));
  add("table.disk_read_ns", "ns", st.MeanNs(Timer::kDiskRead),
      static_cast<uint64_t>(st.N(Timer::kDiskRead)));
  add("table.search_ns", "ns", st.MeanNs(Timer::kBinarySearch),
      static_cast<uint64_t>(st.N(Timer::kBinarySearch)));

  // util.sim_env, util.lru_cache
  const IoCounts& io = traced_io_;
  add("util.sim_env.read_ns", "ns", mean_ns(SpanName::kTableRead),
      count(SpanName::kTableRead));
  add("util.sim_env.reads_per_op", "reads/op",
      Ratio(static_cast<double>(io.reads), ops), n);
  add("util.sim_env.blocks_per_op", "blocks/op",
      Ratio(static_cast<double>(io.blocks), ops), n);
  add("util.sim_env.wait_us_per_op", "us/op",
      Ratio(static_cast<double>(io.wait_ns), ops) / 1e3, n);
  add("util.sim_env.table_write_bytes", "B/op",
      Ratio(span(SpanName::kTableAppend).detail, ops), n);
  add("util.lru_cache.hit_ratio", "ratio",
      Ratio(st.C(Counter::kBlockCacheHits),
            st.C(Counter::kBlockCacheHits) + st.C(Counter::kBlockCacheMisses)),
      static_cast<uint64_t>(st.C(Counter::kBlockCacheHits) +
                            st.C(Counter::kBlockCacheMisses)));
  add("util.lru_cache.evictions_per_op", "evictions/op",
      Ratio(st.C(Counter::kBlockCacheEvictions), ops), n);

  // lsm.compaction
  add("lsm.compaction.count", "count", st.C(Counter::kCompactions), n);
  add("lsm.compaction.flushes", "count", st.C(Counter::kFlushes), n);
  add("lsm.compaction.busy_ms", "ms", st.Ns(Timer::kCompactTotal) / 1e6,
      static_cast<uint64_t>(st.N(Timer::kCompactTotal)));
  add("lsm.compaction.merge_ms", "ms", st.Ns(Timer::kCompactKvIo) / 1e6,
      static_cast<uint64_t>(st.N(Timer::kCompactKvIo)));
  add("lsm.compaction.train_ms", "ms", st.Ns(Timer::kCompactTrain) / 1e6,
      static_cast<uint64_t>(st.N(Timer::kCompactTrain)));
  add("lsm.compaction.write_model_ms", "ms",
      st.Ns(Timer::kCompactWriteModel) / 1e6,
      static_cast<uint64_t>(st.N(Timer::kCompactWriteModel)));
  add("lsm.compaction.entries_per_user_write", "entries/write",
      Ratio(st.C(Counter::kEntriesCompacted), writes),
      static_cast<uint64_t>(writes));
  add("lsm.compaction.background_ms", "ms",
      span(SpanName::kBackgroundJob).ns / 1e6,
      count(SpanName::kBackgroundJob));

  // lsm.model_catalog: the traced slices, then the restart cycles.
  std::vector<double> load_ms, from_disk, fallbacks, open_ms, replayed,
      first_read_us;
  for (const Reopen& r : reopens_) {
    load_ms.push_back(r.model_load_ns / 1e6);
    from_disk.push_back(r.models_from_disk);
    fallbacks.push_back(r.sidecar_fallbacks);
    open_ms.push_back(r.recover_ns / 1e6);
    replayed.push_back(r.wal_records);
    first_read_us.push_back(r.first_read_us);
  }
  const uint64_t cycles = reopens_.size();
  add("lsm.model_catalog.stitch_ms", "ms", st.Ns(Timer::kModelStitch) / 1e6,
      static_cast<uint64_t>(st.N(Timer::kModelStitch)));
  add("lsm.model_catalog.stitched", "count", st.C(Counter::kModelsStitched),
      n);
  add("lsm.model_catalog.retrains", "count", st.C(Counter::kModelRetrains),
      n);
  add("lsm.model_catalog.build_bytes_read", "bytes",
      st.C(Counter::kModelBuildBytesRead), n);
  add("lsm.model_catalog.load_ms", "ms", Median(load_ms), cycles);
  add("lsm.model_catalog.loaded_from_disk", "count", Median(from_disk),
      cycles);
  add("lsm.model_catalog.sidecar_fallbacks", "count", Median(fallbacks),
      cycles);

  // lsm.recovery, lsm.db_iter
  add("lsm.recovery.open_ms", "ms", Median(open_ms), cycles);
  add("lsm.recovery.wal_records_replayed", "count", Median(replayed), cycles);
  add("lsm.recovery.first_read_us", "us", Median(first_read_us), cycles);
  add("lsm.db_iter.scan_self_ns", "ns", mean_self_ns(SpanName::kDbScan),
      count(SpanName::kDbScan));
  add("lsm.db_iter.device_reads_per_scan", "reads/scan",
      Ratio(scan_device_reads, scans), static_cast<uint64_t>(scans));

  // The cost of tracing itself.
  const double untraced_ops_s = Ratio(all_ops[0], seconds[0]);
  const double traced_ops_s = Ratio(ops, seconds[1]);
  add("trace.overhead_frac", "ratio",
      untraced_ops_s == 0 ? 0.0 : 1.0 - traced_ops_s / untraced_ops_s, n);

  result->trace_file = config_.work_dir + "/" + spec_.name + ".spans.tsv";
  if (!WriteSpans(spans_, result->trace_file)) result->trace_file.clear();
}

}  // namespace

std::string DeviceModel() {
  const lilsm::SimEnvOptions o;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "SimEnv over an in-memory Env: %s of %llu ns + %.4f "
                "ns/byte per random read, writes and syncs free, %llu-byte "
                "blocks",
                o.sleep_instead_of_spin ? "sleep" : "busy-wait",
                static_cast<unsigned long long>(o.read_base_latency_ns),
                o.read_per_byte_ns,
                static_cast<unsigned long long>(o.io_block_size));
  return buf;
}

void PlanCpus(RunConfig* config) {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  std::vector<int> cpus;
  for (int i = 0; i < CPU_SETSIZE; i++) {
    if (CPU_ISSET(i, &set)) cpus.push_back(i);
  }
  if (cpus.empty()) return;
  config->request_cpu = cpus.back();
  config->maintenance_cpu = cpus.size() > 1 ? cpus[cpus.size() - 2] : cpus[0];
}

std::string DataSet() {
  return std::to_string(kNumKeys) + " loaded keys of " +
         std::to_string(kKeySize) + " B with " + std::to_string(kValueSize) +
         " B values (" + std::to_string(kNumKeys * kEntryBytes >> 20) +
         " MiB), GenerateKeys(kRandom, seed), shuffled load";
}

RunResult RunWorkload(const RunConfig& config) {
  RunResult result;
  const Spec* spec = FindSpec(config.workload);
  if (spec == nullptr) {
    result.error = "unknown workload " + config.workload;
    return result;
  }
  Bench bench(*spec, config);
  bench.Run(&result);
  return result;
}

}  // namespace perfbench
