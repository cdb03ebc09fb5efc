// The benchmark's workloads and the one entry point that runs a workload
// and returns its metrics. See perfbench/README.md for what each workload
// exercises and what every metric means.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// false: end-to-end metrics. true: per-layer metrics from a run whose
  /// measured phase alternates untraced and traced slices.
  bool trace = false;
  /// Real directory for the server's unix socket and the span dump. The
  /// databases themselves live in an in-memory Env.
  std::string work_dir = ".bench_build/run";
  /// CPU placement, see PlanCpus. -1: leave the thread where it is.
  int request_cpu = -1;
  int maintenance_cpu = -1;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  uint64_t samples = 0;  // observations behind the value
};

struct RunResult {
  uint64_t attempted = 0;  // operations whose result was checked
  uint64_t failed = 0;     // wrong results and unexpected error statuses
  std::vector<Metric> metrics;
  /// Counts that must repeat exactly across runs of the same seed (kInline
  /// workloads only), taken at a fixed point of the op stream.
  std::vector<std::pair<std::string, uint64_t>> exact;
  std::string trace_file;  // where the spans went (traced runs)
  std::string error;       // non-empty when the run could not complete
};

/// Picks the CPUs a run uses: the request path on the highest-numbered CPU
/// this process may use, and background maintenance (Env::Schedule's
/// thread) on the second-highest (the same one if only one is allowed).
/// On the served workload the request path is the caller, the server's
/// event loop, its workers and the clients, which all take turns on that
/// one CPU.
void PlanCpus(RunConfig* config);

/// One line naming the device model every number comes from.
std::string DeviceModel();
/// One line naming the data set's size and origin.
std::string DataSet();

RunResult RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
