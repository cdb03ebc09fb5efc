// perfbench: runs one lilsm workload and reports its metrics.
//
//   perfbench --workload read_zipf --seed 1 --seconds 10 --trace 0
//
// Prints a readable report, then one JSON line with every metric, its unit
// and sample count, the correctness tallies and the report header. run.py
// builds this binary, runs it and turns that line into the benchmark's
// result. Exits 1 if the run failed or any result was wrong.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--git-sha SHA] "
               "[--command TEXT]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string git_sha = "unknown";
  std::string command;
  for (int i = 1; i < argc; i++) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      config.trace = value == "1";
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--command") {
      command = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      return Usage(("bad number for " + flag).c_str());
    }
  }
  if (config.workload.empty()) return Usage("--workload is required");
  if (!(config.seconds > 0)) return Usage("--seconds must be positive");

  const std::string device = perfbench::DeviceModel();
  const unsigned cores = std::thread::hardware_concurrency();
  perfbench::PlanCpus(&config);
  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf("# device: %s (all times below are SimEnv times)\n",
              device.c_str());
  std::printf("# build: %s, git %s, nproc %u, requests on cpu %d, "
              "maintenance on cpu %d\n",
              PERFBENCH_BUILD_TYPE, git_sha.c_str(), cores,
              config.request_cpu, config.maintenance_cpu);
  std::printf("# data: %s\n", perfbench::DataSet().c_str());
  if (!command.empty()) std::printf("# command: %s\n", command.c_str());
  std::fflush(stdout);

  const perfbench::RunResult r = perfbench::RunWorkload(config);

  std::printf("%-40s %14s %-14s %10s\n", "metric", "value", "unit",
              "samples");
  for (const perfbench::Metric& m : r.metrics) {
    std::printf("%-40s %14.4f %-14s %10llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  std::printf("# checked %llu results, %llu wrong%s%s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.error.empty() ? "" : "; error: ", r.error.c_str());
  if (!r.trace_file.empty()) {
    std::printf("# spans written to %s\n", r.trace_file.c_str());
  }

  std::string json = "{\"workload\":" + JsonString(config.workload) +
                     ",\"seed\":" + std::to_string(config.seed) +
                     ",\"trace\":" + (config.trace ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(r.attempted) +
                     ",\"failed\":" + std::to_string(r.failed) +
                     ",\"error\":" + JsonString(r.error) +
                     ",\"header\":{\"device\":" + JsonString(device) +
                     ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
                     ",\"git_sha\":" + JsonString(git_sha) +
                     ",\"nproc\":" + std::to_string(cores) +
                     ",\"request_cpu\":" +
                     std::to_string(config.request_cpu) +
                     ",\"maintenance_cpu\":" +
                     std::to_string(config.maintenance_cpu) +
                     ",\"command\":" + JsonString(command) + "}" +
                     ",\"metrics\":{";
  for (size_t i = 0; i < r.metrics.size(); i++) {
    const perfbench::Metric& m = r.metrics[i];
    json += (i ? "," : "") + JsonString(m.name) +
            ":{\"value\":" + JsonNumber(m.value) +
            ",\"unit\":" + JsonString(m.unit) +
            ",\"samples\":" + std::to_string(m.samples) + "}";
  }
  json += "},\"exact\":{";
  for (size_t i = 0; i < r.exact.size(); i++) {
    json += (i ? "," : "") + JsonString(r.exact[i].first) + ":" +
            std::to_string(r.exact[i].second);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return r.error.empty() && r.failed == 0 ? 0 : 1;
}
