// perfbench: the end-to-end benchmark of the probsyn library.
//
//   perfbench --workload refresh|bulk|serve|ingest --seed N --seconds S
//             --trace 0|1 --work-dir DIR
//   perfbench --self-test --work-dir DIR
//   perfbench --record --work-dir DIR > recorded_costs.h
//
// A run prints a machine line, human-readable metric lines and, last, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. perfbench/run.py
// builds this binary and is the command to use (see perfbench/README.md).

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "core/dp_kernels.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

// CPUs this process can really use: every online CPU gets a spinning
// thread for a short while, and the CPU time they were given is divided
// by the wall time (a cgroup quota or a busy neighbour shows up here).
// Idle virtual CPUs can take a moment to be scheduled again, which is why
// the workloads calibrate right after their set-up.
double UsableCpus() {
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> cpu_s(threads, 0.0);
  const auto start = Clock::now();
  {
    std::vector<std::jthread> spinners;
    for (unsigned t = 0; t < threads; ++t) {
      spinners.emplace_back([&cpu_s, t, start] {
        volatile std::uint64_t sink = 0;
        while (SecondsSince(start) < 0.3) sink = sink + 1;
        timespec ts{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        cpu_s[t] = static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
      });
    }
  }
  double total = 0.0;
  for (double s : cpu_s) total += s;
  return total / SecondsSince(start);
}

// CPU time the hypervisor gave to other guests, summed over all CPUs
// (the "steal" column of /proc/stat), in seconds; 0 where not reported.
double StolenSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long ticks[8] = {};
  const int fields = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                                 &ticks[0], &ticks[1], &ticks[2], &ticks[3],
                                 &ticks[4], &ticks[5], &ticks[6], &ticks[7]);
  std::fclose(f);
  return fields == 8 ? static_cast<double>(ticks[7]) /
                           static_cast<double>(sysconf(_SC_CLK_TCK))
                     : 0.0;
}

struct Machine {
  std::size_t threads = 0;
  double usable_cpus = 0.0;
  double stolen_s = 0.0;
  Clock::time_point since;
} g_machine;

}  // namespace

void CalibrateMachine(const std::string& workload) {
  g_machine.threads = WorkloadThreads(workload);
  g_machine.usable_cpus = UsableCpus();
  g_machine.stolen_s = StolenSeconds();
  g_machine.since = Clock::now();
}

void PrintMachine() {
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  const double steal_pct = 100.0 * (StolenSeconds() - g_machine.stolen_s) /
                           (SecondsSince(g_machine.since) * cpus);
  // Above this share of stolen CPU time, timings mostly measure the host.
  constexpr double kMaxStealPct = 10.0;
  const bool comparable =
      g_machine.usable_cpus + 0.5 >= static_cast<double>(g_machine.threads) &&
      steal_pct <= kMaxStealPct;
  std::printf(
      "machine {\"nproc\": %ld, \"usable_cpus\": %.2f, \"threads\": %zu, "
      "\"steal_pct\": %.1f, \"simd\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"comparable\": %s}\n",
      cpus, g_machine.usable_cpus, g_machine.threads, steal_pct,
      probsyn::SimdPathName(probsyn::ActiveSimdPath()), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, comparable ? "true" : "false");
  if (!comparable) {
    std::fprintf(stderr,
                 "warning: %.2f usable CPUs for %zu threads, %.1f%% of CPU time "
                 "stolen by the host; do not compare this run\n",
                 g_machine.usable_cpus, g_machine.threads, steal_pct);
  }
}

namespace {

void PrintRow(const char* name, const std::vector<double>& costs) {
  std::printf("    {");
  for (std::size_t i = 0; i < costs.size(); ++i) {
    std::printf("%s%a", i ? ", " : "", costs[i]);
  }
  std::printf("},  // %s\n", name);
}

void Record(const std::string& work_dir) {
  std::printf(
      "// Costs recorded when the benchmark was defined, one row per input\n"
      "// set, in request (or stream) order. Hexadecimal floats, so a check\n"
      "// can demand the same bits. Written by `perfbench --record`.\n\n"
      "#ifndef PERFBENCH_RECORDED_COSTS_H_\n"
      "#define PERFBENCH_RECORDED_COSTS_H_\n\n"
      "namespace perfbench {\n\n");
  const char* tables[] = {"kRefreshCosts[16][8]", "kBulkCosts[16][3]",
                          "kIngestCosts[16][8]"};
  for (int table = 0; table < 3; ++table) {
    std::printf("inline constexpr double %s = {\n", tables[table]);
    for (std::uint64_t set = 0; set < kInputSets; ++set) {
      const std::string name = "set " + std::to_string(set);
      PrintRow(name.c_str(), table == 0   ? RefreshCosts(set, work_dir)
                             : table == 1 ? BulkCosts(set, work_dir)
                                          : IngestCosts(set));
      std::fflush(stdout);
    }
    std::printf("};\n\n");
  }
  std::printf("}  // namespace perfbench\n\n#endif  // PERFBENCH_RECORDED_COSTS_H_\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload refresh|bulk|serve|ingest --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n"
               "       perfbench --self-test|--record --work-dir DIR\n");
  return 2;
}

}  // namespace

std::size_t WorkloadThreads(const std::string& workload) {
  if (workload == "serve") return 3;   // client threads
  if (workload == "ingest") return 4;  // producer + three drain lanes
  return probsyn::ThreadPool::DefaultThreadCount();
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  bool self_test = false, record = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--record") {
      record = true;
    } else if (!has_value) {
      return Usage();
    } else if (arg == "--workload") {
      config.workload = argv[++i];
    } else if (arg == "--seed") {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      config.trace = std::strcmp(argv[++i], "1") == 0;
    } else if (arg == "--work-dir") {
      config.work_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (config.work_dir.empty() || !(config.seconds > 0)) return Usage();
  void (*run)(const RunConfig&, Report&) = nullptr;
  if (config.workload == "refresh") run = RunRefresh;
  if (config.workload == "bulk") run = RunBulk;
  if (config.workload == "serve") run = RunServe;
  if (config.workload == "ingest") run = RunIngest;
  if (run == nullptr && !self_test && !record) return Usage();

  // Inputs and stores live in a per-process directory removed at exit.
  const std::string trace_dir = config.work_dir;
  config.work_dir += "/run-" + std::to_string(getpid());
  std::error_code error;
  std::filesystem::create_directories(config.work_dir, error);
  if (error) {
    std::fprintf(stderr, "cannot create %s\n", config.work_dir.c_str());
    return 2;
  }
  int status = 0;
  if (self_test) {
    status = SelfTest(config.work_dir) ? 0 : 1;
  } else if (record) {
    Record(config.work_dir);
  } else {
    Report report;
    run(config, report);
    PrintMachine();
    if (config.trace) {
      const std::string path = trace_dir + "/trace-" + config.workload + "-" +
                               std::to_string(config.seed) + ".json";
      if (WriteTrace(path)) std::printf("trace %s\n", path.c_str());
    }
    report.Print(config.trace);
  }
  std::filesystem::remove_all(config.work_dir, error);
  return status;
}
