// Load generator and in-process layer probes of the market benchmark
// (see ../README.md). run.py launches the catalog shard and calls this
// binary in one of three modes:
//
//   perfbench_load probe   --port=P --workload=W ...   one round trip of
//       every verb the workload sends (the end of a set-up measurement)
//   perfbench_load wire    --port=P --workload=W ...   open-loop load
//       against a running shard: warm-up, fixed-rate phase, rate ladder
//       (or, with --trace=1, an untraced and a traced fixed-rate phase
//       followed by in-process replays of the recorded requests through
//       each layer's public calls), then output checks
//   perfbench_load listing --seed=S ...                 the offline
//       listing path, closed loop, one caller
//   perfbench_load idle-poll                            keeps the CPU it
//       is started on from halting, at idle priority, until killed
//
// Every mode prints human-readable report lines and, last, one JSON
// object ("RESULT {...}") that run.py folds into the benchmark's result.
// Inputs are pure functions of --seed; the shard receives only generated
// requests.

#include <sched.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <string>

#include "common/cpu_features.h"
#include "src/load_common.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_load "
                 "probe|wire|listing|provenance|idle-poll --...\n");
    return 2;
  }
  const perfbench::Flags flags{argc, argv};
  const std::string mode = argv[1];
  if (mode == "probe") return perfbench::RunProbe(flags);
  if (mode == "wire") return perfbench::RunWire(flags);
  if (mode == "listing") return perfbench::RunListing(flags);
  if (mode == "idle-poll") {
    // An empty loop that touches no memory of its own; at SCHED_IDLE any
    // shard thread that wakes on this CPU preempts it at once. It ends
    // with the process that started it, however that one ends.
    const pid_t parent = getppid();
    if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != parent) {
      return 1;
    }
    const sched_param param{};
    if (sched_setscheduler(0, SCHED_IDLE, &param) != 0) return 1;
    for (;;) asm volatile("" ::: "memory");
  }
  if (mode == "provenance") {
    std::printf("simd_level=%s\n",
                mbp::SimdLevelName(mbp::ActiveSimdLevel()).c_str());
    return 0;
  }
  std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
  return 2;
}
