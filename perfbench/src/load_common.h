#ifndef PERFBENCH_LOAD_COMMON_H_
#define PERFBENCH_LOAD_COMMON_H_

// Helpers shared by the wire and listing modes of perfbench_load: the
// RESULT printer, flag parsing, seed mixing and /proc probes.

#include <dirent.h>
#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/measure.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------- output

// Ordered name -> number map printed as the RESULT JSON object.
class Result {
 public:
  void Set(const std::string& name, double value) {
    if (!ValidMetricName(name)) {
      std::fprintf(stderr, "invalid metric name %s\n", name.c_str());
      std::exit(3);
    }
    values_[name] = value;
  }
  void Check(const std::string& what, bool ok) {
    if (!ok) {
      ++check_failures_;
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }
  uint64_t check_failures() const { return check_failures_; }

  void Print() const {
    std::string out = "RESULT {";
    bool first = true;
    for (const auto& [name, value] : values_) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g", first ? "" : ", ",
                    name.c_str(), std::isfinite(value) ? value : 0.0);
      out += buf;
      first = false;
    }
    out += "}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  std::map<std::string, double> values_;
  uint64_t check_failures_ = 0;
};

// "--name=value" flags.
struct Flags {
  int argc;
  char** argv;
  std::string Str(const char* name, const std::string& fallback) const {
    const std::string prefix = std::string("--") + name + "=";
    for (int i = 2; i < argc; ++i) {
      if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
        return argv[i] + prefix.size();
      }
    }
    return fallback;
  }
  double Num(const char* name, double fallback) const {
    const std::string s = Str(name, "");
    return s.empty() ? fallback : std::strtod(s.c_str(), nullptr);
  }
  uint64_t U64(const char* name, uint64_t fallback) const {
    const std::string s = Str(name, "");
    return s.empty() ? fallback : std::strtoull(s.c_str(), nullptr, 10);
  }
};

// splitmix64 finalizer: derives independent sub-seeds from --seed.
inline uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

inline uint64_t HashDoubles(const std::vector<double>& v) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (double d : v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    h = Mix(h ^ bits);
  }
  return h;
}

inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ------------------------------------------------------- /proc probes

struct ProcSample {
  double cpu_s = 0.0;            // time on a CPU, all threads
  uint64_t ctx_switches = 0;     // voluntary + involuntary, all threads
};

// Voluntary context switches of each thread of `pid`, by thread id: a
// thread that blocks and wakes once per request shows which thread
// served it.
inline std::map<int, uint64_t> ThreadWakeups(int pid) {
  std::map<int, uint64_t> out;
  const std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* dir = opendir(task_dir.c_str());
  if (dir == nullptr) return out;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream status(task_dir + "/" + entry->d_name + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("voluntary_ctxt_switches:", 0) == 0) {
        out[std::atoi(entry->d_name)] =
            std::strtoull(line.c_str() + line.find(':') + 1, nullptr, 10);
      }
    }
  }
  closedir(dir);
  return out;
}

inline ProcSample ReadProc(int pid) {
  ProcSample sample;
  if (pid <= 0) return sample;
  const std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
  if (DIR* dir = opendir(task_dir.c_str())) {
    while (dirent* entry = readdir(dir)) {
      if (entry->d_name[0] == '.') continue;
      const std::string task = task_dir + "/" + entry->d_name;
      // Time on a CPU in nanoseconds: finer than the clock ticks of
      // /proc/<pid>/stat, which step by a few percent of a short phase.
      std::ifstream schedstat(task + "/schedstat");
      double on_cpu_ns = 0;
      if (schedstat >> on_cpu_ns) sample.cpu_s += on_cpu_ns / 1e9;
      std::ifstream status(task + "/status");
      std::string line;
      while (std::getline(status, line)) {
        if (line.rfind("voluntary_ctxt_switches:", 0) == 0 ||
            line.rfind("nonvoluntary_ctxt_switches:", 0) == 0) {
          sample.ctx_switches +=
              std::strtoull(line.c_str() + line.find(':') + 1, nullptr, 10);
        }
      }
    }
    closedir(dir);
  }
  return sample;
}

// Peak resident set (VmHWM) of `pid` ("self" when pid <= 0), in MB.
inline double PeakRssMb(int pid) {
  std::ifstream status(pid > 0 ? "/proc/" + std::to_string(pid) + "/status"
                               : std::string("/proc/self/status"));
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

inline double SelfCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

inline double Ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

// Writes the tracer's spans as JSON lines.
inline void WriteTrace(const Tracer& tracer, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (const Span& s : tracer.spans()) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_ns\": %" PRId64
                 ", \"end_ns\": %" PRId64 ", \"parent\": %d, "
                 "\"request_id\": %" PRIu64 "}\n",
                 s.name.c_str(), s.start_ns, s.end_ns, s.parent,
                 s.request_id);
  }
  std::fclose(f);
}

// The three modes of perfbench_load.
int RunProbe(const Flags& flags);
int RunWire(const Flags& flags);
int RunListing(const Flags& flags);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_COMMON_H_
