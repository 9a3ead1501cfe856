// The btsc benchmark program.
//
//   perfbench --workload creation|lowpower|service --seed N --seconds S
//             --trace 0|1 --work-dir DIR [--trace-file FILE]
//
// Untraced runs (--trace 0) print every end-to-end metric; traced runs
// (--trace 1) replay the same work through the layers' public entry
// points and print every per-layer metric. The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. The
// exit code is 0 only when every correctness check passed. run.py builds
// this program and is the command BENCHMARK.json names.
#include <sys/statfs.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "creation|lowpower|service --seed N --seconds S --trace 0|1 "
               "--work-dir DIR\n",
               why);
  std::exit(2);
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string filesystem_of(const std::string& path) {
  struct statfs st {};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x01021997: return "9p";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool setup_child = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--trace") {
        opt.trace = value() == "1";
      } else if (a == "--work-dir") {
        opt.work_dir = value();
      } else if (a == "--trace-file") {
        opt.trace_file = value();
      } else if (a == "--corrupt") {
        opt.corrupt = value();
      } else if (a == "--setup-probe") {
        setup_child = true;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (opt.workload != "creation" && opt.workload != "lowpower" &&
      opt.workload != "service") {
    usage("--workload must be creation, lowpower or service");
  }
  if (opt.work_dir.empty()) usage("--work-dir is required");
  if (opt.trace_file.empty()) opt.trace_file = opt.work_dir + "/trace.jsonl";
  if (setup_child) {
    try {
      const double s = setup_probe(opt.workload, opt.work_dir);
      std::printf("setup_s=%.9f\n", s);
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: setup probe: %s\n", e.what());
      return 3;
    }
  }
  if (!have_seed) usage("--seed is required");
  if (!(opt.seconds > 0)) usage("--seconds must be positive");

  // Numbers from a debug or sanitizer build are not the program's speed.
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to run a build without NDEBUG\n");
  return 2;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: build type is %s, not Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  std::printf("host: nproc=%d compiler=\"%s\" build=%s work_dir_fs=%s\n",
              usable_cpus(), compiler().c_str(), PERFBENCH_BUILD_TYPE,
              filesystem_of(opt.work_dir).c_str());
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);

  try {
    Outcome out;
    if (opt.trace) {
      out = run_traced(opt);
    } else {
      const std::string self =
          std::filesystem::read_symlink("/proc/self/exe").string();
      const double setup = measure_setup(opt, self);
      out = opt.workload == "service" ? run_service_workload(opt)
                                      : run_study_workload(opt);
      out.add("setup_s", setup, "s");
      out.add("peak_rss_mb", peak_rss_mb(), "MB");
    }
    print_result(out);
    return out.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
