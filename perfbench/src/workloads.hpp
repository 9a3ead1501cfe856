// The benchmark's three workloads and the inputs they derive from the
// workload seed.
//
//  * creation -- the paper's first study: the Fig. 8 sweep (inquiry, then
//    page, at every BER from 1/100 to 1/30) at min(4, nproc) threads with
//    the default single-stage replications. Receiver dry runs, scan-window
//    clock ticks, access-code rebuilds and error masks do most of its
//    work; it writes nothing and restores no snapshots.
//  * lowpower -- the paper's second study: the Fig. 10, 11 and 12 sweeps
//    at min(4, nproc) threads with fork warm-up and several replications
//    per point, so every point's warm-up snapshot is restored many times.
//    Connected-state traffic, sniff/hold and DM1 codecs dominate;
//    piconet creation runs once per point.
//  * service -- btsc-sweepd in-process: one driving thread keeps 4 jobs
//    outstanding against 2 workers, each job running 2 sweep threads,
//    journaled and with a durable checkpoint directory. The only
//    workload that writes.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "runner/scenarios.hpp"
#include "service/sweepd.hpp"
#include "sim/rng.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for job state and checkpoints.
  std::string work_dir;
  /// Where the traced run writes its spans (one JSON object per line).
  std::string trace_file;
  /// Self-test hook: "digest" corrupts the reference digest of a sweep
  /// workload, "artifact" corrupts one service artifact on disk. Either
  /// must make the run report correct=false.
  std::string corrupt;
};

/// One sweep as a user would request it from btsc-sweep.
struct SweepSpec {
  std::string scenario;
  btsc::runner::ScenarioRequest request;
};

/// Sweep threads of the study workloads: min(4, nproc).
int study_threads();

/// A non-zero sweep base seed derived from the workload seed.
std::uint64_t derived_seed(std::uint64_t workload_seed, std::uint64_t stream,
                           std::uint64_t index);

/// The sweeps one pass of a study workload runs ("creation": Fig. 8;
/// "lowpower": Figs. 10-12), at `threads` sweep threads.
std::vector<SweepSpec> study(const std::string& workload, std::uint64_t seed,
                             int threads);

/// Runs the sweeps of `specs` back to back.
std::vector<btsc::runner::SweepResult> run_sweeps(
    const std::vector<SweepSpec>& specs);

// ---- service ----

/// The ScenarioRequest btsc-sweepd builds from a job spec (minus the
/// journal, checkpoint directory and drain wiring): what a direct
/// run_scenario of the same spec uses.
btsc::runner::ScenarioRequest request_of(const btsc::service::JobSpec& spec);

/// Seeded job generator of the service workload. Jobs come in blocks of
/// six: three small Fig. 8 creation jobs and one each of Figs. 10, 11 and
/// 12 (quick windows, fork warm-up), in a seeded order. In every block
/// three jobs reuse an earlier (scenario, base seed) of their scenario
/// when one exists, so their warm-ups can hit the service's checkpoint
/// cache; the others draw a fresh base seed and miss.
class JobMix {
 public:
  explicit JobMix(std::uint64_t seed);
  btsc::service::JobSpec next();

 private:
  void refill();

  btsc::sim::Rng rng_;
  std::uint64_t seed_;
  std::uint64_t issued_ = 0;
  std::uint64_t fresh_ = 0;
  std::vector<std::pair<std::string, bool>> block_;  // (scenario, reuse)
  std::vector<std::pair<std::string, std::uint64_t>> used_;
};

/// One finished job of a closed-loop session.
struct JobRecord {
  btsc::service::JobSpec spec;
  btsc::service::JobState state = btsc::service::JobState::kQueued;
  double latency_s = 0.0;     // submit() until the job reads finished
  double queue_wait_s = 0.0;  // submit() until first seen running
  double run_s = 0.0;         // JobStatus::wall_s
  std::uint64_t committed = 0;
};

struct SessionResult {
  std::vector<JobRecord> finished;
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  double wall_s = 0.0;
};

/// Closed loop: keeps `depth` jobs outstanding, submitting the next job
/// only when one finishes, until `seconds` have passed or `max_jobs` were
/// submitted; then waits for the outstanding ones.
SessionResult closed_loop(btsc::service::SweepService& svc,
                          const std::function<btsc::service::JobSpec()>& next,
                          int depth, double seconds, std::size_t max_jobs);

/// A result artifact with the kernel_* telemetry entries removed (they
/// count warm-ups a checkpoint hit skipped, so they differ between a
/// cached job and a direct run; the repo's durability gates strip them
/// the same way).
std::string strip_kernel_meta(const std::string& artifact);

/// The artifact a direct, single-threaded run_scenario of `spec` writes.
std::string reference_artifact(const btsc::service::JobSpec& spec);

/// Reads a whole file ("" when missing).
std::string read_file(const std::string& path);

/// Checks every finished job's artifact against a direct single-threaded
/// run of its spec, computing each distinct spec once on up to `threads`
/// threads. Returns the number of mismatching jobs.
std::uint64_t verify_artifacts(btsc::service::SweepService& svc,
                               const std::vector<JobRecord>& jobs,
                               int threads);

// ---- entry points ----

/// Untraced runs: every end-to-end metric.
Outcome run_study_workload(const Options& opt);
Outcome run_service_workload(const Options& opt);
/// Traced run: every per-layer metric (layers.cpp).
Outcome run_traced(const Options& opt);

/// setup_s: median over several fresh processes of the time from main()
/// to the workload's first result (see setup_probe).
double measure_setup(const Options& opt, const std::string& self_exe);
/// Body of one setup child: returns its time to first result.
double setup_probe(const std::string& workload, const std::string& dir);

}  // namespace perfbench
