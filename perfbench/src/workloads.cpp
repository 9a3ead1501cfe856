#include "workloads.hpp"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/report.hpp"
#include "runner/warmup_store.hpp"
#include "sim/rng.hpp"

extern char** environ;

namespace perfbench {

namespace fs = std::filesystem;
using btsc::runner::ScenarioRequest;
using btsc::runner::SweepResult;
using btsc::runner::WarmupMode;
using btsc::service::JobSpec;
using btsc::service::JobState;
using btsc::service::SweepService;

namespace {

/// Replications per point of the low-power sweeps (the registry default
/// is one; several make every warm-up snapshot serve several restores).
constexpr int kLowpowerReplications = 4;

/// Service shape: a closed loop of 4 outstanding jobs against 2 workers,
/// each job running 2 sweep threads (4 threads busy at most).
constexpr int kServiceDepth = 4;
constexpr int kServiceWorkers = 2;
constexpr int kJobThreads = 2;

/// Fresh processes timed for setup_s.
constexpr int kSetupProbes = 11;

bool terminal(JobState s) {
  return s == JobState::kDone || s == JobState::kQuarantined ||
         s == JobState::kFailed;
}

std::uint64_t combined_digest(const std::vector<SweepResult>& results) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const auto& r : results) {
    const std::uint64_t d = digest(r);
    h = fnv1a(&d, sizeof(d), h);
  }
  return h;
}

std::uint64_t total_replications(const std::vector<SweepResult>& results) {
  std::uint64_t n = 0;
  for (const auto& r : results) n += replications_of(r);
  return n;
}

}  // namespace

int study_threads() { return std::min(4, usable_cpus()); }

std::uint64_t derived_seed(std::uint64_t workload_seed, std::uint64_t stream,
                           std::uint64_t index) {
  const std::uint64_t s =
      btsc::sim::Rng::derive_stream_seed(workload_seed, stream, index);
  return s == 0 ? 1 : s;  // 0 would select the scenario's default seed
}

std::vector<SweepSpec> study(const std::string& workload, std::uint64_t seed,
                             int threads) {
  std::vector<SweepSpec> out;
  if (workload == "creation") {
    SweepSpec s{"fig08", {}};
    s.request.threads = threads;
    s.request.base_seed = derived_seed(seed, 8, 0);
    out.push_back(std::move(s));
  } else if (workload == "lowpower") {
    const std::pair<const char*, std::uint64_t> figs[] = {
        {"fig10", 10}, {"fig11", 11}, {"fig12", 12}};
    for (const auto& [id, stream] : figs) {
      SweepSpec s{id, {}};
      s.request.threads = threads;
      s.request.replications = kLowpowerReplications;
      s.request.warmup = WarmupMode::kFork;
      s.request.base_seed = derived_seed(seed, stream, 0);
      out.push_back(std::move(s));
    }
  } else {
    throw std::invalid_argument("not a study workload: " + workload);
  }
  return out;
}

std::vector<SweepResult> run_sweeps(const std::vector<SweepSpec>& specs) {
  std::vector<SweepResult> out;
  out.reserve(specs.size());
  for (const auto& s : specs) {
    out.push_back(btsc::runner::run_scenario(s.scenario, s.request));
  }
  return out;
}

// ---- study workloads ----

Outcome run_study_workload(const Options& opt) {
  const int threads = study_threads();
  const auto specs = study(opt.workload, opt.seed, threads);
  auto serial = specs;
  for (auto& s : serial) s.request.threads = 1;

  // The determinism contract: every timed pass must reproduce, bit for
  // bit, an untimed single-threaded run of the same seed.
  const auto reference = run_sweeps(serial);
  std::uint64_t want = combined_digest(reference);
  if (opt.corrupt == "digest") want ^= 1;
  const std::uint64_t reps_per_pass = total_replications(reference);
  for (const auto& s : specs) {
    std::printf("sweep: %s base_seed=%llu threads=%d replications/pass=%llu\n",
                s.scenario.c_str(),
                static_cast<unsigned long long>(s.request.base_seed), threads,
                static_cast<unsigned long long>(reps_per_pass));
  }

  Outcome out;
  std::vector<double> walls;
  std::vector<double> rates;
  std::uint64_t passes = 0;
  const CpuTicks ticks = CpuTicks::now();
  const auto t0 = Clock::now();
  do {
    const auto ts = Clock::now();
    bool ok = false;
    try {
      const auto results = run_sweeps(specs);
      ok = combined_digest(results) == want;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: sweep failed: %s\n", e.what());
    }
    const double wall = since(ts);
    ++passes;
    out.attempted += reps_per_pass;
    if (!ok) {
      out.correct = false;
      out.failed += reps_per_pass;
      continue;
    }
    walls.push_back(wall);
    rates.push_back(static_cast<double>(reps_per_pass) / wall);
  } while (since(t0) < opt.seconds);
  const double phase = since(t0);

  const Tail t = tail(walls);
  std::printf(
      "passes=%llu ok=%zu phase_s=%.3f host_steal_share=%.4f "
      "job_latency_tail_s=%s\n",
      static_cast<unsigned long long>(passes), walls.size(), phase,
      steal_share_since(ticks), describe(t).c_str());
  out.add("reps_per_s", median(rates), "1/s");
  out.add("jobs_per_s", static_cast<double>(walls.size()) / phase, "1/s");
  out.add("job_latency_p50_s", median(walls), "s");
  out.add("job_latency_tail_s", t.value, "s");
  return out;
}

// ---- service ----

ScenarioRequest request_of(const JobSpec& spec) {
  ScenarioRequest req;
  req.threads = spec.threads;
  req.replications = spec.replications;
  req.quick = spec.quick;
  req.base_seed = spec.base_seed;
  req.max_points = spec.max_points;
  req.warmup = spec.warmup == "legacy" ? WarmupMode::kLegacy
               : spec.warmup == "cold" ? WarmupMode::kCold
                                       : WarmupMode::kFork;
  req.rep_timeout_s = spec.rep_timeout_s;
  req.max_retries = spec.max_retries;
  req.keep_going = spec.keep_going;
  return req;
}

JobMix::JobMix(std::uint64_t seed)
    : rng_(derived_seed(seed, 0x5e, 0)), seed_(seed) {}

void JobMix::refill() {
  std::vector<std::string> kinds = {"fig08", "fig10", "fig08",
                                    "fig11", "fig08", "fig12"};
  std::vector<bool> reuse = {true, true, true, false, false, false};
  for (std::size_t i = kinds.size() - 1; i > 0; --i) {
    std::swap(kinds[i], kinds[rng_.uniform(0, i)]);
    const auto j = rng_.uniform(0, i);
    const bool tmp = reuse[i];
    reuse[i] = reuse[j];
    reuse[j] = tmp;
  }
  block_.clear();
  for (std::size_t i = kinds.size(); i-- > 0;) {
    block_.emplace_back(kinds[i], reuse[i]);  // consumed from the back
  }
}

JobSpec JobMix::next() {
  if (block_.empty()) refill();
  const auto [scenario, reuse] = block_.back();
  block_.pop_back();

  std::vector<std::uint64_t> earlier;
  for (const auto& [s, seed] : used_) {
    if (s == scenario) earlier.push_back(seed);
  }
  std::uint64_t base = 0;
  if (reuse && !earlier.empty()) {
    base = earlier[rng_.uniform(0, earlier.size() - 1)];
  } else {
    base = derived_seed(seed_, 0x5f, fresh_++);
    used_.emplace_back(scenario, base);
  }

  JobSpec spec;
  char id[32];
  std::snprintf(id, sizeof(id), "job-%06llu",
                static_cast<unsigned long long>(issued_++));
  spec.id = id;
  spec.scenario = scenario;
  spec.threads = kJobThreads;
  spec.quick = true;
  // Six creation replications per BER make a creation job about as long
  // as a low-power job, so job latency is one mode, not two.
  spec.replications = scenario == "fig08" ? 6 : 2;
  spec.base_seed = base;
  spec.warmup = "fork";
  return spec;
}

SessionResult closed_loop(SweepService& svc,
                          const std::function<JobSpec()>& next, int depth,
                          double seconds, std::size_t max_jobs) {
  struct Pending {
    JobSpec spec;
    Clock::time_point submitted;
    double queue_wait_s = -1.0;
  };
  SessionResult out;
  std::map<std::string, Pending> pending;
  const auto t0 = Clock::now();
  for (;;) {
    const bool open = since(t0) < seconds && out.submitted < max_jobs;
    while (open && pending.size() < static_cast<std::size_t>(depth) &&
           out.submitted < max_jobs) {
      JobSpec spec = next();
      const auto ts = Clock::now();
      const std::string why = svc.submit(spec);
      ++out.submitted;
      if (!why.empty()) {
        std::fprintf(stderr, "perfbench: job %s rejected: %s\n",
                     spec.id.c_str(), why.c_str());
        ++out.rejected;
        break;
      }
      std::string id = spec.id;
      pending.emplace(std::move(id), Pending{std::move(spec), ts});
    }
    if (pending.empty() && !open) break;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    for (const auto& st : svc.status()) {
      auto it = pending.find(st.spec.id);
      if (it == pending.end()) continue;
      Pending& p = it->second;
      if (st.state != JobState::kQueued && p.queue_wait_s < 0) {
        p.queue_wait_s = since(p.submitted);
      }
      if (!terminal(st.state)) continue;
      JobRecord r;
      r.spec = p.spec;
      r.state = st.state;
      r.latency_s = since(p.submitted);
      r.queue_wait_s = p.queue_wait_s;
      r.run_s = st.wall_s;
      r.committed = st.committed;
      out.finished.push_back(std::move(r));
      pending.erase(it);
    }
  }
  out.wall_s = since(t0);
  return out;
}

std::string strip_kernel_meta(const std::string& artifact) {
  static const std::regex kernel_meta(", \"kernel_[a-z_]+\": \"[0-9]+\"");
  return std::regex_replace(artifact, kernel_meta, "");
}

std::string reference_artifact(const JobSpec& spec) {
  ScenarioRequest req = request_of(spec);
  req.threads = 1;
  const SweepResult r = btsc::runner::run_scenario(spec.scenario, req);
  std::ostringstream os;
  btsc::core::JsonReporter reporter(os);
  btsc::runner::write_result(r, reporter);
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::uint64_t verify_artifacts(SweepService& svc,
                               const std::vector<JobRecord>& jobs,
                               int threads) {
  // Jobs that share a spec (all but the id) must share an artifact, so
  // each distinct spec runs once.
  const auto spec_key = [](JobSpec spec) {
    spec.id = "x";
    return btsc::service::format_job_line(spec);
  };
  std::map<std::string, std::size_t> index;
  std::vector<const JobSpec*> specs;
  for (const auto& j : jobs) {
    if (index.emplace(spec_key(j.spec), specs.size()).second) {
      specs.push_back(&j.spec);
    }
  }
  std::vector<std::string> refs(specs.size());
  std::atomic<std::size_t> at{0};
  std::mutex err_mu;
  std::string err;
  auto worker = [&] {
    for (std::size_t i = at.fetch_add(1); i < specs.size();
         i = at.fetch_add(1)) {
      try {
        refs[i] = strip_kernel_meta(reference_artifact(*specs[i]));
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(err_mu);
        err = e.what();
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) pool.emplace_back(worker);
  for (auto& th : pool) th.join();
  if (!err.empty()) throw std::runtime_error("reference run failed: " + err);

  std::uint64_t bad = 0;
  for (const auto& j : jobs) {
    const std::string& want = refs[index.at(spec_key(j.spec))];
    const std::string got =
        strip_kernel_meta(read_file(svc.artifact_path(j.spec.id)));
    if (j.state != JobState::kDone || got != want) {
      std::fprintf(stderr, "perfbench: job %s artifact mismatch\n",
                   j.spec.id.c_str());
      ++bad;
    }
  }
  std::printf("verified %zu jobs against %zu direct single-thread runs\n",
              jobs.size(), specs.size());
  return bad;
}

Outcome run_service_workload(const Options& opt) {
  btsc::service::ServiceConfig cfg;
  cfg.jobs_dir = opt.work_dir + "/service-" + std::to_string(::getpid());
  cfg.workers = kServiceWorkers;
  cfg.queue_limit = 64;
  fs::remove_all(cfg.jobs_dir);

  Outcome out;
  SessionResult s;
  btsc::runner::WarmupStoreStats w0, w1;
  {
    SweepService svc(cfg);
    svc.recover();
    svc.start();
    w0 = btsc::runner::warmup_store_stats();
    const CpuTicks ticks = CpuTicks::now();
    JobMix mix(opt.seed);
    s = closed_loop(svc, [&] { return mix.next(); }, kServiceDepth,
                    opt.seconds, SIZE_MAX);
    w1 = btsc::runner::warmup_store_stats();
    std::printf("session_s=%.3f host_steal_share=%.4f\n", s.wall_s,
                steal_share_since(ticks));
    svc.wait_idle();

    if (opt.corrupt == "artifact" && !s.finished.empty()) {
      const std::string path = svc.artifact_path(s.finished.front().spec.id);
      std::string bytes = read_file(path);
      if (!bytes.empty()) bytes[bytes.size() / 2] ^= 1;
      std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    }
    const std::uint64_t mismatched =
        verify_artifacts(svc, s.finished, study_threads());
    out.attempted = s.submitted;
    out.failed = s.rejected + mismatched;
    out.correct = mismatched == 0 && s.rejected == 0;
  }
  fs::remove_all(cfg.jobs_dir);

  std::vector<double> latency;
  std::map<std::string, std::vector<double>> by_scenario;
  std::uint64_t reps = 0;
  for (const auto& j : s.finished) {
    latency.push_back(j.latency_s);
    by_scenario[j.spec.scenario].push_back(j.latency_s);
    reps += j.committed;
  }
  for (const auto& [scenario, v] : by_scenario) {
    std::printf("jobs %s: %zu, latency p50 %.4f s\n", scenario.c_str(),
                v.size(), median(v));
  }
  const std::uint64_t hits = w1.hits - w0.hits;
  const std::uint64_t misses = w1.misses - w0.misses;
  const Tail t = tail(latency);
  std::printf(
      "jobs: submitted=%llu finished=%zu rejected=%llu replications=%llu "
      "warm_hit_share=%.3f (%llu hits, %llu misses) job_latency_tail_s=%s\n",
      static_cast<unsigned long long>(s.submitted), s.finished.size(),
      static_cast<unsigned long long>(s.rejected),
      static_cast<unsigned long long>(reps),
      hits + misses ? static_cast<double>(hits) /
                          static_cast<double>(hits + misses)
                    : 0.0,
      static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(misses), describe(t).c_str());
  out.add("reps_per_s", static_cast<double>(reps) / s.wall_s, "1/s");
  out.add("jobs_per_s", static_cast<double>(s.finished.size()) / s.wall_s,
          "1/s");
  out.add("job_latency_p50_s", median(latency), "s");
  out.add("job_latency_tail_s", t.value, "s");
  return out;
}

// ---- setup ----

double setup_probe(const std::string& workload, const std::string& dir) {
  // Time to the first result in a fresh process: lazy initialisation,
  // cold caches and the first system construction all land here. Inputs
  // are the scenarios' default seeds, so every probe does the same work.
  const auto t0 = Clock::now();
  if (workload == "creation" || workload == "lowpower") {
    ScenarioRequest r;
    r.threads = 1;
    r.replications = 1;
    r.max_points = 1;
    if (workload == "lowpower") r.warmup = WarmupMode::kFork;
    btsc::runner::run_scenario(workload == "creation" ? "fig08" : "fig10", r);
    return since(t0);
  }
  btsc::service::ServiceConfig cfg;
  cfg.jobs_dir = dir;
  cfg.workers = kServiceWorkers;
  SweepService svc(cfg);
  svc.recover();
  svc.start();
  JobSpec spec;
  spec.id = "setup";
  spec.scenario = "fig08";
  spec.threads = 1;
  spec.quick = true;
  spec.replications = 1;
  spec.max_points = 1;
  const std::string why = svc.submit(spec);
  if (!why.empty()) throw std::runtime_error("setup job rejected: " + why);
  for (;;) {
    const auto st = svc.status();
    if (!st.empty() && terminal(st.front().state)) {
      if (st.front().state != JobState::kDone) {
        throw std::runtime_error("setup job failed: " + st.front().error);
      }
      return since(t0);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

double measure_setup(const Options& opt, const std::string& self_exe) {
  std::vector<double> samples;
  for (int k = 0; k < kSetupProbes; ++k) {
    const std::string dir = opt.work_dir + "/setup-" +
                            std::to_string(::getpid()) + "-" +
                            std::to_string(k);
    fs::remove_all(dir);
    std::vector<std::string> args = {self_exe, "--setup-probe", "--workload",
                                     opt.workload, "--work-dir", dir};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("setup: pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, self_exe.c_str(), &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(fds[1]);
    std::string text;
    if (rc == 0) {
      char buf[256];
      for (ssize_t n; (n = ::read(fds[0], buf, sizeof(buf))) > 0;) {
        text.append(buf, static_cast<std::size_t>(n));
      }
    }
    ::close(fds[0]);
    if (rc != 0) throw std::runtime_error("setup: cannot spawn probe");
    int status = 0;
    ::waitpid(pid, &status, 0);
    fs::remove_all(dir);
    const auto at = text.find("setup_s=");
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        at == std::string::npos) {
      throw std::runtime_error("setup probe failed: " + text);
    }
    samples.push_back(std::stod(text.substr(at + 8)));
  }
  return median(samples);
}

}  // namespace perfbench
