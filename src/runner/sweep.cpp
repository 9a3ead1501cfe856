#include "runner/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

namespace btsc::runner {

int resolve_thread_count(int requested) {
  if (requested > 0) return requested;
  if (requested < 0) {
    throw std::invalid_argument(
        "thread count must be >= 0 (0 = hardware concurrency)");
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

namespace detail {

namespace {

using Clock = std::chrono::steady_clock;

/// Retry backoff: kRetryBackoffMs before the first retry, doubled per
/// attempt, capped at kMaxRetryBackoffMs.
constexpr double kRetryBackoffMs = 10.0;
constexpr double kMaxRetryBackoffMs = 10'000.0;

/// State shared between the supervisor (calling thread), its workers,
/// and any abandoned worker that outlives the grid run. Heap-owned via
/// shared_ptr so nothing dangles no matter who exits last. All per-task
/// bookkeeping is guarded by `mu`; `next` and `failed` are lock-free.
struct SupShared {
  enum class St : std::uint8_t { kPending, kRunning, kDone, kFailed,
                                 kAbandoned };

  SupShared(std::size_t n, const SweepOptions& o,
            const std::atomic<bool>* s)
      : total(n), opt(o), stop(s), state(n, St::kPending), start(n),
        attempts(n, 0), worker_of(n, 0), cancel(n) {}

  const std::size_t total;
  const SweepOptions opt;
  /// Cooperative drain flag (see SweepExecution::stop).
  const std::atomic<bool>* const stop;
  std::function<void(std::size_t, CommitToken&)> task;

  std::atomic<std::size_t> next{0};
  /// Fail-fast: an unsupervised attempt threw; claim nothing more.
  std::atomic<bool> failed{false};

  std::mutex mu;
  std::condition_variable cv;  // signalled on every settle
  std::vector<St> state;
  std::vector<Clock::time_point> start;
  std::vector<int> attempts;
  std::vector<std::size_t> worker_of;
  // Per-task cancellation flags. deque: element addresses are stable and
  // atomics need no move construction.
  std::deque<std::atomic<bool>> cancel;
  std::vector<TaskFailure> failures;
  std::size_t settled = 0;  // kDone + kFailed + kAbandoned
};

void settle_locked(SupShared& sh) {
  ++sh.settled;
  sh.cv.notify_one();
}

/// True once workers must claim no new task: a drain was requested, or
/// a fail-fast grid saw its first failure.
bool sup_stopping(const SupShared& sh) {
  return sh.failed.load(std::memory_order_relaxed) ||
         (sh.stop != nullptr && sh.stop->load(std::memory_order_relaxed));
}

/// Worker loop: pull tasks from the shared counter, retry throwing
/// attempts with exponential backoff, and exit immediately if the
/// supervisor abandoned the current task (a replacement worker has
/// already been spawned — continuing would double the pool).
void supervised_worker(const std::shared_ptr<SupShared>& sh,
                       std::size_t worker_id) {
  for (;;) {
    if (sup_stopping(*sh)) return;
    const std::size_t i = sh->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= sh->total) return;

    int attempt = 0;
    std::string last_error;
    for (;;) {
      ++attempt;
      {
        std::lock_guard<std::mutex> lock(sh->mu);
        sh->state[i] = SupShared::St::kRunning;
        sh->start[i] = Clock::now();
        sh->attempts[i] = attempt;
        sh->worker_of[i] = worker_id;
      }
      CommitToken token(sh.get(), i, &sh->cancel[i]);
      bool threw = false;
      try {
        sh->task(i, token);
      } catch (const std::exception& e) {
        threw = true;
        last_error = e.what();
      } catch (...) {
        threw = true;
        last_error = "unknown error";
      }

      std::unique_lock<std::mutex> lock(sh->mu);
      if (sh->state[i] == SupShared::St::kAbandoned) {
        // The supervisor gave this task (and this thread) up while the
        // attempt ran; it already quarantined the task and spawned a
        // replacement. Nothing left for this thread to do.
        return;
      }
      if (!threw) {
        if (sh->state[i] == SupShared::St::kRunning) {
          // The task returned without committing a result (nothing to
          // publish); still settles.
          sh->state[i] = SupShared::St::kDone;
          settle_locked(*sh);
        }
        break;
      }
      if (attempt <= sh->opt.max_retries) {
        sh->state[i] = SupShared::St::kPending;
        lock.unlock();
        // Exponential backoff, chunked so an abandon lands promptly.
        const double wait_ms =
            std::min(kRetryBackoffMs * static_cast<double>(1 << (attempt - 1)),
                     kMaxRetryBackoffMs);
        const auto until =
            Clock::now() + std::chrono::duration<double, std::milli>(wait_ms);
        while (Clock::now() < until &&
               !sh->cancel[i].load(std::memory_order_relaxed)) {
          // A drain aborts the backoff: the task stays kPending and
          // unsettled; a resumed run simply retries it from scratch.
          if (sup_stopping(*sh)) return;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (sup_stopping(*sh)) return;
        continue;
      }
      sh->state[i] = SupShared::St::kFailed;
      sh->failures.push_back({i, last_error, attempt, false});
      if (!sh->opt.supervised()) {
        sh->failed.store(true, std::memory_order_relaxed);
      }
      settle_locked(*sh);
      break;
    }
  }
}

}  // namespace

bool CommitToken::commit(const std::function<void()>& publish) {
  auto* sh = static_cast<SupShared*>(shared_);
  std::lock_guard<std::mutex> lock(sh->mu);
  if (sh->state[index_] == SupShared::St::kAbandoned) return false;
  publish();
  sh->state[index_] = SupShared::St::kDone;
  settle_locked(*sh);
  return true;
}

void run_supervised_grid(std::size_t total, const SweepOptions& opt,
                         const std::atomic<bool>* stop,
                         const std::function<void(std::size_t, CommitToken&)>&
                             attempt,
                         std::vector<TaskFailure>& failures) {
  const int workers = resolve_thread_count(opt.threads);
  if (total == 0) return;

  auto sh = std::make_shared<SupShared>(total, opt, stop);
  sh->task = attempt;

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  try {
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back(supervised_worker, sh,
                        static_cast<std::size_t>(pool.size()));
    }
  } catch (...) {
    // Thread creation failed mid-spawn: drain the counter so started
    // workers exit, join them, then surface the error.
    sh->next.store(sh->total, std::memory_order_relaxed);
    for (auto& th : pool) th.join();
    throw;
  }

  const bool watchdog = opt.rep_timeout_s > 0.0;
  const auto deadline =
      std::chrono::duration<double>(watchdog ? opt.rep_timeout_s : 0.0);
  {
    std::unique_lock<std::mutex> lock(sh->mu);
    while (sh->settled < sh->total) {
      if (sup_stopping(*sh)) {
        // Drain or fail-fast: let running attempts finish (they still
        // commit and journal), but stop waiting on tasks no worker will
        // ever claim.
        bool any_running = false;
        for (std::size_t i = 0; i < sh->total; ++i) {
          if (sh->state[i] == SupShared::St::kRunning) {
            any_running = true;
            break;
          }
        }
        if (!any_running) break;
      }
      if (!watchdog) {
        // A bounded wait (instead of a bare cv.wait) keeps the drain
        // check live even when no settle ever arrives. A fail-fast stop
        // needs none: the failing attempt settles under the lock.
        if (stop != nullptr) {
          sh->cv.wait_for(lock, std::chrono::milliseconds(10));
        } else {
          sh->cv.wait(lock);
        }
        continue;
      }
      sh->cv.wait_for(lock, std::chrono::milliseconds(2));
      const auto now = Clock::now();
      for (std::size_t i = 0; i < sh->total; ++i) {
        if (sh->state[i] != SupShared::St::kRunning) continue;
        if (now - sh->start[i] < deadline) continue;
        // Deadline overrun: abandon the attempt. The cancel flag asks
        // the body to exit cooperatively; whether or not it does, the
        // commit fence guarantees its result is discarded. The hung
        // worker's thread is detached (it may never return) and a
        // replacement keeps the pool at full strength.
        sh->state[i] = SupShared::St::kAbandoned;
        sh->cancel[i].store(true, std::memory_order_relaxed);
        sh->failures.push_back(
            {i,
             "replication deadline exceeded (" +
                 std::to_string(opt.rep_timeout_s) + " s)",
             sh->attempts[i], true});
        settle_locked(*sh);
        const std::size_t wid = sh->worker_of[i];
        pool[wid].detach();
        pool.emplace_back(supervised_worker, sh,
                          static_cast<std::size_t>(pool.size()));
      }
    }
  }

  for (auto& th : pool) {
    if (th.joinable()) th.join();
  }

  {
    std::lock_guard<std::mutex> lock(sh->mu);
    failures = sh->failures;
  }
  std::sort(failures.begin(), failures.end(),
            [](const TaskFailure& a, const TaskFailure& b) {
              return a.index < b.index;
            });
}

}  // namespace detail
}  // namespace btsc::runner
