// Parallel Monte-Carlo sweep engine.
//
// Every figure of the paper is the same computation: for each parameter
// point (a BER, a duty cycle, a Tsniff...) run N independent replications
// of a simulation and aggregate their samples. SweepRunner factors that
// pattern out once: it shards the (point, replication) task grid across a
// std::thread pool and folds the per-replication samples back into one
// aggregate per point.
//
// Determinism contract: the sample produced by replication r of point p
// depends only on (p, r) — its seed is derived as a pure function
// sim::Rng::derive_stream_seed(base_seed, p, r), never from shared state —
// and samples are folded in replication order after all workers have
// finished. The result is therefore bitwise identical at any thread
// count, which the runner determinism test asserts for 1, 2 and 8
// threads.
//
// One executor runs every grid (detail::run_supervised_grid): `threads`
// spawned workers claim tasks from a shared counter, publish through a
// commit fence, and stop claiming on a drain (SweepExecution::stop).
// What happens on failure is the only thing the options choose, and
// neither choice moves a bit of the merged result:
//
//  * Fail-fast (the default): the first throwing replication stops new
//    claims, in-flight attempts finish, and run() rethrows the error
//    wrapped with its (point, replication, seed).
//
//  * Supervised (SweepOptions::{rep_timeout_s, max_retries,
//    keep_going}): a throwing replication is retried with exponential
//    backoff and then quarantined — recorded as (point, replication,
//    seed, error) in SweepExecution::quarantined — instead of aborting
//    the sweep; a replication that overruns the per-attempt deadline is
//    abandoned (its worker thread detached, a replacement spawned) and
//    quarantined as a timeout. The surviving replications still merge
//    deterministically.
//
// Journaling/resume (SweepExecution::journal) works under both: every
// completed replication's sample is serialized and fsync'd to an
// append-only journal; a resumed run deserializes the journaled samples
// instead of re-running their bodies. Because a sample depends only on
// (p, r), replay-from-journal merges to bitwise-identical results — the
// kill-and-resume CI gate byte-compares the final artifacts.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/journal.hpp"
#include "sim/rng.hpp"
#include "sim/snapshot.hpp"

namespace btsc::runner {

/// Identifies one replication of one parameter point within a sweep.
struct Replication {
  /// Index of the parameter point in the sweep's point vector.
  std::size_t point_index = 0;
  /// Index of this replication within the point, 0 <= i < replications.
  std::size_t replication_index = 0;
  /// Deterministically derived seed for this replication: a pure function
  /// of (base_seed, point_index, replication_index). Simulations must draw
  /// all their randomness from it.
  std::uint64_t seed = 0;
  /// Cooperative cancellation flag, set by the supervisor when this
  /// replication overruns its deadline (null outside supervised runs).
  /// Long-running bodies SHOULD poll cancelled() and return early — an
  /// abandoned attempt's result is discarded either way, but a
  /// cooperative exit releases the worker thread instead of leaking it
  /// for the process lifetime.
  const std::atomic<bool>* cancel = nullptr;

  bool cancelled() const {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }
};

/// Knobs of a sweep run.
struct SweepOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency(). The
  /// calling thread only waits (and watches deadlines when
  /// rep_timeout_s > 0), so `threads` workers are spawned even for 1.
  int threads = 1;
  /// Independent replications per parameter point (>= 1).
  int replications = 1;
  /// Root of the per-replication seed derivation.
  std::uint64_t base_seed = 1;
  /// Common random numbers: replication r gets the SAME seed at every
  /// parameter point (stream index 0 instead of the point index), so
  /// cross-point comparisons within one figure are paired on identical
  /// random streams — the variance-reduction scheme the activity and
  /// coexistence figures rely on. Off by default: independent points
  /// (e.g. BER curves with many replications) want distinct streams.
  bool common_random_numbers = false;

  // ---- supervision (any non-default value replaces fail-fast) ----

  /// Per-attempt deadline in seconds; a replication still running past
  /// it is abandoned and quarantined as a timeout. <= 0 disables the
  /// watchdog.
  double rep_timeout_s = 0.0;
  /// Extra attempts after a throwing replication before it is
  /// quarantined (0 = fail/quarantine on the first throw). Retries back
  /// off 10 ms, doubled per attempt, capped at 10 s. Timeouts are never
  /// retried: a deterministic simulation that hung once will hang again.
  int max_retries = 0;
  /// Quarantine failing replications and keep sweeping instead of
  /// aborting on the first error. Implied by rep_timeout_s/max_retries;
  /// set it alone to get quarantine semantics without deadline or retry.
  bool keep_going = false;

  bool supervised() const {
    return rep_timeout_s > 0.0 || max_retries > 0 || keep_going;
  }
};

/// One replication the supervisor gave up on: everything needed to
/// reproduce the failure standalone (the scenario id travels in the
/// surrounding report/CLI output).
struct QuarantineEntry {
  std::size_t point_index = 0;
  std::size_t replication_index = 0;
  std::uint64_t seed = 0;
  /// what() of the final failing attempt, or the timeout description.
  std::string error;
  /// Attempts consumed (1 = failed first try, no retries granted).
  int attempts = 1;
  /// True when the replication was abandoned on deadline rather than
  /// throwing.
  bool timed_out = false;
};

/// Per-run side channel of SweepRunner::run: the optional journal in,
/// the quarantine list and resume statistics out.
struct SweepExecution {
  /// When set, completed replications are appended to this journal and
  /// already-journaled ones are replayed instead of re-run.
  SweepJournal* journal = nullptr;
  /// Cooperative drain flag (e.g. the sweep service's SIGTERM handler).
  /// When non-null and set, workers stop CLAIMING new replications;
  /// attempts already in flight run to completion and journal normally,
  /// so a drained, journaled run resumes without re-running committed
  /// work.
  const std::atomic<bool>* stop = nullptr;
  /// Replications the supervisor quarantined, sorted by (point,
  /// replication). Empty for unsupervised runs (they abort on failure).
  std::vector<QuarantineEntry> quarantined;
  /// Replications replayed from the journal instead of executed.
  std::size_t journal_skipped = 0;
  /// True when `stop` cut the run short (some replications never ran):
  /// the merged result is partial and must not be published as a final
  /// artifact. False if the stop arrived after the grid had finished.
  bool stopped = false;
};

/// Resolves the effective worker count: `requested` if positive, else the
/// hardware concurrency (at least 1). Defined in sweep.cpp.
int resolve_thread_count(int requested);

namespace detail {

/// Handed to a task attempt: the only way to publish results.
/// commit() runs `publish` under the supervisor lock iff the task has
/// not been abandoned, so a deadline-abandoned attempt can never race
/// its replacement or the final merge. Defined in sweep.cpp.
class CommitToken {
 public:
  CommitToken(void* shared, std::size_t index,
              const std::atomic<bool>* cancel)
      : shared_(shared), index_(index), cancel_(cancel) {}

  /// Returns false (without running `publish`) if the attempt was
  /// abandoned; the caller must then discard its work.
  bool commit(const std::function<void()>& publish);

  /// The per-attempt cancellation flag, valid for this attempt's
  /// lifetime (pass into Replication::cancel).
  const std::atomic<bool>* cancel_flag() const { return cancel_; }

 private:
  void* shared_;
  std::size_t index_;
  const std::atomic<bool>* cancel_;
};

/// One failed task of a grid run (quarantined, or the fail-fast error),
/// pre-mapping to (point, replication).
struct TaskFailure {
  std::size_t index = 0;
  std::string error;
  int attempts = 1;
  bool timed_out = false;
};

/// The grid executor: runs `attempt(i, token)` for every i in
/// [0, total) on `opt.threads` spawned workers (resolved with
/// resolve_thread_count) while the calling thread waits, watching
/// per-attempt deadlines when opt.rep_timeout_s > 0. Supervised
/// (opt.supervised()): throwing attempts are retried with exponential
/// backoff up to opt.max_retries, then quarantined; deadline overruns
/// abandon the worker (detach + replace) and quarantine immediately.
/// Otherwise (fail-fast) the first throwing attempt stops new claims,
/// exactly as a set `stop` does. Either way in-flight attempts finish,
/// and failures come back sorted by index. Defined in sweep.cpp.
void run_supervised_grid(std::size_t total, const SweepOptions& opt,
                         const std::atomic<bool>* stop,
                         const std::function<void(std::size_t, CommitToken&)>&
                             attempt,
                         std::vector<TaskFailure>& failures);

template <class S>
concept MergeableSample = requires(S a, const S& b) { a.merge(b); };

/// A sample the journal can persist: the save/restore pair mirrors the
/// stats::Accumulator state codec contract.
template <class S>
concept JournalableSample =
    requires(S s, const S& cs, sim::SnapshotWriter& w, sim::SnapshotReader& r) {
      cs.save_state(w);
      s.restore_state(r);
    };

}  // namespace detail

/// Shards a sweep's replication grid across a thread pool.
///
/// `Sample` is whatever one replication produces — a struct of
/// stats::Accumulator / stats::RatioCounter partials, a row of numbers,
/// anything movable — that can fold another replication in
/// (`void merge(const Sample&)`, the parallel-reduction contract of
/// stats::Accumulator::merge) and round-trip through the journal
/// (the save_state/restore_state pair).
template <class Point, class Sample>
  requires detail::MergeableSample<Sample> &&
           detail::JournalableSample<Sample>
class SweepRunner {
 public:
  /// point -> replication -> sample functor. Must not touch shared mutable
  /// state: everything the simulation needs has to come from the point and
  /// the replication's derived seed.
  using Body = std::function<Sample(const Point&, const Replication&)>;

  explicit SweepRunner(SweepOptions options = {}) : options_(options) {
    if (options_.replications < 1) {
      throw std::invalid_argument("SweepRunner: replications must be >= 1");
    }
  }

  const SweepOptions& options() const { return options_; }

  /// Runs the full grid and returns one merged sample per point, in point
  /// order. Fail-fast: an exception thrown by `body` (or by the journal
  /// append) is rethrown here wrapped with the failing (point,
  /// replication, seed) — the lowest-index one if several in-flight
  /// attempts failed. Supervised: failures land in `ex.quarantined`
  /// instead and the surviving replications merge.
  std::vector<Sample> run(const std::vector<Point>& points, const Body& body,
                          SweepExecution& ex) const {
    const auto reps = static_cast<std::size_t>(options_.replications);
    const std::size_t total = points.size() * reps;

    // Captures values, not `this`: a deadline-abandoned worker keeps a
    // copy and may call it after this runner is destroyed.
    auto make_rep = [base_seed = options_.base_seed,
                     crn = options_.common_random_numbers,
                     reps](std::size_t i) {
      Replication rep;
      rep.point_index = i / reps;
      rep.replication_index = i % reps;
      rep.seed = sim::Rng::derive_stream_seed(
          base_seed, crn ? 0 : rep.point_index, rep.replication_index);
      return rep;
    };

    // Heap-shared so a deadline-abandoned worker (which may outlive this
    // call) keeps the storage alive; its writes are fenced off by
    // CommitToken, never by destruction order.
    auto slots =
        std::make_shared<std::vector<std::optional<Sample>>>(total);

    // Replay journaled replications, then run only the remainder.
    auto pending = std::make_shared<std::vector<std::size_t>>();
    pending->reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
      const Replication rep = make_rep(i);
      if (ex.journal != nullptr) {
        if (const SweepJournal::Record* rec = ex.journal->completed(
                rep.point_index, rep.replication_index)) {
          if (rec->seed != rep.seed) {
            throw JournalError(
                "journal: recorded seed mismatch at point=" +
                std::to_string(rep.point_index) + " replication=" +
                std::to_string(rep.replication_index) +
                " (journal from a different configuration?)");
          }
          sim::SnapshotReader r(rec->sample);
          Sample s{};
          s.restore_state(r);
          if (!r.at_end()) {
            throw sim::SnapshotError("journal: trailing sample bytes");
          }
          (*slots)[i].emplace(std::move(s));
          ++ex.journal_skipped;
          continue;
        }
      }
      pending->push_back(i);
    }

    // Everything an abandoned worker might still touch is owned by the
    // attempt closure via shared_ptr copies: the closure (and thus the
    // data) outlives run() for exactly as long as the detached thread
    // needs it.
    auto points_copy = std::make_shared<const std::vector<Point>>(points);
    auto body_copy = std::make_shared<const Body>(body);
    const auto attempt = [slots, points_copy, body_copy,
                          journal = ex.journal, pending, make_rep](
                             std::size_t k, detail::CommitToken& token) {
      const std::size_t i = (*pending)[k];
      Replication rep = make_rep(i);
      rep.cancel = token.cancel_flag();
      Sample s = (*body_copy)((*points_copy)[rep.point_index], rep);
      token.commit([&] {
        if (journal != nullptr) {
          sim::SnapshotWriter w;
          s.save_state(w);
          journal->append(rep.point_index, rep.replication_index, rep.seed,
                          w.take());
        }
        (*slots)[i].emplace(std::move(s));
      });
    };

    std::vector<detail::TaskFailure> failures;
    detail::run_supervised_grid(pending->size(), options_, ex.stop, attempt,
                                failures);

    for (const detail::TaskFailure& f : failures) {
      const Replication rep = make_rep((*pending)[f.index]);
      if (!options_.supervised()) {
        throw std::runtime_error(replication_context(rep) + ": " + f.error);
      }
      QuarantineEntry q;
      q.point_index = rep.point_index;
      q.replication_index = rep.replication_index;
      q.seed = rep.seed;
      q.error = f.error;
      q.attempts = f.attempts;
      q.timed_out = f.timed_out;
      ex.quarantined.push_back(std::move(q));
    }

    // A drain only "stopped" the run if replications are actually
    // missing; a stop that raced the natural end of the grid changes
    // nothing and the result stays publishable.
    if (ex.stop != nullptr && ex.stop->load(std::memory_order_relaxed)) {
      std::size_t have = 0;
      for (const auto& s : *slots) {
        if (s.has_value()) ++have;
      }
      ex.stopped = have + ex.quarantined.size() < total;
    }

    // Deterministic reduction: fold each point's replications in index
    // order, independent of which worker computed them. Quarantined
    // replications leave gaps; a fully-quarantined point degrades to a
    // default (empty-accumulator) sample rather than sinking the sweep.
    std::vector<Sample> merged;
    merged.reserve(points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
      std::optional<Sample> acc;
      for (std::size_t r = 0; r < reps; ++r) {
        std::optional<Sample>& s = (*slots)[p * reps + r];
        if (!s.has_value()) continue;
        if (!acc.has_value()) {
          acc.emplace(std::move(*s));
        } else {
          acc->merge(*s);
        }
      }
      merged.push_back(acc.has_value() ? std::move(*acc) : Sample{});
    }
    return merged;
  }

  std::vector<Sample> run(const std::vector<Point>& points,
                          const Body& body) const {
    SweepExecution ex;
    return run(points, body, ex);
  }

 private:
  static std::string replication_context(const Replication& rep) {
    return "sweep replication failed: point=" +
           std::to_string(rep.point_index) +
           " replication=" + std::to_string(rep.replication_index) +
           " seed=" + std::to_string(rep.seed);
  }

  SweepOptions options_;
};

}  // namespace btsc::runner
