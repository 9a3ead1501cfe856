// SweepRunner: sharding, deterministic seed derivation, in-order merge,
// fail-fast error propagation, drain, and journal failures.
#include "runner/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "io/fault.hpp"
#include "sim/rng.hpp"

namespace btsc::runner {
namespace {

/// Sample recording which (point, replication, seed) triples were folded,
/// in fold order.
struct TraceSample {
  std::vector<std::uint64_t> seeds;
  std::vector<std::size_t> reps;
  double sum = 0.0;

  void merge(const TraceSample& o) {
    seeds.insert(seeds.end(), o.seeds.begin(), o.seeds.end());
    reps.insert(reps.end(), o.reps.begin(), o.reps.end());
    sum += o.sum;
  }
  void save_state(sim::SnapshotWriter& w) const {
    w.u64(seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      w.u64(seeds[i]);
      w.u64(reps[i]);
    }
    w.f64(sum);
  }
  void restore_state(sim::SnapshotReader& r) {
    seeds.resize(r.u64());
    reps.resize(seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      seeds[i] = r.u64();
      reps[i] = r.u64();
    }
    sum = r.f64();
  }
};

/// One-replication trace of (point, replication) with a value that
/// depends only on the point and the derived seed.
TraceSample trace_body(const int& p, const Replication& rep) {
  sim::Rng rng(rep.seed);
  TraceSample s;
  s.seeds.push_back(rep.seed);
  s.reps.push_back(rep.replication_index);
  s.sum = static_cast<double>(p) * rng.uniform01();
  return s;
}

void expect_same(const std::vector<TraceSample>& got,
                 const std::vector<TraceSample>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t p = 0; p < want.size(); ++p) {
    EXPECT_EQ(got[p].seeds, want[p].seeds);
    EXPECT_EQ(got[p].reps, want[p].reps);
    EXPECT_EQ(got[p].sum, want[p].sum);
  }
}

std::string temp_journal(const std::string& name) {
  const std::string path = testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

JournalConfig journal_config(const SweepOptions& opt, std::size_t points) {
  JournalConfig cfg;
  cfg.scenario = "test";
  cfg.base_seed = opt.base_seed;
  cfg.replications = static_cast<std::uint32_t>(opt.replications);
  cfg.points = static_cast<std::uint32_t>(points);
  return cfg;
}

TEST(SeedDerivationTest, PureFunctionOfInputs) {
  const auto a = sim::Rng::derive_stream_seed(42, 3, 7);
  const auto b = sim::Rng::derive_stream_seed(42, 3, 7);
  EXPECT_EQ(a, b);
}

TEST(SeedDerivationTest, DistinctAcrossPointsRepsAndBases) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {1ull, 2ull, 1000ull}) {
    for (std::uint64_t p = 0; p < 16; ++p) {
      for (std::uint64_t r = 0; r < 16; ++r) {
        seen.insert(sim::Rng::derive_stream_seed(base, p, r));
      }
    }
  }
  EXPECT_EQ(seen.size(), 3u * 16u * 16u);  // no collisions
}

TEST(SeedDerivationTest, NotSensitiveToArgumentSwapConfusion) {
  // (stream, index) must not commute, or point 3 / rep 5 would collide
  // with point 5 / rep 3.
  EXPECT_NE(sim::Rng::derive_stream_seed(1, 3, 5),
            sim::Rng::derive_stream_seed(1, 5, 3));
}

TEST(SweepRunnerTest, VisitsEveryPointAndReplicationOnce) {
  SweepOptions opt;
  opt.threads = 4;
  opt.replications = 5;
  opt.base_seed = 99;
  std::atomic<int> calls{0};
  const std::vector<int> points = {10, 20, 30};
  const auto merged = SweepRunner<int, TraceSample>(opt).run(
      points, [&](const int& p, const Replication& rep) {
        ++calls;
        TraceSample s;
        s.seeds.push_back(rep.seed);
        s.reps.push_back(rep.replication_index);
        s.sum = static_cast<double>(p);
        return s;
      });
  EXPECT_EQ(calls.load(), 15);
  ASSERT_EQ(merged.size(), 3u);
  for (std::size_t p = 0; p < merged.size(); ++p) {
    ASSERT_EQ(merged[p].reps.size(), 5u);
    // Folded strictly in replication order, whatever thread ran what.
    for (std::size_t r = 0; r < 5; ++r) {
      EXPECT_EQ(merged[p].reps[r], r);
      EXPECT_EQ(merged[p].seeds[r],
                sim::Rng::derive_stream_seed(99, p, r));
    }
    EXPECT_DOUBLE_EQ(merged[p].sum, 5.0 * points[p]);
  }
}

TEST(SweepRunnerTest, ResultIndependentOfThreadCount) {
  const std::vector<int> points = {1, 2, 3, 4, 5, 6, 7};
  std::vector<std::vector<TraceSample>> results;
  for (int threads : {1, 2, 8}) {
    SweepOptions opt;
    opt.threads = threads;
    opt.replications = 4;
    opt.base_seed = 7;
    results.push_back(
        SweepRunner<int, TraceSample>(opt).run(points, trace_body));
  }
  // Bitwise: identical fold order must give the identical double.
  for (std::size_t v = 1; v < results.size(); ++v) {
    expect_same(results[v], results[0]);
  }
}

TEST(SweepRunnerTest, CommonRandomNumbersPairSeedsAcrossPoints) {
  SweepOptions opt;
  opt.threads = 2;
  opt.replications = 3;
  opt.base_seed = 55;
  opt.common_random_numbers = true;
  const auto merged = SweepRunner<int, TraceSample>(opt).run(
      {1, 2, 3}, [](const int&, const Replication& rep) {
        TraceSample s;
        s.seeds.push_back(rep.seed);
        s.reps.push_back(rep.replication_index);
        return s;
      });
  ASSERT_EQ(merged.size(), 3u);
  // Every point sees the identical replication seed sequence (the
  // common-random-numbers pairing), which still varies across reps.
  EXPECT_EQ(merged[1].seeds, merged[0].seeds);
  EXPECT_EQ(merged[2].seeds, merged[0].seeds);
  EXPECT_NE(merged[0].seeds[0], merged[0].seeds[1]);
}

TEST(SweepRunnerTest, EmptyPointListYieldsEmptyResult) {
  SweepOptions opt;
  opt.threads = 4;
  const auto merged = SweepRunner<int, TraceSample>(opt).run(
      {}, [](const int&, const Replication&) { return TraceSample{}; });
  EXPECT_TRUE(merged.empty());
}

TEST(SweepRunnerTest, RejectsZeroReplications) {
  SweepOptions opt;
  opt.replications = 0;
  EXPECT_THROW((SweepRunner<int, TraceSample>(opt)), std::invalid_argument);
}

TEST(SweepRunnerTest, PropagatesBodyExceptions) {
  for (int threads : {1, 3}) {
    SweepOptions opt;
    opt.threads = threads;
    opt.replications = 2;
    SweepRunner<int, TraceSample> runner(opt);
    std::atomic<int> calls{0};
    EXPECT_THROW(
        runner.run({1, 2, 3},
                   [&](const int& p, const Replication&) -> TraceSample {
                     ++calls;
                     if (p == 2) throw std::runtime_error("boom");
                     return {};
                   }),
        std::runtime_error);
    if (threads == 1) {
      // Fail-fast: one worker claims in order, and the first failure
      // (point 1, replication 0 — the third task) stops new claims.
      EXPECT_EQ(calls.load(), 3);
    } else {
      EXPECT_LE(calls.load(), 6);
    }
  }
}

TEST(SweepRunnerTest, StopDrainsAndJournaledResumeMatches) {
  const std::vector<int> points = {1, 2, 3, 4};
  constexpr std::size_t kStopAt = 5;  // point 1, replication 2
  for (bool keep_going : {false, true}) {
    for (int threads : {1, 3}) {
      SCOPED_TRACE("keep_going=" + std::to_string(keep_going) +
                   " threads=" + std::to_string(threads));
      SweepOptions opt;
      opt.threads = threads;
      opt.replications = 3;
      opt.base_seed = 21;
      opt.keep_going = keep_going;
      const auto want =
          SweepRunner<int, TraceSample>(opt).run(points, trace_body);

      const std::string path = temp_journal("drain.journal");
      const JournalConfig cfg = journal_config(opt, points.size());
      std::atomic<bool> stop{false};
      std::atomic<std::size_t> calls{0};
      {
        SweepJournal journal(path, cfg, /*resume=*/false);
        SweepExecution ex;
        ex.journal = &journal;
        ex.stop = &stop;
        SweepRunner<int, TraceSample>(opt).run(
            points,
            [&](const int& p, const Replication& rep) {
              ++calls;
              const std::size_t i = rep.point_index * 3 + rep.replication_index;
              if (i == kStopAt) stop.store(true);
              // Later tasks wait for the stop, so at 3 threads the grid
              // cannot finish before it lands (task kStopAt is already
              // claimed whenever a later one is).
              while (i > kStopAt && !stop.load()) std::this_thread::yield();
              return trace_body(p, rep);
            },
            ex);
        EXPECT_TRUE(ex.stopped);
        EXPECT_TRUE(ex.quarantined.empty());
        if (threads == 1) {
          // One worker claims in order: nothing after kStopAt ran.
          EXPECT_EQ(calls.load(), kStopAt + 1);
        }
      }

      // The drained run journaled what it finished; resuming it runs
      // only the rest and merges to the uninterrupted result.
      SweepJournal journal(path, cfg, /*resume=*/true);
      if (threads == 1) {
        EXPECT_EQ(journal.completed_count(), kStopAt + 1);
      }
      SweepExecution ex;
      ex.journal = &journal;
      const auto got =
          SweepRunner<int, TraceSample>(opt).run(points, trace_body, ex);
      EXPECT_FALSE(ex.stopped);
      EXPECT_EQ(ex.journal_skipped, journal.completed_count());
      expect_same(got, want);
      std::remove(path.c_str());
    }
  }
}

TEST(SweepRunnerTest, JournalAppendFailureCarriesReplicationContext) {
  for (int threads : {1, 3}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SweepOptions opt;
    opt.threads = threads;
    opt.replications = 2;
    opt.base_seed = 5;
    const std::vector<int> points = {1, 2, 3};
    const std::string path = temp_journal("enospc.journal");
    SweepJournal journal(path, journal_config(opt, points.size()),
                         /*resume=*/false);
    // Installed after the header is written: the first record append
    // fails with ENOSPC.
    io::ScopedFaultPlan faults(
        {{io::FaultOp::kJournalWrite, 0, io::FaultKind::kEnospc, false}});
    SweepExecution ex;
    ex.journal = &journal;
    try {
      SweepRunner<int, TraceSample>(opt).run(points, trace_body, ex);
      ADD_FAILURE() << "expected the journal failure to propagate";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("point="), std::string::npos) << msg;
      EXPECT_NE(msg.find("replication="), std::string::npos) << msg;
      EXPECT_NE(msg.find("seed="), std::string::npos) << msg;
      EXPECT_NE(msg.find("journal: write failed for " + path),
                std::string::npos)
          << msg;
      EXPECT_NE(msg.find(std::strerror(ENOSPC)), std::string::npos) << msg;
    }
    EXPECT_TRUE(ex.quarantined.empty());
    std::remove(path.c_str());
  }
}

TEST(ResolveThreadCountTest, PositivePassesThroughZeroMeansHardware) {
  EXPECT_EQ(resolve_thread_count(3), 3);
  EXPECT_GE(resolve_thread_count(0), 1);
  EXPECT_THROW(resolve_thread_count(-8), std::invalid_argument);
}

}  // namespace
}  // namespace btsc::runner
