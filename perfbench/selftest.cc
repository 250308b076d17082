// Self-test of the benchmark's own arithmetic, on inputs that run in
// seconds: the percentile reporting rule, and on a small titanic (eps=1,
// ALL-3WAY) run that the ledger closes, that the replayed final model
// equals the run's bitwise, and that tracing leaves the output unchanged.
//
//   perfbench_selftest        (exit 0 when every check passes)

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "data/simulators.h"
#include "dp/accountant.h"
#include "ledger.h"
#include "marginal/workload.h"
#include "mechanisms/aim.h"
#include "parallel/thread_pool.h"
#include "stats.h"
#include "util/rng.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::cerr << (ok ? "  ok    " : "  FAIL  ") << what << "\n";
  if (!ok) ++failures;
}

void TestPercentileRule() {
  using perfbench::HighestReportablePercentile;
  using perfbench::SamplesBeyond;
  Expect(SamplesBeyond(100, 90) == 10, "100 samples: 10 lie beyond p90");
  Expect(SamplesBeyond(99, 90) == 9, "99 samples: 9 lie beyond p90");
  Expect(HighestReportablePercentile(9) == 0.0, "9 samples: no percentile");
  Expect(HighestReportablePercentile(20) == 50.0, "20 samples: p50");
  Expect(HighestReportablePercentile(99) == 50.0, "99 samples: p50");
  Expect(HighestReportablePercentile(100) == 90.0, "100 samples: p90");
  Expect(HighestReportablePercentile(999) == 90.0, "999 samples: p90");
  Expect(HighestReportablePercentile(1000) == 99.0, "1000 samples: p99");
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  Expect(perfbench::Percentile(v, 50) == 50.0, "nearest-rank p50 of 1..100");
  Expect(perfbench::Percentile(v, 90) == 90.0, "nearest-rank p90 of 1..100");
  Expect(perfbench::Median({3.0, 1.0, 2.0, 4.0}) == 2.5, "even median");
}

void TestLedgerOnTitanic() {
  aim::SetParallelThreads(1);
  aim::SimulatorOptions sim;
  sim.record_scale = 1.0;
  sim.seed = 7;
  const aim::Dataset data =
      aim::MakePaperDataset(aim::PaperDataset::kTitanic, sim).data;
  const aim::DatasetSource source(data);
  const aim::Workload workload = aim::AllKWayWorkload(data.domain(), 3);
  const double rho = aim::CdpRho(1.0, 1e-9);

  aim::AimOptions options;
  options.record_candidates = false;
  aim::Rng rng(11);
  const aim::MechanismResult untraced =
      aim::AimMechanism(options).Run(source, workload, rho, rng);
  Expect(perfbench::CheckMechanismResult(untraced, data.domain()).empty(),
         "untraced run passes the output checks");

  options.record_candidates = true;
  const perfbench::Ledger ledger = perfbench::TraceAndReplay(
      aim::AimMechanism(options), source, workload, rho, 11);
  Expect(ledger.output_check.empty(), "traced run passes the output checks");
  Expect(ledger.synthetic_hash == perfbench::DatasetHash(untraced.synthetic),
         "tracing leaves the synthetic data unchanged");
  Expect(ledger.replay_matches,
         "replayed final model equals the run's bitwise " +
             ledger.replay_mismatch);
  Expect(ledger.rounds == untraced.rounds && ledger.rounds > 0,
         "ledger counts the run's rounds");
  Expect(std::fabs(ledger.AttributedSeconds() + ledger.unattributed_s -
                   ledger.run_s) <= 1e-12 * std::max(1.0, ledger.run_s),
         "phase parts plus unattributed equal run_s");
  Expect(ledger.final_estimate_s > 0.0 && ledger.synthesize_s > 0.0 &&
             ledger.round_estimate_s > 0.0,
         "estimation and synthesis phases are timed");
  Expect(ledger.estimation_calls == ledger.rounds + 2,
         "one estimation per round plus the initial and final fits");
  Expect(ledger.jt_size_evals == ledger.jt_replay_evals,
         "the replay evaluates JT-SIZE as often as the run did");

  // A deliberately different model must fail the bitwise comparison.
  aim::MarkovRandomField other = *untraced.final_model;
  aim::Factor bumped = other.potential(0);
  bumped.mutable_values()[0] += 1e-9;
  other.SetPotential(0, bumped);
  std::string why;
  Expect(!perfbench::SameModelBits(other, *untraced.final_model, &why),
         "a one-cell change is caught by the model comparison");
}

}  // namespace

int main() {
  std::cerr << "percentile rule\n";
  TestPercentileRule();
  std::cerr << "ledger on titanic, eps=1\n";
  TestLedgerOnTitanic();
  std::cerr << (failures == 0 ? "selftest passed\n" : "selftest FAILED\n");
  return failures == 0 ? 0 : 1;
}
