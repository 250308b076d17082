#include "ledger.h"

#include <cmath>
#include <cstring>
#include <unordered_set>
#include <vector>

#include "marginal/marginal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/parallel.h"
#include "pgm/estimation.h"
#include "pgm/junction_tree.h"
#include "pgm/synthetic.h"
#include "stats.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using aim::AttrSet;
using aim::MetricsRegistry;

// The library counters the ledger reads, snapshotted before and after the
// traced run.
struct CounterSnapshot {
  int64_t estimation_calls = 0;
  int64_t estimation_iterations = 0;
  int64_t estimation_backtracks = 0;
  double estimation_seconds = 0.0;
  int64_t messages_recomputed = 0;
  int64_t messages_reused = 0;
  int64_t jt_size_evals = 0;
  int64_t chunks_scanned = 0;
  int64_t parallel_dispatches = 0;
  int64_t parallel_steals = 0;
  int64_t contended_solo_runs = 0;
};

CounterSnapshot Snapshot() {
  MetricsRegistry& r = MetricsRegistry::Global();
  CounterSnapshot s;
  s.estimation_calls = r.counter("pgm.estimation.calls").value();
  s.estimation_iterations = r.counter("pgm.estimation.iterations").value();
  s.estimation_backtracks = r.counter("pgm.estimation.backtracks").value();
  s.estimation_seconds = r.histogram("pgm.estimation.seconds").sum();
  s.messages_recomputed = r.counter("pgm.infer.messages_recomputed").value();
  s.messages_reused = r.counter("pgm.infer.messages_reused").value();
  s.jt_size_evals = r.counter("pgm.jt.size_evals").value();
  s.chunks_scanned = r.counter("store.chunks_scanned").value();
  s.parallel_dispatches = r.counter("parallel.dispatches").value();
  s.parallel_steals = r.counter("parallel.steals").value();
  s.contended_solo_runs = r.counter("pool.contended_solo_runs").value();
  return s;
}

// Full calibration of a copy of `model`: every potential is re-set (which
// marks every clique dirty) and every clique belief is then materialized,
// so the lazy inference cache cannot skip any message. Median of 5.
double TimeFullCalibration(const aim::MarkovRandomField& model) {
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    aim::MarkovRandomField copy = model;
    for (int i = 0; i < copy.num_cliques(); ++i) {
      copy.SetPotential(i, copy.potential(i));
    }
    const Clock::time_point start = Clock::now();
    copy.Calibrate();
    for (int i = 0; i < copy.num_cliques(); ++i) copy.CliqueBelief(i);
    times.push_back(SecondsSince(start));
  }
  return Median(times);
}

}  // namespace

bool SameModelBits(const aim::MarkovRandomField& a,
                   const aim::MarkovRandomField& b, std::string* why) {
  if (a.num_cliques() != b.num_cliques()) {
    *why = "clique counts differ";
    return false;
  }
  const double total_a = a.total(), total_b = b.total();
  if (std::memcmp(&total_a, &total_b, sizeof(double)) != 0) {
    *why = "totals differ";
    return false;
  }
  for (int i = 0; i < a.num_cliques(); ++i) {
    if (!(a.tree().cliques[i] == b.tree().cliques[i])) {
      *why = "clique " + std::to_string(i) + " differs";
      return false;
    }
    const std::vector<double>& va = a.potential(i).values();
    const std::vector<double>& vb = b.potential(i).values();
    if (va.size() != vb.size() ||
        std::memcmp(va.data(), vb.data(), va.size() * sizeof(double)) != 0) {
      *why = "potential of clique " + std::to_string(i) + " differs";
      return false;
    }
  }
  return true;
}

Ledger TraceAndReplay(const aim::AimMechanism& mechanism,
                      const aim::DataSource& source,
                      const aim::Workload& workload, double rho,
                      uint64_t mechanism_seed) {
  const aim::AimOptions& options = mechanism.options();
  const aim::Domain& domain = source.domain();
  Ledger ledger;

  // ---- The traced run.
  aim::MemoryTraceSink sink;
  const CounterSnapshot before = Snapshot();
  aim::MechanismResult result;
  {
    aim::ScopedTraceSink scope(&sink);
    aim::SetMetricsEnabled(true);
    aim::Rng rng(mechanism_seed);
    const Clock::time_point start = Clock::now();
    result = mechanism.Run(source, workload, rho, rng);
    ledger.run_s = SecondsSince(start);
    aim::SetMetricsEnabled(false);
  }
  const CounterSnapshot after = Snapshot();
  ledger.output_check = CheckMechanismResult(result, domain);
  ledger.synthetic_hash = DatasetHash(result.synthetic);
  result.synthetic = aim::Dataset();  // the replay makes its own

  const std::vector<aim::TraceEvent> finish =
      sink.events_of_type("aim_finish");
  if (finish.size() == 1) {
    ledger.filter_s = finish[0].GetDouble("t_filter_s");
    ledger.score_s = finish[0].GetDouble("t_score_s");
    ledger.measure_s = finish[0].GetDouble("t_measure_s");
    ledger.round_estimate_s = finish[0].GetDouble("t_estimate_s");
    ledger.rounds = finish[0].GetInt("rounds");
  }
  ledger.estimation_calls = after.estimation_calls - before.estimation_calls;
  ledger.estimation_iterations =
      after.estimation_iterations - before.estimation_iterations;
  ledger.estimation_backtracks =
      after.estimation_backtracks - before.estimation_backtracks;
  ledger.estimation_seconds =
      after.estimation_seconds - before.estimation_seconds;
  ledger.messages_recomputed =
      after.messages_recomputed - before.messages_recomputed;
  ledger.messages_reused = after.messages_reused - before.messages_reused;
  ledger.jt_size_evals = after.jt_size_evals - before.jt_size_evals;
  ledger.chunks_scanned = after.chunks_scanned - before.chunks_scanned;
  ledger.parallel_dispatches =
      after.parallel_dispatches - before.parallel_dispatches;
  ledger.parallel_steals = after.parallel_steals - before.parallel_steals;
  ledger.contended_solo_runs =
      after.contended_solo_runs - before.contended_solo_runs;

  // ---- Replay of the measurement log, in the mechanism's call order.
  const std::vector<aim::Measurement>& log = result.log.measurements;
  const std::vector<aim::RoundInfo>& rounds = result.log.rounds;
  if (!result.final_model.has_value() || log.size() < rounds.size() ||
      static_cast<int64_t>(rounds.size()) != ledger.rounds ||
      !options.structural_zeros.empty() || options.public_data != nullptr) {
    ledger.replay_mismatch =
        "run cannot be replayed (no final model, inconsistent log, or "
        "structural zeros / public prior)";
    return ledger;
  }
  const size_t init_count = log.size() - rounds.size();
  const std::vector<AttrSet> pool = aim::DownwardClosure(workload);

  std::unordered_set<AttrSet, aim::AttrSetHash> touched;
  auto scan_first_touches = [&](const std::vector<AttrSet>& attrs) {
    std::vector<const AttrSet*> fresh;
    for (const AttrSet& r : attrs) {
      if (touched.insert(r).second) fresh.push_back(&r);
    }
    const Clock::time_point start = Clock::now();
    std::vector<std::vector<double>> counts = aim::ParallelMap(
        static_cast<int64_t>(fresh.size()),
        [&](int64_t k) { return aim::ComputeMarginal(source, *fresh[k]); });
    ledger.scan_s += SecondsSince(start);
    ledger.scans += static_cast<int64_t>(counts.size());
  };

  std::vector<aim::Measurement> measurements(log.begin(),
                                             log.begin() + init_count);
  std::vector<AttrSet> model_cliques;
  for (const aim::Measurement& m : measurements) {
    model_cliques.push_back(m.attrs);
  }
  scan_first_touches(model_cliques);
  double total = aim::EstimateTotal(measurements);
  aim::MarkovRandomField model = aim::EstimateMrf(
      domain, measurements, total, options.round_estimation, nullptr);

  for (size_t t = 0; t < rounds.size(); ++t) {
    Clock::time_point start = Clock::now();
    aim::ParallelMap(static_cast<int64_t>(pool.size()), [&](int64_t i) {
      std::vector<AttrSet> cliques = model_cliques;
      cliques.push_back(pool[i]);
      return aim::JtSizeMb(domain, cliques);
    });
    ledger.jt_replay_s += SecondsSince(start);
    ledger.jt_replay_evals += static_cast<int64_t>(pool.size());

    std::vector<AttrSet> candidates;
    for (const aim::CandidateInfo& c : rounds[t].candidates) {
      candidates.push_back(c.attrs);
      if (model.ContainingClique(c.attrs) < 0) ++ledger.ve_queries;
    }
    scan_first_touches(candidates);
    start = Clock::now();
    model.AnswerMarginalVectors(candidates);
    ledger.answer_s += SecondsSince(start);

    measurements.push_back(log[init_count + t]);
    model_cliques.push_back(measurements.back().attrs);
    total = aim::EstimateTotal(measurements);
    model = aim::EstimateMrf(domain, measurements, total,
                             options.round_estimation, &model);
  }

  Clock::time_point start = Clock::now();
  model = aim::EstimateMrf(domain, measurements, total,
                           options.final_estimation, &model);
  ledger.final_estimate_s = SecondsSince(start);
  ledger.replay_matches =
      SameModelBits(model, *result.final_model, &ledger.replay_mismatch);

  ledger.synth_rows = std::llround(total);
  aim::Rng synth_rng(mechanism_seed);
  start = Clock::now();
  aim::GenerateSyntheticData(model, ledger.synth_rows, synth_rng);
  ledger.synthesize_s = SecondsSince(start);

  ledger.calibrate_s = TimeFullCalibration(model);
  const aim::JunctionTree& tree = model.tree();
  std::vector<int64_t> cells(tree.cliques.size());
  for (size_t c = 0; c < tree.cliques.size(); ++c) {
    cells[c] = aim::MarginalSize(domain, tree.cliques[c]);
    ledger.model_cells += cells[c];
  }
  // One Shafer-Shenoy pass reads the sender clique once per directed
  // message (two per edge) and every clique once for its belief.
  ledger.cells_per_calibration = ledger.model_cells;
  for (const aim::JunctionTree::Edge& e : tree.edges) {
    ledger.cells_per_calibration += cells[e.a] + cells[e.b];
  }

  ledger.rows_scanned = ledger.scans * source.num_records();
  ledger.unattributed_s = ledger.run_s - ledger.AttributedSeconds();
  return ledger;
}

}  // namespace perfbench
