// The per-layer time ledger of one AIM run, measured from outside the
// library.
//
// TraceAndReplay runs the mechanism once with a MemoryTraceSink installed
// and metrics enabled, takes the phase times the mechanism reports in its
// aim_finish event and the deltas of the library's own counters, and then
// replays the run's measurement log through the public pgm/, marginal/ and
// junction-tree functions in the order the mechanism called them, timing
// each call here. Estimation draws no randomness, so the replayed final
// model must equal the run's final model bit for bit; the ledger records
// whether it did.

#ifndef AIM_PERFBENCH_LEDGER_H_
#define AIM_PERFBENCH_LEDGER_H_

#include <cstdint>
#include <string>

#include "data/data_source.h"
#include "marginal/workload.h"
#include "mechanisms/aim.h"
#include "mechanisms/mechanism.h"

namespace perfbench {

struct Ledger {
  // mechanisms/aim. filter, score, measure and round estimation come from
  // the aim_finish event; final estimation and synthesis from the replay;
  // unattributed is run_s minus all six parts.
  double run_s = 0.0;  // wall time of the traced Run
  double filter_s = 0.0;
  double score_s = 0.0;
  double measure_s = 0.0;
  double round_estimate_s = 0.0;
  double final_estimate_s = 0.0;
  double synthesize_s = 0.0;
  double unattributed_s = 0.0;
  int64_t rounds = 0;

  // pgm/estimation (counter deltas over the traced run).
  int64_t estimation_calls = 0;
  int64_t estimation_iterations = 0;
  int64_t estimation_backtracks = 0;
  double estimation_seconds = 0.0;  // pgm.estimation.seconds histogram sum

  // pgm/markov_random_field.
  double calibrate_s = 0.0;  // one full calibration of the final model
  double answer_s = 0.0;     // AnswerMarginalVectors over every round
  int64_t ve_queries = 0;    // candidates no model clique contains
  int64_t messages_recomputed = 0;
  int64_t messages_reused = 0;

  // factor (computed from the final junction tree).
  int64_t model_cells = 0;
  int64_t cells_per_calibration = 0;

  // pgm/junction_tree.
  int64_t jt_size_evals = 0;     // counter delta over the traced run
  double jt_replay_s = 0.0;      // JtSizeMb over the pool, every round
  int64_t jt_replay_evals = 0;

  // marginal + store.
  int64_t scans = 0;  // ComputeMarginal calls on first touch
  int64_t rows_scanned = 0;
  double scan_s = 0.0;
  int64_t chunks_scanned = 0;  // counter delta over the traced run

  // pgm/synthetic.
  int64_t synth_rows = 0;

  // parallel (counter deltas over the traced run).
  int64_t parallel_dispatches = 0;
  int64_t parallel_steals = 0;
  int64_t contended_solo_runs = 0;

  // Replay equality: the replayed final model equals the run's bitwise.
  bool replay_matches = false;
  std::string replay_mismatch;  // what differed, when it did not match

  // The traced run's output, for comparison with the untraced run.
  uint64_t synthetic_hash = 0;
  std::string output_check;  // CheckMechanismResult of the traced run

  // Sum of the six attributed phases.
  double AttributedSeconds() const {
    return filter_s + score_s + measure_s + round_estimate_s +
           final_estimate_s + synthesize_s;
  }
};

// Runs `mechanism` traced (it must record candidates) on the inputs, then
// replays its measurement log as described above. The Rng is seeded with
// `mechanism_seed`, as the untraced run's was.
Ledger TraceAndReplay(const aim::AimMechanism& mechanism,
                      const aim::DataSource& source,
                      const aim::Workload& workload, double rho,
                      uint64_t mechanism_seed);

// True when both models have the same junction tree, total and potentials,
// compared bit for bit; otherwise false with the first difference in *why.
bool SameModelBits(const aim::MarkovRandomField& a,
                   const aim::MarkovRandomField& b, std::string* why);

}  // namespace perfbench

#endif  // AIM_PERFBENCH_LEDGER_H_
