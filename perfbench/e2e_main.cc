// End-to-end AIM benchmark driver: runs one workload and prints its metrics.
//
//   perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1
//                 --work-dir DIR --aimd PATH
//
// Workloads (README.md in this directory has the sizing notes):
//   estimate-adult  in-memory adult (scale 0.5), ALL-3WAY, eps=10, one
//                   thread: mirror-descent estimation dominates.
//   scan-msnbc      a sharded .aim store of msnbc-domain rows streamed
//                   through StoreSource, ALL-3WAY, eps=0.1, two threads:
//                   scans, the JT-SIZE filter and synthesis dominate.
//   serve-jobs      many small titanic jobs through an aimd child process
//                   from two closed-loop clients.
//
// Every input derives from --seed; the mechanism sees only the generated
// inputs. Every run checks its outputs (CheckMechanismResult, a finite
// workload error, identical output for identical seeds, every daemon job
// done, and daemon output byte-identical to the in-process mechanism).
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 the per-layer ledger (ledger.h). The exit code is 0 only
// when every check passed.

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "daemon.h"
#include "data/csv.h"
#include "data/data_source.h"
#include "data/simulators.h"
#include "dp/accountant.h"
#include "eval/error.h"
#include "ledger.h"
#include "marginal/workload.h"
#include "mechanisms/aim.h"
#include "mechanisms/registry.h"
#include "parallel/parallel.h"
#include "parallel/thread_pool.h"
#include "robust/generations.h"
#include "serve/protocol.h"
#include "stats.h"
#include "store/reader.h"
#include "store/writer.h"
#include "util/rng.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;
  std::string aimd;
};

// Independent 64-bit stream `stream` of the workload seed (SplitMix64).
uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Counts operations and their failures; a failed operation keeps its
// reason for the stderr summary.
struct Report {
  int64_t attempted = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;

  void Op(const std::string& failure) {
    ++attempted;
    if (!failure.empty()) failures.push_back(failure);
  }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// What set-up measured, for the store.* layer metrics.
struct SetupFacts {
  double setup_s = 0.0;  // median over the repeats
  double open_s = 0.0;   // median StoreSource::Open time (0 in memory)
  int64_t bytes_mapped = 0;
};

// Client-side measurements of the serve-jobs loop.
struct ServeFacts {
  double submit_s = 0.0;
  double poll_s = 0.0;
  double fetch_s = 0.0;
  double queue_wait_s = 0.0;
  double job_s = 0.0;
  int64_t rejections = 0;
  int64_t jobs = 0;
  double checkpoint_bytes = 0.0;
};

// The end-to-end metrics, in BENCHMARK.json order.
void AddEndToEnd(Report* r, double setup_s, double run_s, double error,
                 double peak_rss_mb, double p50, double p90,
                 double jobs_per_s) {
  r->Add("setup_s", setup_s, "s");
  r->Add("run_s", run_s, "s");
  r->Add("workload_error", error, "ratio");
  r->Add("peak_rss_mb", peak_rss_mb, "MB");
  r->Add("job_p50_s", p50, "s");
  r->Add("job_p90_s", p90, "s");
  r->Add("jobs_per_s", jobs_per_s, "1/s");
}

// The per-layer metrics, in BENCHMARK.json order. Layers a workload does
// not exercise report 0.
void AddPerLayer(Report* r, const Ledger& l, double untraced_run_s,
                 const SetupFacts& setup, const ServeFacts& serve) {
  r->Add("aim.filter_s", l.filter_s, "s");
  r->Add("aim.score_s", l.score_s, "s");
  r->Add("aim.measure_s", l.measure_s, "s");
  r->Add("aim.round_estimate_s", l.round_estimate_s, "s");
  r->Add("aim.final_estimate_s", l.final_estimate_s, "s");
  r->Add("aim.synthesize_s", l.synthesize_s, "s");
  r->Add("aim.unattributed_s", l.unattributed_s, "s");
  r->Add("aim.rounds", static_cast<double>(l.rounds), "count");
  const double iters = static_cast<double>(l.estimation_iterations);
  r->Add("estimation.calls", static_cast<double>(l.estimation_calls),
         "count");
  r->Add("estimation.iterations", iters, "count");
  r->Add("estimation.backtracks", static_cast<double>(l.estimation_backtracks),
         "count");
  r->Add("estimation.accept_ratio",
         iters > 0 ? iters / (iters + l.estimation_backtracks) : 0.0,
         "ratio");
  r->Add("estimation.s_per_iteration",
         iters > 0 ? l.estimation_seconds / iters : 0.0, "s");
  r->Add("infer.calibrate_s", l.calibrate_s, "s");
  r->Add("infer.answer_s", l.answer_s, "s");
  r->Add("infer.ve_queries", static_cast<double>(l.ve_queries), "count");
  r->Add("infer.messages_recomputed",
         static_cast<double>(l.messages_recomputed), "count");
  r->Add("infer.messages_reused", static_cast<double>(l.messages_reused),
         "count");
  r->Add("factor.model_cells", static_cast<double>(l.model_cells), "count");
  r->Add("factor.cells_per_calibration",
         static_cast<double>(l.cells_per_calibration), "count");
  r->Add("jt.size_evals", static_cast<double>(l.jt_size_evals), "count");
  r->Add("jt.s_per_eval",
         l.jt_replay_evals > 0 ? l.jt_replay_s / l.jt_replay_evals : 0.0,
         "s");
  r->Add("marginal.scans", static_cast<double>(l.scans), "count");
  r->Add("marginal.rows_scanned", static_cast<double>(l.rows_scanned),
         "count");
  r->Add("marginal.rows_per_s", l.scan_s > 0 ? l.rows_scanned / l.scan_s : 0.0,
         "1/s");
  r->Add("store.chunks_scanned", static_cast<double>(l.chunks_scanned),
         "count");
  r->Add("store.bytes_mapped", static_cast<double>(setup.bytes_mapped),
         "bytes");
  r->Add("store.open_s", setup.open_s, "s");
  r->Add("synth.rows_per_s",
         l.synthesize_s > 0 ? l.synth_rows / l.synthesize_s : 0.0, "1/s");
  r->Add("parallel.dispatches", static_cast<double>(l.parallel_dispatches),
         "count");
  r->Add("parallel.steals", static_cast<double>(l.parallel_steals), "count");
  r->Add("pool.contended_solo_runs",
         static_cast<double>(l.contended_solo_runs), "count");
  r->Add("serve.submit_s", serve.submit_s, "s");
  r->Add("serve.poll_s", serve.poll_s, "s");
  r->Add("serve.fetch_s", serve.fetch_s, "s");
  r->Add("serve.queue_wait_s", serve.queue_wait_s, "s");
  r->Add("serve.job_s", serve.job_s, "s");
  r->Add("serve.rejections", static_cast<double>(serve.rejections), "count");
  r->Add("serve.jobs", static_cast<double>(serve.jobs), "count");
  r->Add("robust.checkpoint_bytes", serve.checkpoint_bytes, "bytes");
  r->Add("obs.trace_overhead_s", l.run_s - untraced_run_s, "s");
}

// The checks every traced run adds to its untraced twin's.
std::string CheckLedger(const Ledger& l, uint64_t untraced_hash) {
  if (!l.output_check.empty()) return "traced run: " + l.output_check;
  if (l.synthetic_hash != untraced_hash) {
    return "tracing changed the synthetic data";
  }
  if (!l.replay_matches) {
    return "replayed final model differs from the run's: " +
           l.replay_mismatch;
  }
  return "";
}

// ---- One-shot workloads.

struct Inputs {
  std::unique_ptr<aim::Dataset> data;
  std::unique_ptr<aim::DatasetSource> data_source;
  std::unique_ptr<aim::StoreSource> store;
  aim::Workload workload;

  const aim::DataSource& source() const {
    if (store != nullptr) return *store;
    return *data_source;
  }
};

constexpr size_t kMinRuns = 3;

struct OneShotSpec {
  double epsilon = 1.0;
  double delta = 1e-9;
  double max_size_mb = 80.0;
  int threads = 1;
  int setup_repeats = 3;
};

// estimate-adult: a random half of the simulated adult population.
constexpr double kAdultScale = 0.5;
constexpr OneShotSpec kEstimateAdult{.epsilon = 10.0,
                                     .max_size_mb = 0.15,
                                     .threads = 1,
                                     .setup_repeats = 9};

// scan-msnbc: a fixed population of rows over the msnbc domain, generated
// in chunks (each from its own random Bayesian network, so the population
// is a mixture), of which the seed keeps a random 14/15 (about 7M rows),
// written to a store with one shard per 2^20 rows.
constexpr uint64_t kPopulationSeed = 20221107;
constexpr int64_t kMsnbcRows = 7500000;
constexpr double kMsnbcKeep = 14.0 / 15.0;
constexpr int64_t kMsnbcChunkRows = 500000;
constexpr int64_t kMsnbcShardRows = int64_t{1} << 20;
// Threads for the benchmark's own work outside the measured runs (input
// generation, workload-error evaluation).
constexpr int kHelperThreads = 4;
constexpr OneShotSpec kScanMsnbc{.epsilon = 0.1,
                                 .max_size_mb = 0.05,
                                 .threads = 2,
                                 .setup_repeats = 3};

// Keeps each record of `population` independently with probability `keep`:
// the seed-dependent sample of a fixed population.
aim::Dataset SampleRecords(const aim::Dataset& population, double keep,
                           uint64_t seed) {
  aim::Rng rng(seed);
  std::vector<int64_t> rows;
  for (int64_t r = 0; r < population.num_records(); ++r) {
    if (rng.Uniform() < keep) rows.push_back(r);
  }
  return population.Subsample(rows);
}

// A simulated paper dataset at its full Table-2 size, from the simulator's
// fixed default seed.
aim::Dataset Population(aim::PaperDataset which) {
  aim::SimulatorOptions sim;
  sim.record_scale = 1.0;
  return aim::MakePaperDataset(which, sim).data;
}

Inputs SetupAdult(const Args& args) {
  Inputs in;
  in.data = std::make_unique<aim::Dataset>(
      SampleRecords(Population(aim::PaperDataset::kAdult), kAdultScale,
                    DeriveSeed(args.seed, 1)));
  in.data_source = std::make_unique<aim::DatasetSource>(*in.data);
  in.workload = aim::AllKWayWorkload(in.data->domain(), 3);
  return in;
}

aim::Domain MsnbcDomain() {
  std::vector<std::string> names;
  for (int i = 0; i < 16; ++i) names.push_back("page" + std::to_string(i));
  return aim::Domain(names, std::vector<int>(16, 18));
}

aim::StatusOr<Inputs> SetupMsnbc(const Args& args, SetupFacts* facts,
                                 std::vector<double>* open_times) {
  const aim::Domain domain = MsnbcDomain();
  const std::string path = args.work_dir + "/msnbc.aim";
  aim::StoreWriter writer(domain, path, {.shard_rows = kMsnbcShardRows});
  std::vector<int> record(domain.num_attributes());
  const int64_t chunks = (kMsnbcRows + kMsnbcChunkRows - 1) / kMsnbcChunkRows;
  // Chunks are drawn kHelperThreads at a time in parallel (each from its own
  // seed stream) and appended in chunk order.
  for (int64_t group = 0; group < chunks; group += kHelperThreads) {
    const std::vector<aim::Dataset> parts = aim::ParallelMap(
        std::min<int64_t>(kHelperThreads, chunks - group), [&](int64_t k) {
          const int64_t chunk = group + k;
          const int64_t begin = chunk * kMsnbcChunkRows;
          aim::Rng rng(DeriveSeed(kPopulationSeed, 100 + chunk));
          return SampleRecords(
              aim::SampleRandomBayesNet(
                  domain, std::min(kMsnbcChunkRows, kMsnbcRows - begin), 2,
                  0.25, rng),
              kMsnbcKeep, DeriveSeed(args.seed, 100 + chunk));
        });
    for (const aim::Dataset& part : parts) {
      for (int64_t row = 0; row < part.num_records(); ++row) {
        for (int a = 0; a < domain.num_attributes(); ++a) {
          record[a] = part.value(row, a);
        }
        aim::Status appended = writer.Append(record);
        if (!appended.ok()) return appended;
      }
    }
  }
  aim::Status finished = writer.Finish();
  if (!finished.ok()) return finished;

  const Clock::time_point start = Clock::now();
  aim::StatusOr<std::unique_ptr<aim::StoreSource>> opened =
      aim::StoreSource::Open(path);
  if (!opened.ok()) return opened.status();
  open_times->push_back(SecondsSince(start));
  Inputs in;
  in.store = std::move(*opened);
  facts->bytes_mapped = in.store->mapped_bytes();
  in.workload = aim::AllKWayWorkload(domain, 3);
  return in;
}

int RunOneShot(const Args& args, Report* report) {
  const bool adult = args.workload == "estimate-adult";
  const OneShotSpec& spec = adult ? kEstimateAdult : kScanMsnbc;

  SetupFacts setup;
  std::vector<double> setup_times, open_times;
  Inputs in;
  aim::SetParallelThreads(kHelperThreads);
  for (int i = 0; i < spec.setup_repeats; ++i) {
    in = Inputs();  // release the previous repeat's inputs first
    const Clock::time_point start = Clock::now();
    if (adult) {
      in = SetupAdult(args);
    } else {
      aim::StatusOr<Inputs> made = SetupMsnbc(args, &setup, &open_times);
      if (!made.ok()) {
        std::cerr << "setup failed: " << made.status().ToString() << "\n";
        return 1;
      }
      in = std::move(*made);
    }
    setup_times.push_back(SecondsSince(start));
  }
  setup.setup_s = Median(setup_times);
  setup.open_s = Median(open_times);
  const aim::DataSource& source = in.source();
  const aim::Domain& domain = source.domain();

  aim::SetParallelThreads(spec.threads);
  const double rho = aim::CdpRho(spec.epsilon, spec.delta);
  aim::AimOptions options;
  options.max_size_mb = spec.max_size_mb;
  options.record_candidates = false;
  const aim::AimMechanism mechanism(options);
  // Run k seeds its Rng from stream 2 + k of the workload seed, so the runs
  // sample AIM's seed-dependent work (the model structure, and with it the
  // estimation cost, varies widely with the selections) rather than repeat
  // one trajectory. At least kMinRuns runs, more while the next one still
  // fits in --seconds; a traced invocation makes only run 0, the run its
  // traced twin is compared with.
  const uint64_t mechanism_seed = DeriveSeed(args.seed, 2);
  std::vector<double> run_times;
  uint64_t first_hash = 0;
  double workload_error = 0.0;
  double measured = 0.0;
  do {
    aim::Rng rng(DeriveSeed(args.seed, 2 + run_times.size()));
    const Clock::time_point start = Clock::now();
    aim::MechanismResult result =
        mechanism.Run(source, in.workload, rho, rng);
    run_times.push_back(SecondsSince(start));
    measured += run_times.back();
    std::string failure = CheckMechanismResult(result, domain);
    if (run_times.size() == 1) {
      first_hash = DatasetHash(result.synthetic);
      aim::SetParallelThreads(kHelperThreads);
      const aim::WorkloadMarginalCache true_marginals(source, in.workload);
      workload_error = aim::WorkloadError(source, result.synthetic,
                                          in.workload, &true_marginals);
      aim::SetParallelThreads(spec.threads);
      if (failure.empty() && !std::isfinite(workload_error)) {
        failure = "workload error is not finite";
      }
    }
    report->Op(failure);
  } while (!args.trace &&
           (run_times.size() < kMinRuns ||
            measured * (run_times.size() + 1) / run_times.size() <=
                args.seconds));
  const double peak_rss_mb = PeakRssMbSelf();
  const double run_s = measured / run_times.size();

  if (!args.trace) {
    // One job per run: job latency is a run's wall time. A handful of runs
    // leaves no tail percentile with ten samples beyond it, so the p90
    // slot carries the median too rather than the noisy slowest run.
    const double p50 = Median(run_times);
    AddEndToEnd(report, setup.setup_s, run_s, workload_error, peak_rss_mb,
                p50, p50, static_cast<double>(run_times.size()) / measured);
    return 0;
  }
  aim::AimOptions traced_options = options;
  traced_options.record_candidates = true;
  const Ledger ledger =
      TraceAndReplay(aim::AimMechanism(traced_options), source, in.workload,
                     rho, mechanism_seed);
  report->Op(CheckLedger(ledger, first_hash));
  AddPerLayer(report, ledger, run_s, setup, ServeFacts());
  return 0;
}

// ---- serve-jobs.

constexpr int kServeJobs = 240;  // >= 100, so >= 10 samples lie beyond p90
constexpr int kServeClients = 2;
constexpr double kPollInterval = 0.01;  // seconds between status polls
constexpr double kServeEpsilon = 1.0;
constexpr double kServeDelta = 1e-9;
constexpr double kServeMaxSizeMb = 80.0;
constexpr int kServeSetupRepeats = 9;
constexpr double kTitanicKeep = 0.8;  // of the 1304-record population
constexpr int kCheckpointGenerations = 3;
constexpr double kJobTimeout = 120.0;

struct JobSample {
  std::string failure;    // empty when the job passed every check
  int rejected_status = 0;  // HTTP status of a refused submission
  double latency_s = 0.0;   // submit to result fetched
  double submit_s = 0.0;
  double poll_s = 0.0;  // mean status round trip
  double fetch_s = 0.0;
  double job_s = 0.0;  // the job's own reported seconds
  int64_t checkpoint_bytes = 0;
  std::string csv;  // kept for job 0 only
  aim::Dataset synthetic;  // the parsed CSV
};

// Daemon job i's seed: the workload seed plus i, kept below 2^52 so the
// JSON number that carries it is exact.
uint64_t JobSeed(uint64_t seed, int i) {
  return (seed & ((uint64_t{1} << 52) - 1)) + static_cast<uint64_t>(i);
}

std::string JobBody(const std::string& dataset, uint64_t seed) {
  aim::JsonValue spec = aim::JsonValue::MakeObject();
  spec.object()["tenant"] = aim::JsonValue::MakeString("bench");
  spec.object()["dataset"] = aim::JsonValue::MakeString(dataset);
  spec.object()["epsilon"] = aim::JsonValue::MakeNumber(kServeEpsilon);
  spec.object()["delta"] = aim::JsonValue::MakeNumber(kServeDelta);
  spec.object()["workload"] = aim::JsonValue::MakeString("all3way");
  spec.object()["max_size_mb"] = aim::JsonValue::MakeNumber(kServeMaxSizeMb);
  spec.object()["seed"] = aim::JsonValue::MakeNumber(static_cast<double>(seed));
  return spec.ToJson();
}

// Parses a synthetic CSV (the header, then one in-domain integer code per
// attribute and row) into a dataset of exactly `rows` records.
aim::StatusOr<aim::Dataset> ParseCsv(const std::string& csv,
                                     const aim::Domain& domain, int64_t rows) {
  std::istringstream in(csv);
  std::string line;
  std::string header;
  for (int a = 0; a < domain.num_attributes(); ++a) {
    header += (a > 0 ? "," : "") + domain.name(a);
  }
  if (!std::getline(in, line) || line != header) {
    return aim::InvalidArgumentError("bad CSV header");
  }
  std::vector<std::vector<int32_t>> columns(domain.num_attributes());
  while (std::getline(in, line)) {
    const char* p = line.c_str();
    for (int a = 0; a < domain.num_attributes(); ++a) {
      char* end = nullptr;
      const long v = std::strtol(p, &end, 10);
      if (end == p || *end != (a + 1 < domain.num_attributes() ? ',' : '\0')) {
        return aim::InvalidArgumentError("malformed CSV row " +
                                         std::to_string(columns[0].size()));
      }
      columns[a].push_back(static_cast<int32_t>(v));
      p = end + 1;
    }
  }
  if (static_cast<int64_t>(columns[0].size()) != rows || rows <= 0) {
    return aim::InvalidArgumentError(
        "CSV has " + std::to_string(columns[0].size()) +
        " rows, the job status says " + std::to_string(rows));
  }
  return aim::Dataset::FromColumnsValidated(domain, std::move(columns));
}

JobSample RunJob(int port, const std::string& body, const aim::Domain& domain,
                 bool keep_csv) {
  JobSample s;
  const Clock::time_point start = Clock::now();
  aim::StatusOr<HttpReply> submit = HttpCall(port, "POST", "/jobs", body);
  s.submit_s = SecondsSince(start);
  if (!submit.ok()) {
    s.failure = "submit: " + submit.status().ToString();
    return s;
  }
  if (submit->status != 202) {
    s.rejected_status = submit->status;
    s.failure = "submit refused with HTTP " + std::to_string(submit->status) +
                ": " + submit->body;
    return s;
  }
  aim::StatusOr<aim::JsonValue> accepted = aim::ParseJson(submit->body);
  if (!accepted.ok()) {
    s.failure = "submit reply is not JSON";
    return s;
  }
  const std::string id = accepted->GetString("id", "");

  aim::JsonValue status;
  int polls = 0;
  for (;;) {
    std::this_thread::sleep_for(std::chrono::duration<double>(kPollInterval));
    const Clock::time_point poll_start = Clock::now();
    aim::StatusOr<HttpReply> reply = HttpCall(port, "GET", "/jobs/" + id);
    s.poll_s += SecondsSince(poll_start);
    ++polls;
    if (!reply.ok() || reply->status != 200) {
      s.failure = "status poll of " + id + " failed";
      return s;
    }
    aim::StatusOr<aim::JsonValue> parsed = aim::ParseJson(reply->body);
    if (!parsed.ok()) {
      s.failure = "status of " + id + " is not JSON";
      return s;
    }
    status = *std::move(parsed);
    const std::string state = status.GetString("state", "");
    if (state == "done") break;
    if (state != "queued" && state != "running") {
      s.failure = "job " + id + " ended " + state + ": " +
                  status.GetString("error", "");
      return s;
    }
    if (SecondsSince(start) > kJobTimeout) {
      s.failure = "job " + id + " did not finish in time";
      return s;
    }
  }
  s.poll_s /= polls;

  const Clock::time_point fetch_start = Clock::now();
  aim::StatusOr<HttpReply> result =
      HttpCall(port, "GET", "/jobs/" + id + "/result");
  s.fetch_s = SecondsSince(fetch_start);
  s.latency_s = SecondsSince(start);
  if (!result.ok() || result->status != 200) {
    s.failure = "result fetch of " + id + " failed";
    return s;
  }
  s.job_s = status.GetNumber("seconds", 0.0);
  if (!(status.GetNumber("rho_used", 1.0) <= status.GetNumber("rho", 0.0))) {
    s.failure = "job " + id + " used more rho than it reserved";
    return s;
  }
  aim::StatusOr<aim::Dataset> synthetic = ParseCsv(
      result->body, domain,
      static_cast<int64_t>(status.GetNumber("synthetic_records", 0.0)));
  if (!synthetic.ok()) {
    s.failure = "job " + id + ": " + synthetic.status().ToString();
    return s;
  }
  s.synthetic = *std::move(synthetic);
  const std::string checkpoint = status.GetString("checkpoint", "");
  for (int g = 0; g < kCheckpointGenerations; ++g) {
    struct stat st {};
    if (stat(aim::GenerationPath(checkpoint, g).c_str(), &st) == 0) {
      s.checkpoint_bytes += st.st_size;
    }
  }
  if (keep_csv) s.csv = std::move(result->body);
  return s;
}

int RunServeJobs(const Args& args, Report* report) {
  const std::string store_path = args.work_dir + "/titanic.aim";
  const std::string daemon_dir = args.work_dir + "/aimd";
  fs::create_directories(daemon_dir);
  const std::vector<std::string> daemon_args = {
      "--work-dir=" + daemon_dir,
      "--job-workers=2",
      "--threads=1",
      "--tenant=bench:1e9",
      "--rate-burst=1e9",
      "--rate-per-s=1e9",
      "--checkpoint-generations=" + std::to_string(kCheckpointGenerations)};

  // Set-up: simulate and store the data, then start aimd until /healthz
  // answers; repeated, each daemon but the last stopped again.
  SetupFacts setup;
  std::vector<double> setup_times;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < kServeSetupRepeats; ++i) {
    if (daemon != nullptr) {
      aim::StatusOr<double> stopped = daemon->Stop(30.0);
      daemon.reset();
      if (!stopped.ok()) {
        std::cerr << "setup: " << stopped.status().ToString() << "\n";
        return 1;
      }
    }
    const Clock::time_point start = Clock::now();
    const aim::Dataset data =
        SampleRecords(Population(aim::PaperDataset::kTitanic), kTitanicKeep,
                      DeriveSeed(args.seed, 1));
    aim::Status written = aim::WriteStore(data, store_path);
    if (!written.ok()) {
      std::cerr << "setup: " << written.ToString() << "\n";
      return 1;
    }
    aim::StatusOr<std::unique_ptr<Daemon>> started = Daemon::Start(
        args.aimd, daemon_args, args.work_dir + "/aimd.log", 30.0);
    if (!started.ok()) {
      std::cerr << "setup: " << started.status().ToString() << "\n";
      return 1;
    }
    daemon = std::move(*started);
    setup_times.push_back(SecondsSince(start));
  }
  setup.setup_s = Median(setup_times);

  const Clock::time_point open_start = Clock::now();
  aim::StatusOr<std::unique_ptr<aim::StoreSource>> store =
      aim::StoreSource::Open(store_path);
  setup.open_s = SecondsSince(open_start);
  if (!store.ok()) {
    std::cerr << "cannot open " << store_path << "\n";
    return 1;
  }
  setup.bytes_mapped = (*store)->mapped_bytes();
  const aim::Domain& domain = (*store)->domain();
  const aim::Workload workload =
      aim::AllKWayWorkload(domain, std::min(3, domain.num_attributes()));

  // The closed loop: each client submits, polls to done, fetches, repeats.
  std::vector<JobSample> samples(kServeJobs);
  std::atomic<int> next{0};
  const int port = daemon->port();
  const Clock::time_point loop_start = Clock::now();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kServeClients; ++c) {
      clients.emplace_back([&] {
        for (int i = next++; i < kServeJobs; i = next++) {
          samples[i] = RunJob(port, JobBody(store_path, JobSeed(args.seed, i)),
                              domain, i == 0);
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  const double run_s = SecondsSince(loop_start);
  aim::StatusOr<double> daemon_rss = daemon->Stop(60.0);
  daemon.reset();
  if (!daemon_rss.ok()) {
    report->Op("aimd: " + daemon_rss.status().ToString());
  }

  // Workload error is the mean over every job's synthetic data.
  const aim::WorkloadMarginalCache true_marginals(**store, workload);
  double error_sum = 0.0;
  ServeFacts serve;
  std::vector<double> latency, submit, poll, fetch, queue_wait, job, bytes;
  for (JobSample& s : samples) {
    if (s.failure.empty()) {
      const double error = aim::WorkloadError(**store, s.synthetic, workload,
                                              &true_marginals);
      if (!std::isfinite(error)) s.failure = "workload error is not finite";
      error_sum += error;
    }
    report->Op(s.failure);
    if (s.rejected_status != 0) ++serve.rejections;
    if (!s.failure.empty()) continue;
    latency.push_back(s.latency_s);
    submit.push_back(s.submit_s);
    poll.push_back(s.poll_s);
    fetch.push_back(s.fetch_s);
    queue_wait.push_back(s.latency_s - s.job_s);
    job.push_back(s.job_s);
    bytes.push_back(static_cast<double>(s.checkpoint_bytes));
  }
  serve.jobs = static_cast<int64_t>(latency.size());
  const double workload_error = error_sum / std::max<int64_t>(1, serve.jobs);
  serve.submit_s = Median(submit);
  serve.poll_s = Median(poll);
  serve.fetch_s = Median(fetch);
  serve.queue_wait_s = Median(queue_wait);
  serve.job_s = Median(job);
  serve.checkpoint_bytes = Median(bytes);
  std::cerr << "serve-jobs: " << serve.jobs << " latency samples from "
            << kServeClients << " closed-loop clients, status polled every "
            << kPollInterval << " s, " << serve.rejections
            << " refused submissions\n";

  // The daemon = in-process contract: job 0 run through the registry
  // in-process, exactly as the job manager builds it.
  aim::SetParallelThreads(1);
  aim::RegistryOptions reg;
  reg.max_size_mb = kServeMaxSizeMb;
  reg.synthetic_records = -1;
  reg.record_candidates = false;
  std::unique_ptr<aim::Mechanism> reference = aim::MechanismByName("AIM", reg);
  const double rho = aim::CdpRho(kServeEpsilon, kServeDelta);
  // The job manager's derivation of the mechanism seed from the job seed.
  const uint64_t job0_seed = JobSeed(args.seed, 0) + 0x41494D;
  aim::Rng rng(job0_seed);
  const Clock::time_point ref_start = Clock::now();
  aim::MechanismResult result = reference->Run(**store, workload, rho, rng);
  const double reference_run_s = SecondsSince(ref_start);
  std::string failure = CheckMechanismResult(result, domain);
  const std::string reference_csv = args.work_dir + "/reference.csv";
  aim::Status written = aim::WriteCsv(result.synthetic, reference_csv);
  std::ifstream in(reference_csv, std::ios::binary);
  std::ostringstream bytes_in;
  bytes_in << in.rdbuf();
  if (failure.empty() &&
      (!written.ok() || bytes_in.str() != samples[0].csv)) {
    failure = "daemon job 0 output differs from the in-process run";
  }
  report->Op(failure);

  if (!args.trace) {
    const double p90 = HighestReportablePercentile(
                           static_cast<int64_t>(latency.size())) >= 90.0
                           ? Percentile(latency, 90)
                           : 0.0;
    if (p90 == 0.0) report->Op("too few job samples for a p90");
    AddEndToEnd(report, setup.setup_s, run_s, workload_error,
                daemon_rss.ok() ? *daemon_rss : 0.0, Median(latency), p90,
                static_cast<double>(latency.size()) / run_s);
    return 0;
  }
  aim::AimOptions traced_options =
      dynamic_cast<const aim::AimMechanism&>(*reference).options();
  traced_options.record_candidates = true;
  const Ledger ledger =
      TraceAndReplay(aim::AimMechanism(traced_options), **store, workload,
                     rho, job0_seed);
  report->Op(CheckLedger(ledger, DatasetHash(result.synthetic)));
  AddPerLayer(report, ledger, reference_run_s, setup, serve);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return false;
    flags[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1) return false;
  for (const char* required :
       {"workload", "seed", "seconds", "trace", "work-dir", "aimd"}) {
    if (flags.count(required) == 0) return false;
  }
  args->workload = flags["workload"];
  char* end = nullptr;
  args->seed = std::strtoull(flags["seed"].c_str(), &end, 10);
  if (*end != '\0') return false;
  args->seconds = std::strtod(flags["seconds"].c_str(), &end);
  if (*end != '\0' || !(args->seconds > 0.0)) return false;
  if (flags["trace"] != "0" && flags["trace"] != "1") return false;
  args->trace = flags["trace"] == "1";
  args->work_dir = fs::absolute(flags["work-dir"]).string();
  args->aimd = fs::absolute(flags["aimd"]).string();
  return args->workload == "estimate-adult" ||
         args->workload == "scan-msnbc" || args->workload == "serve-jobs";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench_e2e --workload "
                 "estimate-adult|scan-msnbc|serve-jobs --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR --aimd PATH\n";
    return 2;
  }
  fs::remove_all(args.work_dir);
  fs::create_directories(args.work_dir);
  Report report;
  const int code = args.workload == "serve-jobs"
                       ? RunServeJobs(args, &report)
                       : RunOneShot(args, &report);
  fs::remove_all(args.work_dir);
  if (code != 0) return code;

  for (const std::string& f : report.failures) {
    std::cerr << "CHECK FAILED: " << f << "\n";
  }
  for (const Metric& m : report.metrics) {
    std::cerr << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  const bool correct = report.failures.empty();
  std::cout << ResultLine(correct, report.attempted,
                          static_cast<int64_t>(report.failures.size()),
                          report.metrics)
            << std::endl;
  return correct ? 0 : 1;
}
