// AutoCTS benchmark program: runs one workload (search, evaluate or serve)
// on inputs made from --seed for --seconds of measured work, checks the
// program's outputs, and prints one JSON result line. --trace 1 runs the
// same workload with the tracer on and prints the per-layer metrics instead
// of the end-to-end ones. --self-test shows that every check can fail and
// that a short search is bit-identical at 1 and at all kernel threads.
//
// Build and run through run.py, which sets the kernel thread count and the
// process start time (PERFBENCH_T0_NS) this program measures set-up from.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "autograd/variable_ops.h"
#include "checks.h"
#include "common/buffer_pool.h"
#include "common/metrics_registry.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "core/eval_scheduler.h"
#include "core/evaluator.h"
#include "core/operator_set.h"
#include "core/searcher.h"
#include "inputs.h"
#include "net/client.h"
#include "net/tcp_server.h"
#include "probes.h"
#include "serve/inference_session.h"

namespace perfbench {
namespace {

using autocts::Tensor;
namespace core = autocts::core;
namespace models = autocts::models;
namespace serve = autocts::serve;

// Workload configuration. A search round is one JointSearcher run; an
// evaluate round is one EvalScheduler batch over all candidates; a serve
// round is one pass of a client over every test window. Model and batch
// shapes are in inputs.h.
constexpr int64_t kSearchRoundSteps = 8;
constexpr int64_t kSearchWarmupSteps = 2;
constexpr uint64_t kSearchSeed = 3;
constexpr int64_t kCandidates = 4;
constexpr int64_t kCandidateBatches = 8;
constexpr uint64_t kTrainSeed = 7;
constexpr int64_t kServeTrainEpochs = 1;
constexpr int64_t kServeTrainBatches = 6;
constexpr int64_t kServeWorkers = 2;
constexpr int64_t kServeMaxBatch = 8;

int64_t g_start_ns = 0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
};

struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> problems;
  Metrics end_to_end;
  Metrics layers;
  Metrics notes;  // printed for people, not part of the JSON result
};

double SecondsSince(int64_t start) {
  return static_cast<double>(NowNanos() - start) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int64_t HardwareThreads() {
  return std::max<int64_t>(1, std::thread::hardware_concurrency());
}

void Expect(const Problem& problem, Outcome* outcome) {
  if (!problem.empty()) outcome->problems.push_back(problem);
}

// ---- main-phase layer counters (traced mode) ----

struct Counters {
  autocts::PoolStats pool;
  autocts::BufferPoolStats buffers;
};

Counters StartCounters() {
  autocts::trace::Start();
  return {autocts::GetPoolStats(), autocts::BufferPool::Global().Stats()};
}

// Tape and kernel-pool activity of the main phase per unit of work.
void StopCounters(const Counters& before, double units, Metrics* out) {
  autocts::trace::Stop();
  const autocts::PoolStats pool = autocts::GetPoolStats();
  const autocts::BufferPoolStats buffers =
      autocts::BufferPool::Global().Stats();
  const std::vector<std::string>& labels = autocts::ag::RegisteredOpLabels();
  double forward_calls = 0.0;
  for (const auto& stat : autocts::trace::AggregateOps()) {
    if (std::find(labels.begin(), labels.end(), stat.name) != labels.end()) {
      forward_calls += static_cast<double>(stat.calls);
    }
  }
  // Kernel chunks run inline (one kernel thread) or through the pool.
  const double jobs = static_cast<double>(pool.jobs - before.pool.jobs);
  const double chunks =
      static_cast<double>(pool.chunks - before.pool.chunks +
                          pool.serial_chunks - before.pool.serial_chunks);
  const double hits = static_cast<double>(buffers.hits - before.buffers.hits);
  const double misses =
      static_cast<double>(buffers.misses - before.buffers.misses);
  out->push_back({"autograd.nodes_per_unit", forward_calls / units, "count"});
  out->push_back({"parallel.jobs_per_unit", jobs / units, "count"});
  out->push_back({"parallel.chunks_per_unit", chunks / units, "count"});
  out->push_back(
      {"parallel.worker_chunk_share",
       static_cast<double>(pool.worker_chunks - before.pool.worker_chunks) /
           std::max(1.0, chunks),
       "ratio"});
  out->push_back({"buffer_pool.hit_ratio",
                  hits / std::max(1.0, hits + misses), "ratio"});
  out->push_back({"buffer_pool.cached_mb",
                  static_cast<double>(buffers.cached_bytes) / (1 << 20),
                  "MB"});
}

// ---- search ----

struct SearchRound {
  bool ok = false;
  std::string error;
  core::SearchResult result;
  std::vector<double> step_ms;  // hook-to-hook, so each is one whole step
  double wall_s = 0.0;
};

SearchRound RunSearchRound(const models::PreparedData& data, int64_t steps) {
  core::SearchOptions options;
  options.supernet.micro_nodes = kMicroNodes;
  options.supernet.macro_blocks = kMacroBlocks;
  options.supernet.op_set = core::CompactOperatorSet();
  options.epochs = 1;
  options.batch_size = kSearchBatch;
  options.max_batches_per_epoch = steps;
  options.seed = kSearchSeed;
  std::vector<int64_t> stamps;
  options.fault_injection_hook = [&stamps](int64_t, int64_t, core::Supernet*) {
    stamps.push_back(NowNanos());
  };
  SearchRound round;
  const int64_t start = NowNanos();
  autocts::StatusOr<core::SearchResult> result =
      core::JointSearcher(options).SearchWithStatus(data);
  round.wall_s = SecondsSince(start);
  if (!result.ok()) {
    round.error = result.status().ToString();
    return round;
  }
  round.ok = true;
  round.result = std::move(result).value();
  for (size_t i = 1; i < stamps.size(); ++i) {
    round.step_ms.push_back(static_cast<double>(stamps[i] - stamps[i - 1]) *
                            1e-6);
  }
  return round;
}

bool SameSearch(const core::SearchResult& a, const core::SearchResult& b) {
  return a.genotype.ToText() == b.genotype.ToText() &&
         std::memcmp(&a.final_validation_loss, &b.final_validation_loss,
                     sizeof(double)) == 0;
}

// ---- evaluate ----

struct EvalRound {
  bool ok = false;
  std::string error;
  core::EvalBatchResult batch;
  std::vector<double> batch_ms;  // hook-to-hook within one candidate
  double wall_s = 0.0;
};

EvalRound RunEvalRound(const std::vector<core::Genotype>& candidates,
                       const models::PreparedData& data, int64_t workers,
                       int64_t batches) {
  std::vector<std::vector<int64_t>> stamps(candidates.size());
  core::EvalSchedulerOptions options;
  options.workers = workers;
  options.hidden_dim = Geometry().hidden;
  options.train.epochs = 1;
  options.train.batch_size = kTrainBatch;
  options.train.max_batches_per_epoch = batches;
  options.train.seed = kTrainSeed;
  options.candidate_setup_hook = [&stamps](int64_t index,
                                           models::TrainConfig* config) {
    std::vector<int64_t>* mine = &stamps[index];
    config->fault_injection_hook = [mine](int64_t, int64_t,
                                          models::ForecastingModel*) {
      mine->push_back(NowNanos());
    };
  };
  EvalRound round;
  const int64_t start = NowNanos();
  autocts::StatusOr<core::EvalBatchResult> result =
      core::EvalScheduler(options).Evaluate(candidates, data);
  round.wall_s = SecondsSince(start);
  if (!result.ok()) {
    round.error = result.status().ToString();
    return round;
  }
  round.ok = true;
  round.batch = std::move(result).value();
  for (const std::vector<int64_t>& mine : stamps) {
    for (size_t i = 1; i < mine.size(); ++i) {
      round.batch_ms.push_back(static_cast<double>(mine[i] - mine[i - 1]) *
                               1e-6);
    }
  }
  return round;
}

// Candidate wall and pool idle time of evaluate rounds.
void EvalLayerMetrics(const std::vector<EvalRound>& rounds, int64_t workers,
                      Metrics* out) {
  std::vector<double> candidate_s, idle_s;
  for (const EvalRound& round : rounds) {
    double busy = 0.0;
    for (const core::CandidateOutcome& c : round.batch.candidates) {
      candidate_s.push_back(c.wall_seconds);
      busy += c.wall_seconds;
    }
    idle_s.push_back(static_cast<double>(workers) * round.wall_s - busy);
  }
  out->push_back(
      {"core.eval_scheduler.candidate_s", Median(candidate_s), "s"});
  out->push_back({"core.eval_scheduler.idle_s", Median(idle_s), "s"});
}

// ---- serve ----

struct ServeRun {
  std::string error;
  int64_t sent = 0;  // warm-up included
  int64_t measured = 0;
  int64_t received = 0;
  int64_t failed = 0;
  int64_t measured_failed = 0;
  int64_t mismatched = 0;
  std::vector<double> latency_ms;    // measured requests only
  std::vector<double> per_second;    // completions in each whole second
  double mean_all_ms = 0.0;          // every request, warm-up included
  std::vector<Tensor> first_round;   // client 0's first measured round
  double wall_s = 0.0;
  double batch_fill = 0.0;
  double server_mean_ms = 0.0;
  int64_t server_decoded = 0;
  int64_t server_sent = 0;
};

// Closed loop over loopback TCP: `clients` connections each send every
// window in turn, whole rounds only, `warmup_rounds` before `on_measure`
// runs and then rounds until `seconds` have passed (at least
// `min_rounds`). Every response is compared bit for bit to `reference`.
ServeRun RunServe(const serve::ModelArtifact& artifact,
                  const std::vector<Tensor>& windows,
                  const std::vector<Tensor>& reference, int64_t clients,
                  int warmup_rounds, int min_rounds, double seconds,
                  const std::function<void()>& on_measure) {
  ServeRun run;
  autocts::obs::MetricsRegistry registry;
  autocts::net::TcpServeOptions options;
  options.serve.workers = kServeWorkers;
  options.serve.max_batch = kServeMaxBatch;
  options.serve.metrics = &registry;
  autocts::net::TcpForecastServer server(artifact, options);
  const autocts::Status started = server.Start();
  if (!started.ok()) {
    run.error = "server start: " + started.ToString();
    return run;
  }
  const int64_t n = static_cast<int64_t>(windows.size());
  struct ClientLog {
    int64_t sent = 0, measured = 0, received = 0, failed = 0;
    int64_t measured_failed = 0, mismatched = 0;
    std::vector<double> latency_ms;
    std::vector<int64_t> done_ns;
    double total_ms = 0.0;
    std::vector<Tensor> first_round;
    int64_t end_ns = 0;
    std::string error;
  };
  std::vector<ClientLog> logs(clients);
  std::latch warmed(clients);
  std::latch go(1);
  std::atomic<int64_t> begin_ns{0};
  std::vector<std::thread> threads;
  for (int64_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[c];
      autocts::net::ForecastClientOptions client_options;
      client_options.port = server.port();
      autocts::net::ForecastClient client(client_options);
      const autocts::Status connected = client.Connect();
      if (!connected.ok()) log.error = connected.ToString();
      const auto round = [&](bool measured, bool keep) {
        for (int64_t i = 0; i < n; ++i) {
          const int64_t w = (i + c * n / clients) % n;
          const int64_t start = NowNanos();
          autocts::StatusOr<Tensor> forecast = client.Predict(windows[w]);
          const int64_t done = NowNanos();
          const double ms = static_cast<double>(done - start) * 1e-6;
          ++log.sent;
          log.total_ms += ms;
          if (measured) {
            ++log.measured;
            log.latency_ms.push_back(ms);
            log.done_ns.push_back(done);
          }
          if (!forecast.ok()) {
            ++log.failed;
            if (measured) ++log.measured_failed;
            continue;
          }
          ++log.received;
          if (!CheckBitIdentical(forecast.value(), reference[w]).empty()) {
            ++log.mismatched;
          }
          if (keep) log.first_round.push_back(forecast.value());
        }
      };
      for (int r = 0; r < warmup_rounds; ++r) round(false, false);
      warmed.count_down();
      go.wait();
      const int64_t begin = begin_ns.load();
      for (int r = 0; r < min_rounds ||
                      static_cast<double>(NowNanos() - begin) * 1e-9 < seconds;
           ++r) {
        round(true, c == 0 && r == 0);
      }
      log.end_ns = NowNanos();
    });
  }
  warmed.wait();
  if (on_measure) on_measure();
  const serve::ForecastServer::Stats before =
      server.forecast_server().stats();
  begin_ns.store(NowNanos());
  go.count_down();
  for (std::thread& thread : threads) thread.join();
  int64_t end_ns = begin_ns.load();
  double total_ms = 0.0;
  for (ClientLog& log : logs) {
    if (!log.error.empty() && run.error.empty()) run.error = log.error;
    total_ms += log.total_ms;
    run.sent += log.sent;
    run.measured += log.measured;
    run.received += log.received;
    run.failed += log.failed;
    run.measured_failed += log.measured_failed;
    run.mismatched += log.mismatched;
    run.latency_ms.insert(run.latency_ms.end(), log.latency_ms.begin(),
                          log.latency_ms.end());
    end_ns = std::max(end_ns, log.end_ns);
  }
  run.first_round = std::move(logs[0].first_round);
  run.mean_all_ms =
      total_ms / static_cast<double>(std::max<int64_t>(1, run.sent));
  run.wall_s = static_cast<double>(end_ns - begin_ns.load()) * 1e-9;
  // Completions per whole second while every client is still sending.
  const int64_t whole_seconds =
      static_cast<int64_t>(std::min(seconds, run.wall_s));
  run.per_second.assign(std::max<int64_t>(1, whole_seconds), 0.0);
  for (const ClientLog& log : logs) {
    for (int64_t done : log.done_ns) {
      const int64_t w = (done - begin_ns.load()) / 1000000000;
      if (w < whole_seconds) run.per_second[w] += 1.0;
    }
  }
  const serve::ForecastServer::Stats after = server.forecast_server().stats();
  run.batch_fill =
      static_cast<double>(after.requests_served - before.requests_served) /
      static_cast<double>(
          std::max<int64_t>(1, after.batches - before.batches));
  server.Stop();
  const autocts::net::TcpForecastServer::Stats stats = server.stats();
  run.server_decoded = stats.requests_decoded;
  run.server_sent = stats.responses_sent + stats.error_frames_sent;
  const autocts::obs::Histogram* latency = registry.GetHistogram(
      serve::kMetricLatencyMs, {1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0});
  run.server_mean_ms = latency->sum() / static_cast<double>(
                                           std::max<int64_t>(1, latency->count()));
  return run;
}

// The server keeps per-request latencies only as a histogram over its whole
// life, so the server-side figure is a mean over every request it answered
// and the network overhead compares it with the client mean over the same
// requests.
void ServeLayerMetrics(const ServeRun& run, Metrics* out) {
  out->push_back({"serve.batch_fill", run.batch_fill, "count"});
  out->push_back({"serve.server_latency_ms", run.server_mean_ms, "ms"});
  out->push_back(
      {"net.overhead_ms", run.mean_all_ms - run.server_mean_ms, "ms"});
}

void CheckServeRun(const ServeRun& run, Outcome* outcome) {
  if (!run.error.empty()) Expect("serve: " + run.error, outcome);
  if (run.mismatched > 0) {
    Expect(std::to_string(run.mismatched) +
               " responses are not bit-identical to InferenceSession::Predict",
           outcome);
  }
  Expect(CheckConservation(run.sent, run.received, run.failed,
                           run.server_decoded, run.server_sent),
         outcome);
}

struct ServeInputs {
  std::vector<Tensor> windows, truths, reference;
};

ServeInputs MakeServeInputs(const Series& series,
                            const serve::ModelArtifact& artifact) {
  const Geometry geometry;
  ServeInputs inputs;
  auto session = serve::InferenceSession::Create(artifact);
  for (int64_t w = 0; w < NumTestWindows(geometry); ++w) {
    inputs.windows.push_back(TestWindow(series, geometry, w));
    inputs.truths.push_back(TestTruth(series, geometry, w));
    inputs.reference.push_back(
        session.value()->Predict(inputs.windows.back()).value());
  }
  return inputs;
}

// ---- the layer suite of the traced mode ----

// Every traced run prints every per-layer metric. Layers the workload's
// own main phase does not run are measured by small fixed probes here.
void LayerSuite(const Args& args, const Series& series,
                const models::PreparedData& data, bool own_eval,
                bool own_serve, Outcome* outcome) {
  const std::vector<core::Genotype> candidates =
      SampleGenotypes(args.seed, kCandidates, kMacroBlocks, kMicroNodes);
  Metrics* out = &outcome->layers;
  ProbeHost(out);
  ProbeData(series, out);
  ProbeTensor(out);
  ProbeOps(series, out);
  ProbeSupernet(data, out);
  const serve::ModelArtifact artifact =
      ProbeModel(data, series, candidates[0], out);
  ProbeWire(out);
  if (!own_eval) {
    const int64_t workers = std::min<int64_t>(kCandidates, HardwareThreads());
    std::vector<EvalRound> rounds = {
        RunEvalRound(candidates, data, workers, /*batches=*/2)};
    if (!rounds[0].ok) Expect("eval probe: " + rounds[0].error, outcome);
    EvalLayerMetrics(rounds, workers, out);
  }
  if (!own_serve) {
    const ServeInputs inputs = MakeServeInputs(series, artifact);
    const ServeRun run =
        RunServe(artifact, inputs.windows, inputs.reference,
                 std::min<int64_t>(4, HardwareThreads()), 1, 2, 0.0, {});
    CheckServeRun(run, outcome);
    ServeLayerMetrics(run, out);
  }
}

// ---- workloads ----

void RunSearchWorkload(const Args& args, Outcome* outcome) {
  const Geometry geometry;
  const Series series = MakeSeries(args.seed, geometry);
  const models::PreparedData data = Prepare(series, geometry);
  const double node_mean_loss = NodeMeanLossNormalized(data);
  const SearchRound warmup = RunSearchRound(data, kSearchWarmupSteps);
  if (!warmup.ok) Expect("search warm-up: " + warmup.error, outcome);
  const double setup_s = SecondsSince(g_start_ns);

  Counters counters;
  if (args.trace) counters = StartCounters();
  std::vector<double> step_ms, steps_per_s;
  int64_t steps_done = 0;
  SearchRound first;
  const int64_t begin = NowNanos();
  while (SecondsSince(begin) < args.seconds) {
    SearchRound round = RunSearchRound(data, kSearchRoundSteps);
    outcome->attempted += kSearchRoundSteps;
    if (!round.ok) {
      outcome->failed += kSearchRoundSteps;
      Expect("search round failed: " + round.error, outcome);
      continue;
    }
    steps_done += kSearchRoundSteps;
    steps_per_s.push_back(kSearchRoundSteps / round.wall_s);
    step_ms.insert(step_ms.end(), round.step_ms.begin(), round.step_ms.end());
    if (!first.ok) {
      first = std::move(round);
      Expect(CheckSearchGenotype(first.result.genotype, kMacroBlocks,
                                 kMicroNodes),
             outcome);
      Expect(CheckSearchLoss(first.result.final_validation_loss,
                             node_mean_loss),
             outcome);
    } else if (!SameSearch(round.result, first.result)) {
      Expect("a search round is not bit-identical to the first", outcome);
    }
  }
  const double step = Median(step_ms);
  outcome->notes.push_back({"search.step_ms", step, "ms"});
  outcome->notes.push_back({"search.node_mean_loss", node_mean_loss, "loss"});
  if (args.trace) {
    StopCounters(counters, static_cast<double>(steps_done), &outcome->layers);
    LayerSuite(args, series, data, false, false, outcome);
    return;
  }
  outcome->end_to_end = {
      {"setup_s", setup_s, "s"},
      {"unit_ms", step, "ms"},
      {"units_per_s", Median(steps_per_s), "1/s"},
      {"quality", first.result.final_validation_loss, "mae"}};
}

void RunEvaluateWorkload(const Args& args, Outcome* outcome) {
  const Geometry geometry;
  const Series series = MakeSeries(args.seed, geometry);
  const models::PreparedData data = Prepare(series, geometry);
  const double node_mean_mae = NodeMeanMaeRaw(series, geometry);
  const std::vector<core::Genotype> candidates =
      SampleGenotypes(args.seed, kCandidates, kMacroBlocks, kMicroNodes);
  const int64_t workers = std::min<int64_t>(kCandidates, HardwareThreads());
  const EvalRound warmup =
      RunEvalRound(candidates, data, workers, kCandidateBatches);
  if (!warmup.ok) Expect("evaluate warm-up: " + warmup.error, outcome);
  const double setup_s = SecondsSince(g_start_ns);

  Counters counters;
  if (args.trace) counters = StartCounters();
  std::vector<EvalRound> rounds;
  std::vector<double> batch_ms, batches_per_s;
  int64_t batches_done = 0;
  double best_mae = INFINITY;
  const int64_t begin = NowNanos();
  while (SecondsSince(begin) < args.seconds) {
    EvalRound round = RunEvalRound(candidates, data, workers,
                                   kCandidateBatches);
    outcome->attempted += kCandidates * kCandidateBatches;
    if (!round.ok) {
      outcome->failed += kCandidates * kCandidateBatches;
      Expect("evaluate round failed: " + round.error, outcome);
      continue;
    }
    int64_t round_batches = 0;
    for (int64_t k = 0; k < kCandidates; ++k) {
      const core::CandidateOutcome& c = round.batch.candidates[k];
      if (!c.status.ok()) {
        outcome->failed += kCandidateBatches;
        Expect("candidate " + std::to_string(k) + ": " + c.status.ToString(),
               outcome);
        continue;
      }
      round_batches += kCandidateBatches;
      const double mae = c.result.average.mae;
      best_mae = std::min(best_mae, mae);
      if (rounds.empty()) {
        Expect(CheckCandidate(mae, c.result.average.rmse, node_mean_mae),
               outcome);
      }
      if (warmup.ok && std::memcmp(&mae,
                                   &warmup.batch.candidates[k].result.average
                                        .mae,
                                   sizeof(double)) != 0) {
        Expect("candidate " + std::to_string(k) +
                   " is not bit-identical across rounds",
               outcome);
      }
    }
    batches_done += round_batches;
    batches_per_s.push_back(static_cast<double>(round_batches) / round.wall_s);
    batch_ms.insert(batch_ms.end(), round.batch_ms.begin(),
                    round.batch_ms.end());
    rounds.push_back(std::move(round));
  }
  const double throughput = Median(batches_per_s);
  outcome->notes.push_back({"evaluate.batches_per_s", throughput, "1/s"});
  outcome->notes.push_back({"evaluate.node_mean_mae", node_mean_mae, "mae"});
  if (args.trace) {
    StopCounters(counters, static_cast<double>(batches_done),
                 &outcome->layers);
    EvalLayerMetrics(rounds, workers, &outcome->layers);
    LayerSuite(args, series, data, true, false, outcome);
    return;
  }
  outcome->end_to_end = {{"setup_s", setup_s, "s"},
                         {"unit_ms", Median(batch_ms), "ms"},
                         {"units_per_s", throughput, "1/s"},
                         {"quality", best_mae, "mae"}};
}

void RunServeWorkload(const Args& args, Outcome* outcome) {
  const Geometry geometry;
  const Series series = MakeSeries(args.seed, geometry);
  const models::PreparedData data = Prepare(series, geometry);
  const core::Genotype genotype =
      SampleGenotypes(args.seed, kCandidates, kMacroBlocks, kMicroNodes)[0];
  models::TrainConfig config;
  config.epochs = kServeTrainEpochs;
  config.batch_size = kTrainBatch;
  config.max_batches_per_epoch = kServeTrainBatches;
  config.seed = kTrainSeed;
  autocts::StatusOr<core::TrainedGenotype> trained =
      core::TrainGenotypeWithStatus(genotype, data, geometry.hidden, config);
  if (!trained.ok()) {
    Expect("serve training: " + trained.status().ToString(), outcome);
    return;
  }
  const serve::ModelArtifact artifact = serve::MakeModelArtifact(
      *trained.value().model, data, geometry.hidden, kTrainSeed);
  const ServeInputs inputs = MakeServeInputs(series, artifact);
  const int64_t clients = std::min<int64_t>(4, HardwareThreads());

  double setup_s = 0.0;
  Counters counters;
  const ServeRun run = RunServe(
      artifact, inputs.windows, inputs.reference, clients,
      /*warmup_rounds=*/1, /*min_rounds=*/1, args.seconds, [&] {
        setup_s = SecondsSince(g_start_ns);
        if (args.trace) counters = StartCounters();
      });
  outcome->attempted = run.measured;
  outcome->failed = run.measured_failed;
  CheckServeRun(run, outcome);
  const int64_t n = static_cast<int64_t>(inputs.windows.size());
  double served_mae = NAN;
  if (static_cast<int64_t>(run.first_round.size()) == n) {
    // Client 0 starts its round at window 0, so responses are in order.
    served_mae = MeanAbsoluteError(run.first_round, inputs.truths);
    Expect(CheckMaeAgrees(served_mae, trained.value().eval.average.mae),
           outcome);
  } else {
    Expect("client 0 lost responses of its first round", outcome);
  }
  const double p50 = Median(run.latency_ms);
  const double qps = Median(run.per_second);
  outcome->notes.push_back({"serve.p50_ms", p50, "ms"});
  outcome->notes.push_back({"serve.p99_ms", Quantile(run.latency_ms, 0.99),
                            "ms"});
  outcome->notes.push_back({"serve.qps", qps, "1/s"});
  if (args.trace) {
    StopCounters(counters, static_cast<double>(run.measured),
                 &outcome->layers);
    ServeLayerMetrics(run, &outcome->layers);
    LayerSuite(args, series, data, false, true, outcome);
    return;
  }
  outcome->end_to_end = {{"setup_s", setup_s, "s"},
                         {"unit_ms", p50, "ms"},
                         {"units_per_s", qps, "1/s"},
                         {"quality", served_mae, "mae"}};
}

int SelfTest() {
  int failures = 0;
  for (const std::string& missed : SelfTestChecks()) {
    std::printf("FAIL check self-test: %s\n", missed.c_str());
    ++failures;
  }
  const Geometry geometry;
  const models::PreparedData data = Prepare(MakeSeries(1, geometry), geometry);
  const int64_t all = HardwareThreads();
  autocts::SetNumThreads(1);
  const SearchRound one = RunSearchRound(data, kSearchWarmupSteps);
  autocts::SetNumThreads(all);
  const SearchRound many = RunSearchRound(data, kSearchWarmupSteps);
  if (!one.ok || !many.ok || !SameSearch(one.result, many.result)) {
    std::printf("FAIL search at 1 and %lld threads differs\n",
                static_cast<long long>(all));
    ++failures;
  } else {
    std::printf("ok   search bit-identical at 1 and %lld threads "
                "(val loss %a)\n",
                static_cast<long long>(all),
                one.result.final_validation_loss);
  }
  std::printf("self-test: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return args->self_test || !args->workload.empty();
}

void PrintResult(const Outcome& outcome) {
  for (const Metric& note : outcome.notes) {
    std::printf("# %s = %.6g %s\n", note.name.c_str(), note.value,
                note.unit.c_str());
  }
  for (const std::string& problem : outcome.problems) {
    std::printf("# PROBLEM: %s\n", problem.c_str());
  }
  const Metrics& metrics =
      outcome.end_to_end.empty() ? outcome.layers : outcome.end_to_end;
  bool finite = true;
  std::string body;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) finite = false;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : -1.0);
    if (!body.empty()) body += ", ";
    body += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  const bool correct = outcome.problems.empty() && finite;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<long long>(outcome.attempted),
              static_cast<long long>(outcome.failed), body.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const char* t0 = std::getenv("PERFBENCH_T0_NS");
  g_start_ns = t0 != nullptr ? std::strtoll(t0, nullptr, 10) : NowNanos();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload search|evaluate|serve "
                 "--seed N --seconds S --trace 0|1 | --self-test\n");
    return 2;
  }
  if (args.self_test) return SelfTest();
  Outcome outcome;
  if (args.workload == "search") {
    RunSearchWorkload(args, &outcome);
  } else if (args.workload == "evaluate") {
    RunEvaluateWorkload(args, &outcome);
  } else if (args.workload == "serve") {
    RunServeWorkload(args, &outcome);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  for (const std::string& missed : SelfTestChecks()) {
    outcome.problems.push_back("check self-test: " + missed);
  }
  if (outcome.attempted < 1) outcome.problems.push_back("no work attempted");
  if (!args.trace) {
    outcome.end_to_end.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
    // The host reference moves with other load on the machine only.
    ProbeHost(&outcome.notes);
  }
  PrintResult(outcome);
  return 0;
}
