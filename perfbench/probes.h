// Per-layer probes: each times public functions of one layer of the program
// from outside, at the shapes the workloads run (inputs.h). Only the traced mode runs
// them.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/genotype.h"
#include "inputs.h"
#include "models/trainer.h"
#include "serve/model_artifact.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

int64_t NowNanos();  // CLOCK_MONOTONIC, as std::chrono::steady_clock

double Median(std::vector<double> values);
double Quantile(std::vector<double> values, double q);  // nearest rank

// Median wall time of one call of `fn` in microseconds. Calls are grouped
// so that each timed group lasts at least `min_group_seconds`; `groups`
// groups are timed after one warm-up call.
double MedianCallMicros(const std::function<void()>& fn, int groups = 7,
                        double min_group_seconds = 0.01);

// tensor.matmul_search.{us,gflops}, tensor.matmul_serve.us,
// tensor.elementwise.ns_per_elem.
void ProbeTensor(Metrics* out);
// ops.<op>.fwd_bwd_us at the search's edge shape, ops.<op>.fwd_us at batch 1.
void ProbeOps(const Series& series, Metrics* out);
// core.supernet.{forward,backward}_ms, optim.adam_step_ms and the tracer's
// autograd.<op>.ms self time per first-order bilevel step.
void ProbeSupernet(const autocts::models::PreparedData& data, Metrics* out);
// models.train_batch_ms, models.test_pass_ms, serve.predict_batch{1,8}_ms.
// Returns the probe model's artifact for a serving probe.
autocts::serve::ModelArtifact ProbeModel(
    const autocts::models::PreparedData& data, const Series& series,
    const autocts::core::Genotype& genotype, Metrics* out);
// net.encode_us, net.decode_us for one request and one response frame.
void ProbeWire(Metrics* out);
// data.prepare_ms.
void ProbeData(const Series& series, Metrics* out);
// host.calib_ms: a fixed loop that runs no program code.
void ProbeHost(Metrics* out);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
