#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "autograd/variable_ops.h"
#include "common/random.h"
#include "common/trace.h"
#include "core/evaluator.h"
#include "core/operator_set.h"
#include "core/supernet.h"
#include "net/wire_codec.h"
#include "ops/op_registry.h"
#include "optim/adam.h"
#include "serve/inference_session.h"
#include "tensor/tensor_ops.h"

namespace perfbench {

namespace ag = autocts::ag;
using autocts::Tensor;
using autocts::Variable;

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return NAN;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double MedianCallMicros(const std::function<void()>& fn, int groups,
                        double min_group_seconds) {
  fn();  // warm-up
  int64_t calls = 1;
  while (true) {
    const int64_t start = NowNanos();
    for (int64_t i = 0; i < calls; ++i) fn();
    const double seconds = static_cast<double>(NowNanos() - start) * 1e-9;
    if (seconds >= min_group_seconds) break;
    calls *= 2;
  }
  std::vector<double> per_call;
  for (int g = 0; g < groups; ++g) {
    const int64_t start = NowNanos();
    for (int64_t i = 0; i < calls; ++i) fn();
    per_call.push_back(static_cast<double>(NowNanos() - start) * 1e-3 /
                       static_cast<double>(calls));
  }
  return Median(per_call);
}

namespace {

double ElapsedMs(int64_t start) {
  return static_cast<double>(NowNanos() - start) * 1e-6;
}

Tensor RandomTensor(autocts::Shape shape, uint64_t seed) {
  autocts::Rng rng(seed);
  return Tensor::Randn(std::move(shape), &rng);
}

}  // namespace

void ProbeTensor(Metrics* out) {
  const Geometry g;
  const Tensor weight = RandomTensor({g.hidden, g.hidden}, 11);
  // A Linear layer on an edge activation [B, P, N, D] is the MatMul every
  // operator of the paper's set runs.
  const Tensor search_x =
      RandomTensor({kSearchBatch, g.input_length, g.nodes, g.hidden}, 12);
  const Tensor serve_x =
      RandomTensor({1, g.input_length, g.nodes, g.hidden}, 13);
  const double search_us =
      MedianCallMicros([&] { (void)autocts::MatMul(search_x, weight); });
  const double flops = 2.0 * static_cast<double>(search_x.size()) *
                       static_cast<double>(g.hidden);
  out->push_back({"tensor.matmul_search.us", search_us, "us"});
  out->push_back(
      {"tensor.matmul_search.gflops", flops / (search_us * 1e3), "GFLOP/s"});
  out->push_back({"tensor.matmul_serve.us",
                  MedianCallMicros([&] {
                    (void)autocts::MatMul(serve_x, weight);
                  }),
                  "us"});
  const Tensor other =
      RandomTensor({kSearchBatch, g.input_length, g.nodes, g.hidden}, 14);
  const double add_us =
      MedianCallMicros([&] { (void)autocts::Add(search_x, other); });
  out->push_back({"tensor.elementwise.ns_per_elem",
                  add_us * 1e3 / static_cast<double>(search_x.size()),
                  "ns"});
}

void ProbeOps(const Series& series, Metrics* out) {
  const Geometry g;
  autocts::Rng rng(21);
  autocts::ops::OpContext context;
  context.channels = g.hidden;
  context.num_nodes = g.nodes;
  context.adjacency = series.adjacency;
  context.rng = &rng;
  const Tensor search_x =
      RandomTensor({kSearchBatch, g.input_length, g.nodes, g.hidden}, 22);
  const Tensor serve_x =
      RandomTensor({1, g.input_length, g.nodes, g.hidden}, 23);
  for (const std::string name : {"gdcc", "inf_t", "dgcn", "inf_s"}) {
    autocts::ops::StOperatorPtr op = autocts::ops::CreateOp(name, context);
    const Variable x(search_x, /*requires_grad=*/true);
    out->push_back({"ops." + name + ".fwd_bwd_us",
                    MedianCallMicros([&] {
                      ag::SumAll(op->Forward(x)).Backward();
                    }),
                    "us"});
    op->SetTraining(false);
    out->push_back({"ops." + name + ".fwd_us",
                    MedianCallMicros([&] {
                      (void)op->Forward(ag::Constant(serve_x));
                    }),
                    "us"});
  }
}

void ProbeSupernet(const autocts::models::PreparedData& data, Metrics* out) {
  autocts::core::SupernetConfig config;
  config.micro_nodes = kMicroNodes;
  config.macro_blocks = kMacroBlocks;
  config.hidden_dim = Geometry().hidden;
  config.op_set = autocts::core::CompactOperatorSet();
  autocts::models::ModelContext context;
  context.num_nodes = data.num_nodes;
  context.in_features = data.in_features;
  context.input_length = data.window.input_length;
  context.output_length = data.window.output_length;
  context.hidden_dim = config.hidden_dim;
  context.adjacency = data.adjacency;
  context.seed = 31;
  autocts::core::Supernet supernet(config, context);
  autocts::optim::Adam weights(supernet.Parameters(), {});
  autocts::optim::Adam theta(supernet.ArchParameters(),
                             {.learning_rate = 3e-4, .beta1 = 0.5});
  std::vector<int64_t> rows(kSearchBatch);
  for (int64_t i = 0; i < kSearchBatch; ++i) rows[i] = i;
  Tensor x, y;
  data.train().GetBatch(rows, &x, &y);

  std::vector<double> forward_ms, backward_ms, adam_ms;
  // One first-order bilevel step: a Theta pass, then a weight pass.
  const auto step = [&] {
    for (autocts::optim::Adam* optimizer : {&theta, &weights}) {
      int64_t start = NowNanos();
      Variable loss =
          ag::L1Loss(supernet.Forward(ag::Constant(x)), ag::Constant(y));
      forward_ms.push_back(ElapsedMs(start));
      theta.ZeroGrad();
      weights.ZeroGrad();
      start = NowNanos();
      loss.Backward();
      backward_ms.push_back(ElapsedMs(start));
      start = NowNanos();
      optimizer->Step();
      if (optimizer == &weights) adam_ms.push_back(ElapsedMs(start));
    }
  };
  step();  // warm-up
  forward_ms.clear();
  backward_ms.clear();
  adam_ms.clear();
  constexpr int kSteps = 3;
  autocts::trace::Start();
  for (int s = 0; s < kSteps; ++s) step();
  autocts::trace::Stop();
  out->push_back({"core.supernet.forward_ms", Median(forward_ms), "ms"});
  out->push_back({"core.supernet.backward_ms", Median(backward_ms), "ms"});
  out->push_back({"optim.adam_step_ms", Median(adam_ms), "ms"});
  const std::vector<autocts::trace::OpStat> stats =
      autocts::trace::AggregateOps();
  for (const auto& [label, metric] :
       std::vector<std::pair<std::string, std::string>>{
           {"matmul", "autograd.matmul.ms"},
           {"matmul.bwd", "autograd.matmul_bwd.ms"},
           {"mul.bwd", "autograd.mul_bwd.ms"},
           {"add", "autograd.add.ms"},
           {"add.bwd", "autograd.add_bwd.ms"},
           {"softmax", "autograd.softmax.ms"}}) {
    double self_ns = 0.0;
    for (const auto& stat : stats) {
      if (stat.name == label) self_ns += static_cast<double>(stat.self_ns);
    }
    out->push_back({metric, self_ns * 1e-6 / kSteps, "ms"});
  }
}

autocts::serve::ModelArtifact ProbeModel(
    const autocts::models::PreparedData& data, const Series& series,
    const autocts::core::Genotype& genotype, Metrics* out) {
  const Geometry g;
  std::unique_ptr<autocts::core::DerivedModel> model =
      autocts::core::BuildDerivedModel(genotype, data, g.hidden, 7);
  autocts::optim::Adam optimizer(model->Parameters(), {});
  std::vector<int64_t> rows(kTrainBatch);
  for (int64_t i = 0; i < kTrainBatch; ++i) rows[i] = i;
  Tensor x, y;
  data.train().GetBatch(rows, &x, &y);
  out->push_back(
      {"models.train_batch_ms",
       MedianCallMicros(
           [&] {
             Variable loss = ag::L1Loss(model->Forward(ag::Constant(x)),
                                        ag::Constant(y));
             optimizer.ZeroGrad();
             loss.Backward();
             optimizer.Step();
           },
           5, 0.0) *
           1e-3,
       "ms"});
  out->push_back({"models.test_pass_ms",
                  MedianCallMicros(
                      [&] {
                        Tensor predictions, truths;
                        autocts::models::Predict(model.get(), data,
                                                 data.test(), kTrainBatch,
                                                 &predictions, &truths);
                      },
                      3, 0.0) *
                      1e-3,
                  "ms"});
  model->SetTraining(false);
  autocts::serve::ModelArtifact artifact =
      autocts::serve::MakeModelArtifact(*model, data, g.hidden, 7);
  auto session = autocts::serve::InferenceSession::Create(artifact);
  for (int64_t batch : {1, 8}) {
    Tensor windows({batch, g.input_length, g.nodes, 1});
    for (int64_t k = 0; k < batch; ++k) {
      const Tensor window = TestWindow(series, g, k);
      std::copy(window.data(), window.data() + window.size(),
                windows.data() + k * window.size());
    }
    out->push_back({"serve.predict_batch" + std::to_string(batch) + "_ms",
                    MedianCallMicros([&] {
                      (void)session.value()->PredictBatch(windows);
                    }) * 1e-3,
                    "ms"});
  }
  return artifact;
}

void ProbeWire(Metrics* out) {
  const Geometry g;
  const Tensor window = RandomTensor({g.input_length, g.nodes, 1}, 41);
  const Tensor forecast = RandomTensor({g.output_length, g.nodes}, 42);
  const std::string request = autocts::net::EncodePredictRequest(window);
  const std::string response = autocts::net::EncodePredictResponse(forecast);
  out->push_back({"net.encode_us", MedianCallMicros([&] {
                    (void)autocts::net::EncodePredictRequest(window);
                    (void)autocts::net::EncodePredictResponse(forecast);
                  }),
                  "us"});
  out->push_back({"net.decode_us", MedianCallMicros([&] {
                    (void)autocts::net::DecodeFrame(request);
                    (void)autocts::net::DecodeFrame(response);
                  }),
                  "us"});
}

void ProbeData(const Series& series, Metrics* out) {
  out->push_back(
      {"data.prepare_ms",
       MedianCallMicros([&] { (void)Prepare(series, Geometry()); }, 7,
                        0.0) *
           1e-3,
       "ms"});
}

void ProbeHost(Metrics* out) {
  volatile double sink = 0.0;
  out->push_back({"host.calib_ms",
                  MedianCallMicros(
                      [&] {
                        double x = 1.0;
                        uint64_t h = 88172645463325252ULL;
                        for (int i = 0; i < 2000000; ++i) {
                          h ^= h << 13;
                          h ^= h >> 7;
                          h ^= h << 17;
                          x = x * 0.999999 + static_cast<double>(h & 1023);
                        }
                        sink = sink + x;
                      },
                      7, 0.0) *
                      1e-3,
                  "ms"});
}

}  // namespace perfbench
