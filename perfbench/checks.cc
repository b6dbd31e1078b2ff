#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

namespace perfbench {

using autocts::Tensor;

namespace {

std::vector<double> TrainNodeMeansRaw(const Series& series,
                                      const Geometry& geometry) {
  const int64_t train_steps = static_cast<int64_t>(
      static_cast<double>(geometry.steps) * geometry.train_fraction);
  std::vector<double> means(geometry.nodes, 0.0);
  for (int64_t t = 0; t < train_steps; ++t) {
    for (int64_t i = 0; i < geometry.nodes; ++i) {
      means[i] += series.values.At({t, i, 0});
    }
  }
  for (double& m : means) m /= static_cast<double>(train_steps);
  return means;
}

}  // namespace

double NodeMeanLossNormalized(const autocts::models::PreparedData& data) {
  // Per-sensor mean of the normalised training targets.
  const auto& train = data.train();
  Tensor x, y;
  train.GetBatch(train.AllIndices(), &x, &y);  // y: [S, Q, N, 1]
  const int64_t s = y.dim(0), q = y.dim(1), n = y.dim(2);
  std::vector<double> means(n, 0.0);
  for (int64_t k = 0; k < s * q; ++k) {
    for (int64_t i = 0; i < n; ++i) means[i] += y.data()[k * n + i];
  }
  for (double& m : means) m /= static_cast<double>(s * q);
  double loss = 0.0;
  for (int64_t k = 0; k < s * q; ++k) {
    for (int64_t i = 0; i < n; ++i) {
      loss += std::fabs(y.data()[k * n + i] - means[i]);
    }
  }
  return loss / static_cast<double>(s * q * n);
}

double NodeMeanMaeRaw(const Series& series, const Geometry& geometry) {
  const std::vector<double> means = TrainNodeMeansRaw(series, geometry);
  double sum = 0.0;
  int64_t count = 0;
  for (int64_t w = 0; w < NumTestWindows(geometry); ++w) {
    const Tensor truth = TestTruth(series, geometry, w);
    for (int64_t q = 0; q < geometry.output_length; ++q) {
      for (int64_t i = 0; i < geometry.nodes; ++i) {
        sum += std::fabs(truth.At({q, i}) - means[i]);
        ++count;
      }
    }
  }
  return sum / static_cast<double>(count);
}

Problem CheckSearchGenotype(const autocts::core::Genotype& genotype,
                            int64_t blocks, int64_t nodes_per_block) {
  if (genotype.num_blocks() != blocks ||
      static_cast<int64_t>(genotype.block_inputs.size()) != blocks) {
    return "genotype has " + std::to_string(genotype.num_blocks()) +
           " blocks, expected " + std::to_string(blocks);
  }
  if (genotype.nodes_per_block != nodes_per_block) {
    return "genotype has " + std::to_string(genotype.nodes_per_block) +
           " nodes per block, expected " + std::to_string(nodes_per_block);
  }
  const std::set<std::string> allowed(PaperOperators().begin(),
                                      PaperOperators().end());
  for (int64_t b = 0; b < blocks; ++b) {
    if (genotype.block_inputs[b] < 0 || genotype.block_inputs[b] > b) {
      return "block " + std::to_string(b) + " reads a later block";
    }
    for (const auto& edge : genotype.blocks[b].edges) {
      if (allowed.count(edge.op) == 0) {
        return "edge operator '" + edge.op + "' is not in the paper's set";
      }
      if (edge.from < 0 || edge.from >= edge.to ||
          edge.to >= nodes_per_block) {
        return "edge " + std::to_string(edge.from) + "->" +
               std::to_string(edge.to) + " does not run forward in the DAG";
      }
    }
  }
  return "";
}

Problem CheckSearchLoss(double val_loss, double node_mean_loss) {
  if (!std::isfinite(val_loss)) return "validation loss is not finite";
  if (!(val_loss < node_mean_loss)) {
    return "validation loss " + std::to_string(val_loss) +
           " does not beat the node-mean forecast's " +
           std::to_string(node_mean_loss);
  }
  return "";
}

Problem CheckCandidate(double mae, double rmse, double node_mean_mae) {
  if (!std::isfinite(mae) || !std::isfinite(rmse)) {
    return "test MAE or RMSE is not finite";
  }
  if (mae > rmse) return "test MAE exceeds RMSE";
  if (!(mae < node_mean_mae)) {
    return "test MAE " + std::to_string(mae) +
           " does not beat the node-mean forecast's " +
           std::to_string(node_mean_mae);
  }
  return "";
}

Problem CheckBitIdentical(const Tensor& got, const Tensor& want) {
  if (got.shape() != want.shape()) return "forecast shape differs";
  if (std::memcmp(got.data(), want.data(),
                  static_cast<size_t>(got.size()) * sizeof(double)) != 0) {
    return "forecast is not bit-identical to InferenceSession::Predict";
  }
  return "";
}

Problem CheckMaeAgrees(double served_mae, double trainer_mae) {
  if (!std::isfinite(served_mae) ||
      std::fabs(served_mae - trainer_mae) >
          1e-9 * std::max(1.0, std::fabs(trainer_mae))) {
    return "served MAE " + std::to_string(served_mae) +
           " differs from the trainer's test MAE " +
           std::to_string(trainer_mae);
  }
  return "";
}

Problem CheckConservation(int64_t sent, int64_t received, int64_t failed,
                          int64_t server_decoded, int64_t server_sent) {
  if (sent != received + failed || sent != server_decoded ||
      server_decoded != server_sent) {
    return "requests sent " + std::to_string(sent) + ", received " +
           std::to_string(received) + ", failed " + std::to_string(failed) +
           ", server decoded " + std::to_string(server_decoded) +
           ", server sent " + std::to_string(server_sent);
  }
  return "";
}

double MeanAbsoluteError(const std::vector<Tensor>& forecasts,
                         const std::vector<Tensor>& truths) {
  double sum = 0.0;
  int64_t count = 0;
  for (size_t w = 0; w < forecasts.size(); ++w) {
    for (int64_t k = 0; k < forecasts[w].size(); ++k) {
      sum += std::fabs(forecasts[w].data()[k] - truths[w].data()[k]);
      ++count;
    }
  }
  return sum / static_cast<double>(count);
}

std::vector<std::string> SelfTestChecks() {
  std::vector<std::string> missed;
  const auto expect = [&missed](bool passes, const Problem& problem,
                                const std::string& name) {
    if (passes != problem.empty()) {
      missed.push_back(name + (passes ? " rejected a correct output"
                                      : " accepted a wrong output"));
    }
  };
  const autocts::core::Genotype good = SampleGenotypes(1, 1, 4, 5)[0];
  expect(true, CheckSearchGenotype(good, 4, 5), "genotype");
  autocts::core::Genotype bad = good;
  bad.blocks[1].edges[2].op = "conv9";
  expect(false, CheckSearchGenotype(bad, 4, 5), "genotype: unknown operator");
  bad = good;
  std::swap(bad.blocks[2].edges[3].from, bad.blocks[2].edges[3].to);
  expect(false, CheckSearchGenotype(bad, 4, 5), "genotype: backward edge");
  bad = good;
  bad.block_inputs[1] = 2;
  expect(false, CheckSearchGenotype(bad, 4, 5), "genotype: later block");
  bad = good;
  bad.blocks.pop_back();
  bad.block_inputs.pop_back();
  expect(false, CheckSearchGenotype(bad, 4, 5), "genotype: block count");

  expect(true, CheckSearchLoss(0.5, 0.6), "search loss");
  expect(false, CheckSearchLoss(NAN, 0.6), "search loss: NaN");
  expect(false, CheckSearchLoss(0.6, 0.6), "search loss: no better");

  expect(true, CheckCandidate(10.0, 12.0, 20.0), "candidate");
  expect(false, CheckCandidate(12.5, 12.0, 20.0), "candidate: MAE > RMSE");
  expect(false, CheckCandidate(INFINITY, INFINITY, 20.0), "candidate: Inf");
  expect(false, CheckCandidate(20.2, 25.0, 20.0), "candidate: no better");

  Tensor forecast = Tensor::Full({12, 8}, 101.25);
  forecast.At({3, 5}) = 97.125;
  expect(true, CheckBitIdentical(forecast.Clone(), forecast), "bit identity");
  Tensor flipped = forecast.Clone();
  uint64_t bits;
  std::memcpy(&bits, flipped.data() + 41, sizeof(bits));
  bits ^= 1;
  std::memcpy(flipped.data() + 41, &bits, sizeof(bits));
  expect(false, CheckBitIdentical(flipped, forecast),
         "bit identity: flipped bit");

  expect(true, CheckMaeAgrees(12.75, 12.75), "MAE agreement");
  expect(false, CheckMaeAgrees(12.75 * 1.01, 12.75), "MAE agreement: 1% off");

  expect(true, CheckConservation(100, 98, 2, 100, 100), "conservation");
  expect(false, CheckConservation(100, 98, 1, 100, 100),
         "conservation: lost response");
  expect(false, CheckConservation(100, 100, 0, 101, 101),
         "conservation: extra decode");
  expect(false, CheckConservation(100, 100, 0, 100, 99),
         "conservation: unsent response");
  return missed;
}

}  // namespace perfbench
