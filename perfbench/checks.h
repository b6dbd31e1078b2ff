// Correctness checks the benchmark applies to the program's outputs, and a
// self-test that feeds each check a deliberately wrong output. Each check is
// computed apart from the code path it judges, or is a property the method
// must have.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/genotype.h"
#include "inputs.h"
#include "models/trainer.h"
#include "tensor/tensor.h"

namespace perfbench {

// "" when the check passes, else what is wrong.
using Problem = std::string;

// L1 loss, on normalised training windows, of forecasting every horizon
// with each sensor's mean over the training split.
double NodeMeanLossNormalized(const autocts::models::PreparedData& data);
// MAE, on raw test windows, of the same per-sensor training-mean forecast.
double NodeMeanMaeRaw(const Series& series, const Geometry& geometry);

// search: every edge names an operator of the paper's set and runs forward
// in the DAG; the block count, node count and block inputs are in range.
Problem CheckSearchGenotype(const autocts::core::Genotype& genotype,
                            int64_t blocks, int64_t nodes_per_block);
// search: the final validation loss is finite and beats the node-mean one.
Problem CheckSearchLoss(double val_loss, double node_mean_loss);

// evaluate: test MAE finite, no larger than RMSE, below the node-mean MAE.
Problem CheckCandidate(double mae, double rmse, double node_mean_mae);

// serve: a response is bit-identical to the reference forecast.
Problem CheckBitIdentical(const autocts::Tensor& got,
                          const autocts::Tensor& want);
// serve: the benchmark's MAE of the served forecasts matches the trainer's.
Problem CheckMaeAgrees(double served_mae, double trainer_mae);
// serve: sent == received + failed == server decoded == server sent.
Problem CheckConservation(int64_t sent, int64_t received, int64_t failed,
                          int64_t server_decoded, int64_t server_sent);

// Mean absolute error of forecasts [Q, N] against truths [Q, N].
double MeanAbsoluteError(const std::vector<autocts::Tensor>& forecasts,
                         const std::vector<autocts::Tensor>& truths);

// Feeds every check above a wrong output built from a passing one and
// returns the checks that failed to notice ("" entries are not returned).
std::vector<std::string> SelfTestChecks();

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
