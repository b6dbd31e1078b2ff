// Benchmark inputs made from the run's seed: a traffic-flow-like correlated
// series with its sensor graph, and the candidate genotypes the evaluate and
// serve workloads train. The generators live here, not in src/data, so a
// change to the program's own synthetic datasets cannot change a workload.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/genotype.h"
#include "models/trainer.h"
#include "tensor/tensor.h"

namespace perfbench {

// SplitMix64: small, seedable, and independent of the program's Rng.
class SeedRng {
 public:
  explicit SeedRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform();                 // [0, 1)
  double Normal();                  // standard normal (Box-Muller)
  int64_t Below(int64_t n);         // [0, n)

 private:
  uint64_t state_;
};

// Window and series geometry shared by every workload.
struct Geometry {
  int64_t nodes = 8;
  int64_t steps = 480;          // 10 days of 48 readings
  int64_t steps_per_day = 48;
  int64_t input_length = 12;    // P
  int64_t output_length = 12;   // Q
  int64_t hidden = 16;          // D
  double train_fraction = 0.7;
  double validation_fraction = 0.1;
};

// Model and batch shapes shared by the workloads and the per-layer probes.
constexpr int64_t kMicroNodes = 5;   // M
constexpr int64_t kMacroBlocks = 4;  // B
constexpr int64_t kSearchBatch = 8;  // rows per search step
constexpr int64_t kTrainBatch = 8;   // rows per candidate training batch

struct Series {
  autocts::Tensor values;     // [T, N, 1], raw units
  autocts::Tensor adjacency;  // [N, N], symmetric, zero diagonal
};

// Daily profile per sensor plus graph-diffused AR(1) noise.
Series MakeSeries(uint64_t seed, const Geometry& geometry);

// Chronological 70/10/20 split, scaler fit on the training part.
autocts::models::PreparedData Prepare(const Series& series,
                                      const Geometry& geometry);

// Raw window [P, N, 1] of test sample `index` and its truth [Q, N].
autocts::Tensor TestWindow(const Series& series, const Geometry& geometry,
                           int64_t index);
autocts::Tensor TestTruth(const Series& series, const Geometry& geometry,
                          int64_t index);
int64_t NumTestWindows(const Geometry& geometry);

// The paper's operator set (AutoCTS Section 4): the edges a search may pick.
const std::vector<std::string>& PaperOperators();

// `count` genotypes with `blocks` blocks of `nodes_per_block` nodes: every
// node after the first takes two distinct predecessors (node 1 takes one),
// the edges of each block carry a fixed multiset of the paper's operators
// other than `zero` in a seeded order, and every block reads the embedding
// or an earlier block.
std::vector<autocts::core::Genotype> SampleGenotypes(uint64_t seed,
                                                     int64_t count,
                                                     int64_t blocks,
                                                     int64_t nodes_per_block);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
