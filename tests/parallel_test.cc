// Tests of the deterministic parallel-execution layer (common/parallel.*)
// and of the bit-identity guarantees the tensor kernels build on it: the
// same inputs must produce byte-identical results for every thread count,
// up to and including a full JointSearcher run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "core/searcher.h"
#include "data/synthetic/generators.h"
#include "models/trainer.h"
#include "tensor/tensor_ops.h"

namespace autocts {
namespace {

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(double)) == 0;
}

TEST(ParallelFor, SetNumThreadsIsObserved) {
  SetNumThreads(3);
  EXPECT_EQ(NumThreads(), 3);
  SetNumThreads(1);
  EXPECT_EQ(NumThreads(), 1);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  for (const int64_t threads : {1, 4}) {
    SetNumThreads(threads);
    std::vector<int> hits(1000, 0);
    ParallelFor(0, 1000, 17, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) ++hits[i];
    });
    EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), 1000)
        << "threads=" << threads;
  }
  SetNumThreads(1);
}

TEST(ParallelFor, ChunkBoundariesDoNotDependOnThreadCount) {
  auto chunks_at = [](int64_t threads) {
    SetNumThreads(threads);
    std::mutex mutex;
    std::vector<std::pair<int64_t, int64_t>> chunks;
    ParallelFor(5, 1234, 100, [&](int64_t lo, int64_t hi) {
      std::lock_guard<std::mutex> lock(mutex);
      chunks.emplace_back(lo, hi);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  const auto serial = chunks_at(1);
  const auto parallel = chunks_at(4);
  EXPECT_EQ(serial, parallel);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial.front().first, 5);
  EXPECT_EQ(serial.back().second, 1234);
  // Fixed grain: every chunk except the last spans exactly 100 elements.
  for (size_t i = 0; i + 1 < serial.size(); ++i) {
    EXPECT_EQ(serial[i].second - serial[i].first, 100);
    EXPECT_EQ(serial[i].second, serial[i + 1].first);
  }
  SetNumThreads(1);
}

TEST(ParallelFor, NestedCallsRunWithoutDeadlock) {
  SetNumThreads(4);
  std::vector<int> hits(64 * 64, 0);
  ParallelFor(0, 64, 4, [&](int64_t olo, int64_t ohi) {
    for (int64_t o = olo; o < ohi; ++o) {
      ParallelFor(0, 64, 8, [&](int64_t ilo, int64_t ihi) {
        for (int64_t i = ilo; i < ihi; ++i) ++hits[o * 64 + i];
      });
    }
  });
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), 64 * 64);
  SetNumThreads(1);
}

// Pool jobs dispatched while `fn` runs (GetPoolStats deltas).
template <typename Fn>
int64_t PoolJobsDuring(Fn&& fn) {
  const int64_t before = GetPoolStats().jobs;
  fn();
  return GetPoolStats().jobs - before;
}

TEST(ParallelDispatch, SearchShapeMatMulRunsInline) {
  SetNumThreads(4);
  Rng rng(23);
  // The supernet's per-edge projection: [batch, time, nodes, D] x [D, D].
  const Tensor a = Tensor::Randn({8, 12, 8, 16}, &rng);
  const Tensor b = Tensor::Randn({16, 16}, &rng);
  EXPECT_EQ(PoolJobsDuring([&] { MatMul(a, b); }), 0);
  SetNumThreads(1);
}

TEST(ParallelDispatch, LargeMatMulStillUsesThePool) {
  SetNumThreads(4);
  Rng rng(24);
  const Tensor a = Tensor::Randn({256, 256}, &rng);
  const Tensor b = Tensor::Randn({256, 256}, &rng);
  EXPECT_GE(PoolJobsDuring([&] { MatMul(a, b); }), 1);
  SetNumThreads(1);
}

// The MatMul grain is sized by flops, so shapes on either side of the
// inline cutoff — row tails (m % 4 != 0), broadcast batches, one-chunk and
// many-chunk products — must give the same bits at any thread count.
TEST(ParallelDispatch, MatMulAcrossTheCutoffIsBitIdentical) {
  Rng rng(25);
  const std::vector<std::pair<Shape, Shape>> shapes = {
      {{8, 12, 8, 16}, {16, 16}},    // search shape, inline
      {{63, 64}, {64, 64}},          // one chunk, row tail
      {{5, 37, 64}, {64, 64}},       // several chunks, row tail
      {{2, 1, 66, 48}, {3, 48, 40}}, // broadcast batch, row tail
      {{130, 130}, {130, 130}},      // many chunks, row and column tails
  };
  bool saw_inline = false;
  bool saw_pool = false;
  for (const auto& [lhs_shape, rhs_shape] : shapes) {
    const Tensor lhs = Tensor::Randn(lhs_shape, &rng);
    const Tensor rhs = Tensor::Randn(rhs_shape, &rng);
    SetNumThreads(1);
    const Tensor serial = MatMul(lhs, rhs);
    SetNumThreads(4);
    Tensor threaded;
    const int64_t jobs = PoolJobsDuring([&] { threaded = MatMul(lhs, rhs); });
    (jobs == 0 ? saw_inline : saw_pool) = true;
    EXPECT_TRUE(BitIdentical(serial, threaded));
    EXPECT_TRUE(BitIdentical(serial, MatMulNaive(lhs, rhs)));
  }
  EXPECT_TRUE(saw_inline);
  EXPECT_TRUE(saw_pool);
  SetNumThreads(1);
}

TEST(ParallelSum, BitIdenticalAcrossThreadCounts) {
  Rng rng(21);
  const Tensor data = Tensor::Randn({100000}, &rng);
  SetNumThreads(1);
  const double serial_sum = SumAll(data);
  const double serial_sq = SumSquares(data);
  const double serial_norm = Norm(data);
  SetNumThreads(4);
  EXPECT_EQ(SumAll(data), serial_sum);
  EXPECT_EQ(SumSquares(data), serial_sq);
  EXPECT_EQ(Norm(data), serial_norm);
  SetNumThreads(1);
}

TEST(ParallelKernels, BitIdenticalAcrossThreadCounts) {
  Rng rng(22);
  const Tensor a = Tensor::Randn({3, 50, 40}, &rng);
  const Tensor b = Tensor::Randn({3, 50, 40}, &rng);
  const Tensor row = Tensor::Randn({40}, &rng);
  const Tensor lhs = Tensor::Randn({2, 3, 30, 20}, &rng);
  const Tensor rhs = Tensor::Randn({20, 25}, &rng);

  SetNumThreads(1);
  const Tensor add1 = Add(a, b);
  const Tensor bcast1 = Mul(a, row);
  const Tensor mm1 = MatMul(lhs, rhs);
  const Tensor sum1 = Sum(a, 1);
  const Tensor max1 = Max(a, 0);
  const Tensor soft1 = Softmax(a, 2);
  const Tensor expand1 = BroadcastTo(row, {3, 50, 40});
  const Tensor tanh1 = Tanh(a);

  SetNumThreads(4);
  EXPECT_TRUE(BitIdentical(Add(a, b), add1));
  EXPECT_TRUE(BitIdentical(Mul(a, row), bcast1));
  EXPECT_TRUE(BitIdentical(MatMul(lhs, rhs), mm1));
  EXPECT_TRUE(BitIdentical(Sum(a, 1), sum1));
  EXPECT_TRUE(BitIdentical(Max(a, 0), max1));
  EXPECT_TRUE(BitIdentical(Softmax(a, 2), soft1));
  EXPECT_TRUE(BitIdentical(BroadcastTo(row, {3, 50, 40}), expand1));
  EXPECT_TRUE(BitIdentical(Tanh(a), tanh1));
  SetNumThreads(1);
}

// A whole search step — supernet forward/backward, optimizer steps, clip —
// must not depend on the thread count: same derived genotype, bit-identical
// final validation loss.
TEST(ParallelSearch, JointSearcherIsBitIdenticalAcrossThreadCounts) {
  data::TrafficSpeedConfig config;
  config.num_nodes = 4;
  config.num_steps = 200;
  config.seed = 31;
  data::WindowSpec window;
  window.input_length = 6;
  window.output_length = 3;
  const models::PreparedData data =
      models::PrepareData(data::GenerateTrafficSpeed(config), window, 0.7,
                          0.1);

  core::SearchOptions options;
  options.supernet.micro_nodes = 3;
  options.supernet.macro_blocks = 2;
  options.supernet.hidden_dim = 8;
  options.supernet.partial_denominator = 4;
  options.epochs = 1;
  options.batch_size = 8;
  options.max_batches_per_epoch = 3;
  // The unrolled second-order path exercises SumSquares in the searcher's
  // Hessian-vector product as well.
  options.bilevel_order = 2;

  SetNumThreads(1);
  const core::SearchResult serial =
      core::JointSearcher(options).Search(data);
  SetNumThreads(4);
  const core::SearchResult threaded =
      core::JointSearcher(options).Search(data);
  SetNumThreads(1);

  EXPECT_EQ(serial.genotype, threaded.genotype);
  EXPECT_EQ(serial.final_validation_loss, threaded.final_validation_loss);
  EXPECT_EQ(serial.supernet_parameters, threaded.supernet_parameters);
}

}  // namespace
}  // namespace autocts
