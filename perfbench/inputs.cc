#include "inputs.h"

#include <algorithm>
#include <cmath>

#include "core/operator_set.h"
#include "data/cts_dataset.h"

namespace perfbench {

using autocts::Tensor;

uint64_t SeedRng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double SeedRng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double SeedRng::Normal() {
  const double u1 = 1.0 - Uniform();  // (0, 1]
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

int64_t SeedRng::Below(int64_t n) {
  return static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
}

Series MakeSeries(uint64_t seed, const Geometry& geometry) {
  SeedRng rng(seed * 0x2545F4914F6CDD1DULL + 17);
  const int64_t n = geometry.nodes;
  const int64_t t_total = geometry.steps;

  // Sensors at random points of the unit square; Gaussian-kernel weights
  // between near pairs, plus a ring so no sensor is isolated.
  std::vector<double> px(n), py(n);
  for (int64_t i = 0; i < n; ++i) {
    px[i] = rng.Uniform();
    py[i] = rng.Uniform();
  }
  Series series;
  series.adjacency = Tensor::Zeros({n, n});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double dx = px[i] - px[j], dy = py[i] - py[j];
      double w = std::exp(-(dx * dx + dy * dy) / 0.1);
      if (w < 0.1) w = 0.0;
      if ((i + 1) % n == j || (j + 1) % n == i) w = std::max(w, 0.3);
      series.adjacency.At({i, j}) = w;
    }
  }
  // Row-normalised copy drives the noise diffusion.
  std::vector<double> walk(n * n);
  for (int64_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (int64_t j = 0; j < n; ++j) row += series.adjacency.At({i, j});
    for (int64_t j = 0; j < n; ++j) {
      walk[i * n + j] = series.adjacency.At({i, j}) / row;
    }
  }

  // Levels, amplitudes and phase shifts are fixed grids dealt to the
  // sensors in a seeded order, so every seed makes a series of the same
  // difficulty and the quality figures of different seeds stay comparable.
  std::vector<double> level(n), amplitude(n), phase(n);
  for (std::vector<double>* values : {&level, &amplitude, &phase}) {
    std::vector<int64_t> order(n);
    for (int64_t i = 0; i < n; ++i) order[i] = i;
    for (int64_t i = n - 1; i > 0; --i) std::swap(order[i], order[rng.Below(i + 1)]);
    for (int64_t i = 0; i < n; ++i) {
      (*values)[i] = static_cast<double>(order[i]) / static_cast<double>(n - 1);
    }
  }
  for (int64_t i = 0; i < n; ++i) {
    level[i] = 100.0 + 10.0 * level[i];
    amplitude[i] = 30.0 + 10.0 * amplitude[i];
    phase[i] = 4.0 * (phase[i] - 0.5);  // readings
  }
  series.values = Tensor({t_total, n, 1});
  std::vector<double> noise(n, 0.0), next(n);
  const double day = static_cast<double>(geometry.steps_per_day);
  for (int64_t t = 0; t < t_total; ++t) {
    for (int64_t i = 0; i < n; ++i) {
      double diffused = 0.0;
      for (int64_t j = 0; j < n; ++j) diffused += walk[i * n + j] * noise[j];
      next[i] = 0.4 * noise[i] + 0.4 * diffused + 4.0 * rng.Normal();
    }
    noise.swap(next);
    for (int64_t i = 0; i < n; ++i) {
      const double x = 2.0 * M_PI * (static_cast<double>(t) + phase[i]) / day;
      const double profile = std::sin(x) + 0.4 * std::sin(2.0 * x + 1.0);
      series.values.At({t, i, 0}) =
          level[i] + amplitude[i] * profile + noise[i];
    }
  }
  return series;
}

autocts::models::PreparedData Prepare(const Series& series,
                                      const Geometry& geometry) {
  autocts::data::CtsDataset dataset;
  dataset.name = "perfbench-traffic";
  dataset.values = series.values;
  dataset.adjacency = series.adjacency;
  dataset.steps_per_day = geometry.steps_per_day;
  autocts::data::WindowSpec window;
  window.input_length = geometry.input_length;
  window.output_length = geometry.output_length;
  return autocts::models::PrepareData(dataset, window,
                                      geometry.train_fraction,
                                      geometry.validation_fraction);
}

namespace {

// First time index of the test split (the program's ChronologicalSplit rule).
int64_t TestStart(const Geometry& geometry) {
  const double steps = static_cast<double>(geometry.steps);
  return static_cast<int64_t>(steps * geometry.train_fraction) +
         static_cast<int64_t>(steps * geometry.validation_fraction);
}

}  // namespace

int64_t NumTestWindows(const Geometry& geometry) {
  return geometry.steps - TestStart(geometry) - geometry.input_length -
         geometry.output_length + 1;
}

Tensor TestWindow(const Series& series, const Geometry& geometry,
                  int64_t index) {
  const int64_t start = TestStart(geometry) + index;
  Tensor window({geometry.input_length, geometry.nodes, 1});
  for (int64_t p = 0; p < geometry.input_length; ++p) {
    for (int64_t i = 0; i < geometry.nodes; ++i) {
      window.At({p, i, 0}) = series.values.At({start + p, i, 0});
    }
  }
  return window;
}

Tensor TestTruth(const Series& series, const Geometry& geometry,
                 int64_t index) {
  const int64_t start =
      TestStart(geometry) + index + geometry.input_length;
  Tensor truth({geometry.output_length, geometry.nodes});
  for (int64_t q = 0; q < geometry.output_length; ++q) {
    for (int64_t i = 0; i < geometry.nodes; ++i) {
      truth.At({q, i}) = series.values.At({start + q, i, 0});
    }
  }
  return truth;
}

const std::vector<std::string>& PaperOperators() {
  static const std::vector<std::string>* ops = new std::vector<std::string>(
      autocts::core::CompactOperatorSet().op_names);
  return *ops;
}

std::vector<autocts::core::Genotype> SampleGenotypes(uint64_t seed,
                                                     int64_t count,
                                                     int64_t blocks,
                                                     int64_t nodes_per_block) {
  SeedRng rng(seed * 0x9E3779B97F4A7C15ULL + 101);
  // Every block carries the same operator multiset in a seeded arrangement:
  // candidates differ in structure but not in cost, so the seed does not
  // move the timing of the evaluate and serve workloads.
  const std::vector<std::string> cycle = {"gdcc", "inf_t", "dgcn", "inf_s",
                                          "identity"};
  const int64_t edges = 2 * nodes_per_block - 3;
  std::vector<std::string> ops;
  for (int64_t e = 0; e < edges; ++e) ops.push_back(cycle[e % cycle.size()]);
  std::vector<autocts::core::Genotype> genotypes;
  for (int64_t c = 0; c < count; ++c) {
    autocts::core::Genotype genotype;
    genotype.nodes_per_block = nodes_per_block;
    for (int64_t b = 0; b < blocks; ++b) {
      for (int64_t i = edges - 1; i > 0; --i) {
        std::swap(ops[i], ops[rng.Below(i + 1)]);
      }
      autocts::core::BlockGenotype block;
      for (int64_t to = 1; to < nodes_per_block; ++to) {
        const int64_t first = rng.Below(to);
        std::vector<int64_t> preds = {first};
        if (to > 1) {
          int64_t second = rng.Below(to - 1);
          if (second >= first) ++second;
          preds.push_back(second);
        }
        for (int64_t from : preds) {
          block.edges.push_back(
              {from, to, ops[static_cast<int64_t>(block.edges.size())]});
        }
      }
      genotype.blocks.push_back(block);
      genotype.block_inputs.push_back(rng.Below(b + 1));
    }
    genotypes.push_back(genotype);
  }
  return genotypes;
}

}  // namespace perfbench
