#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "submodular/concave_over_modular.h"
#include "submodular/coverage_function.h"
#include "submodular/facility_location.h"
#include "submodular/function_validation.h"
#include "submodular/mixture_function.h"
#include "submodular/modular_function.h"
#include "submodular/probabilistic_coverage.h"
#include "submodular/saturated_coverage.h"
#include "submodular/set_function.h"
#include "util/random.h"

namespace diverse {
namespace {

std::vector<double> RandomWeights(int n, Rng& rng) {
  std::vector<double> w(n);
  for (double& x : w) x = rng.Uniform(0.0, 1.0);
  return w;
}

CoverageFunction RandomCoverage(int n, int topics, Rng& rng) {
  std::vector<std::vector<int>> covers(n);
  for (auto& c : covers) {
    const int k = rng.UniformInt(0, topics);
    c = rng.SampleWithoutReplacement(topics, k);
  }
  std::vector<double> weights(topics);
  for (double& w : weights) w = rng.Uniform(0.1, 1.0);
  return CoverageFunction(std::move(covers), std::move(weights));
}

FacilityLocationFunction RandomFacilityLocation(int n, Rng& rng) {
  std::vector<std::vector<double>> sim(n, std::vector<double>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      sim[i][j] = rng.Uniform(0.0, 1.0);
    }
  }
  return FacilityLocationFunction(std::move(sim));
}

TEST(ZeroFunctionTest, AlwaysZero) {
  const ZeroFunction f(5);
  EXPECT_DOUBLE_EQ(f.Value(std::vector<int>{}), 0.0);
  EXPECT_DOUBLE_EQ(f.Value(std::vector<int>{0, 3, 4}), 0.0);
  EXPECT_DOUBLE_EQ(f.MarginalGain(std::vector<int>{1}, 2), 0.0);
  EXPECT_TRUE(ValidateFunctionExhaustive(f).IsMonotoneSubmodular());
}

TEST(ModularFunctionTest, ValueIsWeightSum) {
  const ModularFunction f({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(f.Value(std::vector<int>{0, 2}), 4.0);
  EXPECT_DOUBLE_EQ(f.MarginalGain(std::vector<int>{0}, 1), 2.0);
}

TEST(ModularFunctionTest, SetWeightUpdates) {
  ModularFunction f({1.0, 2.0});
  f.SetWeight(0, 5.0);
  EXPECT_DOUBLE_EQ(f.weight(0), 5.0);
  EXPECT_DOUBLE_EQ(f.Value(std::vector<int>{0, 1}), 7.0);
}

TEST(ModularFunctionTest, RejectsNegativeWeights) {
  EXPECT_DEATH(ModularFunction({-1.0}), "non-negative");
}

TEST(ModularFunctionTest, IsMonotoneSubmodular) {
  Rng rng(1);
  const ModularFunction f(RandomWeights(8, rng));
  EXPECT_TRUE(ValidateFunctionExhaustive(f).IsMonotoneSubmodular());
}

TEST(CoverageFunctionTest, CountsCoveredTopicsOnce) {
  // Elements 0 and 1 overlap on topic 0.
  const CoverageFunction f({{0, 1}, {0, 2}, {3}}, {1.0, 2.0, 4.0, 8.0});
  EXPECT_DOUBLE_EQ(f.Value(std::vector<int>{0}), 3.0);
  EXPECT_DOUBLE_EQ(f.Value(std::vector<int>{0, 1}), 7.0);   // topic 0 once
  EXPECT_DOUBLE_EQ(f.Value(std::vector<int>{0, 1, 2}), 15.0);
  EXPECT_DOUBLE_EQ(f.MarginalGain(std::vector<int>{0}, 1), 4.0);
}

TEST(CoverageFunctionTest, EvaluatorAddRemoveRoundTrip) {
  Rng rng(2);
  const CoverageFunction f = RandomCoverage(10, 12, rng);
  auto eval = f.MakeEvaluator();
  eval->Add(3);
  eval->Add(7);
  eval->Add(1);
  const double v3 = eval->value();
  eval->Add(5);
  eval->Remove(5);
  EXPECT_NEAR(eval->value(), v3, 1e-12);
  eval->Remove(3);
  eval->Remove(7);
  eval->Remove(1);
  EXPECT_NEAR(eval->value(), 0.0, 1e-12);
}

TEST(CoverageFunctionTest, IsMonotoneSubmodular) {
  Rng rng(3);
  const CoverageFunction f = RandomCoverage(8, 10, rng);
  EXPECT_TRUE(ValidateFunctionExhaustive(f).IsMonotoneSubmodular());
}

TEST(FacilityLocationTest, MaxSemantics) {
  // One client, two facilities with similarities 0.3 and 0.8.
  const FacilityLocationFunction f({{0.3, 0.8}});
  EXPECT_DOUBLE_EQ(f.Value(std::vector<int>{0}), 0.3);
  EXPECT_DOUBLE_EQ(f.Value(std::vector<int>{1}), 0.8);
  EXPECT_DOUBLE_EQ(f.Value(std::vector<int>{0, 1}), 0.8);
  EXPECT_DOUBLE_EQ(f.MarginalGain(std::vector<int>{1}, 0), 0.0);
}

TEST(FacilityLocationTest, RemoveRestoresSecondBest) {
  const FacilityLocationFunction f({{0.3, 0.8, 0.5}});
  auto eval = f.MakeEvaluator();
  eval->Add(0);
  eval->Add(1);
  eval->Add(2);
  EXPECT_DOUBLE_EQ(eval->value(), 0.8);
  eval->Remove(1);  // best facility leaves; 0.5 takes over
  EXPECT_DOUBLE_EQ(eval->value(), 0.5);
  eval->Remove(2);
  EXPECT_DOUBLE_EQ(eval->value(), 0.3);
}

TEST(FacilityLocationTest, IsMonotoneSubmodular) {
  Rng rng(4);
  const FacilityLocationFunction f = RandomFacilityLocation(7, rng);
  EXPECT_TRUE(ValidateFunctionExhaustive(f).IsMonotoneSubmodular());
}

TEST(ConcaveOverModularTest, SqrtValues) {
  const ConcaveOverModularFunction f({4.0, 5.0, 16.0}, ConcaveShape::kSqrt);
  EXPECT_DOUBLE_EQ(f.Value(std::vector<int>{0}), 2.0);
  EXPECT_DOUBLE_EQ(f.Value(std::vector<int>{0, 1, 2}), 5.0);
}

TEST(ConcaveOverModularTest, CapSaturates) {
  const ConcaveOverModularFunction f({3.0, 3.0}, ConcaveShape::kCap, 4.0);
  EXPECT_DOUBLE_EQ(f.Value(std::vector<int>{0}), 3.0);
  EXPECT_DOUBLE_EQ(f.Value(std::vector<int>{0, 1}), 4.0);
  EXPECT_DOUBLE_EQ(f.MarginalGain(std::vector<int>{0}, 1), 1.0);
}

class ConcaveShapeSweep : public ::testing::TestWithParam<ConcaveShape> {};

TEST_P(ConcaveShapeSweep, IsMonotoneSubmodular) {
  Rng rng(5);
  const ConcaveOverModularFunction f(RandomWeights(8, rng), GetParam(), 1.5);
  EXPECT_TRUE(ValidateFunctionExhaustive(f).IsMonotoneSubmodular());
}

INSTANTIATE_TEST_SUITE_P(Shapes, ConcaveShapeSweep,
                         ::testing::Values(ConcaveShape::kSqrt,
                                           ConcaveShape::kLog1p,
                                           ConcaveShape::kCap));

TEST(MixtureFunctionTest, WeightedSumOfComponents) {
  const ModularFunction a({1.0, 2.0, 3.0});
  const CoverageFunction b({{0}, {0}, {1}}, {10.0, 20.0});
  const MixtureFunction mix({&a, &b}, {2.0, 0.5});
  // f({0,1}) = 2*(1+2) + 0.5*10 = 11
  EXPECT_DOUBLE_EQ(mix.Value(std::vector<int>{0, 1}), 11.0);
}

TEST(MixtureFunctionTest, IsMonotoneSubmodular) {
  Rng rng(6);
  const ModularFunction a(RandomWeights(8, rng));
  const CoverageFunction b = RandomCoverage(8, 6, rng);
  const FacilityLocationFunction c = RandomFacilityLocation(8, rng);
  const MixtureFunction mix({&a, &b, &c}, {0.3, 1.0, 2.0});
  EXPECT_TRUE(ValidateFunctionExhaustive(mix).IsMonotoneSubmodular());
}

TEST(MixtureFunctionTest, RejectsMismatchedGroundSets) {
  const ModularFunction a({1.0, 2.0});
  const ModularFunction b({1.0, 2.0, 3.0});
  EXPECT_DEATH(MixtureFunction({&a, &b}, {1.0, 1.0}), "ground set");
}

TEST(FunctionValidationTest, DetectsNonSubmodular) {
  // f(S) = |S|^2 is supermodular (strictly, for |S| >= 1): marginal gains
  // increase. Build it as a custom function via a coverage-like wrapper is
  // not possible, so define inline.
  class SquareCardinality : public SetFunction {
   public:
    int ground_size() const override { return 6; }
    std::unique_ptr<SetFunctionEvaluator> MakeEvaluator() const override {
      class Eval : public SetFunctionEvaluator {
       public:
        double value() const override {
          return static_cast<double>(k_) * k_;
        }
        double Gain(int) const override {
          return static_cast<double>(k_ + 1) * (k_ + 1) -
                 static_cast<double>(k_) * k_;
        }
        void Add(int) override { ++k_; }
        void Remove(int) override { --k_; }
        void Reset() override { k_ = 0; }

       private:
        int k_ = 0;
      };
      return std::make_unique<Eval>();
    }
  };
  const SquareCardinality f;
  const FunctionReport report = ValidateFunctionExhaustive(f);
  EXPECT_TRUE(report.monotone);
  EXPECT_FALSE(report.submodular);
}

TEST(FunctionValidationTest, DetectsNonMonotone) {
  class Decreasing : public SetFunction {
   public:
    int ground_size() const override { return 5; }
    std::unique_ptr<SetFunctionEvaluator> MakeEvaluator() const override {
      class Eval : public SetFunctionEvaluator {
       public:
        double value() const override { return -static_cast<double>(k_); }
        double Gain(int) const override { return -1.0; }
        void Add(int) override { ++k_; }
        void Remove(int) override { --k_; }
        void Reset() override { k_ = 0; }

       private:
        int k_ = 0;
      };
      return std::make_unique<Eval>();
    }
  };
  const Decreasing f;
  EXPECT_FALSE(ValidateFunctionExhaustive(f).monotone);
}

TEST(FunctionValidationTest, SampledValidatorPassesGoodFunctions) {
  Rng data_rng(7);
  const CoverageFunction f = RandomCoverage(40, 30, data_rng);
  Rng rng(8);
  EXPECT_TRUE(ValidateFunctionSampled(f, rng, 500).IsMonotoneSubmodular());
}

class RandomFunctionSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomFunctionSweep, AllFamiliesValidateExhaustively) {
  Rng rng(GetParam());
  const ModularFunction modular(RandomWeights(7, rng));
  const CoverageFunction coverage = RandomCoverage(7, 9, rng);
  const FacilityLocationFunction facility = RandomFacilityLocation(7, rng);
  EXPECT_TRUE(ValidateFunctionExhaustive(modular).IsMonotoneSubmodular());
  EXPECT_TRUE(ValidateFunctionExhaustive(coverage).IsMonotoneSubmodular());
  EXPECT_TRUE(ValidateFunctionExhaustive(facility).IsMonotoneSubmodular());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFunctionSweep, ::testing::Range(10, 20));

std::vector<std::vector<double>> RandomMatrix(int rows, int cols, Rng& rng) {
  std::vector<std::vector<double>> m(rows, std::vector<double>(cols));
  for (auto& row : m) {
    for (double& x : row) x = rng.Uniform(0.0, 1.0);
  }
  return m;
}

// Gains(ids, out) against one Gain(id) per entry, bit for bit, on an empty
// list, every id in reverse order and a random list with repeats, at the
// empty set and after each step of a random Add/Remove sequence. The lists
// include members of S: batched scans pass whole candidate lists.
void ExpectGainsMatchGainBits(const SetFunction& f, Rng& rng) {
  const int n = f.ground_size();
  std::vector<int> reversed(n);
  for (int i = 0; i < n; ++i) reversed[i] = n - 1 - i;
  std::vector<int> repeated(2 * n);
  for (int& id : repeated) id = rng.UniformInt(0, n - 1);
  const std::vector<std::vector<int>> lists = {{}, reversed, repeated};

  auto eval = f.MakeEvaluator();
  const auto check = [&](int step) {
    for (const std::vector<int>& ids : lists) {
      std::vector<double> out(ids.size(), -1.0);
      eval->Gains(ids, out);
      for (std::size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                  std::bit_cast<std::uint64_t>(eval->Gain(ids[i])))
            << "step " << step << ", id " << ids[i];
      }
    }
  };
  check(-1);
  std::vector<int> members;
  for (int step = 0; step < 3 * n; ++step) {
    const int e = rng.UniformInt(0, n - 1);
    const auto it = std::find(members.begin(), members.end(), e);
    if (it == members.end()) {
      eval->Add(e);
      members.push_back(e);
    } else {
      eval->Remove(e);
      members.erase(it);
    }
    check(step);
  }
}

TEST(EvaluatorGainsTest, BatchedGainsMatchPerIdGainForEveryFamily) {
  Rng rng(40);
  const int n = 9;
  const ModularFunction modular(RandomWeights(n, rng));
  const CoverageFunction coverage = RandomCoverage(n, 7, rng);
  const FacilityLocationFunction facility = RandomFacilityLocation(n, rng);
  const ConcaveOverModularFunction concave(RandomWeights(n, rng),
                                           ConcaveShape::kSqrt);
  const MixtureFunction mixture({&modular, &coverage, &facility},
                                {0.3, 1.0, 2.0});
  const ProbabilisticCoverageFunction probabilistic(RandomMatrix(n, 5, rng),
                                                    RandomWeights(5, rng));
  const SaturatedCoverageFunction saturated(RandomMatrix(4, n, rng), 0.4);
  const ZeroFunction zero(n);
  // Coverage keeps SetFunction's mapping view; modular gathers its own.
  const std::vector<int> ids = {7, 2, 5, 0, 8};
  const std::unique_ptr<SetFunction> coverage_view = coverage.Restrict(ids);
  const std::unique_ptr<SetFunction> modular_view = modular.Restrict(ids);

  ExpectGainsMatchGainBits(modular, rng);
  ExpectGainsMatchGainBits(coverage, rng);
  ExpectGainsMatchGainBits(facility, rng);
  ExpectGainsMatchGainBits(concave, rng);
  ExpectGainsMatchGainBits(mixture, rng);
  ExpectGainsMatchGainBits(probabilistic, rng);
  ExpectGainsMatchGainBits(saturated, rng);
  ExpectGainsMatchGainBits(zero, rng);
  ExpectGainsMatchGainBits(*coverage_view, rng);
  ExpectGainsMatchGainBits(*modular_view, rng);
}

}  // namespace
}  // namespace diverse
