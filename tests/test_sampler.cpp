#include "core/bernoulli_sampler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace bnn::core {
namespace {

TEST(SamplerConfig, LfsrCountFromProbability) {
  EXPECT_EQ(lfsrs_for_probability(0.5), 1);
  EXPECT_EQ(lfsrs_for_probability(0.25), 2);
  EXPECT_EQ(lfsrs_for_probability(0.125), 3);
  EXPECT_EQ(lfsrs_for_probability(1.0 / 256.0), 8);
  EXPECT_THROW(lfsrs_for_probability(0.3), std::invalid_argument);
  EXPECT_THROW(lfsrs_for_probability(0.0), std::invalid_argument);
  EXPECT_THROW(lfsrs_for_probability(1.0), std::invalid_argument);
  EXPECT_THROW(lfsrs_for_probability(1.0 / 512.0), std::invalid_argument);
}

class SamplerBias : public ::testing::TestWithParam<double> {};

TEST_P(SamplerBias, DropRateWithinBinomialBounds) {
  const double p = GetParam();
  BernoulliSamplerConfig config;
  config.p = p;
  config.seed = 99;
  BernoulliSampler sampler(config);
  const int n = 40000;
  int drops = 0;
  for (int i = 0; i < n; ++i) drops += sampler.next_drop() ? 1 : 0;
  const double rate = static_cast<double>(drops) / n;
  const double bound = 4.5 * std::sqrt(p * (1 - p) / n);
  EXPECT_NEAR(rate, p, bound) << "drop rate off for p=" << p;
}

INSTANTIATE_TEST_SUITE_P(Probabilities, SamplerBias, ::testing::Values(0.5, 0.25, 0.125));

TEST(Sampler, AndTreeUsesConfiguredLfsrCount) {
  BernoulliSamplerConfig config;
  config.p = 0.25;
  BernoulliSampler sampler(config);
  EXPECT_EQ(sampler.num_lfsrs(), 2);
}

TEST(Sampler, DeterministicPerSeed) {
  BernoulliSamplerConfig config;
  config.seed = 7;
  BernoulliSampler a(config);
  BernoulliSampler b(config);
  config.seed = 8;
  BernoulliSampler c(config);
  bool diverged = false;
  for (int i = 0; i < 2000; ++i) {
    const bool bit = a.next_drop();
    EXPECT_EQ(bit, b.next_drop());
    if (bit != c.next_drop()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Sampler, SipoAssemblesWordsFromTheRawBitStream) {
  BernoulliSamplerConfig config;
  config.p = 0.5;
  config.pf = 16;
  config.fifo_depth = 8;
  config.seed = 3;
  BernoulliSampler cycle_sampler(config);
  BernoulliSampler functional_sampler(config);  // identical seed -> same bits

  // Produce 4 words cycle-by-cycle.
  for (int i = 0; i < 4 * config.pf; ++i) cycle_sampler.step_cycle();
  EXPECT_EQ(cycle_sampler.words_pushed(), 4u);

  for (int w = 0; w < 4; ++w) {
    std::vector<std::uint8_t> word;
    ASSERT_TRUE(cycle_sampler.pop_word(word));
    ASSERT_EQ(static_cast<int>(word.size()), config.pf);
    for (int i = 0; i < config.pf; ++i)
      EXPECT_EQ(word[static_cast<std::size_t>(i)],
                functional_sampler.next_drop() ? 1 : 0)
          << "word " << w << " bit " << i;
  }
}

TEST(Sampler, FifoFullStallsWithoutLosingBits) {
  BernoulliSamplerConfig config;
  config.p = 0.5;
  config.pf = 8;
  config.fifo_depth = 2;
  config.seed = 5;
  BernoulliSampler sampler(config);
  BernoulliSampler reference(config);

  // Enough cycles to fill the FIFO (2 words) + SIPO (1 word) and stall.
  for (int i = 0; i < 100; ++i) sampler.step_cycle();
  EXPECT_EQ(sampler.fifo_occupancy(), 2);
  EXPECT_GT(sampler.stall_cycles(), 0u);

  // Drain and refill; the stream must continue without losing any bit.
  std::vector<std::uint8_t> word;
  std::vector<std::uint8_t> produced;
  for (int round = 0; round < 6; ++round) {
    while (sampler.pop_word(word))
      produced.insert(produced.end(), word.begin(), word.end());
    for (int i = 0; i < 40; ++i) sampler.step_cycle();
  }
  while (sampler.pop_word(word))
    produced.insert(produced.end(), word.begin(), word.end());

  for (std::uint8_t bit : produced)
    EXPECT_EQ(bit, reference.next_drop() ? 1 : 0);
  EXPECT_GE(produced.size(), 5u * config.pf);
}

TEST(Sampler, PopOnEmptyFifoFails) {
  BernoulliSamplerConfig config;
  BernoulliSampler sampler(config);
  std::vector<std::uint8_t> word;
  EXPECT_FALSE(sampler.pop_word(word));
}

TEST(Sampler, RejectsBadConfig) {
  BernoulliSamplerConfig config;
  config.pf = 0;
  EXPECT_THROW(BernoulliSampler{config}, std::invalid_argument);
  config.pf = 8;
  config.fifo_depth = 0;
  EXPECT_THROW(BernoulliSampler{config}, std::invalid_argument);
}

TEST(Sampler, MaskSourceInterfaceDrivesDropout) {
  // The sampler plugs into the float-path dropout layer, replacing the
  // software RNG with the hardware bit stream.
  BernoulliSamplerConfig config;
  config.p = 0.5;
  config.seed = 11;
  BernoulliSampler sampler(config);

  nn::McDropout dropout(0.5);
  dropout.set_active(true);
  dropout.set_mask_source(&sampler);
  util::Rng rng(1);
  nn::Tensor x = nn::Tensor::randn({1, 64, 2, 2}, rng, 5.0f, 0.1f);
  nn::Tensor y = dropout.forward(x);
  int dropped = 0;
  for (int c = 0; c < 64; ++c) dropped += y.v4(0, c, 0, 0) == 0.0f ? 1 : 0;
  EXPECT_GT(dropped, 10);
  EXPECT_LT(dropped, 54);
  EXPECT_EQ(sampler.bits_produced(), 64u);
}

// The accelerator's lane arena reuses one sampler per lane via reseed(); a
// reseeded sampler must be indistinguishable from a freshly built one.
TEST(SamplerReseed, MatchesFreshlyConstructedSampler) {
  BernoulliSamplerConfig config;
  config.p = 0.25;
  config.pf = 16;
  config.fifo_depth = 4;
  config.seed = 5;
  BernoulliSampler reused(config);
  for (int i = 0; i < 100; ++i) (void)reused.next_drop();
  for (int i = 0; i < 40; ++i) reused.step_cycle();

  reused.reseed(99);
  config.seed = 99;
  BernoulliSampler fresh(config);
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(reused.next_drop(), fresh.next_drop()) << "drop bit " << i;

  // Cycle-level state was cleared too: both produce the same mask words.
  reused.reseed(7);
  config.seed = 7;
  BernoulliSampler fresh7(config);
  for (int i = 0; i < 64; ++i) {
    reused.step_cycle();
    fresh7.step_cycle();
  }
  EXPECT_EQ(reused.fifo_occupancy(), fresh7.fifo_occupancy());
  std::vector<std::uint8_t> word_a, word_b;
  while (reused.pop_word(word_a)) {
    ASSERT_TRUE(fresh7.pop_word(word_b));
    EXPECT_EQ(word_a, word_b);
  }
  EXPECT_FALSE(fresh7.pop_word(word_b));
}

}  // namespace
}  // namespace bnn::core
