// Property-based round-trip tests: every codec, at several levels, must
// reproduce its input exactly across a grid of data shapes and sizes that
// stress different code paths (empty input, runs, random bytes, text-like,
// float-like checkpoint pages, block boundaries).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "compress/codec.hpp"

namespace ndpcr::compress {
namespace {

enum class Shape {
  kEmpty,
  kSingleByte,
  kAllZero,
  kAllSame,
  kRandom,
  kLowEntropy,
  kTextLike,
  kFloatLike,
  kRunsAndNoise,
  kSelfSimilar,
};

const char* shape_name(Shape s) {
  switch (s) {
    case Shape::kEmpty: return "Empty";
    case Shape::kSingleByte: return "SingleByte";
    case Shape::kAllZero: return "AllZero";
    case Shape::kAllSame: return "AllSame";
    case Shape::kRandom: return "Random";
    case Shape::kLowEntropy: return "LowEntropy";
    case Shape::kTextLike: return "TextLike";
    case Shape::kFloatLike: return "FloatLike";
    case Shape::kRunsAndNoise: return "RunsAndNoise";
    case Shape::kSelfSimilar: return "SelfSimilar";
  }
  return "?";
}

Bytes make_data(Shape shape, std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  Bytes data;
  switch (shape) {
    case Shape::kEmpty:
      return data;
    case Shape::kSingleByte:
      data.assign(1, std::byte{0x7F});
      return data;
    case Shape::kAllZero:
      data.assign(size, std::byte{0});
      return data;
    case Shape::kAllSame:
      data.assign(size, std::byte{0xA5});  // the RLE escape byte, on purpose
      return data;
    case Shape::kRandom:
      data.resize(size);
      for (auto& b : data) {
        b = static_cast<std::byte>(rng.next_below(256));
      }
      return data;
    case Shape::kLowEntropy:
      data.resize(size);
      for (auto& b : data) {
        b = static_cast<std::byte>(rng.next_below(4));
      }
      return data;
    case Shape::kTextLike: {
      static const std::string words[] = {"alpha", "beta", "gamma", "delta",
                                          "epsilon", "zeta", " ", "\n"};
      while (data.size() < size) {
        const auto& w = words[rng.next_below(8)];
        for (char c : w) data.push_back(static_cast<std::byte>(c));
      }
      data.resize(size);
      return data;
    }
    case Shape::kFloatLike: {
      // Smooth doubles, like a stencil field: high-byte structure, noisy
      // mantissa tails - the dominant content of HPC checkpoints.
      data.reserve(size);
      double x = 1.0;
      while (data.size() + sizeof(double) <= size) {
        x += 0.001 * rng.normal();
        unsigned char raw[sizeof(double)];
        std::memcpy(raw, &x, sizeof(double));
        for (unsigned char c : raw) data.push_back(static_cast<std::byte>(c));
      }
      data.resize(size);
      return data;
    }
    case Shape::kRunsAndNoise:
      while (data.size() < size) {
        if (rng.next_below(2)) {
          const std::size_t run = 1 + rng.next_below(300);
          const auto v = static_cast<std::byte>(rng.next_below(256));
          for (std::size_t i = 0; i < run && data.size() < size; ++i) {
            data.push_back(v);
          }
        } else {
          const std::size_t n = 1 + rng.next_below(40);
          for (std::size_t i = 0; i < n && data.size() < size; ++i) {
            data.push_back(static_cast<std::byte>(rng.next_below(256)));
          }
        }
      }
      return data;
    case Shape::kSelfSimilar: {
      // Seed block repeated with mutations: long matches at large
      // distances, exercising window handling.
      Bytes block(257);
      for (auto& b : block) b = static_cast<std::byte>(rng.next_below(256));
      while (data.size() < size) {
        data.insert(data.end(), block.begin(), block.end());
        block[rng.next_below(block.size())] =
            static_cast<std::byte>(rng.next_below(256));
      }
      data.resize(size);
      return data;
    }
  }
  return data;
}

struct CodecUnderTest {
  const char* name;
  int level;
};

using Param = std::tuple<CodecUnderTest, Shape, std::size_t>;

class RoundTripTest : public ::testing::TestWithParam<Param> {};

TEST_P(RoundTripTest, DecompressRecoversInput) {
  const auto& [cut, shape, size] = GetParam();
  const auto codec = make_codec(cut.name, cut.level);
  const Bytes data = make_data(shape, size, /*seed=*/size * 1337 + 7);
  const Bytes framed = codec->compress(data);
  const Bytes restored = codec->decompress(framed);
  ASSERT_EQ(restored.size(), data.size());
  EXPECT_EQ(restored, data);
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const auto& [cut, shape, size] = info.param;
  // Plain appends of separate pieces: GCC 12 reports a false -Wrestrict
  // in the inlined `"L" + std::to_string(...)` in Release builds.
  std::string name = cut.name;
  name += 'L';
  name += std::to_string(cut.level);
  name += '_';
  name += shape_name(shape);
  name += '_';
  name += std::to_string(size);
  return name;
}

// The full grid would be slow for the heavy codecs at large sizes, so two
// suites: all codecs on small/medium inputs, fast codecs additionally on
// larger inputs spanning multiple compression blocks.
INSTANTIATE_TEST_SUITE_P(
    AllCodecsSmall, RoundTripTest,
    ::testing::Combine(
        ::testing::Values(CodecUnderTest{"null", 0}, CodecUnderTest{"rle", 1},
                          CodecUnderTest{"nlz4", 1}, CodecUnderTest{"nlz4", 6},
                          CodecUnderTest{"ngzip", 1},
                          CodecUnderTest{"ngzip", 6},
                          CodecUnderTest{"nbzip2", 1},
                          CodecUnderTest{"nxz", 1}, CodecUnderTest{"nxz", 6}),
        ::testing::Values(Shape::kEmpty, Shape::kSingleByte, Shape::kAllZero,
                          Shape::kAllSame, Shape::kRandom, Shape::kLowEntropy,
                          Shape::kTextLike, Shape::kFloatLike,
                          Shape::kRunsAndNoise, Shape::kSelfSimilar),
        ::testing::Values(std::size_t{3}, std::size_t{1000},
                          std::size_t{65537})),
    param_name);

INSTANTIATE_TEST_SUITE_P(
    FastCodecsLarge, RoundTripTest,
    ::testing::Combine(
        ::testing::Values(CodecUnderTest{"nlz4", 1},
                          CodecUnderTest{"ngzip", 1},
                          CodecUnderTest{"ngzip", 9}),
        ::testing::Values(Shape::kRandom, Shape::kTextLike, Shape::kFloatLike,
                          Shape::kSelfSimilar),
        // Spans several 256 KiB ngzip blocks, not block aligned.
        ::testing::Values(std::size_t{800000})),
    param_name);

// nbzip2 across a block boundary (level 1 blocks are 100 kB).
INSTANTIATE_TEST_SUITE_P(
    BzipBlockBoundaries, RoundTripTest,
    ::testing::Combine(::testing::Values(CodecUnderTest{"nbzip2", 1},
                                         CodecUnderTest{"nbzip2", 2}),
                       ::testing::Values(Shape::kTextLike, Shape::kLowEntropy,
                                         Shape::kRunsAndNoise),
                       ::testing::Values(std::size_t{100000},
                                         std::size_t{100001},
                                         std::size_t{250007})),
    param_name);

}  // namespace
}  // namespace ndpcr::compress
