// Hostile-input suite for GkSketch::deserialize, which reads fleet state
// from disk. Valid images come from sketches built by add(), from_distribution()
// and merge trees; each is then mutated by seeded bit flips, field
// overwrites at tuple boundaries, truncations and n / tuple-count skew.
// The oracle is an independent parser of the image format that checks
// every invariant deserialize promises. For every mutant the two must
// agree: deserialize throws InputError exactly when the oracle rejects the
// image, and an accepted image re-serializes to the same bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "stats/gk_sketch.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace monohids::stats {
namespace {

/// The fleet reducer's construction path: a sketch from the runs of the
/// samples' distribution.
GkSketch sketch_of(std::vector<double> samples, double epsilon) {
  return GkSketch::from_distribution(EmpiricalDistribution(std::move(samples)), epsilon);
}


// Image layout: magic u32, epsilon f64, n u64, tuple count u64, then per
// tuple value f64, g u64, delta u64.
constexpr std::size_t kEpsilonAt = 4;
constexpr std::size_t kNAt = 12;
constexpr std::size_t kCountAt = 20;
constexpr std::size_t kHeaderBytes = 28;
constexpr std::size_t kTupleBytes = 24;
constexpr std::uint32_t kMagic = 0x4753'4b31;

template <typename T>
T load(const std::string& image, std::size_t at) {
  T value{};
  std::memcpy(&value, image.data() + at, sizeof(T));
  return value;
}

template <typename T>
void store(std::string& image, std::size_t at, T value) {
  std::memcpy(image.data() + at, &value, sizeof(T));
}

std::uint64_t band_of(double epsilon, std::uint64_t n) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::floor(2.0 * epsilon * static_cast<double>(n))));
}

/// The oracle: whether `image` is a well-formed sketch image (trailing
/// bytes past the last tuple are not read, so they do not count).
bool image_is_valid(const std::string& image) {
  if (image.size() < kHeaderBytes) return false;
  if (load<std::uint32_t>(image, 0) != kMagic) return false;
  const auto epsilon = load<double>(image, kEpsilonAt);
  if (!(std::isfinite(epsilon) && epsilon > 0.0 && epsilon < 0.5)) return false;
  const auto n = load<std::uint64_t>(image, kNAt);
  const auto count = load<std::uint64_t>(image, kCountAt);
  if (count > n || (n == 0) != (count == 0)) return false;
  if (count > (image.size() - kHeaderBytes) / kTupleBytes) return false;
  const std::uint64_t band = band_of(epsilon, n);
  std::uint64_t total_g = 0;
  double previous = -std::numeric_limits<double>::infinity();
  for (std::uint64_t k = 0; k < count; ++k) {
    const std::size_t at = kHeaderBytes + k * kTupleBytes;
    const auto value = load<double>(image, at);
    const auto g = load<std::uint64_t>(image, at + 8);
    const auto delta = load<std::uint64_t>(image, at + 16);
    if (!std::isfinite(value) || value < previous) return false;
    if (g < 1 || g > n - total_g || g > band || delta > band - g) return false;
    previous = value;
    total_g += g;
  }
  return total_g == n;
}

std::string image_of(const GkSketch& sketch) {
  std::stringstream out;
  sketch.serialize(out);
  return out.str();
}

std::vector<double> stream(std::uint64_t seed, std::size_t n) {
  util::Xoshiro256 rng(seed);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = seed % 2 == 0 ? static_cast<double>(rng() % 40) : std::exp(3.0 * rng.uniform01());
  }
  return out;
}

/// Valid images from every construction path: add() at several ε,
/// from_distribution(), a left fold and a balanced merge tree, plus a
/// one-observation sketch.
std::vector<std::string> source_images() {
  std::vector<std::string> images;
  for (double epsilon : {0.01, 0.05, 0.2}) {
    GkSketch sketch(epsilon);
    for (double v : stream(11, 700)) sketch.add(v);
    images.push_back(image_of(sketch));
  }
  for (std::uint64_t seed : {20u, 21u}) {
    auto sorted = stream(seed, 900);
    std::sort(sorted.begin(), sorted.end());
    images.push_back(image_of(sketch_of(sorted, 0.02)));
  }
  std::vector<GkSketch> shards;
  for (std::uint64_t s = 0; s < 8; ++s) {
    auto sorted = stream(30 + s, 100 + 40 * s);
    std::sort(sorted.begin(), sorted.end());
    shards.push_back(sketch_of(sorted, 0.05));
  }
  GkSketch fold = shards.front();
  for (std::size_t s = 1; s < shards.size(); ++s) fold.merge(shards[s]);
  images.push_back(image_of(fold));
  std::vector<GkSketch> level = shards;
  while (level.size() > 1) {
    std::vector<GkSketch> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(level[i]);
      next.back().merge(level[i + 1]);
    }
    level = std::move(next);
  }
  images.push_back(image_of(level.front()));
  GkSketch one(0.1);
  one.add(3.0);
  images.push_back(image_of(one));
  return images;
}

/// Deserializes `image`; an accepted image must satisfy the oracle and
/// round-trip byte for byte, a rejected one must fail the oracle with an
/// InputError (any other exception fails the test).
void expect_agreement(const std::string& image, const std::string& what) {
  const bool valid = image_is_valid(image);
  std::stringstream in(image);
  try {
    const GkSketch sketch = GkSketch::deserialize(in);
    ASSERT_TRUE(valid) << what << ": deserialize accepted an image the oracle rejects";
    const std::string again = image_of(sketch);
    ASSERT_EQ(again, image.substr(0, again.size())) << what;
    ASSERT_TRUE(image_is_valid(again)) << what;
    if (sketch.count() > 0) {
      const double median = sketch.quantile(0.5);
      EXPECT_TRUE(std::isfinite(median)) << what;
    }
  } catch (const InputError&) {
    ASSERT_FALSE(valid) << what << ": deserialize rejected an image the oracle accepts";
  }
}

TEST(GkSerdeMutation, EveryConstructionPathKeepsTheBand) {
  for (const std::string& image : source_images()) {
    ASSERT_TRUE(image_is_valid(image));
    expect_agreement(image, "source");
  }
}

TEST(GkSerdeMutation, TupleOutsideTheBandIsRejected) {
  auto sorted = stream(40, 500);
  std::sort(sorted.begin(), sorted.end());
  const GkSketch sketch = sketch_of(sorted, 0.05);
  const std::string image = image_of(sketch);
  ASSERT_GE(sketch.tuple_count(), 3u);
  const std::uint64_t n = sketch.count();
  const std::uint64_t band = band_of(sketch.epsilon(), n);
  const std::size_t middle = kHeaderBytes + (sketch.tuple_count() / 2) * kTupleBytes;
  const auto g = load<std::uint64_t>(image, middle + 8);
  ASSERT_LE(g, band);

  std::string at_band = image;
  store<std::uint64_t>(at_band, middle + 16, band - g);
  std::stringstream at_band_in(at_band);
  EXPECT_NO_THROW((void)GkSketch::deserialize(at_band_in));

  for (std::uint64_t delta : {band - g + 1, n, std::numeric_limits<std::uint64_t>::max()}) {
    std::string over = image;
    store<std::uint64_t>(over, middle + 16, delta);
    std::stringstream in(over);
    EXPECT_THROW((void)GkSketch::deserialize(in), InputError) << "delta=" << delta;
  }
}

TEST(GkSerdeMutation, SeededMutantsThrowOrRoundTrip) {
  const auto images = source_images();
  for (std::size_t source = 0; source < images.size(); ++source) {
    const std::string& image = images[source];
    const auto n = load<std::uint64_t>(image, kNAt);
    const auto count = load<std::uint64_t>(image, kCountAt);
    const auto epsilon = load<double>(image, kEpsilonAt);
    const std::uint64_t band = band_of(epsilon, n);
    util::Xoshiro256 rng(util::derive_seed(2009, "gk-serde-mutation", source));
    const auto tuple_at = [&](std::uint64_t k) { return kHeaderBytes + k * kTupleBytes; };
    const std::string label = "source " + std::to_string(source);

    // Bit flips: one to three random bits anywhere in the image.
    for (int trial = 0; trial < 200; ++trial) {
      std::string mutant = image;
      const int flips = 1 + static_cast<int>(rng() % 3);
      for (int f = 0; f < flips; ++f) {
        const std::size_t bit = rng() % (mutant.size() * 8);
        mutant[bit / 8] = static_cast<char>(mutant[bit / 8] ^ (1 << (bit % 8)));
      }
      expect_agreement(mutant, label + " bit flips");
    }

    // Field overwrites at tuple boundaries: the first, a middle and the
    // last tuple, each field set to values around every bound.
    const std::vector<std::uint64_t> counts = {0, 1, band - 1, band, band + 1, n - 1, n,
                                               n + 1, std::numeric_limits<std::uint64_t>::max()};
    const std::vector<double> values = {-std::numeric_limits<double>::infinity(),
                                        std::numeric_limits<double>::infinity(),
                                        std::numeric_limits<double>::quiet_NaN(),
                                        -1e300, 0.0, -0.0, 1e300};
    for (std::uint64_t k : {std::uint64_t{0}, count / 2, count - 1}) {
      for (std::uint64_t v : counts) {
        std::string g_mutant = image;
        store(g_mutant, tuple_at(k) + 8, v);
        expect_agreement(g_mutant, label + " g of tuple " + std::to_string(k));
        std::string delta_mutant = image;
        store(delta_mutant, tuple_at(k) + 16, v);
        expect_agreement(delta_mutant, label + " delta of tuple " + std::to_string(k));
      }
      std::vector<double> near = values;
      if (k > 0) near.push_back(load<double>(image, tuple_at(k - 1)));
      if (k + 1 < count) near.push_back(load<double>(image, tuple_at(k + 1)));
      for (double v : near) {
        std::string mutant = image;
        store(mutant, tuple_at(k), v);
        expect_agreement(mutant, label + " value of tuple " + std::to_string(k));
      }
      // Moving rank mass between neighbours keeps Σg = n.
      if (k + 1 < count) {
        std::string mutant = image;
        const auto g = load<std::uint64_t>(image, tuple_at(k) + 8);
        const auto next_g = load<std::uint64_t>(image, tuple_at(k + 1) + 8);
        store(mutant, tuple_at(k) + 8, g + next_g - 1);
        store<std::uint64_t>(mutant, tuple_at(k + 1) + 8, 1);
        expect_agreement(mutant, label + " g moved into tuple " + std::to_string(k));
      }
    }
    for (double v : {0.0, -0.1, 0.1, 0.4999999, 0.5, std::nan(""), 1e-300}) {
      std::string mutant = image;
      store(mutant, kEpsilonAt, v);
      expect_agreement(mutant, label + " epsilon");
    }

    // n and tuple-count skew, alone and together.
    for (std::int64_t skew : {-2, -1, 1, 2, 1000}) {
      std::string n_mutant = image;
      store(n_mutant, kNAt, n + static_cast<std::uint64_t>(skew));
      expect_agreement(n_mutant, label + " n skew " + std::to_string(skew));
      std::string count_mutant = image;
      store(count_mutant, kCountAt, count + static_cast<std::uint64_t>(skew));
      expect_agreement(count_mutant, label + " count skew " + std::to_string(skew));
      std::string both = n_mutant;
      store(both, kCountAt, count + static_cast<std::uint64_t>(skew));
      expect_agreement(both, label + " n and count skew " + std::to_string(skew));
    }
    for (std::uint64_t v : {std::uint64_t{0}, std::numeric_limits<std::uint64_t>::max()}) {
      std::string n_mutant = image;
      store(n_mutant, kNAt, v);
      expect_agreement(n_mutant, label + " n extreme");
      std::string count_mutant = image;
      store(count_mutant, kCountAt, v);
      expect_agreement(count_mutant, label + " count extreme");
    }

    // Truncations: every offset in the header and the first tuples, then
    // seeded offsets through the rest.
    for (std::size_t size = 0; size < std::min(image.size(), kHeaderBytes + 3 * kTupleBytes);
         ++size) {
      expect_agreement(image.substr(0, size), label + " truncated");
    }
    for (int trial = 0; trial < 50; ++trial) {
      expect_agreement(image.substr(0, rng() % image.size()), label + " truncated");
    }
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace monohids::stats
