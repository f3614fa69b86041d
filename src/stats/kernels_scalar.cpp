// Portable scalar synthesis back-end: the reference the AVX2 back-end must
// match word for word and count for count.
#include <cstdint>

#include "stats/kernels.hpp"
#include "stats/sampling.hpp"
#include "util/rng.hpp"

namespace monohids::stats::kernels {
namespace {

void philox_fill_scalar(std::uint64_t key, std::uint64_t stream,
                        std::uint64_t first_block, std::uint32_t* out,
                        std::size_t blocks) {
  util::Philox4x32::fill_blocks(key, stream, first_block, out, blocks);
}

}  // namespace

namespace detail {

std::uint64_t poisson_counts_portable(const double* means, const std::uint32_t* words,
                                      std::uint32_t* counts, std::size_t n) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double mean = means[i];
    const double u = batch::to_unit32(words[i]);
    std::uint64_t k = 0;
    // Zero-draw shortcut, part of the draw contract: u <= 1 - mean implies
    // u <= exp(-mean), so the full inversion would land on 0 anyway — the
    // common idle bin skips the exp entirely. Applied per LANE in every
    // back-end (never per quad), so tile partitioning cannot perturb it.
    if (u + mean <= 1.0) {
      // k stays 0 (also covers mean == 0 exactly).
    } else if (mean < batch::kNormalCutoff32) [[likely]] {
      k = batch::poisson_inv_core(u, mean, batch::exp_neg12(mean));
    } else {
      k = batch::poisson_normal_word32(words[i], mean);
    }
    counts[i] = static_cast<std::uint32_t>(k);
    total += k;
  }
  return total;
}

const Ops* scalar_ops() noexcept {
  static const Ops ops = {"scalar", philox_fill_scalar, poisson_counts_portable};
  return &ops;
}

}  // namespace detail
}  // namespace monohids::stats::kernels
