// Seeded input generation for the benchmark workloads.
//
// Every random quantity a workload's cost depends on in aggregate — document lengths,
// output lengths, image tiles, arrival gaps, which document a question is about — is drawn
// by stratified sampling: n draws take one value from each of n equal-probability strata,
// in a seeded random order. A different seed therefore changes which request gets which
// value, the token contents and the arrival order, but barely moves totals and means, so
// run-to-run differences in the metrics measure the program, not the draw.

#ifndef SERVEBENCH_SRC_INPUTS_H_
#define SERVEBENCH_SRC_INPUTS_H_

#include <cstdint>
#include <vector>

#include "src/common/random.h"
#include "src/engine/request.h"

namespace servebench {

struct Item {
  jenga::Prompt prompt;
  int64_t output_len = 0;
  double arrival = 0.0;  // Simulated seconds (offline workloads).
};

// n values in [0, 1), exactly one in each [k/n, (k+1)/n), shuffled.
[[nodiscard]] std::vector<double> Strata(int n, jenga::Rng& rng);

// Maps a stratum value onto the integers [lo, hi].
[[nodiscard]] int64_t UniformIn(double u, int64_t lo, int64_t hi);

// Poisson arrival times at `rate` per second: stratified exponential gaps, cumulated.
[[nodiscard]] std::vector<double> PoissonArrivals(int n, double rate, jenga::Rng& rng);

[[nodiscard]] std::vector<int32_t> RandomTokens(int64_t count, jenga::Rng& rng);

// Shared-document question answering (arXiv-QA style): `docs` documents with lengths
// spread over [doc_lo, doc_hi]; request i asks about one document, each document equally
// often; a 32–192-token question follows the document.
[[nodiscard]] std::vector<Item> DocumentQa(int count, int docs, int64_t doc_lo, int64_t doc_hi,
                                           int64_t out_lo, int64_t out_hi, uint64_t seed);

// MMMU-pro style vision prompts: ~6.2k image tokens in `tokens_per_image` tiles (±1 tile),
// 8 leading text tokens, a short question after the images; nothing shared.
[[nodiscard]] std::vector<Item> VisionQa(int count, int tokens_per_image, int64_t out_lo,
                                         int64_t out_hi, uint64_t seed);

// MMLU-pro style text prompts: unshared 64–2400-token prompts.
[[nodiscard]] std::vector<Item> ShortText(int count, int64_t out_lo, int64_t out_hi,
                                          uint64_t seed);

}  // namespace servebench

#endif  // SERVEBENCH_SRC_INPUTS_H_
