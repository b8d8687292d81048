// Request's image-run bookkeeping against a per-token reference: the kind of every position
// and the image/text counts before every boundary, prompt and generated tokens alike.

#include "src/engine/request.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/random.h"

namespace jenga {
namespace {

// Checks every answer of `r` against the per-token kinds of its prompt followed by text.
void ExpectMatchesReference(const Request& r, const std::string& label) {
  std::vector<TokenKind> kinds(static_cast<size_t>(r.total_len()), TokenKind::kText);
  for (int64_t i = 0; i < r.prompt_len(); ++i) {
    kinds[static_cast<size_t>(i)] = r.prompt.kind(i);
  }
  int64_t images = 0;
  for (int64_t p = 0; p <= r.total_len(); ++p) {
    ASSERT_EQ(r.ImageTokensBefore(p), images) << label << ", position " << p;
    ASSERT_EQ(r.TextTokensBefore(p), p - images) << label << ", position " << p;
    if (p < r.total_len()) {
      ASSERT_EQ(r.KindAt(p), kinds[static_cast<size_t>(p)]) << label << ", position " << p;
      images += kinds[static_cast<size_t>(p)] == TokenKind::kImage ? 1 : 0;
    }
  }
  EXPECT_EQ(r.num_image_tokens, r.prompt.CountImageTokens()) << label;
  // Runs are sorted, maximal (never adjacent) and count the images before them.
  int64_t before = 0;
  for (size_t k = 0; k < r.image_runs.size(); ++k) {
    const Request::ImageRun& run = r.image_runs[k];
    EXPECT_LT(run.begin, run.end) << label;
    EXPECT_EQ(run.images_before, before) << label;
    if (k > 0) {
      EXPECT_GT(run.begin, r.image_runs[k - 1].end) << label << ": runs not maximal";
    }
    before += run.end - run.begin;
  }
  EXPECT_EQ(before, r.num_image_tokens) << label;
  EXPECT_EQ(static_cast<int64_t>(r.all_tokens.size()), r.total_len()) << label;
}

Request RequestWithKinds(const std::vector<TokenKind>& kinds, int64_t output_len) {
  Prompt prompt;
  for (size_t i = 0; i < kinds.size(); ++i) {
    prompt.tokens.push_back(static_cast<int32_t>(1000 + i));
  }
  prompt.kinds = kinds;
  return MakeRequest(1, std::move(prompt), output_len, 0.0);
}

// Prepares the request, then generates every output token, checking at each length.
void CheckThroughDecode(const std::vector<TokenKind>& kinds, int64_t output_len,
                        const std::string& label) {
  Request r = RequestWithKinds(kinds, output_len);
  ExpectMatchesReference(r, label);
  const int32_t* data = r.all_tokens.data();
  for (int64_t i = 0; i < output_len; ++i) {
    r.AppendGenerated(static_cast<int32_t>(i));
    ExpectMatchesReference(r, label + ", generated " + std::to_string(i + 1));
  }
  // all_tokens was reserved for the whole output: decoding never moved it.
  EXPECT_EQ(r.all_tokens.data(), data) << label;
}

TEST(RequestImageRuns, EdgePatterns) {
  using K = TokenKind;
  const K t = K::kText;
  const K i = K::kImage;
  CheckThroughDecode({t, t, t, t}, 3, "no image");
  CheckThroughDecode({i, i, i}, 2, "all image");
  CheckThroughDecode({i, i, t, t}, 2, "leading image");
  CheckThroughDecode({t, t, i, i}, 2, "trailing image");
  CheckThroughDecode({i, t, i}, 1, "single-token runs at both ends");
  CheckThroughDecode({t, i, i, i, i, t}, 2, "adjacent images merge into one run");
  CheckThroughDecode({i}, 1, "one image token");
  CheckThroughDecode({t}, 1, "one text token");
  // An empty kinds vector means an all-text prompt.
  Prompt prompt;
  prompt.tokens = {1, 2, 3};
  Request r = MakeRequest(1, prompt, 2, 0.0);
  EXPECT_TRUE(r.image_runs.empty());
  r.AppendGenerated(4);
  ExpectMatchesReference(r, "kinds omitted");
}

TEST(RequestImageRuns, RandomPatternsMatchPerTokenReference) {
  Rng rng(20261020);
  for (int trial = 0; trial < 200; ++trial) {
    const int64_t len = rng.UniformInt(1, 300);
    // Images arrive in runs of random length; the density varies per trial.
    const double p_start = rng.UniformDouble(0.0, 0.3);
    std::vector<TokenKind> kinds;
    while (static_cast<int64_t>(kinds.size()) < len) {
      if (rng.Bernoulli(p_start)) {
        const int64_t run = rng.UniformInt(1, 40);
        for (int64_t k = 0; k < run && static_cast<int64_t>(kinds.size()) < len; ++k) {
          kinds.push_back(TokenKind::kImage);
        }
      } else {
        kinds.push_back(TokenKind::kText);
      }
    }
    CheckThroughDecode(kinds, rng.UniformInt(1, 20), "trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace jenga
