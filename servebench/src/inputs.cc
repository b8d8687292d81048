#include "servebench/src/inputs.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace servebench {
namespace {

constexpr int32_t kVocab = 50000;

void Shuffle(std::vector<int>& values, jenga::Rng& rng) {
  for (size_t i = values.size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap(values[i - 1], values[j]);
  }
}

}  // namespace

std::vector<double> Strata(int n, jenga::Rng& rng) {
  std::vector<int> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  Shuffle(order, rng);
  std::vector<double> values;
  values.reserve(static_cast<size_t>(n));
  for (const int k : order) {
    values.push_back((static_cast<double>(k) + rng.UniformDouble()) / static_cast<double>(n));
  }
  return values;
}

int64_t UniformIn(double u, int64_t lo, int64_t hi) {
  return std::min(hi, lo + static_cast<int64_t>(u * static_cast<double>(hi - lo + 1)));
}

std::vector<double> PoissonArrivals(int n, double rate, jenga::Rng& rng) {
  std::vector<double> times;
  times.reserve(static_cast<size_t>(n));
  double t = 0.0;
  for (const double u : Strata(n, rng)) {
    t += -std::log1p(-u) / rate;
    times.push_back(t);
  }
  return times;
}

std::vector<int32_t> RandomTokens(int64_t count, jenga::Rng& rng) {
  std::vector<int32_t> tokens(static_cast<size_t>(count));
  for (int32_t& token : tokens) {
    token = static_cast<int32_t>(rng.UniformInt(0, kVocab - 1));
  }
  return tokens;
}

std::vector<Item> DocumentQa(int count, int docs, int64_t doc_lo, int64_t doc_hi,
                             int64_t out_lo, int64_t out_hi, uint64_t seed) {
  jenga::Rng rng(seed);
  std::vector<std::vector<int32_t>> documents;
  for (const double u : Strata(docs, rng)) {
    documents.push_back(RandomTokens(UniformIn(u, doc_lo, doc_hi), rng));
  }
  const std::vector<double> outputs = Strata(count, rng);
  const std::vector<double> questions = Strata(count, rng);
  std::vector<int> order(static_cast<size_t>(docs));
  std::iota(order.begin(), order.end(), 0);
  std::vector<Item> items;
  items.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    if (i % docs == 0) {
      Shuffle(order, rng);  // Each block of `docs` requests asks every document once.
    }
    Item item;
    item.prompt.tokens = documents[static_cast<size_t>(order[static_cast<size_t>(i % docs)])];
    const std::vector<int32_t> question =
        RandomTokens(UniformIn(questions[static_cast<size_t>(i)], 32, 192), rng);
    item.prompt.tokens.insert(item.prompt.tokens.end(), question.begin(), question.end());
    item.output_len = UniformIn(outputs[static_cast<size_t>(i)], out_lo, out_hi);
    items.push_back(std::move(item));
  }
  return items;
}

std::vector<Item> VisionQa(int count, int tokens_per_image, int64_t out_lo, int64_t out_hi,
                           uint64_t seed) {
  jenga::Rng rng(seed);
  // ≈ 6193 image tokens per request (MMMU-pro, §3.2): the nearest tile count, ±1 tile.
  const int base_tiles =
      std::max(1, static_cast<int>(std::lround(6193.0 / static_cast<double>(tokens_per_image))));
  const std::vector<double> tiles = Strata(count, rng);
  const std::vector<double> texts = Strata(count, rng);
  const std::vector<double> outputs = Strata(count, rng);
  std::vector<Item> items;
  items.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    Item item;
    jenga::Prompt& prompt = item.prompt;
    prompt.num_images =
        std::max(1, base_tiles + static_cast<int>(UniformIn(tiles[static_cast<size_t>(i)], -1, 1)));
    const int64_t text_len = UniformIn(texts[static_cast<size_t>(i)], 16, 72);
    const auto append = [&](int64_t n, jenga::TokenKind kind) {
      for (const int32_t token : RandomTokens(n, rng)) {
        prompt.tokens.push_back(token);
        prompt.kinds.push_back(kind);
      }
    };
    append(8, jenga::TokenKind::kText);
    append(static_cast<int64_t>(prompt.num_images) * tokens_per_image, jenga::TokenKind::kImage);
    append(text_len - 8, jenga::TokenKind::kText);
    item.output_len = UniformIn(outputs[static_cast<size_t>(i)], out_lo, out_hi);
    items.push_back(std::move(item));
  }
  return items;
}

std::vector<Item> ShortText(int count, int64_t out_lo, int64_t out_hi, uint64_t seed) {
  jenga::Rng rng(seed);
  const std::vector<double> prompts = Strata(count, rng);
  const std::vector<double> outputs = Strata(count, rng);
  std::vector<Item> items;
  items.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    Item item;
    item.prompt.tokens = RandomTokens(UniformIn(prompts[static_cast<size_t>(i)], 64, 2400), rng);
    item.output_len = UniformIn(outputs[static_cast<size_t>(i)], out_lo, out_hi);
    items.push_back(std::move(item));
  }
  return items;
}

}  // namespace servebench
