#include "src/engine/request.h"

#include <algorithm>

#include "src/common/check.h"

namespace jenga {

int64_t Prompt::CountImageTokens() const {
  if (kinds.empty()) {
    return 0;
  }
  int64_t count = 0;
  for (TokenKind k : kinds) {
    if (k == TokenKind::kImage) {
      ++count;
    }
  }
  return count;
}

void Request::Prepare() {
  JENGA_CHECK_GT(output_len, 0);
  JENGA_CHECK_GT(prompt.size(), 0);
  if (!prompt.kinds.empty()) {
    JENGA_CHECK_EQ(prompt.kinds.size(), prompt.tokens.size());
  }
  all_tokens.reserve(static_cast<size_t>(prompt.size() + output_len));
  all_tokens.assign(prompt.tokens.begin(), prompt.tokens.end());
  image_runs.clear();
  num_image_tokens = 0;
  for (int64_t i = 0; i < static_cast<int64_t>(prompt.kinds.size()); ++i) {
    if (prompt.kinds[static_cast<size_t>(i)] != TokenKind::kImage) {
      continue;
    }
    if (image_runs.empty() || image_runs.back().end != i) {
      image_runs.push_back(ImageRun{i, i, num_image_tokens});
    }
    image_runs.back().end = i + 1;
    ++num_image_tokens;
  }
}

int64_t Request::ImageTokensBefore(int64_t position) const {
  if (image_runs.empty()) {
    return 0;
  }
  // The last run that starts before `position`.
  const auto after = std::upper_bound(
      image_runs.begin(), image_runs.end(), position,
      [](int64_t p, const ImageRun& run) { return p <= run.begin; });
  if (after == image_runs.begin()) {
    return 0;
  }
  const ImageRun& run = *(after - 1);
  return run.images_before + std::min(position, run.end) - run.begin;
}

TokenKind Request::KindAt(int64_t position) const {
  return ImageTokensBefore(position + 1) > ImageTokensBefore(position) ? TokenKind::kImage
                                                                       : TokenKind::kText;
}

void Request::AppendGenerated(int32_t token) {
  all_tokens.push_back(token);
  num_generated += 1;
}

Request MakeRequest(RequestId id, Prompt prompt, int64_t output_len, double arrival_time) {
  Request request;
  request.id = id;
  request.prompt = std::move(prompt);
  request.output_len = output_len;
  request.arrival_time = arrival_time;
  request.Prepare();
  return request;
}

}  // namespace jenga
