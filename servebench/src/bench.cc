#include "servebench/src/bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace servebench {

void Metrics::Set(const std::string& name, double value) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = value;
      return;
    }
  }
  items_.emplace_back(name, value);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

double CalibrationMs() {
  // Static buffers and an open-addressing table: the loop allocates nothing, so the heap
  // state a previous pass left behind cannot change its time.
  static std::vector<uint64_t> table(1u << 13);  // 64 KiB of keys, linear probing.
  static std::vector<uint32_t> keys(1u << 14);
  static std::vector<int32_t> tokens(1u << 14);
  const int64_t begin = NowNs();
  std::fill(table.begin(), table.end(), 0);
  const size_t mask = table.size() - 1;
  uint64_t h = 0x9E3779B97F4A7C15ull;
  uint64_t found = 0;
  for (int i = 0; i < 300000; ++i) {
    const uint64_t key = (h % 6000) + 1;
    size_t slot = (key * 0x9E3779B97F4A7C15ull) >> 51 & mask;
    while (table[slot] != 0 && table[slot] != key) {
      slot = (slot + 1) & mask;
    }
    if (table[slot] == key) {
      ++found;
    } else if ((h & 3) != 0) {
      table[slot] = key;
    }
    h = h * 6364136223846793005ull + 1442695040888963407ull;
  }
  for (int rep = 0; rep < 6; ++rep) {
    for (uint32_t& key : keys) {
      h = h * 6364136223846793005ull + 1442695040888963407ull;
      key = static_cast<uint32_t>(h >> 32);
    }
    std::sort(keys.begin(), keys.end());
    for (size_t i = 0; i < tokens.size(); ++i) {
      h = (h ^ static_cast<uint64_t>(tokens[i]) ^ keys[i]) * 0x100000001B3ull;
      tokens[i] = static_cast<int32_t>(h >> 40);
    }
  }
  const int64_t end = NowNs();
  return h + found == 0 ? 0.0 : static_cast<double>(end - begin) / 1e6;
}

int64_t SpanLog::Add(const char* name, int64_t parent, int64_t request, int64_t start_ns,
                     int64_t end_ns) {
  const int64_t id = (static_cast<int64_t>(thread_) << 40) | next_++;
  spans_.push_back(Span{name, id, parent, request, thread_, start_ns, end_ns});
  return id;
}

void SpanLog::SetEnd(int64_t id, int64_t end_ns) {
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      it->end_ns = end_ns;
      return;
    }
  }
}

int64_t WriteSpans(const std::string& path, const std::vector<const SpanLog*>& logs) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return -1;
  }
  int64_t origin = INT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      origin = std::min(origin, s.start_ns);
    }
  }
  int64_t written = 0;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", out);
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"span\":%lld,\"parent\":%lld,\"request\":%lld}}",
                   written == 0 ? "" : ",\n", s.name, s.thread,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<long long>(s.id), static_cast<long long>(s.parent),
                   static_cast<long long>(s.request));
      ++written;
    }
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0 ? written : -1;
}

void CoreCounts::Add(const CoreCounts& other) {
  for (size_t k = 0; k < kinds.size(); ++k) {
    kinds[k].claims += other.kinds[k].claims;
    kinds[k].revives += other.kinds[k].revives;
    kinds[k].cached += other.kinds[k].cached;
    kinds[k].evictions += other.kinds[k].evictions;
    kinds[k].large_acquired += other.kinds[k].large_acquired;
    kinds[k].large_reclaimed += other.kinds[k].large_reclaimed;
  }
  evictor_pops += other.evictor_pops;
}

void CoreCounts::Emit(Metrics& metrics) const {
  for (size_t k = 0; k < kinds.size(); ++k) {
    const Kind& c = kinds[k];
    const std::string prefix = std::string("core.") + kCoreKinds[k] + ".";
    metrics.Set(prefix + "claims", static_cast<double>(c.claims));
    metrics.Set(prefix + "revives", static_cast<double>(c.revives));
    metrics.Set(prefix + "cached", static_cast<double>(c.cached));
    metrics.Set(prefix + "evictions", static_cast<double>(c.evictions));
    metrics.Set(prefix + "large_acquired", static_cast<double>(c.large_acquired));
    metrics.Set(prefix + "large_reclaimed", static_cast<double>(c.large_reclaimed));
    // Share of page grants served by reviving cached content instead of an empty page.
    const int64_t grants = c.claims + c.revives;
    metrics.Set(prefix + "revive_pct",
                grants > 0 ? 100.0 * static_cast<double>(c.revives) / static_cast<double>(grants)
                           : 0.0);
  }
  metrics.Set("core.evictor_pops", static_cast<double>(evictor_pops));
}

CountingSink::CountingSink(const jenga::KvSpec& spec) {
  for (const jenga::KvGroupSpec& group : spec.groups) {
    int kind = -1;
    switch (group.kind) {
      case jenga::GroupKind::kFullAttention: kind = 0; break;
      case jenga::GroupKind::kSlidingWindow: kind = 1; break;
      case jenga::GroupKind::kMamba: kind = 2; break;
      case jenga::GroupKind::kVisionEmbed: kind = 3; break;
      case jenga::GroupKind::kCrossAttention: kind = 4; break;
      case jenga::GroupKind::kSparsePyramid: kind = -1; break;
    }
    kind_of_group_.push_back(kind);
  }
}

CoreCounts::Kind& CountingSink::At(int group) {
  const int kind = group >= 0 && group < static_cast<int>(kind_of_group_.size())
                       ? kind_of_group_[static_cast<size_t>(group)]
                       : -1;
  return kind < 0 ? untracked_ : counts_.kinds[static_cast<size_t>(kind)];
}

}  // namespace servebench
