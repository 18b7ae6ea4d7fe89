#include "answers.h"

#include <cstdlib>

namespace perfbench {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;
constexpr uint64_t kSeparator = ~0ULL;

void Mix(uint64_t value, uint64_t* h) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (value >> (8 * i)) & 0xff;
    *h *= kFnvPrime;
  }
}

/// Appends every unsigned integer that follows `marker` in
/// body[begin, end) to `out`.
void CollectAfter(const std::string& body, size_t begin, size_t end,
                  const std::string& marker, std::vector<uint64_t>* out) {
  for (size_t pos = body.find(marker, begin); pos < end;
       pos = body.find(marker, pos + 1)) {
    out->push_back(std::strtoull(body.c_str() + pos + marker.size(), nullptr,
                                 10));
  }
}

}  // namespace

std::optional<uint64_t> AnswerFingerprint(const std::string& body) {
  // The renderer writes compact JSON; titles are escaped strings, so the
  // markers below cannot occur inside them.
  const size_t order = body.find("\"reading_order\":[");
  const size_t nodes = body.find("\"nodes\":[");
  const size_t edges = body.find("\"edges\":[");
  if (order == std::string::npos || nodes == std::string::npos ||
      edges == std::string::npos || edges < nodes) {
    return std::nullopt;
  }
  const size_t order_begin = order + 17;
  const size_t order_end = body.find(']', order_begin);
  if (order_end == std::string::npos) return std::nullopt;

  std::vector<uint64_t> order_ids, node_ids;
  for (size_t pos = order_begin; pos < order_end;) {
    char* next = nullptr;
    order_ids.push_back(std::strtoull(body.c_str() + pos, &next, 10));
    pos = static_cast<size_t>(next - body.c_str()) + 1;  // skip ','
  }
  CollectAfter(body, nodes, edges, "{\"id\":", &node_ids);

  uint64_t h = kFnvOffset;
  for (uint64_t id : order_ids) Mix(id, &h);
  Mix(kSeparator, &h);
  for (uint64_t id : node_ids) Mix(id, &h);
  return h;
}

uint64_t PathFingerprint(const rpg::core::ReadingPath& path,
                         const std::vector<uint16_t>& years) {
  uint64_t h = kFnvOffset;
  for (auto id : path.FlattenedOrder(years)) Mix(id, &h);
  Mix(kSeparator, &h);
  for (auto id : path.nodes()) Mix(id, &h);
  return h;
}

bool AnswerIsCacheHit(const std::string& body) {
  return body.find("\"cache_hit\":true") != std::string::npos;
}

std::optional<double> JsonNumber(const std::string& json,
                                 const std::string& section,
                                 const std::string& key) {
  size_t from = 0;
  if (!section.empty()) {
    from = json.find("\"" + section + "\":{");
    if (from == std::string::npos) return std::nullopt;
  }
  const std::string marker = "\"" + key + "\":";
  size_t pos = json.find(marker, from);
  if (pos == std::string::npos) return std::nullopt;
  const char* start = json.c_str() + pos + marker.size();
  char* end = nullptr;
  double value = std::strtod(start, &end);
  if (end == start) return std::nullopt;
  return value;
}

}  // namespace perfbench
