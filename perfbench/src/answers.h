#ifndef PERFBENCH_ANSWERS_H_
#define PERFBENCH_ANSWERS_H_

/// \file
/// What the output check compares: an /api/path answer's reading order and
/// node ids, reduced to a fingerprint, against the same fields of a serial
/// RePaGer::Generate on the reference serving state.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/reading_path.h"

namespace perfbench {

/// FNV-1a over the answer's `reading_order` ids, a separator, then its
/// `nodes[].id` values. nullopt when the body lacks either array.
std::optional<uint64_t> AnswerFingerprint(const std::string& body);

/// The same fingerprint computed from a pipeline result.
uint64_t PathFingerprint(const rpg::core::ReadingPath& path,
                         const std::vector<uint16_t>& years);

/// True when the answer says it came from the cache.
bool AnswerIsCacheHit(const std::string& body);

/// The number after `"key":` inside the object that follows `"section":`
/// (anywhere when `section` is empty), or nullopt.
std::optional<double> JsonNumber(const std::string& json,
                                 const std::string& section,
                                 const std::string& key);

}  // namespace perfbench

#endif  // PERFBENCH_ANSWERS_H_
