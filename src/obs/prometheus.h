#ifndef RPG_OBS_PROMETHEUS_H_
#define RPG_OBS_PROMETHEUS_H_

/// \file
/// Prometheus text exposition format (version 0.0.4) rendering helpers
/// for the `GET /metrics` endpoint (docs/observability.md). The format:
///
///   # TYPE rpg_requests_total counter
///   rpg_requests_total 42
///   # TYPE rpg_e2e_ms histogram
///   rpg_e2e_ms_bucket{le="0.0001"} 0
///   ...
///   rpg_e2e_ms_bucket{le="+Inf"} 17
///   rpg_e2e_ms_sum 123.4
///   rpg_e2e_ms_count 17
///
/// Bucket lines are cumulative and monotone non-decreasing in `le`;
/// the +Inf bucket equals _count. serve::MetricsRegistry::ToPrometheus
/// composes these per-instrument appenders over its instrument maps.

#include <string>

#include "common/histogram.h"

namespace rpg::obs {

/// Maps an arbitrary instrument name onto the Prometheus metric-name
/// charset [a-zA-Z_:][a-zA-Z0-9_:]* (invalid characters become '_'; a
/// leading digit gets a '_' prefix; empty becomes "_").
std::string SanitizeMetricName(const std::string& name);

/// Escapes a label value for `{le="..."}` position: backslash, double
/// quote, and newline are escaped per the exposition format.
std::string EscapeLabelValue(const std::string& value);

/// Renders a sample value: integers without decimals, doubles with
/// enough precision to round-trip, "+Inf"/"-Inf"/"NaN" for non-finites.
std::string FormatMetricValue(double value);

/// Appends "# TYPE name counter" + one sample line.
void AppendCounter(const std::string& name, uint64_t value, std::string* out);

/// Appends "# TYPE name gauge" + one sample line.
void AppendGauge(const std::string& name, double value, std::string* out);

/// Appends a full histogram family: TYPE header, one cumulative
/// `_bucket{le="..."}` line per edge (the first edge's bucket carries
/// the underflow mass; `le` is read as <= while rpg buckets are
/// half-open [lo, hi), an off-by-one-sample approximation standard for
/// fixed-bucket exports), the +Inf bucket, `_sum`, and `_count`.
void AppendHistogram(const std::string& name, const Histogram& h,
                     std::string* out);

}  // namespace rpg::obs

#endif  // RPG_OBS_PROMETHEUS_H_
