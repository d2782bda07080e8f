// The one JSON string writer shared by every JSON producer: trace files,
// run reports, metrics and time-series snapshots, telemetry and alert
// endpoints, incident bundles and the serving protocol.
#ifndef ITG_COMMON_JSON_H_
#define ITG_COMMON_JSON_H_

#include <string>

namespace itg {

/// Appends `s` to `out` as a quoted JSON string. `"` and `\` are
/// backslash-escaped, newline, tab and carriage return take their short
/// escapes, and every other byte below 0x20 becomes `\u00XX`, so the
/// output never holds a raw control character. Other bytes (UTF-8
/// included) pass through unchanged.
void AppendJsonString(const std::string& s, std::string* out);

}  // namespace itg

#endif  // ITG_COMMON_JSON_H_
