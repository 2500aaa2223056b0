// The JSON string escaper every writer in the library shares (trace, metrics,
// shard snapshots, bench reports).
#pragma once

#include <string>
#include <string_view>

namespace cdpf::support {

/// `text` as the body of a JSON string literal (without the surrounding
/// quotes): '"' and '\\' are backslash-escaped, '\n' and '\t' become "\n"
/// and "\t", and every other control character below 0x20 becomes "\u00XX".
/// All other bytes pass through unchanged.
std::string json_escape(std::string_view text);

}  // namespace cdpf::support
