// Small string utilities used across hetpar (parsers, report printers).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace hetpar::strings {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Splits `s` on `sep`; empty fields are kept.
std::vector<std::string> split(std::string_view s, char sep);

/// Splits `s` on runs of ASCII whitespace; empty fields are dropped.
std::vector<std::string> splitWhitespace(std::string_view s);

/// Joins `parts` with `sep` between elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Renders `seconds` as "MM:SS" (paper's Table I time format).
std::string formatMinSec(double seconds);

/// Renders `n` with thousands separators, e.g. 242382 -> "242,382".
std::string formatThousands(long long n);

/// printf-style helper returning std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace hetpar::strings
