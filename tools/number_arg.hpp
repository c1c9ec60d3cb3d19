// Strict numeric command-line values, shared by the tools and the benches:
// a typo such as `--epochs abc` must be a usage error, never a silent 0.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <system_error>

namespace blackdp::tools {

/// The value `text` of `flag` when it is one whole decimal token (no sign,
/// blank or trailing character) in [min, max]. Anything else exits the
/// process with `usage(problem)`, which prints the problem and the tool's
/// usage text and returns the exit status (2).
template <typename Usage>
[[nodiscard]] std::uint64_t numberArg(const std::string& flag,
                                      std::string_view text, std::uint64_t min,
                                      std::uint64_t max, const Usage& usage) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc{} || stop != end || value < min ||
      value > max) {
    std::exit(usage(flag + " takes a whole number in " + std::to_string(min) +
                    ".." + std::to_string(max) + ", not '" +
                    std::string{text} + "'"));
  }
  return value;
}

}  // namespace blackdp::tools
