// Decimal number fields as the text wire and the job file write them.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <optional>
#include <string_view>
#include <type_traits>

namespace jets::net::rpc {

/// Full-consumption parse of a numeric field: the whole of `s`, no
/// whitespace or '+', in range of T (an unsigned T also refuses '-').
/// The decoders, the job file, the Hydra proxy's argv and the MPI business
/// cards use it.
template <typename T>
std::optional<T> parse_number(std::string_view s) {
  T v{};
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), last, v);
  if (ec != std::errc() || ptr != last || s.empty()) return std::nullopt;
  return v;
}

/// Text length of an integer field, sign included (what std::to_string
/// renders), computed without allocating.
template <std::integral T>
constexpr std::size_t decimal_size(T v) {
  std::size_t n = 1;
  auto u = static_cast<std::make_unsigned_t<T>>(v);
  if constexpr (std::is_signed_v<T>) {
    if (v < 0) {
      ++n;
      u = 0 - u;  // in unsigned arithmetic: the minimum has no positive twin
    }
  }
  for (; u >= 10; u /= 10) ++n;
  return n;
}

}  // namespace jets::net::rpc
