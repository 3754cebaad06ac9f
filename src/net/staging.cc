#include "net/staging.hh"

namespace jets::net {

std::string hex16(std::uint64_t v) {
  static constexpr char kHexDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHexDigits[v & 0xf];
    v >>= 4;
  }
  return out;
}

std::optional<std::uint64_t> parse_hex16(std::string_view s) {
  if (s.size() != 16) return std::nullopt;
  std::uint64_t v = 0;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return v;
}

StagePlan plan_transfer(const Fabric& fabric, NodeId source, NodeId target,
                        std::span<const NodeId> holders, std::uint64_t bytes) {
  StagePlan plan;
  plan.cost = fabric.transfer_time(source, target,
                                   static_cast<std::size_t>(bytes));
  for (NodeId holder : holders) {
    const sim::Duration c =
        fabric.transfer_time(holder, target, static_cast<std::size_t>(bytes));
    // '<=' twice: a peer beats the push at equal cost, and among peers the
    // earlier (lower-id, since holders come in sorted) one keeps ties.
    if (c <= plan.cost && (!plan.use_peer || c < plan.cost)) {
      plan.use_peer = true;
      plan.peer = holder;
      plan.cost = c;
    }
  }
  return plan;
}

}  // namespace jets::net
