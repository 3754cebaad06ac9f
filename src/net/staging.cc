#include "net/staging.hh"

#include "net/number.hh"

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

std::vector<std::string> encode_stage_args(const StageHeader& h) {
  std::vector<std::string> args;
  args.reserve(4);
  args.push_back(h.path);
  args.push_back("d=" + hex16(h.digest));
  args.push_back("b=" + std::to_string(h.bytes));
  switch (h.source) {
    case StageHeader::Source::kPush:
      args.push_back("s=push");
      break;
    case StageHeader::Source::kPeer:
      args.push_back("s=peer:" + std::to_string(h.peer));
      break;
    case StageHeader::Source::kWarm:
      args.push_back("s=warm");
      break;
  }
  return args;
}

std::optional<StageHeader> parse_stage_args(
    const std::vector<std::string>& args) {
  if (args.size() != 4) return std::nullopt;
  std::string_view d(args[1]), b(args[2]), s(args[3]);
  if (!d.starts_with("d=") || !b.starts_with("b=") || !s.starts_with("s=")) {
    return std::nullopt;
  }
  StageHeader h;
  h.path = args[0];
  const auto digest = parse_hex16(d.substr(2));
  const auto bytes = rpc::parse_number<std::uint64_t>(b.substr(2));
  if (!digest || !bytes) return std::nullopt;
  h.digest = *digest;
  h.bytes = *bytes;
  s.remove_prefix(2);
  if (s == "push") {
    h.source = StageHeader::Source::kPush;
  } else if (s == "warm") {
    h.source = StageHeader::Source::kWarm;
  } else if (s.starts_with("peer:")) {
    const auto peer = rpc::parse_number<std::uint64_t>(s.substr(5));
    if (!peer) return std::nullopt;
    h.source = StageHeader::Source::kPeer;
    h.peer = static_cast<NodeId>(*peer);
  } else {
    return std::nullopt;
  }
  return h;
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
