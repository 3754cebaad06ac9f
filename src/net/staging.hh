// Staging transfer planning and the "stagein" wire header.
//
// The service's replication planner asks one question per (blob, node)
// pair: what is the cheapest way to get these bytes there? Either the
// service pushes them over the worker's socket (service -> node, paying
// the full fabric path — on BG/P the service node is TorusShape::
// service_hops away), or a peer node that already holds the digest copies
// them across the torus (peer -> node, usually a handful of hops for the
// min-span windows claim_workers builds). plan_transfer() prices both
// with the machine's Fabric and picks the cheaper, deterministically.
//
// The "stagein" frame (net::rpc::StageReq) carries the header as
//
//   args: [path, "d=<16 lowercase hex>", "b=<bytes>", source]
//   source: "s=push"         payload carried by this message
//           "s=peer:<node>"  fetch from <node>'s cache (zero payload)
//           "s=warm"         cache probe: already resident (zero payload)
//
// Acks (net::rpc::StageAck) mirror it: "staged" [path, "d=<hex>",
// "e=<hex>"...] where each "e=" names a digest the worker's cache evicted
// to make room, so the service's residency table tracks the node's real
// contents.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "net/fabric.hh"
#include "sim/time.hh"

namespace jets::net {

struct StageHeader {
  enum class Source : std::uint8_t {
    kPush,  // bytes ride this message's payload
    kPeer,  // copy from `peer`'s node-local cache
    kWarm,  // residency probe: expect a cache hit, zero bytes moved
  };

  std::string path;
  std::uint64_t digest = 0;
  std::uint64_t bytes = 0;
  Source source = Source::kPush;
  NodeId peer = 0;  // only meaningful for kPeer

  bool operator==(const StageHeader&) const = default;
};

/// A digest's wire text: exactly 16 lowercase hex chars (the CAS
/// convention — see os::CasStore).
std::string hex16(std::uint64_t digest);
/// Parses hex16()'s form; anything else is nullopt.
std::optional<std::uint64_t> parse_hex16(std::string_view s);

/// One planned transfer for a (blob, target-node) pair.
struct StagePlan {
  bool use_peer = false;
  NodeId peer = 0;         // source node when use_peer
  sim::Duration cost = 0;  // fabric time of the chosen transfer
};

/// Prices a service push (`source` -> `target`) against a copy from each
/// digest holder and returns the cheapest. Peers win ties (an intra-group
/// copy spares the service's uplink even at equal fabric cost); among
/// equally cheap peers the lowest node id wins, so plans are a pure
/// function of their inputs.
StagePlan plan_transfer(const Fabric& fabric, NodeId source, NodeId target,
                        std::span<const NodeId> holders, std::uint64_t bytes);

}  // namespace jets::net
