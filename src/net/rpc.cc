#include "net/rpc.hh"

namespace jets::net::rpc {

using Kind = DecodeError::Kind;

std::string to_string(const DecodeError& e) {
  const char* kind = "unknown";
  switch (e.kind) {
    case Kind::kBadTag: kind = "bad_tag"; break;
    case Kind::kMissingArg: kind = "missing_arg"; break;
    case Kind::kTrailingArgs: kind = "trailing_args"; break;
    case Kind::kBadNumber: kind = "bad_number"; break;
    case Kind::kBadEnum: kind = "bad_enum"; break;
    case Kind::kBadDigest: kind = "bad_digest"; break;
    case Kind::kOversized: kind = "oversized"; break;
  }
  return std::string(kind) + "(" + e.field + ")";
}

// --- StageReq ---------------------------------------------------------------

std::size_t StageReq::text_size() const {
  std::size_t n = header.path.size() + 1 + kDigestArgSize +
                  2 + decimal_size(header.bytes) + 1;
  switch (header.source) {
    case StageHeader::Source::kPush:
    case StageHeader::Source::kWarm:
      n += 6 + 1;  // "s=push" / "s=warm"
      break;
    case StageHeader::Source::kPeer:
      n += 7 + decimal_size(header.peer) + 1;  // "s=peer:<node>"
      break;
  }
  return n;
}

bool StageReq::normalize() {
  switch (header.source) {
    case StageHeader::Source::kPush:
    case StageHeader::Source::kWarm:
      header.peer = 0;
      return true;
    case StageHeader::Source::kPeer:
      return true;
  }
  return false;
}

Message StageReq::encode() const {
  std::vector<std::string> args;
  args.reserve(4);
  args.push_back(header.path);
  args.push_back("d=" + hex16(header.digest));
  args.push_back("b=" + std::to_string(header.bytes));
  switch (header.source) {
    case StageHeader::Source::kPush:
      args.push_back("s=push");
      break;
    case StageHeader::Source::kPeer:
      args.push_back("s=peer:" + std::to_string(header.peer));
      break;
    case StageHeader::Source::kWarm:
      args.push_back("s=warm");
      break;
  }
  return Message(kTag, std::move(args), payload);
}

Expected<StageReq, DecodeError> StageReq::decode(const Message& m) {
  const auto fail = [](Kind kind, const char* field) {
    return Unexpected{DecodeError{kind, field}};
  };
  if (m.tag != kTag) return fail(Kind::kBadTag, "tag");
  if (m.args.size() < 4) return fail(Kind::kMissingArg, "source");
  if (m.args.size() > 4) return fail(Kind::kTrailingArgs, "args");
  const std::string_view d = m.args[1], b = m.args[2], s = m.args[3];
  StageReq r;
  r.header.path = m.args[0];
  r.payload = m.payload_bytes;
  const auto digest =
      d.starts_with("d=") ? parse_hex16(d.substr(2)) : std::nullopt;
  if (!digest) return fail(Kind::kBadDigest, "digest");
  r.header.digest = *digest;
  const auto bytes = b.starts_with("b=")
                         ? parse_number<std::uint64_t>(b.substr(2))
                         : std::nullopt;
  if (!bytes) return fail(Kind::kBadNumber, "bytes");
  r.header.bytes = *bytes;
  if (s == "s=push") {
    r.header.source = StageHeader::Source::kPush;
  } else if (s == "s=warm") {
    r.header.source = StageHeader::Source::kWarm;
  } else if (s.starts_with("s=peer:")) {
    const auto peer = parse_number<NodeId>(s.substr(7));
    if (!peer) return fail(Kind::kBadNumber, "peer");
    r.header.source = StageHeader::Source::kPeer;
    r.header.peer = *peer;
  } else {
    return fail(Kind::kBadEnum, "source");
  }
  return r;
}

// --- Metrics --------------------------------------------------------------

ChannelMetrics ChannelMetrics::bind(obs::MetricsRegistry& m) {
  ChannelMetrics out;
  out.calls = &m.counter("jets.rpc.calls");
  out.notifies = &m.counter("jets.rpc.notifies");
  out.completed = &m.counter("jets.rpc.completed");
  out.peer_closed = &m.counter("jets.rpc.peer_closed");
  out.cancelled = &m.counter("jets.rpc.cancelled");
  out.orphans = &m.counter("jets.rpc.orphans");
  out.decode_errors = &m.counter("jets.rpc.decode_errors");
  out.unknown_tags = &m.counter("jets.rpc.unknown_tags");
  out.inflight = &m.gauge("jets.rpc.inflight");
  return out;
}

// --- Channel --------------------------------------------------------------

Channel::~Channel() {
  // Never invoke completions here: the channel dies during its owner's
  // teardown (actor kill, service destruction) when the frames those
  // callbacks capture may already be gone. A parked call() must not detach
  // from us later, though.
  for (PendingCall& p : calls_) {
    if (p.wait != nullptr) p.wait->chan = nullptr;
  }
}

Channel::TagEntry* Channel::find_tag(std::string_view tag) {
  for (TagEntry& e : tags_) {
    if (e.tag == tag) return &e;
  }
  return nullptr;
}

Channel::TagEntry* Channel::route(std::string_view tag) {
  if (TagEntry* e = find_tag(tag)) return e;
  if (tags_.capacity() == 0) tags_.reserve(kRouteCapacity);
  tags_.push_back(TagEntry{tag, nullptr});
  return &tags_.back();
}

std::optional<sim::Task<void>> Channel::dispatch(Message&& m) {
  if (on_message_) on_message_();
  TagEntry* e = find_tag(m.tag);
  if (!e) {
    note_unknown_tag();
    return std::nullopt;
  }
  return e->handle(*this, std::move(m));
}

std::vector<Channel::PendingCall>::const_iterator Channel::find_pending(
    std::string_view resp_tag, std::string_view key) const {
  return std::find_if(calls_.begin(), calls_.end(),
                      [&](const PendingCall& p) {
                        return p.resp_tag == resp_tag && p.key == key;
                      });
}

bool Channel::has_pending(std::string_view resp_tag,
                          std::string_view key) const {
  return find_pending(resp_tag, key) != calls_.end();
}

bool Channel::try_complete(const char* resp_tag, const std::string& key,
                           void* resp) {
  const auto it = find_pending(resp_tag, key);
  if (it == calls_.end()) return false;
  finish_call(it->id, resp, RpcError::kCancelled /* unused */);
  return true;
}

std::vector<Channel::PendingCall>::iterator Channel::find_call(CallId id) {
  return std::find_if(calls_.begin(), calls_.end(),
                      [id](const PendingCall& p) { return p.id == id; });
}

void Channel::finish_call(CallId id, void* resp, RpcError err) {
  const auto it = find_call(id);
  if (it == calls_.end()) return;
  PendingCall p = std::move(*it);
  calls_.erase(it);
  if (ChannelMetrics* mm = metrics_) {
    --mm->inflight_now;
    if (mm->inflight) mm->inflight->set(mm->inflight_now);
    if (resp) {
      if (mm->completed) mm->completed->inc();
    } else if (err == RpcError::kPeerClosed) {
      if (mm->peer_closed) mm->peer_closed->inc();
    } else if (err == RpcError::kCancelled) {
      if (mm->cancelled) mm->cancelled->inc();
    }
  }
  if (CallWaitBase* w = p.wait) {
    w->store(*w, resp, err);
    w->done = true;
    if (!w->resume.expired()) engine_->schedule(engine_->now(), w->resume);
  } else if (p.complete) {
    p.complete(resp, err);
  }
}

void Channel::detach(CallId id) {
  const auto it = find_call(id);
  if (it != calls_.end()) it->wait = nullptr;
}

void Channel::fail_all(RpcError err) {
  while (!calls_.empty()) finish_call(calls_.front().id, nullptr, err);
}

void Channel::fail_responses(std::string_view resp_tag, RpcError err) {
  std::vector<CallId> ids;
  for (const PendingCall& p : calls_) {
    if (resp_tag == p.resp_tag) ids.push_back(p.id);
  }
  for (const CallId id : ids) finish_call(id, nullptr, err);
}

void Channel::note_orphan() {
  if (metrics_ && metrics_->orphans) metrics_->orphans->inc();
}

void Channel::note_decode_error() {
  if (metrics_ && metrics_->decode_errors) metrics_->decode_errors->inc();
}

void Channel::note_unknown_tag() {
  if (metrics_ && metrics_->unknown_tags) metrics_->unknown_tags->inc();
}

sim::Task<void> Channel::serve() {
  serving_ = true;
  for (;;) {
    std::optional<Message> m = co_await sock_->recv();
    // Hang injection point: a hung pilot stops examining frames but its
    // socket keeps buffering — same order the hand-written loop used
    // (gate check even on the EOF wakeup).
    if (hang_gate_) {
      if (sim::Gate* g = hang_gate_()) co_await g->wait();
    }
    if (!m) {
      peer_closed_ = true;
      break;
    }
    if (stopped_) break;
    if (auto t = dispatch(std::move(*m))) co_await std::move(*t);
    if (stopped_) break;
  }
  serving_ = false;
}

}  // namespace jets::net::rpc
