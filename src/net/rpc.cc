#include "net/rpc.hh"

#include <cmath>
#include <cstdio>

namespace jets::net::rpc {
namespace {

// Digest text form: exactly 16 lowercase hex chars (the CAS convention —
// see os::CasStore). Anything else, including a zero digest, is rejected:
// the service historically dropped acks whose digest failed this parse.
std::optional<std::uint64_t> parse_hex16(std::string_view s) {
  if (s.size() != 16) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : s) {
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

std::string hex16(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return out;
}

/// "d=<16 hex>" / "e=<16 hex>" plus its separator.
constexpr std::size_t kDigestArgSize = 2 + 16 + 1;

const char* reason_token(TaskDone::Reason r) {
  switch (r) {
    case TaskDone::Reason::kApp: return "app";
    case TaskDone::Reason::kWatchdog: return "watchdog";
    case TaskDone::Reason::kKilled: return "killed";
  }
  return "app";
}

/// Text bytes of an argv window: its count, then each arg.
std::size_t argv_size(const std::vector<std::string>& argv) {
  std::size_t n = decimal_size(argv.size()) + 1;
  for (const std::string& a : argv) n += a.size() + 1;
  return n;
}

/// Text bytes of "k=v" var args.
std::size_t vars_size(const std::map<std::string, std::string>& vars) {
  std::size_t n = 0;
  for (const auto& [k, v] : vars) n += k.size() + 1 + v.size() + 1;
  return n;
}

void append_vars(std::vector<std::string>& args,
                 const std::map<std::string, std::string>& vars) {
  for (const auto& [k, v] : vars) args.push_back(k + "=" + v);
}

/// Parses "k=v" args into `vars` as the text wire always has: split at the
/// first '=', a later duplicate key wins. False on an arg without '='.
bool parse_vars(const std::vector<std::string>& args, std::size_t from,
                std::map<std::string, std::string>& vars) {
  for (std::size_t i = from; i < args.size(); ++i) {
    const std::string& kv = args[i];
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos) return false;
    vars[kv.substr(0, eq)] = kv.substr(eq + 1);
  }
  return true;
}

/// What parse_vars() makes of `vars`' own "k=v" renderings: only a key
/// holding '=' changes, split at that '=' with the rest moved into its
/// value.
void resplit_vars(std::map<std::string, std::string>& vars) {
  const bool split = std::any_of(vars.begin(), vars.end(), [](const auto& kv) {
    return kv.first.find('=') != std::string::npos;
  });
  if (!split) return;
  std::map<std::string, std::string> out;
  for (const auto& [k, v] : vars) {
    const std::size_t eq = k.find('=');
    if (eq == std::string::npos) {
      out[k] = v;
    } else {
      out[k.substr(0, eq)] = k.substr(eq + 1) + "=" + v;
    }
  }
  vars = std::move(out);
}

using Kind = DecodeError::Kind;

template <typename M>
Expected<M, DecodeError> err(Kind kind, const char* field) {
  return Unexpected{DecodeError{kind, field}};
}

template <typename M>
std::optional<DecodeError> check_tag(const Message& m) {
  if (m.tag != M::kTag) return DecodeError{Kind::kBadTag, "tag"};
  return std::nullopt;
}

/// Frames whose only field is one int.
template <typename M>
Expected<M, DecodeError> decode_int_field(const Message& m, const char* field) {
  if (auto e = check_tag<M>(m)) return Unexpected{*e};
  if (m.args.empty()) return err<M>(Kind::kMissingArg, field);
  if (m.args.size() > 1) return err<M>(Kind::kTrailingArgs, "args");
  const auto v = parse_number<int>(m.args[0]);
  if (!v) return err<M>(Kind::kBadNumber, field);
  return M{*v};
}

}  // namespace


const char* to_string(RpcError e) {
  switch (e) {
    case RpcError::kTimeout: return "timeout";
    case RpcError::kPeerClosed: return "peer_closed";
    case RpcError::kCancelled: return "cancelled";
    case RpcError::kWindowFull: return "window_full";
    case RpcError::kDecode: return "decode";
  }
  return "unknown";
}

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

// --- Protocol encode/decode ----------------------------------------------

std::size_t RegisterReq::text_size() const {
  std::size_t n = decimal_size(node) + 1;
  for (const std::string& t : inventory) n += t.size() + 1;
  return n;
}

Message RegisterReq::encode() const {
  std::vector<std::string> args;
  args.reserve(1 + inventory.size());
  args.push_back(std::to_string(node));
  for (const std::string& t : inventory) args.push_back(t);
  return Message(kTag, std::move(args));
}

Expected<RegisterReq, DecodeError> RegisterReq::decode(const Message& m) {
  if (auto e = check_tag<RegisterReq>(m)) return Unexpected{*e};
  if (m.args.empty()) return err<RegisterReq>(Kind::kMissingArg, "node");
  const auto node = parse_number<std::uint64_t>(m.args[0]);
  if (!node) return err<RegisterReq>(Kind::kBadNumber, "node");
  if (*node > 0xFFFFFFFFu) return err<RegisterReq>(Kind::kOversized, "node");
  RegisterReq r;
  r.node = static_cast<NodeId>(*node);
  r.inventory.assign(m.args.begin() + 1, m.args.end());
  return r;
}

Expected<ReadyNote, DecodeError> ReadyNote::decode(const Message& m) {
  if (auto e = check_tag<ReadyNote>(m)) return Unexpected{*e};
  if (!m.args.empty()) return err<ReadyNote>(Kind::kTrailingArgs, "args");
  return ReadyNote{};
}

Expected<PingNote, DecodeError> PingNote::decode(const Message& m) {
  if (auto e = check_tag<PingNote>(m)) return Unexpected{*e};
  if (!m.args.empty()) return err<PingNote>(Kind::kTrailingArgs, "args");
  return PingNote{};
}

std::size_t TaskDone::text_size() const {
  return task_id.size() + 1 + decimal_size(status) + 1 +
         std::char_traits<char>::length(reason_token(reason)) + 1;
}

bool TaskDone::normalize() {
  if (reason != Reason::kWatchdog && reason != Reason::kKilled) {
    reason = Reason::kApp;
  }
  return true;
}

Message TaskDone::encode() const {
  return Message(kTag, {task_id, std::to_string(status), reason_token(reason)});
}

Expected<TaskDone, DecodeError> TaskDone::decode(const Message& m) {
  if (auto e = check_tag<TaskDone>(m)) return Unexpected{*e};
  if (m.args.size() < 3) return err<TaskDone>(Kind::kMissingArg, "reason");
  if (m.args.size() > 3) return err<TaskDone>(Kind::kTrailingArgs, "args");
  const auto status = parse_number<int>(m.args[1]);
  if (!status) return err<TaskDone>(Kind::kBadNumber, "status");
  TaskDone d;
  d.task_id = m.args[0];
  d.status = *status;
  if (m.args[2] == "app") {
    d.reason = Reason::kApp;
  } else if (m.args[2] == "watchdog") {
    d.reason = Reason::kWatchdog;
  } else if (m.args[2] == "killed") {
    d.reason = Reason::kKilled;
  } else {
    return err<TaskDone>(Kind::kBadEnum, "reason");
  }
  return d;
}

std::size_t TaskRun::text_size() const {
  return task_id.size() + 1 + argv_size(argv) + vars_size(vars);
}

bool TaskRun::normalize() {
  resplit_vars(vars);
  return true;
}

Message TaskRun::encode() const {
  std::vector<std::string> args;
  args.reserve(2 + argv.size() + vars.size());
  args.push_back(task_id);
  args.push_back(std::to_string(argv.size()));
  for (const std::string& a : argv) args.push_back(a);
  append_vars(args, vars);
  return Message(kTag, std::move(args));
}

Expected<TaskRun, DecodeError> TaskRun::decode(const Message& m) {
  if (auto e = check_tag<TaskRun>(m)) return Unexpected{*e};
  if (m.args.size() < 2) return err<TaskRun>(Kind::kMissingArg, "argc");
  const auto n = parse_number<std::uint64_t>(m.args[1]);
  if (!n) return err<TaskRun>(Kind::kBadNumber, "argc");
  if (*n > m.args.size() - 2) return err<TaskRun>(Kind::kMissingArg, "argv");
  TaskRun r;
  r.task_id = m.args[0];
  r.argv.assign(m.args.begin() + 2,
                m.args.begin() + 2 + static_cast<std::ptrdiff_t>(*n));
  if (!parse_vars(m.args, 2 + *n, r.vars)) {
    return err<TaskRun>(Kind::kTrailingArgs, "vars");
  }
  return r;
}

Expected<KillReq, DecodeError> KillReq::decode(const Message& m) {
  if (auto e = check_tag<KillReq>(m)) return Unexpected{*e};
  if (m.args.empty()) return err<KillReq>(Kind::kMissingArg, "task");
  if (m.args.size() > 1) return err<KillReq>(Kind::kTrailingArgs, "args");
  return KillReq{m.args[0]};
}

std::size_t StageAck::text_size() const {
  if (digest == 0) return path.size() + 1;
  return path.size() + 1 + kDigestArgSize * (1 + evictions.size());
}

bool StageAck::normalize() {
  if (digest == 0) {
    evictions.clear();
    return true;
  }
  return std::find(evictions.begin(), evictions.end(), 0u) == evictions.end();
}

Message StageAck::encode() const {
  if (digest == 0) return Message(kTag, {path});
  std::vector<std::string> args;
  args.reserve(2 + evictions.size());
  args.push_back(path);
  args.push_back("d=" + hex16(digest));
  for (const std::uint64_t ev : evictions) args.push_back("e=" + hex16(ev));
  return Message(kTag, std::move(args));
}

Expected<StageAck, DecodeError> StageAck::decode(const Message& m) {
  if (auto e = check_tag<StageAck>(m)) return Unexpected{*e};
  if (m.args.empty()) return err<StageAck>(Kind::kMissingArg, "path");
  StageAck a;
  a.path = m.args[0];
  if (m.args.size() >= 2 && m.args[1].starts_with("d=")) {
    const auto digest = parse_hex16(std::string_view(m.args[1]).substr(2));
    if (!digest || *digest == 0) return err<StageAck>(Kind::kBadDigest, "d");
    a.digest = *digest;
    for (std::size_t i = 2; i < m.args.size(); ++i) {
      const std::string_view arg = m.args[i];
      if (!arg.starts_with("e=")) {
        return err<StageAck>(Kind::kTrailingArgs, "e");
      }
      const auto ev = parse_hex16(arg.substr(2));
      if (!ev || *ev == 0) return err<StageAck>(Kind::kBadDigest, "e");
      a.evictions.push_back(*ev);
    }
  } else if (m.args.size() > 1) {
    return err<StageAck>(Kind::kTrailingArgs, "args");
  }
  return a;
}

std::size_t StageReq::text_size() const {
  if (legacy) return header.path.size() + 1;
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
  const bool known_source = header.source == StageHeader::Source::kPush ||
                            header.source == StageHeader::Source::kPeer ||
                            header.source == StageHeader::Source::kWarm;
  if (legacy || !known_source) {
    // [path] + payload, or a digest frame missing its source arg: both
    // decode as the legacy form.
    StageHeader h;
    h.path = std::move(header.path);
    h.bytes = payload;
    header = std::move(h);
    legacy = true;
  } else if (header.source != StageHeader::Source::kPeer) {
    header.peer = 0;
  }
  return true;
}

Message StageReq::encode() const {
  if (legacy) {
    return Message(kTag, {header.path}, payload);
  }
  return Message(kTag, encode_stage_args(header), payload);
}

Expected<StageReq, DecodeError> StageReq::decode(const Message& m) {
  if (auto e = check_tag<StageReq>(m)) return Unexpected{*e};
  if (m.args.empty()) return err<StageReq>(Kind::kMissingArg, "path");
  StageReq r;
  r.payload = m.payload_bytes;
  if (const auto h = parse_stage_args(m.args)) {
    r.header = *h;
  } else {
    // Legacy broadcast fallback: anything not matching the digest grammar
    // is [path] (+ payload). This mirrors the worker's historical
    // behavior and keeps the pre-CAS channel working.
    r.legacy = true;
    r.header.path = m.args[0];
    r.header.bytes = m.payload_bytes;
  }
  return r;
}

Expected<PmiInit, DecodeError> PmiInit::decode(const Message& m) {
  return decode_int_field<PmiInit>(m, "rank");
}

Expected<PmiPut, DecodeError> PmiPut::decode(const Message& m) {
  if (auto e = check_tag<PmiPut>(m)) return Unexpected{*e};
  if (m.args.size() < 2) return err<PmiPut>(Kind::kMissingArg, "value");
  if (m.args.size() > 2) return err<PmiPut>(Kind::kTrailingArgs, "args");
  return PmiPut{m.args[0], m.args[1]};
}

Expected<PmiValue, DecodeError> PmiValue::decode(const Message& m) {
  if (auto e = check_tag<PmiValue>(m)) return Unexpected{*e};
  if (m.args.size() < 2) return err<PmiValue>(Kind::kMissingArg, "value");
  if (m.args.size() > 2) return err<PmiValue>(Kind::kTrailingArgs, "args");
  return PmiValue{m.args[0], m.args[1]};
}

Expected<PmiGet, DecodeError> PmiGet::decode(const Message& m) {
  if (auto e = check_tag<PmiGet>(m)) return Unexpected{*e};
  if (m.args.empty()) return err<PmiGet>(Kind::kMissingArg, "key");
  if (m.args.size() > 1) return err<PmiGet>(Kind::kTrailingArgs, "args");
  return PmiGet{m.args[0]};
}

Expected<PmiBarrierOut, DecodeError> PmiBarrierOut::decode(const Message& m) {
  if (auto e = check_tag<PmiBarrierOut>(m)) return Unexpected{*e};
  if (!m.args.empty()) return err<PmiBarrierOut>(Kind::kTrailingArgs, "args");
  return PmiBarrierOut{};
}

Expected<PmiBarrier, DecodeError> PmiBarrier::decode(const Message& m) {
  return decode_int_field<PmiBarrier>(m, "rank");
}

Expected<PmiFinalize, DecodeError> PmiFinalize::decode(const Message& m) {
  return decode_int_field<PmiFinalize>(m, "rank");
}

Expected<ProxyHello, DecodeError> ProxyHello::decode(const Message& m) {
  return decode_int_field<ProxyHello>(m, "proxy");
}

std::size_t ProxyExec::text_size() const {
  return decimal_size(nprocs) + decimal_size(ppn) + decimal_size(base) + 3 +
         user_binary.size() + 1 + argv_size(argv) + vars_size(vars);
}

bool ProxyExec::normalize() {
  resplit_vars(vars);
  return true;
}

Message ProxyExec::encode() const {
  std::vector<std::string> args;
  args.reserve(5 + argv.size() + vars.size());
  args.push_back(std::to_string(nprocs));
  args.push_back(std::to_string(ppn));
  args.push_back(std::to_string(base));
  args.push_back(user_binary);
  args.push_back(std::to_string(argv.size()));
  for (const std::string& a : argv) args.push_back(a);
  append_vars(args, vars);
  return Message(kTag, std::move(args));
}

Expected<ProxyExec, DecodeError> ProxyExec::decode(const Message& m) {
  if (auto e = check_tag<ProxyExec>(m)) return Unexpected{*e};
  if (m.args.size() < 5) return err<ProxyExec>(Kind::kMissingArg, "argc");
  ProxyExec x;
  const auto nprocs = parse_number<int>(m.args[0]);
  if (!nprocs) return err<ProxyExec>(Kind::kBadNumber, "nprocs");
  const auto ppn = parse_number<int>(m.args[1]);
  if (!ppn) return err<ProxyExec>(Kind::kBadNumber, "ppn");
  const auto base = parse_number<int>(m.args[2]);
  if (!base) return err<ProxyExec>(Kind::kBadNumber, "base");
  const auto n = parse_number<std::uint64_t>(m.args[4]);
  if (!n) return err<ProxyExec>(Kind::kBadNumber, "argc");
  if (*n > m.args.size() - 5) return err<ProxyExec>(Kind::kMissingArg, "argv");
  x.nprocs = *nprocs;
  x.ppn = *ppn;
  x.base = *base;
  x.user_binary = m.args[3];
  x.argv.assign(m.args.begin() + 5,
                m.args.begin() + 5 + static_cast<std::ptrdiff_t>(*n));
  if (!parse_vars(m.args, 5 + *n, x.vars)) {
    return err<ProxyExec>(Kind::kTrailingArgs, "vars");
  }
  return x;
}

Expected<ProxyExit, DecodeError> ProxyExit::decode(const Message& m) {
  if (auto e = check_tag<ProxyExit>(m)) return Unexpected{*e};
  if (m.args.size() < 2) return err<ProxyExit>(Kind::kMissingArg, "status");
  if (m.args.size() > 2) return err<ProxyExit>(Kind::kTrailingArgs, "args");
  const auto id = parse_number<int>(m.args[0]);
  if (!id) return err<ProxyExit>(Kind::kBadNumber, "proxy");
  const auto status = parse_number<int>(m.args[1]);
  if (!status) return err<ProxyExit>(Kind::kBadNumber, "status");
  return ProxyExit{*id, *status};
}

Expected<StdoutNote, DecodeError> StdoutNote::decode(const Message& m) {
  if (auto e = check_tag<StdoutNote>(m)) return Unexpected{*e};
  if (!m.args.empty()) return err<StdoutNote>(Kind::kTrailingArgs, "args");
  return StdoutNote{m.payload_bytes};
}

Expected<MpiHello, DecodeError> MpiHello::decode(const Message& m) {
  return decode_int_field<MpiHello>(m, "rank");
}

std::size_t MpiMsg::text_size() const {
  std::size_t n = decimal_size(source) + decimal_size(tag) + 2;
  if (value) {
    // The "%f" rendering's length. Zero, the value every barrier message
    // carries, is "0.000000" or "-0.000000"; snprintf measures the rest
    // exactly (NaN, infinities and 1e300 included) without writing.
    const double v = *value;
    const int len = v == 0 ? (std::signbit(v) ? 9 : 8)
                           : std::snprintf(nullptr, 0, "%f", v);
    n += static_cast<std::size_t>(len) + 1;
  }
  return n;
}

Message MpiMsg::encode() const {
  std::vector<std::string> args{std::to_string(source), std::to_string(tag)};
  if (value) args.push_back(std::to_string(*value));
  return Message(kTag, std::move(args), payload);
}

Expected<MpiMsg, DecodeError> MpiMsg::decode(const Message& m) {
  if (auto e = check_tag<MpiMsg>(m)) return Unexpected{*e};
  if (m.args.size() < 2) return err<MpiMsg>(Kind::kMissingArg, "tag");
  if (m.args.size() > 3) return err<MpiMsg>(Kind::kTrailingArgs, "args");
  const auto source = parse_number<int>(m.args[0]);
  if (!source) return err<MpiMsg>(Kind::kBadNumber, "source");
  const auto tag = parse_number<int>(m.args[1]);
  if (!tag) return err<MpiMsg>(Kind::kBadNumber, "tag");
  MpiMsg msg(*source, *tag, std::nullopt, m.payload_bytes);
  if (m.args.size() == 3) {
    msg.value = parse_number<double>(m.args[2]);
    if (!msg.value) return err<MpiMsg>(Kind::kBadNumber, "value");
  }
  return msg;
}

// --- Metrics --------------------------------------------------------------

ChannelMetrics ChannelMetrics::bind(obs::MetricsRegistry& m) {
  ChannelMetrics out;
  out.calls = &m.counter("jets.rpc.calls");
  out.notifies = &m.counter("jets.rpc.notifies");
  out.completed = &m.counter("jets.rpc.completed");
  out.timeouts = &m.counter("jets.rpc.timeouts");
  out.peer_closed = &m.counter("jets.rpc.peer_closed");
  out.cancelled = &m.counter("jets.rpc.cancelled");
  out.orphans = &m.counter("jets.rpc.orphans");
  out.decode_errors = &m.counter("jets.rpc.decode_errors");
  out.unknown_tags = &m.counter("jets.rpc.unknown_tags");
  out.inflight = &m.gauge("jets.rpc.inflight");
  return out;
}

// --- Channel --------------------------------------------------------------

Channel::Channel(sim::Engine& engine, SocketPtr sock, Config config)
    : engine_(&engine), sock_(std::move(sock)), config_(config) {
  if (config_.window > 0) {
    window_ = std::make_unique<sim::Semaphore>(engine, config_.window);
  }
}

Channel::~Channel() {
  // Never invoke completions here: the channel dies during its owner's
  // teardown (actor kill, service destruction) when the frames those
  // callbacks capture may already be gone. Deadline timers must not
  // outlive us, though.
  for (PendingCall& p : calls_) p.deadline.cancel();
}

Channel::TagEntry* Channel::find_tag(std::string_view tag) {
  for (TagEntry& e : tags_) {
    if (e.tag == tag) return &e;
  }
  return nullptr;
}

Channel::TagEntry* Channel::route(std::string_view tag) {
  if (TagEntry* e = find_tag(tag)) return e;
  tags_.push_back(TagEntry{tag, nullptr, nullptr});
  return &tags_.back();
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
  p.deadline.cancel();
  if (p.credited && window_) window_->release();
  if (ChannelMetrics* mm = config_.metrics) {
    --mm->inflight_now;
    if (mm->inflight) mm->inflight->set(mm->inflight_now);
    if (resp) {
      if (mm->completed) mm->completed->inc();
    } else {
      switch (err) {
        case RpcError::kTimeout:
          if (mm->timeouts) mm->timeouts->inc();
          break;
        case RpcError::kPeerClosed:
          if (mm->peer_closed) mm->peer_closed->inc();
          break;
        case RpcError::kCancelled:
          if (mm->cancelled) mm->cancelled->inc();
          break;
        default:
          break;
      }
    }
  }
  if (config_.tracer && p.span != 0) {
    if (!resp) config_.tracer->attr(p.span, "err", to_string(err));
    config_.tracer->end(p.span);
  }
  p.complete(resp, err);
}

void Channel::on_deadline(CallId id) { finish_call(id, nullptr, RpcError::kTimeout); }

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

bool Channel::cancel(CallId id, RpcError err) {
  if (find_call(id) == calls_.end()) return false;
  finish_call(id, nullptr, err);
  return true;
}

void Channel::note_orphan() {
  if (config_.metrics && config_.metrics->orphans) {
    config_.metrics->orphans->inc();
  }
}

void Channel::note_decode_error() {
  if (config_.metrics && config_.metrics->decode_errors) {
    config_.metrics->decode_errors->inc();
  }
}

void Channel::note_unknown_tag() {
  if (config_.metrics && config_.metrics->unknown_tags) {
    config_.metrics->unknown_tags->inc();
  }
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
    if (on_message_) on_message_();
    TagEntry* e = find_tag(m->tag);
    if (!e) {
      note_unknown_tag();
    } else if (e->sync) {
      e->sync(*this, std::move(*m));
    } else if (auto t = e->async(*this, std::move(*m))) {
      co_await std::move(*t);
    }
    if (stopped_) break;
  }
  serving_ = false;
  if (!config_.manual_drain) fail_all(RpcError::kPeerClosed);
}

sim::Task<void> Channel::pump_until(WaitCore* st, CallId id,
                                    sim::Duration deadline) {
  // Self-driven mode: no serve() loop owns the socket, so the caller's
  // coroutine performs the recv/dispatch itself — the exact event shape of
  // the hand-written send-then-recv-loop clients (PMI). One sequential
  // caller per channel.
  const sim::Time deadline_at = deadline > 0 ? engine_->now() + deadline : -1;
  while (!st->done) {
    std::optional<Message> m;
    if (deadline_at >= 0) {
      const sim::Duration left = deadline_at - engine_->now();
      if (left <= 0) {
        cancel(id, RpcError::kTimeout);
        break;
      }
      m = co_await sock_->recv_for(left);
    } else {
      m = co_await sock_->recv();
    }
    if (st->done) break;  // the deadline timer settled it while we slept
    if (!m) {
      if (sock_->eof()) {
        peer_closed_ = true;
        fail_all(RpcError::kPeerClosed);
      }
      // recv_for timeout: loop; the deadline branch above resolves it.
      continue;
    }
    if (on_message_) on_message_();
    TagEntry* e = find_tag(m->tag);
    if (!e) {
      note_unknown_tag();
    } else if (e->sync) {
      e->sync(*this, std::move(*m));
    } else if (auto t = e->async(*this, std::move(*m))) {
      co_await std::move(*t);
    }
  }
}

}  // namespace jets::net::rpc
