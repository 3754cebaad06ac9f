// Typed asynchronous request/response RPC over net::Socket.
//
// The JETS wire protocol is a stream of small tagged net::Message frames;
// until now every endpoint hand-rolled its own tag dispatch, stoul-based
// field parsing, and ad-hoc "the peer died, forget the reply" bookkeeping.
// rpc::Channel packages that discipline once:
//
//  * every protocol verb is a typed struct with byte-exact encode() to the
//    existing wire form and a total decode() that returns a typed
//    DecodeError instead of throwing or crashing on malformed frames;
//  * verbs travel as typed frames (Message::typed): the struct itself,
//    charged at its text encoding's byte length, so nothing is formatted
//    or parsed on the way. Receivers call take<M>(), which moves the value
//    out of a typed frame or decodes a text one; encode()/decode() remain
//    as the conformance oracle and the text-frame fallback;
//  * call<Req>() / call_cb<Req>() issue a request and match the reply by
//    *correlation key* — the protocol's own identifying field (task id,
//    staged path, PMI key) — so the wire format does not change by a byte
//    and all 15 figure benches stay identical to the golden manifest;
//  * concurrent calls with the same (response tag, key) resolve FIFO, in
//    issue order, which is exactly the socket's FIFO delivery order;
//  * a lost peer fails calls with kPeerClosed (in issue order) instead of
//    silently dropping them; a hung one is for the owner's own liveness
//    deadline to find (Service::liveness_check).
//
// Determinism: constructing a Channel, issuing a call, and completing one
// schedule *zero* engine events beyond what the raw socket send/recv
// already scheduled. serve() performs the same co_await sock->recv() the
// hand-written loops performed, handlers run synchronously inside the same
// resumption, and completion callbacks are invoked inline at dispatch.
// The (time, seq) event reservations of the pre-RPC code are therefore
// preserved exactly — scheduler_equiv.sh is the proof.
#pragma once

#include <algorithm>
#include <cmath>
#include <coroutine>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "net/message.hh"
#include "net/number.hh"
#include "net/socket.hh"
#include "net/staging.hh"
#include "obs/metrics.hh"
#include "sim/engine.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "sim/time.hh"

namespace jets::net::rpc {

// --- Expected -------------------------------------------------------------
// GCC 12's libstdc++ has no std::expected; this is the minimal subset the
// RPC layer needs (monostate-free, move-friendly, no monadic sugar).

template <typename E>
struct Unexpected {
  E error;
};
template <typename E>
Unexpected(E) -> Unexpected<E>;

template <typename T, typename E>
class Expected {
 public:
  Expected(T value) : rep_(std::in_place_index<0>, std::move(value)) {}
  Expected(Unexpected<E> u) : rep_(std::in_place_index<1>, std::move(u.error)) {}

  bool ok() const noexcept { return rep_.index() == 0; }
  explicit operator bool() const noexcept { return ok(); }

  T& value() & { return std::get<0>(rep_); }
  const T& value() const& { return std::get<0>(rep_); }
  T&& value() && { return std::get<0>(std::move(rep_)); }
  const E& error() const { return std::get<1>(rep_); }

 private:
  std::variant<T, E> rep_;
};

template <typename E>
class Expected<void, E> {
 public:
  Expected() = default;
  Expected(Unexpected<E> u) : err_(std::move(u.error)) {}

  bool ok() const noexcept { return !err_.has_value(); }
  explicit operator bool() const noexcept { return ok(); }
  const E& error() const { return *err_; }

 private:
  std::optional<E> err_;
};

// --- Error taxonomy -------------------------------------------------------

enum class RpcError : std::uint8_t {
  kPeerClosed,  // connection gone (EOF) or already closed at issue time
  kCancelled,   // explicitly cancelled (eviction write-off, shutdown)
  kDecode,      // the value has no text form: refused at send
};

/// Why a frame failed to decode. `field` names the offending arg.
struct DecodeError {
  enum class Kind : std::uint8_t {
    kBadTag,        // frame carries a different verb than the type
    kMissingArg,    // fewer args than the grammar requires
    kTrailingArgs,  // more args than the grammar allows
    kBadNumber,     // numeric field not a full, in-range number
    kBadEnum,       // enum token outside the closed set
    kBadDigest,     // digest field not 16 lowercase hex chars (or zero)
    kOversized,     // numeric field parses but exceeds its domain
  };
  Kind kind = Kind::kBadTag;
  const char* field = "";
};
std::string to_string(const DecodeError& e);

// --- Field lists ------------------------------------------------------------
// Each verb names its text args once, in wire order, in a static
// fields(ar, v). Verb<M> derives text_size(), encode(), decode() and
// normalize() from that one list, each by walking it with an archive
// (TextSize, TextArgs, TextArity + TextFields, TextNormal). A member's type
// picks its text form:
//
//   std::string               the arg verbatim
//   int                       decimal
//   std::uint32_t             decimal; a parseable u64 past 2^32-1 is
//                             kOversized
//   std::optional<double>     an optional last arg in "%f"
//   std::map<string, string>  the remaining args as "k=v", split at the
//                             first '=' (a key holding '=' arrives split)
//
// Four wrappers name the forms a type alone does not:
//
//   Counted{argv}               a decimal count, then that many args
//   Rest{inventory}             the remaining args verbatim
//   Token{reason, names}        an enum as its name; a value outside
//                               `names` travels as names[0]
//   Digests{digest, evictions}  "d=<hex16>", then "e=<hex16>" per
//                               eviction (a zero digest or eviction is
//                               undecodable, so refused)
//
// A verb's `payload` rides the frame's payload_bytes, not its args.
// decode() checks arity before content: fewer args than the list needs is
// kMissingArg (naming the last field it needs), more than it takes is
// kTrailingArgs; only then are the fields parsed, in order.
//
// The wrappers hold references, so they live only inside the fields()
// walks, none of which is a coroutine.

template <typename V>
struct Counted {
  V& items;
};
template <typename V>
struct Rest {
  V& items;
};
template <typename E>
struct Token {
  E& value;
  std::span<const char* const> names;
  std::size_t index() const { return static_cast<std::size_t>(value); }
  const char* name() const { return names[index() < names.size() ? index() : 0]; }
  void set(std::size_t i) { value = static_cast<E>(i); }
};
template <typename D, typename V>
struct Digests {
  D& digest;
  V& evictions;
};

/// "d=<hex16>" or "e=<hex16>" plus its separator.
inline constexpr std::size_t kDigestArgSize = 2 + 16 + 1;

/// True if T is an instance of the template W.
template <typename T, template <typename...> class W>
constexpr bool kIs = false;
template <template <typename...> class W, typename... A>
constexpr bool kIs<W<A...>, W> = true;

/// text_size(): each arg's bytes plus one separator, without allocating.
struct TextSize {
  std::size_t size = 0;

  template <typename F>
  void operator()(const char* name, const F& v) {
    if constexpr (std::is_same_v<F, std::string>) {
      size += v.size() + 1;
    } else if constexpr (std::is_integral_v<F>) {
      size += decimal_size(v) + 1;
    } else if constexpr (std::is_same_v<F, std::optional<double>>) {
      // The "%f" rendering's length. Zero, the value every barrier
      // message carries, is "0.000000" or "-0.000000"; snprintf measures
      // the rest exactly (NaN, infinities and 1e300 included) without
      // writing.
      if (!v) return;
      const int len = *v == 0 ? (std::signbit(*v) ? 9 : 8)
                              : std::snprintf(nullptr, 0, "%f", *v);
      size += static_cast<std::size_t>(len) + 1;
    } else if constexpr (kIs<F, std::map>) {
      for (const auto& [key, value] : v) size += key.size() + value.size() + 2;
    } else if constexpr (kIs<F, Counted>) {
      (*this)(name, v.items.size());
      (*this)(name, Rest{v.items});
    } else if constexpr (kIs<F, Rest>) {
      for (const std::string& a : v.items) size += a.size() + 1;
    } else if constexpr (kIs<F, Token>) {
      size += std::char_traits<char>::length(v.name()) + 1;
    } else {
      static_assert(kIs<F, Digests>);
      size += kDigestArgSize * (1 + v.evictions.size());
    }
  }
};

/// encode(): the args themselves.
struct TextArgs {
  std::vector<std::string> args;

  template <typename F>
  void operator()(const char* name, const F& v) {
    if constexpr (std::is_same_v<F, std::string>) {
      args.push_back(v);
    } else if constexpr (std::is_integral_v<F>) {
      args.push_back(std::to_string(v));
    } else if constexpr (std::is_same_v<F, std::optional<double>>) {
      if (v) args.push_back(std::to_string(*v));
    } else if constexpr (kIs<F, std::map>) {
      for (const auto& [key, value] : v) args.push_back(key + "=" + value);
    } else if constexpr (kIs<F, Counted>) {
      (*this)(name, v.items.size());
      (*this)(name, Rest{v.items});
    } else if constexpr (kIs<F, Rest>) {
      args.insert(args.end(), v.items.begin(), v.items.end());
    } else if constexpr (kIs<F, Token>) {
      args.emplace_back(v.name());
    } else {
      static_assert(kIs<F, Digests>);
      args.push_back("d=" + hex16(v.digest));
      for (const std::uint64_t e : v.evictions) args.push_back("e=" + hex16(e));
    }
  }
};

/// decode()'s arity: how many args the list needs (and the last field it
/// needs) and how many it takes.
struct TextArity {
  static constexpr std::size_t kAny = SIZE_MAX;
  std::size_t min = 0;
  std::size_t max = 0;
  const char* last_needed = "args";

  template <typename F>
  void operator()(const char* name, const F&) {
    if constexpr (std::is_same_v<F, std::optional<double>>) {
      if (max != kAny) ++max;
    } else if constexpr (kIs<F, std::map> || kIs<F, Rest>) {
      max = kAny;
    } else {  // one arg: a string, a number, a token, a list's count, or
              // a digest ahead of its evictions
      ++min;
      last_needed = name;
      max = kIs<F, Counted> || kIs<F, Digests> || max == kAny ? kAny : max + 1;
    }
  }
};

/// decode(): parses the args into the fields in order; the first error
/// stops it. Run after TextArity has passed the frame.
class TextFields {
 public:
  explicit TextFields(const std::vector<std::string>& args) : args_(args) {}

  std::optional<DecodeError> error;
  bool done() const { return at_ == args_.size(); }

  template <typename F>
  void operator()(const char* name, F&& v) {
    using T = std::remove_cvref_t<F>;
    using Kind = DecodeError::Kind;
    if (error) return;
    if constexpr (std::is_same_v<T, std::string>) {
      v = args_[at_++];
    } else if constexpr (std::is_same_v<T, int>) {
      number(name, v);
    } else if constexpr (std::is_same_v<T, std::uint32_t>) {
      std::uint64_t wide = 0;
      number(name, wide);
      if (!error && wide > 0xFFFFFFFFu) error = DecodeError{Kind::kOversized, name};
      v = static_cast<std::uint32_t>(wide);
    } else if constexpr (std::is_same_v<T, std::optional<double>>) {
      if (!done()) number(name, v.emplace());
    } else if constexpr (kIs<T, std::map>) {
      for (; !done(); ++at_) {
        const std::string& kv = args_[at_];
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos) {
          error = DecodeError{Kind::kTrailingArgs, name};
          return;
        }
        v[kv.substr(0, eq)] = kv.substr(eq + 1);
      }
    } else if constexpr (kIs<T, Counted>) {
      std::uint64_t n = 0;
      number(name, n);
      if (!error && n > args_.size() - at_) error = DecodeError{Kind::kMissingArg, name};
      if (error) return;
      const auto from = args_.begin() + static_cast<std::ptrdiff_t>(at_);
      v.items.assign(from, from + static_cast<std::ptrdiff_t>(n));
      at_ += n;
    } else if constexpr (kIs<T, Rest>) {
      v.items.assign(args_.begin() + static_cast<std::ptrdiff_t>(at_), args_.end());
      at_ = args_.size();
    } else if constexpr (kIs<T, Token>) {
      const std::string& s = args_[at_++];
      for (std::size_t i = 0; i < v.names.size(); ++i) {
        if (s == v.names[i]) {
          v.set(i);
          return;
        }
      }
      error = DecodeError{Kind::kBadEnum, name};
    } else {
      static_assert(kIs<T, Digests>);
      v.digest = hex(args_[at_++], "d");
      while (!error && !done()) {
        if (!args_[at_].starts_with("e=")) {
          error = DecodeError{Kind::kTrailingArgs, "e"};
        } else {
          v.evictions.push_back(hex(args_[at_++], "e"));
        }
      }
    }
  }

 private:
  template <typename T>
  void number(const char* name, T& v) {
    if (const auto parsed = parse_number<T>(args_[at_++])) {
      v = *parsed;
    } else {
      error = DecodeError{DecodeError::Kind::kBadNumber, name};
    }
  }
  /// A "<name>=" arg's digest: the prefix, then 16 lowercase hex chars,
  /// not zero.
  std::uint64_t hex(std::string_view arg, const char* name) {
    const bool prefixed = arg.size() >= 2 && arg[0] == name[0] && arg[1] == '=';
    const auto d = prefixed ? parse_hex16(arg.substr(2)) : std::nullopt;
    if (!d || *d == 0) error = DecodeError{DecodeError::Kind::kBadDigest, name};
    return d.value_or(0);
  }

  const std::vector<std::string>& args_;
  std::size_t at_ = 0;
};

/// normalize(): rewrites each field into what decode(encode(v)) yields;
/// `ok` turns false if the text wire would refuse the frame.
struct TextNormal {
  bool ok = true;

  template <typename F>
  void operator()(const char*, F&& v) {
    using T = std::remove_cvref_t<F>;
    if constexpr (kIs<T, std::map>) {
      // Only a key holding '=' changes: split there, the rest moved into
      // its value; a later key then wins a collision, as on the wire.
      const bool split = std::any_of(v.begin(), v.end(), [](const auto& kv) {
        return kv.first.find('=') != std::string::npos;
      });
      if (!split) return;
      T out;
      for (const auto& [key, value] : v) {
        const std::size_t eq = key.find('=');
        if (eq == std::string::npos) {
          out[key] = value;
        } else {
          out[key.substr(0, eq)] = key.substr(eq + 1) + "=" + value;
        }
      }
      v = std::move(out);
    } else if constexpr (kIs<T, Token>) {
      if (v.index() >= v.names.size()) v.set(0);
    } else if constexpr (kIs<T, Digests>) {
      if (v.digest == 0 || std::find(v.evictions.begin(), v.evictions.end(),
                                     0u) != v.evictions.end()) {
        ok = false;
      }
    }
  }
};

// --- Typed protocol -------------------------------------------------------
// One struct per wire verb. encode() must reproduce today's frames
// byte-for-byte (wire_size feeds the fabric clock); decode() is total;
// text_size() is the byte length of encode()'s args plus one separator
// each, computed without allocating — a typed frame is charged exactly
// that. normalize() rewrites a value into what decode(encode(v)) yields
// and returns false if the text wire would refuse the frame, so a typed
// send delivers what a text send would. Correlated replies expose
// correlation_key(); request types name their reply via `using Resp`. A
// verb with bulk bytes keeps them in `payload` (payload_bytes on the
// wire).
//
// Every message type carries a user-provided constructor ON PURPOSE: GCC 12
// miscompiles prvalue *aggregate* temporaries that live across a coroutine
// suspension (the frame keeps a bitwise duplicate whose destruction
// double-frees string storage — tests/rpc_test.cc exercises the shape).
// Keeping these types non-aggregates makes expressions like
// `co_await chan.call(PmiGet{key})` safe. Do not remove the constructors.

/// The codec of verb M, derived from M::fields (see "Field lists").
template <typename M>
struct Verb {
  std::size_t text_size() const {
    TextSize ar;
    M::fields(ar, self());
    return ar.size;
  }

  Message encode() const {
    TextArgs ar;
    M::fields(ar, self());
    Message m(M::kTag, std::move(ar.args));
    if constexpr (requires(const M& v) { v.payload; }) {
      m.payload_bytes = self().payload;
    }
    return m;
  }

  static Expected<M, DecodeError> decode(const Message& m) {
    using Kind = DecodeError::Kind;
    if (m.tag != M::kTag) return Unexpected{DecodeError{Kind::kBadTag, "tag"}};
    M v;
    TextArity arity;
    M::fields(arity, std::as_const(v));
    if (m.args.size() < arity.min) {
      return Unexpected{DecodeError{Kind::kMissingArg, arity.last_needed}};
    }
    if (m.args.size() > arity.max) {
      return Unexpected{DecodeError{Kind::kTrailingArgs, "args"}};
    }
    TextFields ar(m.args);
    M::fields(ar, v);
    if (!ar.error && !ar.done()) ar.error = DecodeError{Kind::kTrailingArgs, "args"};
    if (ar.error) return Unexpected{*ar.error};
    if constexpr (requires(M& x) { x.payload; }) v.payload = m.payload_bytes;
    return v;
  }

  bool normalize() {
    TextNormal ar;
    M::fields(ar, static_cast<M&>(*this));
    return ar.ok;
  }

  bool operator==(const Verb&) const = default;

 private:
  const M& self() const { return static_cast<const M&>(*this); }
};

/// "reg" [node, inventory...] — pilot (re-)registration. One-way on the
/// wire: the service's historical protocol never acked registration, and
/// inventing an ack would change wire bytes, so there is no RegisterAck.
struct RegisterReq : Verb<RegisterReq> {
  static constexpr const char* kTag = "reg";
  NodeId node = 0;
  std::vector<std::string> inventory;  // task ids still running (redial)
  RegisterReq() = default;
  explicit RegisterReq(NodeId n, std::vector<std::string> inv = {})
      : node(n), inventory(std::move(inv)) {}
  static void fields(auto& ar, auto& v) {
    ar("node", v.node);
    ar("inventory", Rest{v.inventory});
  }
  bool operator==(const RegisterReq&) const = default;
};

/// "ready" — worker advertises a free slot.
struct ReadyNote : Verb<ReadyNote> {
  static constexpr const char* kTag = "ready";
  ReadyNote() = default;
  static void fields(auto&, auto&) {}
  bool operator==(const ReadyNote&) const = default;
};

/// "hb" — heartbeat.
struct PingNote : Verb<PingNote> {
  static constexpr const char* kTag = "hb";
  PingNote() = default;
  static void fields(auto&, auto&) {}
  bool operator==(const PingNote&) const = default;
};

/// "done" [task, status, reason] — task completion. Reply to TaskRun,
/// correlated by task id.
struct TaskDone : Verb<TaskDone> {
  enum class Reason : std::uint8_t { kApp, kWatchdog, kKilled };
  static constexpr const char* kTag = "done";
  static constexpr const char* kReasons[] = {"app", "watchdog", "killed"};
  std::string task_id;
  int status = 0;
  Reason reason = Reason::kApp;
  TaskDone() = default;
  TaskDone(std::string task, int st, Reason r)
      : task_id(std::move(task)), status(st), reason(r) {}
  std::string correlation_key() const { return task_id; }
  static void fields(auto& ar, auto& v) {
    ar("task", v.task_id);
    ar("status", v.status);
    ar("reason", Token{v.reason, kReasons});
  }
  bool operator==(const TaskDone&) const = default;
};

/// "run" [task, n, argv..., k=v...] — task dispatch.
struct TaskRun : Verb<TaskRun> {
  static constexpr const char* kTag = "run";
  using Resp = TaskDone;
  std::string task_id;
  std::vector<std::string> argv;
  std::map<std::string, std::string> vars;  // sorted => stable encode
  TaskRun() = default;
  TaskRun(std::string task, std::vector<std::string> av,
          std::map<std::string, std::string> kv = {})
      : task_id(std::move(task)), argv(std::move(av)), vars(std::move(kv)) {}
  std::string correlation_key() const { return task_id; }
  static void fields(auto& ar, auto& v) {
    ar("task", v.task_id);
    ar("argv", Counted{v.argv});
    ar("vars", v.vars);
  }
  bool operator==(const TaskRun&) const = default;
};

/// "kill" [task] — one-way task kill (the worker answers with a "done").
struct KillReq : Verb<KillReq> {
  static constexpr const char* kTag = "kill";
  std::string task_id;
  KillReq() = default;
  explicit KillReq(std::string task) : task_id(std::move(task)) {}
  static void fields(auto& ar, auto& v) { ar("task", v.task_id); }
  bool operator==(const KillReq&) const = default;
};

/// "staged" [path, d=<hex>, e=<hex>...] — stage-in ack. Reply to StageReq,
/// correlated by path.
struct StageAck : Verb<StageAck> {
  static constexpr const char* kTag = "staged";
  std::string path;
  std::uint64_t digest = 0;
  std::vector<std::uint64_t> evictions;
  StageAck() = default;
  StageAck(std::string p, std::uint64_t d, std::vector<std::uint64_t> ev = {})
      : path(std::move(p)), digest(d), evictions(std::move(ev)) {}
  std::string correlation_key() const { return path; }
  static void fields(auto& ar, auto& v) {
    ar("path", v.path);
    ar("digest", Digests{v.digest, v.evictions});
  }
  bool operator==(const StageAck&) const = default;
};

/// "stagein" [path, d=<hex>, b=<bytes>, s=<source>] + payload — input
/// staging (the header grammar is in net/staging.hh). The one verb whose
/// codec is written out rather than derived from a field list: its args
/// pack prefixed fields and an "s=peer:<node>" token, a shape no other
/// verb has, and a field form for it would make every archive branch on
/// this one verb.
struct StageReq {
  static constexpr const char* kTag = "stagein";
  using Resp = StageAck;
  StageHeader header;
  std::uint64_t payload = 0;  // message payload_bytes (kPush)
  StageReq() = default;
  explicit StageReq(StageHeader h, std::uint64_t pay = 0)
      : header(std::move(h)), payload(pay) {}
  std::string correlation_key() const { return header.path; }
  std::size_t text_size() const;
  /// The peer travels only for Source::kPeer; a source outside the enum
  /// writes no source arg, so the text wire refuses it.
  bool normalize();
  Message encode() const;
  static Expected<StageReq, DecodeError> decode(const Message& m);
  bool operator==(const StageReq&) const = default;
};

// --- PMI (MPICH process-management interface over the proxy socket) ------

struct PmiInit : Verb<PmiInit> {
  static constexpr const char* kTag = "pmi.init";
  int rank = 0;
  PmiInit() = default;
  explicit PmiInit(int r) : rank(r) {}
  static void fields(auto& ar, auto& v) { ar("rank", v.rank); }
  bool operator==(const PmiInit&) const = default;
};

struct PmiPut : Verb<PmiPut> {
  static constexpr const char* kTag = "pmi.put";
  std::string key;
  std::string value;
  PmiPut() = default;
  PmiPut(std::string k, std::string v) : key(std::move(k)), value(std::move(v)) {}
  static void fields(auto& ar, auto& v) {
    ar("key", v.key);
    ar("value", v.value);
  }
  bool operator==(const PmiPut&) const = default;
};

/// "pmi.value" [key, value] — KVS lookup reply, correlated by key.
struct PmiValue : Verb<PmiValue> {
  static constexpr const char* kTag = "pmi.value";
  std::string key;
  std::string value;
  PmiValue() = default;
  PmiValue(std::string k, std::string v) : key(std::move(k)), value(std::move(v)) {}
  std::string correlation_key() const { return key; }
  static void fields(auto& ar, auto& v) {
    ar("key", v.key);
    ar("value", v.value);
  }
  bool operator==(const PmiValue&) const = default;
};

struct PmiGet : Verb<PmiGet> {
  static constexpr const char* kTag = "pmi.get";
  using Resp = PmiValue;
  std::string key;
  PmiGet() = default;
  explicit PmiGet(std::string k) : key(std::move(k)) {}
  std::string correlation_key() const { return key; }
  static void fields(auto& ar, auto& v) { ar("key", v.key); }
  bool operator==(const PmiGet&) const = default;
};

/// "pmi.barrier_out" — barrier release broadcast. At most one barrier is
/// outstanding per rank, so the correlation key is constant.
struct PmiBarrierOut : Verb<PmiBarrierOut> {
  static constexpr const char* kTag = "pmi.barrier_out";
  PmiBarrierOut() = default;
  std::string correlation_key() const { return std::string(); }
  static void fields(auto&, auto&) {}
  bool operator==(const PmiBarrierOut&) const = default;
};

struct PmiBarrier : Verb<PmiBarrier> {
  static constexpr const char* kTag = "pmi.barrier_in";
  using Resp = PmiBarrierOut;
  int rank = 0;
  PmiBarrier() = default;
  explicit PmiBarrier(int r) : rank(r) {}
  std::string correlation_key() const { return std::string(); }
  static void fields(auto& ar, auto& v) { ar("rank", v.rank); }
  bool operator==(const PmiBarrier&) const = default;
};

struct PmiFinalize : Verb<PmiFinalize> {
  static constexpr const char* kTag = "pmi.finalize";
  int rank = 0;
  PmiFinalize() = default;
  explicit PmiFinalize(int r) : rank(r) {}
  static void fields(auto& ar, auto& v) { ar("rank", v.rank); }
  bool operator==(const PmiFinalize&) const = default;
};

// --- Hydra proxy control (mpiexec <-> hydra_pmi_proxy) ---------------------

/// "proxy.hello" [proxy id] — a proxy dialed back to its mpiexec.
struct ProxyHello : Verb<ProxyHello> {
  static constexpr const char* kTag = "proxy.hello";
  int proxy_id = 0;
  ProxyHello() = default;
  explicit ProxyHello(int id) : proxy_id(id) {}
  static void fields(auto& ar, auto& v) { ar("proxy", v.proxy_id); }
  bool operator==(const ProxyHello&) const = default;
};

/// "proxy.exec" [nprocs, ppn, base, user_binary, n, argv..., k=v...] —
/// the user executable spec mpiexec hands a proxy.
struct ProxyExec : Verb<ProxyExec> {
  static constexpr const char* kTag = "proxy.exec";
  int nprocs = 0;
  int ppn = 0;
  int base = 0;  // first rank this proxy starts
  std::string user_binary;
  std::vector<std::string> argv;
  std::map<std::string, std::string> vars;
  ProxyExec() = default;
  ProxyExec(int np, int per, int first, std::string binary,
            std::vector<std::string> av,
            std::map<std::string, std::string> kv = {})
      : nprocs(np), ppn(per), base(first), user_binary(std::move(binary)),
        argv(std::move(av)), vars(std::move(kv)) {}
  static void fields(auto& ar, auto& v) {
    ar("nprocs", v.nprocs);
    ar("ppn", v.ppn);
    ar("base", v.base);
    ar("binary", v.user_binary);
    ar("argv", Counted{v.argv});
    ar("vars", v.vars);
  }
  bool operator==(const ProxyExec&) const = default;
};

/// "proxy.exit" [proxy id, status] — the proxy's local ranks all exited;
/// status is nonzero if any failed.
struct ProxyExit : Verb<ProxyExit> {
  static constexpr const char* kTag = "proxy.exit";
  int proxy_id = 0;
  int status = 0;
  ProxyExit() = default;
  ProxyExit(int id, int st) : proxy_id(id), status(st) {}
  static void fields(auto& ar, auto& v) {
    ar("proxy", v.proxy_id);
    ar("status", v.status);
  }
  bool operator==(const ProxyExit&) const = default;
};

/// "stdout" + payload — application output routed rank -> mpiexec (§6.1.6).
struct StdoutNote : Verb<StdoutNote> {
  static constexpr const char* kTag = "stdout";
  std::uint64_t payload = 0;
  StdoutNote() = default;
  explicit StdoutNote(std::uint64_t bytes) : payload(bytes) {}
  static void fields(auto&, auto&) {}
  bool operator==(const StdoutNote&) const = default;
};

// --- MPI wire (rank <-> rank, mpi::Comm) -----------------------------------

/// "mpi.hello" [rank] — first frame on a connection a rank dialed.
struct MpiHello : Verb<MpiHello> {
  static constexpr const char* kTag = "mpi.hello";
  int rank = 0;
  MpiHello() = default;
  explicit MpiHello(int r) : rank(r) {}
  static void fields(auto& ar, auto& v) { ar("rank", v.rank); }
  bool operator==(const MpiHello&) const = default;
};

/// "mpi.msg" [source, tag] or [source, tag, value] + payload — one
/// point-to-point message. The text form renders the value with "%f"
/// (six decimals) and the frozen wire is charged that length; a typed
/// frame delivers the double exactly.
struct MpiMsg : Verb<MpiMsg> {
  static constexpr const char* kTag = "mpi.msg";
  int source = 0;
  int tag = 0;
  std::optional<double> value;
  std::uint64_t payload = 0;
  MpiMsg() = default;
  MpiMsg(int src, int t, std::optional<double> v, std::uint64_t bytes)
      : source(src), tag(t), value(v), payload(bytes) {}
  static void fields(auto& ar, auto& v) {
    ar("source", v.source);
    ar("tag", v.tag);
    ar("value", v.value);
  }
  bool operator==(const MpiMsg&) const = default;
};

// --- Sending and receiving typed frames -------------------------------------

/// The typed frame carrying `v`, normalized to what its text frame would
/// deliver and charged the text frame's bytes; nullopt if the text wire
/// would refuse it (see normalize()).
template <typename M>
std::optional<Message> frame(M v) {
  const std::size_t text = v.text_size();  // before normalize: what encode() sends
  if (!v.normalize()) return std::nullopt;
  return Message::typed(std::move(v), text);
}

/// The verb M carried by `m`: moved out of a typed frame, or decoded from a
/// text frame. A typed frame of another verb is kBadTag.
template <typename M>
Expected<M, DecodeError> take(Message&& m) {
  if (M* v = m.body.get<M>()) return std::move(*v);
  if (!m.body.empty()) return Unexpected{DecodeError{DecodeError::Kind::kBadTag, "tag"}};
  return M::decode(m);
}

/// take<M>() for whichever of Ms `m`'s tag names: the verb, or the
/// DecodeError (kBadTag if no M's tag matches). One typed dispatch point
/// for endpoints that serve several verbs on a raw socket.
template <typename... Ms>
std::variant<DecodeError, Ms...> take_any(Message&& m) {
  std::variant<DecodeError, Ms...> out{DecodeError{DecodeError::Kind::kBadTag, "tag"}};
  auto try_one = [&]<typename M>() {
    if (m.tag != M::kTag) return false;
    auto r = take<M>(std::move(m));
    if (r.ok()) {
      out.template emplace<M>(std::move(r).value());
    } else {
      out = r.error();
    }
    return true;
  };
  (void)(try_one.template operator()<Ms>() || ...);
  return out;
}

/// Fire-and-forget typed send on a bare socket (no channel bookkeeping).
/// Returns false, sending nothing, if the text wire would refuse `m`.
template <typename M>
bool post(Socket& sock, M m) {
  std::optional<Message> f = frame(std::move(m));
  if (!f) return false;
  sock.send(std::move(*f));
  return true;
}

// --- Metrics --------------------------------------------------------------

/// Instrument block a Channel reports into. Shared across channels (the
/// service binds one block for all worker connections). Any pointer may be
/// left null; those events simply go uncounted.
struct ChannelMetrics {
  obs::Counter* calls = nullptr;          // requests issued
  obs::Counter* notifies = nullptr;       // one-way sends
  obs::Counter* completed = nullptr;      // calls resolved by a reply
  obs::Counter* peer_closed = nullptr;    // calls drained or refused, EOF
  obs::Counter* cancelled = nullptr;      // calls explicitly written off
  obs::Counter* orphans = nullptr;        // replies with no matching call
  obs::Counter* decode_errors = nullptr;  // frames a decoder rejected
  obs::Counter* unknown_tags = nullptr;   // frames with no installed route
  obs::Gauge* inflight = nullptr;         // calls currently pending
  std::int64_t inflight_now = 0;          // backing value for `inflight`

  /// Binds the full block to "jets.rpc.*" instruments in `m`.
  static ChannelMetrics bind(obs::MetricsRegistry& m);
};

// --- Channel --------------------------------------------------------------

class Channel {
 public:
  using CallId = std::uint64_t;

  /// `metrics` is the shared instrument block; nullptr = uncounted.
  Channel(sim::Engine& engine, SocketPtr sock,
          ChannelMetrics* metrics = nullptr)
      : engine_(&engine), sock_(std::move(sock)), metrics_(metrics) {}
  ~Channel();  // never invokes completions
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  const SocketPtr& socket() const { return sock_; }
  /// True once this channel's own receive has seen its connection end. A
  /// socket can reach EOF before that resumption runs; failing calls
  /// then would fail them at a different simulated instant than the
  /// historical code.
  bool peer_closed() const { return peer_closed_; }
  std::size_t in_flight() const { return calls_.size(); }
  /// True if some pending call awaits (resp_tag, key).
  bool has_pending(std::string_view resp_tag, std::string_view key) const;

  /// Issues `req` and invokes `cb(Expected<Resp, RpcError>)` exactly once:
  /// inline at reply dispatch, or when the channel's owner drains it.
  /// Returns the call id, or kPeerClosed / kDecode without sending.
  template <typename M, typename F>
  Expected<CallId, RpcError> call_cb(M req, F&& cb) {
    using Resp = typename M::Resp;
    return issue<M>(
        std::move(req),
        [cb = std::forward<F>(cb)](void* resp, RpcError err) mutable {
          if (resp) {
            cb(Expected<Resp, RpcError>(std::move(*static_cast<Resp*>(resp))));
          } else {
            cb(Expected<Resp, RpcError>(Unexpected{err}));
          }
        },
        /*wait=*/nullptr);
  }

  /// Coroutine form: issues the call and resumes with the typed result. If
  /// no serve() loop is running the call pumps the socket itself (one
  /// sequential caller per channel — the PMI client's discipline), and the
  /// end of the connection fails it with kPeerClosed; with serve() active
  /// it just parks. Its wait state lives in this frame, so a call costs
  /// the frame and nothing else (see CallWait for what a killed caller
  /// leaves behind).
  ///
  /// `req` is taken by value, and every M is a non-aggregate by design —
  /// see the GCC 12 note on the typed-protocol section above.
  template <typename M>
  sim::Task<Expected<typename M::Resp, RpcError>> call(M req) {
    using Resp = typename M::Resp;
    CallWait<Resp> w;
    auto issued = issue<M>(std::move(req), /*complete=*/nullptr, &w);
    if (!issued.ok()) co_return Unexpected{issued.error()};
    w.chan = this;
    w.id = issued.value();
    if (serving_) {
      co_await WaitAwaiter{&w};
    } else {
      // Self-driven mode: no serve() loop owns the socket, so this frame
      // performs the recv/dispatch itself — the exact event shape of the
      // hand-written send-then-recv-loop clients (PMI).
      while (!w.done) {
        std::optional<Message> m = co_await sock_->recv();
        if (!m) {
          // EOF, or this end closed under the call: no reply can come.
          peer_closed_ = true;
          fail_all(RpcError::kPeerClosed);
          break;
        }
        if (auto t = dispatch(std::move(*m))) co_await std::move(*t);
      }
    }
    co_return std::move(*w.result);
  }

  /// One-way typed send. Refused with kPeerClosed after EOF/stop, and
  /// with kDecode if the text wire would refuse `m`.
  template <typename M>
  Expected<void, RpcError> notify(M m) {
    if (peer_closed_ || stopped_ || !sock_) {
      return Unexpected{RpcError::kPeerClosed};
    }
    std::optional<Message> f = frame(std::move(m));
    if (!f) return Unexpected{RpcError::kDecode};
    if (metrics_ && metrics_->notifies) metrics_->notifies->inc();
    sock_->send(std::move(*f));
    return {};
  }

  /// Installs the handler for unmatched frames of type M. A handler
  /// returning void runs synchronously inside the dispatch resumption
  /// (zero extra events); a coroutine handler returning sim::Task<void>
  /// is co_awaited by the dispatch loop (its awaits suspend the loop,
  /// exactly as the hand-written per-tag branches did).
  ///
  /// The handler is stored as the route itself (no second wrapper), so a
  /// capture of up to two pointers costs no allocation.
  template <typename M, typename F>
  void on(F&& f) {
    route(M::kTag)->handle = [f = std::forward<F>(f)](
                                 Channel& ch, Message&& m) mutable
        -> std::optional<sim::Task<void>> {
      std::optional<M> v = ch.decode_and_route<M>(std::move(m));
      if (!v) return std::nullopt;
      if constexpr (std::is_invocable_r_v<sim::Task<void>, F&, M&&>) {
        // A coroutine handler must take M by value, not M&&: its frame
        // must own the message, which this scope's decoded temporary
        // would otherwise outlive only until the task's first suspension.
        return f(std::move(*v));
      } else {
        f(std::move(*v));
        return std::nullopt;
      }
    };
  }

  /// Runs on every inbound frame before dispatch (liveness refresh).
  void set_on_message(std::function<void()> fn) { on_message_ = std::move(fn); }
  /// Consulted after each recv; a non-null Gate is awaited before the
  /// frame is examined (worker hang injection point).
  void set_hang_gate(std::function<sim::Gate*()> fn) {
    hang_gate_ = std::move(fn);
  }

  /// Receive/dispatch loop: recv -> hang gate -> route until EOF or
  /// stop(). It leaves pending calls to its owner, which fails them with
  /// fail_all() where its disconnect bookkeeping writes the replies off.
  sim::Task<void> serve();

  /// Makes serve() (or a pumping call()) return after the current frame.
  void stop() { stopped_ = true; }

  /// Fails every pending call, oldest first (issue order).
  void fail_all(RpcError err);
  /// Fails every pending call awaiting `resp_tag`, oldest first.
  void fail_responses(std::string_view resp_tag, RpcError err);

 private:
  /// Wait state of one call(), kept in the call's own coroutine frame; its
  /// PendingCall points here. A frame destroyed before its reply (the
  /// caller was killed) detaches itself, so the reply or drain that later
  /// retires the call completes nothing; a channel destroyed
  /// first detaches the wait instead.
  struct CallWaitBase {
    using Store = void (*)(CallWaitBase&, void* resp, RpcError err);
    explicit CallWaitBase(Store s) : store(s) {}
    CallWaitBase(const CallWaitBase&) = delete;
    CallWaitBase& operator=(const CallWaitBase&) = delete;
    ~CallWaitBase() {
      if (chan != nullptr && !done) chan->detach(id);
    }
    Channel* chan = nullptr;  // set once issued
    CallId id = 0;
    bool done = false;
    Store store;
    /// The caller parked in serve mode; empty (expired) while it pumps.
    sim::Resumption resume;
  };
  template <typename Resp>
  struct CallWait : CallWaitBase {
    CallWait() : CallWaitBase(&CallWait::store_result) {}
    std::optional<Expected<Resp, RpcError>> result;
    static void store_result(CallWaitBase& base, void* resp, RpcError err) {
      auto& w = static_cast<CallWait&>(base);
      if (resp) {
        w.result.emplace(std::move(*static_cast<Resp*>(resp)));
      } else {
        w.result.emplace(Unexpected{err});
      }
    }
  };
  struct WaitAwaiter {
    CallWaitBase* wait;
    bool await_ready() const noexcept { return wait->done; }
    template <typename Promise>
    void await_suspend(std::coroutine_handle<Promise> h) {
      wait->resume = sim::Resumption::of(h, h.promise().context());
    }
    void await_resume() const noexcept {}
  };

  struct PendingCall {
    CallId id = 0;
    const char* resp_tag = "";
    std::string key;
    /// call_cb()'s callback, or the parked call()'s wait state; a call
    /// whose caller is gone has neither and settles silently.
    std::function<void(void*, RpcError)> complete;
    CallWaitBase* wait = nullptr;
  };

  /// A verb's route: decodes the frame, completes a matching call, or runs
  /// the installed handler (a coroutine handler's task is returned for the
  /// receive loop to await).
  using Handler =
      std::function<std::optional<sim::Task<void>>(Channel&, Message&&)>;
  struct TagEntry {
    std::string_view tag;
    Handler handle;
  };
  /// Routes reserved at a channel's first: every endpoint installs at most
  /// five verbs (the service's side of a worker connection), so one block
  /// holds the whole table.
  static constexpr std::size_t kRouteCapacity = 8;

  /// Sends `req` as a new pending call, completed by `complete` or, for
  /// call(), settled into `wait`.
  template <typename M>
  Expected<CallId, RpcError> issue(
      M req, std::function<void(void*, RpcError)> complete,
      CallWaitBase* wait) {
    using Resp = typename M::Resp;
    if (peer_closed_ || stopped_ || !sock_) {
      if (metrics_ && metrics_->peer_closed) metrics_->peer_closed->inc();
      return Unexpected{RpcError::kPeerClosed};
    }
    std::string key = req.correlation_key();
    std::optional<Message> f = frame(std::move(req));
    if (!f) return Unexpected{RpcError::kDecode};
    ensure_route<Resp>();
    const CallId id = next_id_++;
    PendingCall p;
    p.id = id;
    p.resp_tag = Resp::kTag;
    p.key = std::move(key);
    p.complete = std::move(complete);
    p.wait = wait;
    calls_.push_back(std::move(p));
    if (ChannelMetrics* mm = metrics_) {
      if (mm->calls) mm->calls->inc();
      ++mm->inflight_now;
      if (mm->inflight) mm->inflight->set(mm->inflight_now);
    }
    sock_->send(std::move(*f));
    return id;
  }

  /// Decodes, satisfies a matching pending call, or hands the value back
  /// for the unmatched-frame handler. nullopt = consumed (or rejected).
  template <typename M>
  std::optional<M> decode_and_route(Message&& m) {
    auto r = take<M>(std::move(m));
    if (!r.ok()) {
      note_decode_error();
      return std::nullopt;
    }
    if constexpr (requires(const M& x) { x.correlation_key(); }) {
      if (try_complete(M::kTag, r.value().correlation_key(), &r.value())) {
        return std::nullopt;
      }
    }
    return std::move(r).value();
  }

  /// Installs a route for M if none exists (so unhandled replies are
  /// counted as orphans rather than unknown tags).
  template <typename M>
  void ensure_route() {
    if (find_tag(M::kTag)) return;
    route(M::kTag)->handle = [](Channel& ch,
                                Message&& m) -> std::optional<sim::Task<void>> {
      if (ch.decode_and_route<M>(std::move(m))) ch.note_orphan();
      return std::nullopt;
    };
  }

  TagEntry* route(std::string_view tag);       // find-or-insert
  TagEntry* find_tag(std::string_view tag);    // nullptr if absent
  /// Runs the liveness hook and the frame's route; a coroutine handler's
  /// task comes back for the receive loop to await.
  std::optional<sim::Task<void>> dispatch(Message&& m);
  /// Oldest pending call awaiting (resp_tag, key), or calls_.end().
  std::vector<PendingCall>::const_iterator find_pending(
      std::string_view resp_tag, std::string_view key) const;
  std::vector<PendingCall>::iterator find_call(CallId id);
  bool try_complete(const char* resp_tag, const std::string& key, void* resp);
  void finish_call(CallId id, void* resp, RpcError err);
  /// The call's frame is gone: it stays pending (its late reply must not
  /// complete a later call with the same key) but will complete nothing.
  void detach(CallId id);
  void note_orphan();
  void note_decode_error();
  void note_unknown_tag();

  sim::Engine* engine_;
  SocketPtr sock_;
  ChannelMetrics* metrics_;
  /// Pending calls in issue order (ascending id), so fail_all drains FIFO
  /// and a reply completes the first entry with its (resp_tag, key). A
  /// channel rarely has more than one call in flight, so the scan is short
  /// and the vector's capacity is reused call after call.
  std::vector<PendingCall> calls_;
  /// Small linear table: a handful of verbs per endpoint, and a vector
  /// scan beats a node-based map at 10^5 channels (one per worker).
  std::vector<TagEntry> tags_;
  std::function<void()> on_message_;
  std::function<sim::Gate*()> hang_gate_;
  CallId next_id_ = 1;
  bool serving_ = false;
  bool stopped_ = false;
  bool peer_closed_ = false;
};

}  // namespace jets::net::rpc
