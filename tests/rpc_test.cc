// Protocol conformance + fuzz battery for the typed RPC layer (ctest
// label: rpc).
//
// One verb list, AllVerbs, drives the battery: a verb that joins it (and
// the golden table) gets every check below with no per-verb test code.
//
//   0. Golden frames: for every verb, samples at the edge values pin the
//      exact text frame encode() writes (tag, args, payload), text_size(),
//      and whether a typed send refuses the value; each pinned frame decodes
//      back to a value that re-encodes to the same bytes.
//   1. Round trips: decoded values carry the fields they were sent with.
//   2. Decode rejection: a targeted malformed frame per DecodeError kind
//      per decoder — truncated args, bad enums, unknown tags, oversized
//      ids — each returns a typed error, never throws, never crashes; and
//      every decoder refuses every other verb's frames.
//   3. Seeded fuzz: pseudo-random frames (junk tags, junk args, huge
//      numbers, half-valid digest grammar) fed to *every* decoder. The
//      sanitizer lane is the oracle for memory safety; accepted frames
//      must additionally be canonical (decode(encode(decode(m))) is
//      identity) and travel typed exactly as they do as text (layer 5).
//   5. Typed frames against the text oracle: for every verb, a typed
//      frame is charged the bytes of encode(), and take<M>() of it yields
//      what decode(encode(v)) yields — or the send is refused exactly when
//      that decode fails. The one intended difference: mpi.msg's value
//      arrives exact instead of rounded to six decimals.
//   4. Channel conformance, in-simulator: correlation matching under
//      out-of-order completion, same-key FIFO resolution, peer-close
//      draining in issue order, post-EOF refusal, sync/async handler
//      dispatch, and the serve-less pump mode the PMI client uses —
//      including the GCC 12 aggregate-prvalue regression shape (see the
//      note in rpc.hh) and a socket closed under a pumping call.
//
// Plus one service-level regression: a worker whose socket dies between
// task claim and flush must surface through RpcError::kPeerClosed — typed,
// counted in jets.rpc.peer_closed, and classified kWorkerLost.
#include <gtest/gtest.h>

#include <bit>
#include <climits>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "apps/synthetic.hh"
#include "core/chaos.hh"
#include "core/standalone.hh"
#include "net/fabric.hh"
#include "net/rpc.hh"
#include "net/socket.hh"
#include "obs/metrics.hh"
#include "sim/sim.hh"
#include "testutil.hh"

// gtest's ASSERT_* macros `return;` on failure, which is ill-formed inside
// a coroutine body — these record the failure and co_return instead.
#define CO_ASSERT_TRUE(x) \
  do {                    \
    if (!(x)) {           \
      ADD_FAILURE() << #x; \
      co_return;          \
    }                     \
  } while (0)
#define CO_ASSERT_FALSE(x) CO_ASSERT_TRUE(!(x))

namespace jets::net::rpc {
namespace {

using sim::Engine;
using sim::Task;

// --- 0. Every verb, pinned ---------------------------------------------------

/// Every protocol verb. A new verb joins here and in golden<M>() below.
template <typename... Ms>
struct VerbList {
  using Types = ::testing::Types<Ms...>;
  /// Calls f.template operator()<M>() for each verb M, in list order.
  template <typename F>
  static void each(F&& f) {
    (f.template operator()<Ms>(), ...);
  }
};
using AllVerbs =
    VerbList<RegisterReq, ReadyNote, PingNote, TaskDone, TaskRun, KillReq,
             StageAck, StageReq, PmiInit, PmiPut, PmiValue, PmiGet,
             PmiBarrierOut, PmiBarrier, PmiFinalize, ProxyHello, ProxyExec,
             ProxyExit, StdoutNote, MpiHello, MpiMsg>;

/// One pinned sample: a value and the text frame encode() writes for it,
/// byte for byte. text_size() must be the args' bytes plus a separator
/// each.
template <typename M>
struct Golden {
  Golden(M v, std::vector<std::string> a, std::uint64_t pay = 0,
         bool refuse = false)
      : value(std::move(v)), args(std::move(a)), payload(pay),
        refused(refuse) {}
  M value;
  std::vector<std::string> args;
  std::uint64_t payload;
  bool refused;  // frame() refuses the typed send
};

/// A verb's wire tag and its samples at the edge values: signed extremes,
/// +-0, 1e300, +-inf and NaN, var keys holding '=', digest 0 with
/// evictions, a zero eviction.
template <typename M>
struct GoldenTable {
  const char* tag;
  std::vector<Golden<M>> rows;
};

template <typename M>
GoldenTable<M> golden();

template <>
GoldenTable<RegisterReq> golden<RegisterReq>() {
  return {"reg",
          {{RegisterReq(7, {"t-1", "t-2"}), {"7", "t-1", "t-2"}},
           {RegisterReq(0), {"0"}},
           {RegisterReq(0xFFFFFFFFu, {""}), {"4294967295", ""}}}};
}

template <>
GoldenTable<ReadyNote> golden<ReadyNote>() {
  return {"ready", {{ReadyNote{}, {}}}};
}

template <>
GoldenTable<PingNote> golden<PingNote>() {
  return {"hb", {{PingNote{}, {}}}};
}

template <>
GoldenTable<TaskDone> golden<TaskDone>() {
  using R = TaskDone::Reason;
  return {"done",
          {{TaskDone("task-9", -13, R::kApp), {"task-9", "-13", "app"}},
           {TaskDone("task-9", -13, R::kWatchdog),
            {"task-9", "-13", "watchdog"}},
           {TaskDone("task-9", -13, R::kKilled), {"task-9", "-13", "killed"}},
           // A reason outside the enum travels as "app".
           {TaskDone("task-9", -13, static_cast<R>(9)),
            {"task-9", "-13", "app"}},
           {TaskDone("", INT_MIN, R::kApp), {"", "-2147483648", "app"}}}};
}

template <>
GoldenTable<TaskRun> golden<TaskRun>() {
  return {"run",
          {{TaskRun("j0.3", {"namd2.sh", "in.pdb", "x=looks-like-a-var"},
                    {{"OMP_NUM_THREADS", "4"}, {"JETS_RANK", "0"}}),
            {"j0.3", "3", "namd2.sh", "in.pdb", "x=looks-like-a-var",
             "JETS_RANK=0", "OMP_NUM_THREADS=4"}},
           {TaskRun("j", {}), {"j", "0"}},
           {TaskRun("t", {"a"}, {{"", "v"}, {"k", ""}}),
            {"t", "1", "a", "=v", "k="}},
           // The text wire splits a var at its first '=': a key holding
           // '=' arrives split there, and two keys may then collide.
           {TaskRun("t", {"a"}, {{"a=b", "c"}}), {"t", "1", "a", "a=b=c"}},
           {TaskRun("t", {"a"}, {{"a", "b=c"}, {"a=b", "d"}}),
            {"t", "1", "a", "a=b=c", "a=b=d"}}}};
}

template <>
GoldenTable<KillReq> golden<KillReq>() {
  return {"kill", {{KillReq("t-3"), {"t-3"}}, {KillReq(""), {""}}}};
}

template <>
GoldenTable<StageAck> golden<StageAck>() {
  return {"staged",
          {// A zero digest makes the text frame undecodable.
           {StageAck("in.pdb", 0),
            {"in.pdb", "d=0000000000000000"},
            0,
            true},
           {StageAck("p", 0xdeadbeef01020304ull, {0x1, 0xff}),
            {"p", "d=deadbeef01020304", "e=0000000000000001",
             "e=00000000000000ff"}},
           {StageAck("p", 0, {0x5}),
            {"p", "d=0000000000000000", "e=0000000000000005"},
            0,
            true},
           // So does a zero eviction digest.
           {StageAck("p", 0x5, {0x6, 0}),
            {"p", "d=0000000000000005", "e=0000000000000006",
             "e=0000000000000000"},
            0,
            true}}};
}

template <>
GoldenTable<StageReq> golden<StageReq>() {
  using S = StageHeader::Source;
  GoldenTable<StageReq> t{"stagein", {}};
  const std::vector<std::string> head = {"inputs/a.bin", "d=0000000000000abc",
                                         "b=4096"};
  auto with = [&](std::vector<std::string> tail) {
    std::vector<std::string> args = head;
    args.insert(args.end(), tail.begin(), tail.end());
    return args;
  };
  for (const auto& [src, args] :
       {std::pair{S::kPush, with({"s=push"})},
        std::pair{S::kPeer, with({"s=peer:12"})},
        std::pair{S::kWarm, with({"s=warm"})},
        // An unknown source writes no source arg, so the frame is refused.
        std::pair{static_cast<S>(7), head}}) {
    // The peer travels only for kPeer.
    const StageHeader h{"inputs/a.bin", 0xabc, 4096, src, 12};
    t.rows.emplace_back(StageReq(h, /*pay=*/4096), args, 4096,
                        /*refuse=*/args.size() < 4);
  }
  return t;
}

template <>
GoldenTable<PmiInit> golden<PmiInit>() {
  return {"pmi.init",
          {{PmiInit(3), {"3"}}, {PmiInit(INT_MIN), {"-2147483648"}}}};
}

template <>
GoldenTable<PmiPut> golden<PmiPut>() {
  return {"pmi.put",
          {{PmiPut("card.1", "0 5000"), {"card.1", "0 5000"}},
           {PmiPut("", ""), {"", ""}}}};
}

template <>
GoldenTable<PmiValue> golden<PmiValue>() {
  return {"pmi.value",
          {{PmiValue("card.1", "0 5000"), {"card.1", "0 5000"}}}};
}

template <>
GoldenTable<PmiGet> golden<PmiGet>() {
  return {"pmi.get", {{PmiGet("k"), {"k"}}}};
}

template <>
GoldenTable<PmiBarrierOut> golden<PmiBarrierOut>() {
  return {"pmi.barrier_out", {{PmiBarrierOut{}, {}}}};
}

template <>
GoldenTable<PmiBarrier> golden<PmiBarrier>() {
  return {"pmi.barrier_in", {{PmiBarrier(5), {"5"}}}};
}

template <>
GoldenTable<PmiFinalize> golden<PmiFinalize>() {
  return {"pmi.finalize", {{PmiFinalize(INT_MAX), {"2147483647"}}}};
}

template <>
GoldenTable<ProxyHello> golden<ProxyHello>() {
  return {"proxy.hello", {{ProxyHello(0), {"0"}}, {ProxyHello(-5), {"-5"}}}};
}

template <>
GoldenTable<ProxyExec> golden<ProxyExec>() {
  return {"proxy.exec",
          {{ProxyExec(4, 2, 2, "mpi_sleep", {"mpi_sleep", "10"},
                      {{"A", "1"}, {"B", "x=y"}}),
            {"4", "2", "2", "mpi_sleep", "2", "mpi_sleep", "10", "A=1",
             "B=x=y"}},
           {ProxyExec(1, 1, 0, "", {}), {"1", "1", "0", "", "0"}},
           {ProxyExec(INT_MIN, INT_MAX, -1, "b", {"b"}, {{"K=1", "2"}}),
            {"-2147483648", "2147483647", "-1", "b", "1", "b", "K=1=2"}}}};
}

template <>
GoldenTable<ProxyExit> golden<ProxyExit>() {
  return {"proxy.exit",
          {{ProxyExit(3, 0), {"3", "0"}},
           {ProxyExit(0, INT_MIN), {"0", "-2147483648"}}}};
}

template <>
GoldenTable<StdoutNote> golden<StdoutNote>() {
  return {"stdout",
          {{StdoutNote(0), {}, 0}, {StdoutNote(123'456), {}, 123'456}}};
}

template <>
GoldenTable<MpiHello> golden<MpiHello>() {
  return {"mpi.hello",
          {{MpiHello(0), {"0"}}, {MpiHello(INT_MIN), {"-2147483648"}}}};
}

/// "%f" of 1e300: every digit of the double nearest it.
constexpr const char* k1e300 =
    "100000000000000005250476025520442024870446858110815915491585411551180245"
    "798890819578637137508044786404370444383288387817694252323536043057564479"
    "218478670698284838720092657580373783023379478809005936895323497079994508"
    "111903896764088007465274278014249457925878882005684283811566947219638686"
    "5459400540160.000000";

template <>
GoldenTable<MpiMsg> golden<MpiMsg>() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return {"mpi.msg",
          {{MpiMsg(INT_MAX, 0, 0.0, 8), {"2147483647", "0", "0.000000"}, 8},
           {MpiMsg(0, -1, -0.0, 8), {"0", "-1", "-0.000000"}, 8},
           {MpiMsg(0, INT_MIN, 1e300, 8), {"0", "-2147483648", k1e300}, 8},
           {MpiMsg(0, 0, kInf, 0), {"0", "0", "inf"}},
           {MpiMsg(0, 0, -kInf, 0), {"0", "0", "-inf"}},
           {MpiMsg(0, 0, std::numeric_limits<double>::quiet_NaN(), 0),
            {"0", "0", "nan"}},
           {MpiMsg(1, -4, 2.5, 64), {"1", "-4", "2.500000"}, 64},
           {MpiMsg(0, 0, 1e-7, 8), {"0", "0", "0.000000"}, 8},
           // ssend's form carries no value.
           {MpiMsg(3, 7, std::nullopt, 8), {"3", "7"}, 8}}};
}

template <typename M>
class RpcVerb : public ::testing::Test {};
TYPED_TEST_SUITE(RpcVerb, AllVerbs::Types);

TYPED_TEST(RpcVerb, EncodesItsGoldenFrames) {
  using M = TypeParam;
  const GoldenTable<M> table = golden<M>();
  EXPECT_STREQ(M::kTag, table.tag);
  for (const Golden<M>& g : table.rows) {
    const Message m = g.value.encode();
    EXPECT_EQ(m.tag, table.tag);
    EXPECT_EQ(m.args, g.args);
    EXPECT_EQ(m.payload_bytes, g.payload);
    std::size_t text = 0;
    for (const std::string& a : g.args) text += a.size() + 1;
    EXPECT_EQ(g.value.text_size(), text);
    EXPECT_EQ(!frame(g.value).has_value(), g.refused);
  }
}

TYPED_TEST(RpcVerb, GoldenFramesRoundTrip) {
  using M = TypeParam;
  const GoldenTable<M> table = golden<M>();
  for (const Golden<M>& g : table.rows) {
    auto back = M::decode(Message(table.tag, g.args, g.payload));
    ASSERT_EQ(back.ok(), !g.refused);
    if (!back.ok()) continue;
    // The decoded value re-encodes to the frame of the value a typed send
    // delivers: the pinned frame itself, unless the text form split a var
    // key at its '='.
    const Message again = back.value().encode();
    const Message sent = take<M>(*frame(g.value)).value().encode();
    EXPECT_EQ(again.args, sent.args);
    EXPECT_EQ(again.payload_bytes, sent.payload_bytes);
    if constexpr (requires { g.value.correlation_key(); }) {
      EXPECT_EQ(back.value().correlation_key(), g.value.correlation_key());
    }
  }
}

// --- 1. Round trips --------------------------------------------------------

/// Byte-level equality of two wire frames.
bool same_frame(const Message& a, const Message& b) {
  return a.tag == b.tag && a.args == b.args &&
         a.payload_bytes == b.payload_bytes;
}

TEST(RpcRoundTrip, TaskDoneAllReasons) {
  for (const auto reason : {TaskDone::Reason::kApp, TaskDone::Reason::kWatchdog,
                            TaskDone::Reason::kKilled}) {
    TaskDone d("task-9", -13, reason);
    auto r = TaskDone::decode(d.encode());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().task_id, "task-9");
    EXPECT_EQ(r.value().status, -13);
    EXPECT_EQ(r.value().reason, reason);
    EXPECT_EQ(r.value().correlation_key(), "task-9");
  }
}

TEST(RpcRoundTrip, TaskRunArgvAndVars) {
  TaskRun run("j0.3", {"namd2.sh", "in.pdb", "x=looks-like-a-var"},
              {{"OMP_NUM_THREADS", "4"}, {"JETS_RANK", "0"}});
  auto r = TaskRun::decode(run.encode());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().task_id, "j0.3");
  EXPECT_EQ(r.value().argv, run.argv);  // argc guard keeps '=' argv intact
  EXPECT_EQ(r.value().vars, run.vars);
  // Empty argv, empty vars.
  auto r2 = TaskRun::decode(TaskRun("j", {}).encode());
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2.value().argv.empty());
}

TEST(RpcRoundTrip, StageAckLegacyAndDigest) {
  // The bare-path form of the old broadcast channel is gone from the wire.
  EXPECT_EQ(StageAck::decode(Message("staged", {"in.pdb"})).error().kind,
            DecodeError::Kind::kMissingArg);
  StageAck full("in.pdb", 0xdeadbeef01020304ull, {0x1ull, 0xffull});
  auto r = StageAck::decode(full.encode());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().digest, 0xdeadbeef01020304ull);
  EXPECT_EQ(r.value().evictions, full.evictions);
  EXPECT_EQ(r.value().correlation_key(), "in.pdb");
}

TEST(RpcRoundTrip, StageReqLegacyAndDigestForms) {
  StageHeader h;
  h.path = "inputs/a.bin";
  h.digest = 0xabcull;
  h.bytes = 4096;
  h.source = StageHeader::Source::kPeer;
  h.peer = 12;
  auto r = StageReq::decode(StageReq(h).encode());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().header, h);
  // The bare-path form of the old broadcast channel is gone from the wire.
  EXPECT_EQ(StageReq::decode(Message("stagein", {"bcast.dat"}, 777))
                .error()
                .kind,
            DecodeError::Kind::kMissingArg);
}

TEST(RpcRoundTrip, PmiFamily) {
  EXPECT_EQ(PmiInit::decode(PmiInit(3).encode()).value().rank, 3);
  auto put = PmiPut::decode(PmiPut("k", "v").encode());
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(put.value().key, "k");
  EXPECT_EQ(put.value().value, "v");
  auto val = PmiValue::decode(PmiValue("k", "v").encode());
  ASSERT_TRUE(val.ok());
  EXPECT_EQ(val.value().correlation_key(), "k");
  EXPECT_EQ(PmiGet::decode(PmiGet("k").encode()).value().key, "k");
  EXPECT_TRUE(PmiBarrierOut::decode(PmiBarrierOut{}.encode()).ok());
  EXPECT_EQ(PmiBarrier::decode(PmiBarrier(5).encode()).value().rank, 5);
  EXPECT_EQ(PmiFinalize::decode(PmiFinalize(2).encode()).value().rank, 2);
}

TEST(RpcRoundTrip, ProxyAndMpiFamilies) {
  EXPECT_EQ(ProxyHello::decode(ProxyHello(3).encode()).value().proxy_id, 3);
  const ProxyExec exec(4, 2, 2, "mpi_sleep", {"mpi_sleep", "10"},
                       {{"A", "1"}, {"B", "x=y"}});
  auto x = ProxyExec::decode(exec.encode());
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(x.value(), exec);
  EXPECT_EQ(ProxyExit::decode(ProxyExit(1, -9).encode()).value(),
            ProxyExit(1, -9));
  EXPECT_EQ(StdoutNote::decode(StdoutNote(4096).encode()).value().payload,
            4096u);
  EXPECT_EQ(MpiHello::decode(MpiHello(7).encode()).value().rank, 7);
  auto msg = MpiMsg::decode(MpiMsg(1, -4, 2.5, 64).encode());
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg.value(), MpiMsg(1, -4, 2.5, 64));
  // ssend's form carries no value.
  auto bare = MpiMsg::decode(MpiMsg(1, 0, std::nullopt, 8).encode());
  ASSERT_TRUE(bare.ok());
  EXPECT_FALSE(bare.value().value.has_value());
}

// --- 2. Targeted decode rejection -----------------------------------------

using Kind = DecodeError::Kind;

/// Decodes expecting failure; returns the error kind (kBadTag on
/// unexpected success so the EXPECT_EQ at the call site still fires).
template <typename M>
Kind reject(const Message& m) {
  auto r = M::decode(m);
  EXPECT_FALSE(r.ok()) << "frame '" << m.tag << "' unexpectedly accepted";
  return r.ok() ? Kind::kBadTag : r.error().kind;
}

TEST(RpcDecode, WrongTagRejectedEverywhere) {
  // Each decoder refuses an alien tag and every other verb's golden frames.
  AllVerbs::each([]<typename M>() {
    SCOPED_TRACE(M::kTag);
    EXPECT_EQ(reject<M>(Message("no.such.verb", {"x"})), Kind::kBadTag);
    AllVerbs::each([]<typename Other>() {
      if (std::string_view(Other::kTag) == M::kTag) return;
      for (const Golden<Other>& g : golden<Other>().rows) {
        EXPECT_EQ(reject<M>(Message(Other::kTag, g.args, g.payload)),
                  Kind::kBadTag);
      }
    });
  });
}

TEST(RpcDecode, RegisterReq) {
  EXPECT_EQ(reject<RegisterReq>(Message("reg")), Kind::kMissingArg);
  EXPECT_EQ(reject<RegisterReq>(Message("reg", {"abc"})), Kind::kBadNumber);
  EXPECT_EQ(reject<RegisterReq>(Message("reg", {"-1"})), Kind::kBadNumber);
  EXPECT_EQ(reject<RegisterReq>(Message("reg", {"12 "})), Kind::kBadNumber);
  // NodeId is 32-bit; a parseable u64 past that is oversized, not bad.
  EXPECT_EQ(reject<RegisterReq>(Message("reg", {"4294967296"})),
            Kind::kOversized);
  EXPECT_EQ(reject<RegisterReq>(Message("reg", {"99999999999999999999"})),
            Kind::kBadNumber);  // overflows u64 entirely
}

TEST(RpcDecode, NotesRejectTrailingArgs) {
  EXPECT_EQ(reject<ReadyNote>(Message("ready", {"x"})), Kind::kTrailingArgs);
  EXPECT_EQ(reject<PingNote>(Message("hb", {"x"})), Kind::kTrailingArgs);
  EXPECT_EQ(reject<PmiBarrierOut>(Message("pmi.barrier_out", {"x"})),
            Kind::kTrailingArgs);
}

TEST(RpcDecode, TaskDone) {
  EXPECT_EQ(reject<TaskDone>(Message("done")), Kind::kMissingArg);
  EXPECT_EQ(reject<TaskDone>(Message("done", {"t", "0"})), Kind::kMissingArg);
  EXPECT_EQ(reject<TaskDone>(Message("done", {"t", "0", "app", "x"})),
            Kind::kTrailingArgs);
  EXPECT_EQ(reject<TaskDone>(Message("done", {"t", "zero", "app"})),
            Kind::kBadNumber);
  EXPECT_EQ(reject<TaskDone>(Message("done", {"t", "0", "segfault"})),
            Kind::kBadEnum);
}

TEST(RpcDecode, TaskRun) {
  EXPECT_EQ(reject<TaskRun>(Message("run", {"t"})), Kind::kMissingArg);
  EXPECT_EQ(reject<TaskRun>(Message("run", {"t", "x"})), Kind::kBadNumber);
  // argc says 3 but only 1 argv slot follows: truncated frame.
  EXPECT_EQ(reject<TaskRun>(Message("run", {"t", "3", "a"})), Kind::kMissingArg);
  // Trailing non-var token after the argv window.
  EXPECT_EQ(reject<TaskRun>(Message("run", {"t", "1", "a", "not-a-var"})),
            Kind::kTrailingArgs);
}

TEST(RpcDecode, KillReq) {
  EXPECT_EQ(reject<KillReq>(Message("kill")), Kind::kMissingArg);
  EXPECT_EQ(reject<KillReq>(Message("kill", {"t", "x"})), Kind::kTrailingArgs);
}

TEST(RpcDecode, StageAck) {
  EXPECT_EQ(reject<StageAck>(Message("staged")), Kind::kMissingArg);
  // The digest is required.
  EXPECT_EQ(reject<StageAck>(Message("staged", {"p"})), Kind::kMissingArg);
  EXPECT_EQ(reject<StageAck>(Message("staged", {"p", "q"})),
            Kind::kBadDigest);
  EXPECT_EQ(reject<StageAck>(Message("staged", {"p", "e=00000000000000ff"})),
            Kind::kBadDigest);
  // Digest grammar: 16 lowercase hex, nonzero.
  EXPECT_EQ(reject<StageAck>(Message("staged", {"p", "d="})), Kind::kBadDigest);
  EXPECT_EQ(reject<StageAck>(Message("staged", {"p", "d=12345"})),
            Kind::kBadDigest);
  EXPECT_EQ(reject<StageAck>(Message("staged", {"p", "d=ABCDEF0123456789"})),
            Kind::kBadDigest);
  EXPECT_EQ(reject<StageAck>(Message("staged", {"p", "d=0000000000000000"})),
            Kind::kBadDigest);
  EXPECT_EQ(
      reject<StageAck>(Message("staged", {"p", "d=00000000000000ff", "junk"})),
      Kind::kTrailingArgs);
  EXPECT_EQ(
      reject<StageAck>(Message("staged", {"p", "d=00000000000000ff", "e=xyz"})),
      Kind::kBadDigest);
}

TEST(RpcDecode, StageReq) {
  // Arity: exactly [path, d=, b=, s=]. The pre-RPC worker indexed args[0]
  // unchecked; an empty "stagein" threw std::out_of_range.
  EXPECT_EQ(reject<StageReq>(Message("stagein")), Kind::kMissingArg);
  EXPECT_EQ(reject<StageReq>(Message("stagein", {"p"})), Kind::kMissingArg);
  const std::string d = "d=00000000000000ff";
  EXPECT_EQ(reject<StageReq>(Message("stagein", {"p", d, "b=5"})),
            Kind::kMissingArg);
  EXPECT_EQ(reject<StageReq>(Message("stagein", {"p", d, "b=5", "s=push", "x"})),
            Kind::kTrailingArgs);
  // The digest: "d=", then 16 lowercase hex chars.
  for (const char* bad : {"d=", "d=12345", "d=ABCDEF0123456789",
                          "d=zzzzzzzzzzzzzzzz", "x=0123456789abcdef", "b=5"}) {
    EXPECT_EQ(reject<StageReq>(Message("stagein", {"p", bad, "b=5", "s=push"})),
              Kind::kBadDigest)
        << bad;
  }
  // The byte count: "b=", then a full unsigned 64-bit number.
  for (const char* bad : {"b=abc", "b=", "b=-1", "b=99999999999999999999",
                          "b=five", d.c_str()}) {
    EXPECT_EQ(reject<StageReq>(Message("stagein", {"p", d, bad, "s=push"})),
              Kind::kBadNumber)
        << bad;
  }
  // The source: push, warm, or peer:<node id>.
  for (const char* bad : {"s=bogus", "s=teleport", "push", "b=5"}) {
    EXPECT_EQ(reject<StageReq>(Message("stagein", {"p", d, "b=5", bad})),
              Kind::kBadEnum)
        << bad;
  }
  for (const char* bad : {"s=peer:", "s=peer:x", "s=peer:-1",
                          "s=peer:4294967296"}) {
    EXPECT_EQ(reject<StageReq>(Message("stagein", {"p", d, "b=5", bad})),
              Kind::kBadNumber)
        << bad;
  }
}

TEST(RpcDecode, PmiNumericFields) {
  EXPECT_EQ(reject<PmiInit>(Message("pmi.init")), Kind::kMissingArg);
  EXPECT_EQ(reject<PmiInit>(Message("pmi.init", {"r0"})), Kind::kBadNumber);
  EXPECT_EQ(reject<PmiInit>(Message("pmi.init", {"0", "x"})),
            Kind::kTrailingArgs);
  EXPECT_EQ(reject<PmiPut>(Message("pmi.put", {"k"})), Kind::kMissingArg);
  EXPECT_EQ(reject<PmiPut>(Message("pmi.put", {"k", "v", "w"})),
            Kind::kTrailingArgs);
  EXPECT_EQ(reject<PmiValue>(Message("pmi.value", {"k"})), Kind::kMissingArg);
  EXPECT_EQ(reject<PmiGet>(Message("pmi.get")), Kind::kMissingArg);
  EXPECT_EQ(reject<PmiGet>(Message("pmi.get", {"k", "x"})),
            Kind::kTrailingArgs);
  EXPECT_EQ(reject<PmiBarrier>(Message("pmi.barrier_in", {"1e3"})),
            Kind::kBadNumber);
  EXPECT_EQ(reject<PmiFinalize>(Message("pmi.finalize", {""})),
            Kind::kBadNumber);
}

TEST(RpcDecode, ProxyControl) {
  EXPECT_EQ(reject<ProxyHello>(Message("proxy.hello")), Kind::kMissingArg);
  EXPECT_EQ(reject<ProxyHello>(Message("proxy.hello", {"1x"})),
            Kind::kBadNumber);
  EXPECT_EQ(reject<ProxyExit>(Message("proxy.exit", {"0"})), Kind::kMissingArg);
  EXPECT_EQ(reject<ProxyExit>(Message("proxy.exit", {"0", "ok"})),
            Kind::kBadNumber);
  EXPECT_EQ(reject<ProxyExec>(Message("proxy.exec", {"1", "1", "0", "app"})),
            Kind::kMissingArg);
  EXPECT_EQ(
      reject<ProxyExec>(Message("proxy.exec", {"x", "1", "0", "app", "0"})),
      Kind::kBadNumber);
  EXPECT_EQ(
      reject<ProxyExec>(Message("proxy.exec", {"1", "1", "0", "app", "2", "a"})),
      Kind::kMissingArg);
  // A user var without '=' used to be dropped silently by the proxy.
  EXPECT_EQ(reject<ProxyExec>(Message(
                "proxy.exec", {"1", "1", "0", "app", "1", "app", "NOEQ"})),
            Kind::kTrailingArgs);
  EXPECT_EQ(reject<StdoutNote>(Message("stdout", {"x"})), Kind::kTrailingArgs);
}

TEST(RpcDecode, MpiWire) {
  EXPECT_EQ(reject<MpiHello>(Message("mpi.hello")), Kind::kMissingArg);
  EXPECT_EQ(reject<MpiHello>(Message("mpi.hello", {"x"})), Kind::kBadNumber);
  EXPECT_EQ(reject<MpiHello>(Message("mpi.hello", {"2147483648"})),
            Kind::kBadNumber);
  EXPECT_EQ(reject<MpiMsg>(Message("mpi.msg", {"0"})), Kind::kMissingArg);
  EXPECT_EQ(reject<MpiMsg>(Message("mpi.msg", {"0", "1", "2", "3"})),
            Kind::kTrailingArgs);
  EXPECT_EQ(reject<MpiMsg>(Message("mpi.msg", {"0", "t"})), Kind::kBadNumber);
  EXPECT_EQ(reject<MpiMsg>(Message("mpi.msg", {"0", "1", "1.5x"})),
            Kind::kBadNumber);
  EXPECT_EQ(reject<MpiMsg>(Message("mpi.msg", {"0", "1", " 1.5"})),
            Kind::kBadNumber);
}

// --- 5. Typed frames against the text oracle --------------------------------

/// Field equality, with mpi.msg's value compared bit for bit (NaN, -0).
template <typename M>
bool same_value(const M& a, const M& b) {
  return a == b;
}
bool same_value(const MpiMsg& a, const MpiMsg& b) {
  auto bits = [](const std::optional<double>& v) {
    return v ? std::optional(std::bit_cast<std::uint64_t>(*v)) : std::nullopt;
  };
  return a.source == b.source && a.tag == b.tag && a.payload == b.payload &&
         bits(a.value) == bits(b.value);
}

/// What the text wire delivers of `v` with the typed wire's one intended
/// difference applied: mpi.msg keeps its exact value.
template <typename M>
M typed_expectation(const M&, M decoded) {
  return decoded;
}
MpiMsg typed_expectation(const MpiMsg& sent, MpiMsg decoded) {
  decoded.value = sent.value;
  return decoded;
}

template <typename M>
void expect_typed_matches_text(const M& v) {
  SCOPED_TRACE(M::kTag);
  const Message text = v.encode();
  EXPECT_EQ(Message::typed(v).wire_size(), text.wire_size());
  auto oracle = M::decode(text);
  std::optional<Message> f = frame(v);
  ASSERT_EQ(f.has_value(), oracle.ok()) << "a typed send must be refused "
                                           "exactly when the text frame "
                                           "would not decode";
  if (!f) return;
  EXPECT_EQ(f->wire_size(), text.wire_size());
  EXPECT_EQ(f->tag, text.tag);
  EXPECT_EQ(f->payload_bytes, text.payload_bytes);
  EXPECT_TRUE(f->args.empty());
  auto got = take<M>(std::move(*f));
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(same_value(got.value(), typed_expectation(v, oracle.value())));
  // A typed frame copies (tests copy frames) and takes like the original.
  std::optional<Message> again = frame(v);
  const Message copy = *again;
  auto from_copy = take<M>(Message(copy));
  ASSERT_TRUE(from_copy.ok());
  EXPECT_TRUE(same_value(from_copy.value(), got.value()));
}

TEST(RpcTypedFrames, EveryVerbMatchesItsTextFrame) {
  AllVerbs::each([]<typename M>() {
    for (const Golden<M>& g : golden<M>().rows) {
      expect_typed_matches_text(g.value);
    }
  });
}

TEST(RpcTypedFrames, MpiValuesArriveExactAtTheTextFramesCost) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double values[] = {0.0,   -0.0,  1e-7,  0.1,     1.0 / 3.0, -2.5,
                           1e300, -1e300, kInf, -kInf,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::denorm_min()};
  for (const double v : values) {
    for (const int tag : {0, -1, INT_MIN, INT_MAX}) {
      expect_typed_matches_text(MpiMsg(INT_MAX, tag, v, 8));
      expect_typed_matches_text(MpiMsg(0, tag, std::nullopt, 0));
    }
  }
  // The precision the text form loses, and the typed form keeps.
  const MpiMsg tiny(0, 0, 1e-7, 8);
  EXPECT_EQ(MpiMsg::decode(tiny.encode()).value().value, 0.0);
  EXPECT_EQ(take<MpiMsg>(*frame(tiny)).value().value, 1e-7);
}

TEST(RpcTypedFrames, TakeRefusesAnotherVerbsTypedFrame) {
  auto r = take<PmiGet>(*frame(PmiPut("k", "v")));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, Kind::kBadTag);
  // take_any dispatches by tag, typed or text, and reports the rest.
  auto typed = take_any<PmiGet, PmiPut>(*frame(PmiPut("k", "v")));
  ASSERT_TRUE(std::holds_alternative<PmiPut>(typed));
  EXPECT_EQ(std::get<PmiPut>(typed).value, "v");
  auto text = take_any<PmiGet, PmiPut>(PmiGet("k").encode());
  ASSERT_TRUE(std::holds_alternative<PmiGet>(text));
  auto unknown = take_any<PmiGet, PmiPut>(Message("pmi.nope"));
  ASSERT_TRUE(std::holds_alternative<DecodeError>(unknown));
  EXPECT_EQ(std::get<DecodeError>(unknown).kind, Kind::kBadTag);
  auto malformed = take_any<PmiGet, PmiPut>(Message("pmi.put", {"k"}));
  ASSERT_TRUE(std::holds_alternative<DecodeError>(malformed));
  EXPECT_EQ(std::get<DecodeError>(malformed).kind, Kind::kMissingArg);
}

// --- 3. Seeded fuzz --------------------------------------------------------

/// Feeds `m` to every decoder; any accepted value must re-encode to a
/// canonical frame that decodes back to the same bytes. The sanitizer
/// build is the crash oracle.
template <typename M>
void fuzz_one(const Message& m) {
  auto r = M::decode(m);
  if (!r.ok()) {
    // A rejected frame still renders a diagnosable error string.
    EXPECT_FALSE(to_string(r.error()).empty());
    return;
  }
  const Message canon = r.value().encode();
  auto r2 = M::decode(canon);
  ASSERT_TRUE(r2.ok()) << "canonical re-encode of accepted '" << m.tag
                       << "' frame no longer decodes";
  EXPECT_TRUE(same_frame(canon, r2.value().encode()));
  expect_typed_matches_text(r.value());
}

void fuzz_all_decoders(const Message& m) {
  AllVerbs::each([&]<typename M>() { fuzz_one<M>(m); });
}

TEST(RpcFuzz, RandomFramesNeverCrashAnyDecoder) {
  std::mt19937 rng(0x4a455453u);  // fixed seed: failures must reproduce
  const std::vector<std::string> tags = {
      "reg",     "ready",          "hb",           "done",
      "run",     "kill",           "staged",       "stagein",
      "pmi.init", "pmi.put",       "pmi.value",    "pmi.get",
      "pmi.barrier_in", "pmi.barrier_out", "pmi.finalize",
      "proxy.hello", "proxy.exec", "proxy.exit", "stdout",
      "mpi.hello", "mpi.msg",
      "bogus",   "",               "REG",          "done\n"};
  const std::vector<std::string> pool = {
      "",       "0",         "1",      "-1",       "42",
      "abc",    "4294967295", "4294967296", "18446744073709551615",
      "18446744073709551616", "99999999999999999999999999",
      "0x10",   " 7",        "7 ",     "+3",       "3.14",
      "app",    "watchdog",  "killed", "appp",     "APP",
      "d=",     "d=00000000000000ff", "d=ffffffffffffffff",
      "d=FFFFFFFFFFFFFFFF", "d=00000000000000",  "d=0000000000000000",
      "e=",     "e=00000000000000ff", "e=nope",
      "b=4096", "b=abc",     "b=",     "s=push",   "s=warm",
      "s=peer:3", "s=peer:x", "s=bogus", "k=v",    "=v",
      "k=",     "path/with=equals", std::string(300, 'A'),
      std::string("\0embedded", 9),
      "0.100000", "-0.000000", "nan",  "-nan",   "inf",   "-inf",
      "1e300",  "0x1p3",     "-2147483648", "2147483648", "mpi_sleep"};
  std::uniform_int_distribution<std::size_t> tag_pick(0, tags.size() - 1);
  std::uniform_int_distribution<std::size_t> arg_pick(0, pool.size() - 1);
  std::uniform_int_distribution<int> argc_pick(0, 6);
  std::uniform_int_distribution<int> payload_pick(0, 1);
  for (int i = 0; i < 4000; ++i) {
    Message m(tags[tag_pick(rng)]);
    const int argc = argc_pick(rng);
    for (int a = 0; a < argc; ++a) m.args.push_back(pool[arg_pick(rng)]);
    if (payload_pick(rng)) m.payload_bytes = 1 + (rng() % (1u << 20));
    fuzz_all_decoders(m);
  }
}

TEST(RpcFuzz, ValidFramesSurviveSingleFieldMutation) {
  // Start from every canonical frame, clobber one arg at a time with junk:
  // the decoder must reject or re-canonicalize, never crash.
  std::vector<Message> seeds = {
      RegisterReq(3, {"t-1"}).encode(),
      TaskDone("t", 1, TaskDone::Reason::kWatchdog).encode(),
      TaskRun("t", {"a", "b"}, {{"K", "V"}}).encode(),
      KillReq("t").encode(),
      StageAck("p", 0xffull, {0x2ull}).encode(),
      PmiInit(1).encode(),
      PmiPut("k", "v").encode(),
      PmiValue("k", "v").encode(),
      PmiGet("k").encode(),
      PmiBarrier(0).encode(),
      PmiFinalize(0).encode(),
      ProxyHello(2).encode(),
      ProxyExec(4, 1, 2, "app", {"app", "x"}, {{"K", "V"}}).encode(),
      ProxyExit(2, 1).encode(),
      MpiHello(3).encode(),
      MpiMsg(3, -2, 0.5, 8).encode(),
      MpiMsg(3, 7, std::nullopt, 8).encode(),
  };
  StageHeader h;
  h.path = "p";
  h.digest = 0x5ull;
  h.bytes = 10;
  seeds.push_back(StageReq(h).encode());
  std::mt19937 rng(0x57495245u);
  const std::vector<std::string> junk = {"", "zz", "-", "1x", "d=5",
                                         std::string(64, 'f')};
  std::uniform_int_distribution<std::size_t> junk_pick(0, junk.size() - 1);
  for (const Message& seed : seeds) {
    for (std::size_t at = 0; at < seed.args.size(); ++at) {
      for (int trial = 0; trial < 8; ++trial) {
        Message mutant = seed;
        mutant.args[at] = junk[junk_pick(rng)];
        fuzz_all_decoders(mutant);
      }
      Message truncated = seed;
      truncated.args.resize(at);
      fuzz_all_decoders(truncated);
    }
  }
}

// --- 4. Channel conformance ------------------------------------------------

class RpcChannelTest : public ::testing::Test {
 protected:
  Engine engine;
  Network net{engine, std::make_shared<EthernetFabric>()};
  std::unique_ptr<Listener> listener = net.listen({1, 7000});
  SocketPtr server;  // accept side (test scripts the peer on this socket)
  SocketPtr client;  // connect side (the channel under test lives here)
  obs::MetricsRegistry reg;
  ChannelMetrics metrics = ChannelMetrics::bind(reg);

  /// Phase 1: establish the connection so tests can build a Channel on the
  /// stack (its lifetime must cover the serve() actor spawned in phase 2).
  void establish() {
    engine.spawn("accept", [](RpcChannelTest& t) -> Task<void> {
      t.server = co_await t.listener->accept();
    }(*this));
    engine.spawn("connect", [](RpcChannelTest& t) -> Task<void> {
      t.client = co_await t.net.connect(0, {1, 7000});
    }(*this));
    engine.run();
    ASSERT_NE(server, nullptr);
    ASSERT_NE(client, nullptr);
  }

  /// The serve loop as the service runs it: serve() leaves pending calls
  /// to its owner, which drains them once the loop returns.
  static Task<void> serve_and_drain(Channel& ch) {
    co_await ch.serve();
    ch.fail_all(RpcError::kPeerClosed);
  }

  std::uint64_t count(const char* name) const {
    return reg.counter_value(name);
  }
};

TEST_F(RpcChannelTest, OutOfOrderRepliesMatchByCorrelationKey) {
  establish();
  Channel chan(engine, client, &metrics);
  engine.spawn("serve", serve_and_drain(chan));
  // Server gathers all three requests, then answers them newest-first.
  engine.spawn("peer", [](SocketPtr s) -> Task<void> {
    std::vector<std::string> ids;
    while (ids.size() < 3) {
      auto m = co_await s->recv();
      CO_ASSERT_TRUE(m.has_value());
      auto run = take<TaskRun>(std::move(*m));
      CO_ASSERT_TRUE(run.ok());
      ids.push_back(run.value().task_id);
    }
    for (int i = 2; i >= 0; --i) {
      s->send(TaskDone(ids[static_cast<std::size_t>(i)], 100 + i,
                       TaskDone::Reason::kApp)
                  .encode());
    }
    s->close();
  }(server));
  std::vector<std::string> done_order;
  for (int i = 0; i < 3; ++i) {
    engine.spawn("caller", [](Channel& ch, int i,
                              std::vector<std::string>& order) -> Task<void> {
      // Named, not a braced literal in the co_await expression: GCC 12
      // also mishandles initializer-list arrays living across suspension.
      std::vector<std::string> argv = {"app"};
      auto r = co_await ch.call(TaskRun("t" + std::to_string(i), argv));
      CO_ASSERT_TRUE(r.ok());
      // Each caller receives *its* reply, not whichever arrived first.
      EXPECT_EQ(r.value().task_id, "t" + std::to_string(i));
      EXPECT_EQ(r.value().status, 100 + i);
      order.push_back(r.value().task_id);
    }(chan, i, done_order));
  }
  engine.run();
  EXPECT_EQ(done_order, (std::vector<std::string>{"t2", "t1", "t0"}));
  EXPECT_EQ(count("jets.rpc.calls"), 3u);
  EXPECT_EQ(count("jets.rpc.completed"), 3u);
  EXPECT_EQ(count("jets.rpc.orphans"), 0u);
  EXPECT_EQ(chan.in_flight(), 0u);
}

TEST_F(RpcChannelTest, SameKeyCallsResolveFifo) {
  establish();
  Channel chan(engine, client, &metrics);
  engine.spawn("serve", serve_and_drain(chan));
  engine.spawn("peer", [](SocketPtr s) -> Task<void> {
    for (int i = 0; i < 2; ++i) (void)co_await s->recv();
    // Two identical correlation keys: replies must land in issue order.
    s->send(TaskDone("dup", 7, TaskDone::Reason::kApp).encode());
    s->send(TaskDone("dup", 8, TaskDone::Reason::kApp).encode());
    s->close();
  }(server));
  std::vector<int> statuses;
  for (int i = 0; i < 2; ++i) {
    engine.spawn("caller", [](Channel& ch, std::vector<int>& out) -> Task<void> {
      std::vector<std::string> argv = {"app"};
      auto r = co_await ch.call(TaskRun("dup", argv));
      CO_ASSERT_TRUE(r.ok());
      out.push_back(r.value().status);
    }(chan, statuses));
  }
  engine.run();
  EXPECT_EQ(statuses, (std::vector<int>{7, 8}));
}

TEST_F(RpcChannelTest, PeerCloseDrainsPendingCallsInIssueOrder) {
  establish();
  Channel chan(engine, client, &metrics);
  engine.spawn("serve", serve_and_drain(chan));
  engine.spawn("peer", [](SocketPtr s) -> Task<void> {
    for (int i = 0; i < 3; ++i) (void)co_await s->recv();
    s->close();  // vanish with all three calls outstanding
  }(server));
  std::vector<std::string> drain_order;
  for (int i = 0; i < 3; ++i) {
    engine.spawn("caller", [](Channel& ch, int i,
                              std::vector<std::string>& order) -> Task<void> {
      auto r = co_await ch.call(TaskRun("d" + std::to_string(i), {}));
      CO_ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.error(), RpcError::kPeerClosed);
      order.push_back("d" + std::to_string(i));
    }(chan, i, drain_order));
  }
  engine.run();
  EXPECT_EQ(drain_order, (std::vector<std::string>{"d0", "d1", "d2"}));
  EXPECT_TRUE(chan.peer_closed());
  EXPECT_EQ(count("jets.rpc.peer_closed"), 3u);
  EXPECT_EQ(chan.in_flight(), 0u);
}

TEST_F(RpcChannelTest, IssueAndNotifyRefusedAfterEof) {
  establish();
  Channel chan(engine, client, &metrics);
  engine.spawn("serve", serve_and_drain(chan));
  engine.spawn("peer", [](SocketPtr s) -> Task<void> {
    (void)co_await s->recv();
    s->close();
  }(server));
  bool checked = false;
  engine.spawn("caller", [](Channel& ch, bool& checked) -> Task<void> {
    auto r = co_await ch.call(TaskRun("x", {}));
    CO_ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), RpcError::kPeerClosed);
    // Post-EOF: both forms refuse without touching the socket.
    auto again = ch.call_cb(TaskRun("y", {}),
                            [](Expected<TaskDone, RpcError>) { FAIL(); });
    CO_ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.error(), RpcError::kPeerClosed);
    EXPECT_FALSE(ch.notify(ReadyNote{}).ok());
    checked = true;
  }(chan, checked));
  engine.run();
  EXPECT_TRUE(checked);
  // Drained call + refused call; the refused notify is not a call.
  EXPECT_EQ(count("jets.rpc.peer_closed"), 2u);
  EXPECT_EQ(count("jets.rpc.calls"), 1u);
}

TEST_F(RpcChannelTest, OrphanUnknownTagAndDecodeErrorAreCounted) {
  establish();
  Channel chan(engine, client, &metrics);
  engine.spawn("serve", serve_and_drain(chan));
  engine.spawn("peer", [](SocketPtr s) -> Task<void> {
    (void)co_await s->recv();
    s->send(TaskDone("t", 0, TaskDone::Reason::kApp).encode());
    // Duplicate reply: same correlation id, no pending call -> orphan.
    s->send(TaskDone("t", 0, TaskDone::Reason::kApp).encode());
    // No route installed for this verb at all -> unknown tag.
    s->send(Message("no.such.verb", {"x"}));
    // Routed verb, malformed frame -> typed decode error, not a crash.
    s->send(Message("done", {"only-one-arg"}));
    s->close();
  }(server));
  engine.spawn("caller", [](Channel& ch) -> Task<void> {
    auto r = co_await ch.call(TaskRun("t", {}));
    EXPECT_TRUE(r.ok());
  }(chan));
  engine.run();
  EXPECT_EQ(count("jets.rpc.completed"), 1u);
  EXPECT_EQ(count("jets.rpc.orphans"), 1u);
  EXPECT_EQ(count("jets.rpc.unknown_tags"), 1u);
  EXPECT_EQ(count("jets.rpc.decode_errors"), 1u);
}

TEST_F(RpcChannelTest, SyncAndAsyncHandlersDispatchUnmatchedFrames) {
  establish();
  // This channel serves the *accept* side: handlers, not calls.
  Channel chan(engine, server, &metrics);
  std::vector<std::string> runs;
  int pings = 0;
  // Async handler: takes the message by value — it must stay alive across
  // the handler's own suspension even though the dispatch scope's decoded
  // temporary is long gone.
  chan.on<TaskRun>([&runs](TaskRun run) -> Task<void> {
    co_await sim::delay(sim::milliseconds(5));
    runs.push_back(run.task_id + "/" + run.argv.at(0));
  });
  chan.on<PingNote>([&pings](PingNote&&) { ++pings; });
  engine.spawn("serve", serve_and_drain(chan));
  engine.spawn("peer", [](SocketPtr s) -> Task<void> {
    post(*s, PingNote{});
    post(*s, TaskRun("j1", {"namd2.sh"}));
    post(*s, PingNote{});
    s->close();
    co_return;
  }(client));
  engine.run();
  EXPECT_EQ(runs, (std::vector<std::string>{"j1/namd2.sh"}));
  EXPECT_EQ(pings, 2);
}

// Pump mode: no serve() actor; each call() drains the socket itself. This
// is the PMI client's discipline — and the exact coroutine shape that
// tickled the GCC 12 aggregate-prvalue miscompile (a brace-init temporary
// argument living across co_await got a bitwise duplicate in the frame,
// whose destruction double-freed the string). The protocol structs carry
// user-provided constructors to stay non-aggregates; this test pins that.
// Run it under the sanitizer lane to keep the regression caught.
TEST_F(RpcChannelTest, PumpModeSequentialCallsWithPrvalueArguments) {
  establish();
  engine.spawn("peer", [](SocketPtr s) -> Task<void> {
    for (;;) {
      auto m = co_await s->recv();
      if (!m) break;
      auto req = take_any<PmiGet, PmiBarrier>(std::move(*m));
      if (auto* get = std::get_if<PmiGet>(&req)) {
        post(*s, PmiValue(get->key, "v-" + get->key));
      } else if (std::holds_alternative<PmiBarrier>(req)) {
        post(*s, PmiBarrierOut{});
      }
    }
  }(server));
  bool done = false;
  engine.spawn("ranks", [](Engine& e, SocketPtr s, bool& done) -> Task<void> {
    Channel chan(e, s);  // channel owned by this coroutine frame, no serve
    for (int i = 0; i < 4; ++i) {
      // The prvalue temporaries below are the regression shape: they are
      // materialized in this frame and must survive the suspension.
      auto r = co_await chan.call(PmiGet{"card." + std::to_string(i)});
      CO_ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.value().value, "v-card." + std::to_string(i));
      auto b = co_await chan.call(PmiBarrier{i});
      CO_ASSERT_TRUE(b.ok());
    }
    s->close();
    done = true;
  }(engine, client, done));
  engine.run();
  EXPECT_TRUE(done);
}

TEST_F(RpcChannelTest, PumpModePeerCloseFailsCall) {
  establish();
  engine.spawn("peer", [](SocketPtr s) -> Task<void> {
    auto m = co_await s->recv();
    CO_ASSERT_TRUE(m.has_value());
    auto get = take<PmiGet>(std::move(*m));
    CO_ASSERT_TRUE(get.ok());
    post(*s, PmiValue(get.value().key, "v"));
    (void)co_await s->recv();  // second request arrives...
    s->close();                // ...and dies unanswered
  }(server));
  bool done = false;
  engine.spawn("rank", [](Engine& e, SocketPtr s, bool& done) -> Task<void> {
    Channel chan(e, s);
    auto ok = co_await chan.call(PmiGet{"k1"});
    CO_ASSERT_TRUE(ok.ok());
    auto dead = co_await chan.call(PmiGet{"k2"});
    CO_ASSERT_FALSE(dead.ok());
    EXPECT_EQ(dead.error(), RpcError::kPeerClosed);
    EXPECT_TRUE(chan.peer_closed());
    done = true;
  }(engine, client, done));
  engine.run();
  EXPECT_TRUE(done);
}

// A pump-mode caller killed while its call() is parked, on a channel that
// outlives it (a rank killed mid-get). The reply that arrives later must
// settle nothing in the destroyed frame — the sanitizer lane catches a
// write into it — and once another caller's pump has handled that reply,
// nothing is left in flight.
TEST_F(RpcChannelTest, PumpModeKilledCallerLeavesNoCompletion) {
  establish();
  // The peer holds its answers until the second request has arrived.
  engine.spawn("peer", [](SocketPtr s) -> Task<void> {
    (void)co_await s->recv();
    (void)co_await s->recv();
    post(*s, PmiValue("late", "v-late"));
    post(*s, PmiValue("next", "v-next"));
  }(server));
  Channel chan(engine, client);
  bool resumed = false;
  const sim::ActorId victim = engine.spawn(
      "victim", [](Channel& ch, bool& resumed) -> Task<void> {
        (void)co_await ch.call(PmiGet{"late"});
        resumed = true;
      }(chan, resumed));
  engine.run();
  ASSERT_EQ(chan.in_flight(), 1u);
  EXPECT_TRUE(engine.kill(victim));
  std::string got;
  engine.spawn("next", [](Channel& ch, std::string& got) -> Task<void> {
    auto r = co_await ch.call(PmiGet{"next"});
    if (r.ok()) got = r.value().value;
  }(chan, got));
  engine.run();
  EXPECT_FALSE(resumed);
  EXPECT_EQ(got, "v-next");
  EXPECT_EQ(chan.in_flight(), 0u);
}

// A pumping call on a socket closed at this end while the peer stays open:
// the receive ends at once without EOF from the peer, and the call must
// fail with kPeerClosed instead of receiving again forever.
TEST_F(RpcChannelTest, PumpModeCallOnLocallyClosedSocketFails) {
  establish();
  bool done = false;
  engine.spawn("rank", [](Engine& e, SocketPtr s, bool& done) -> Task<void> {
    Channel chan(e, s);
    s->close();
    auto r = co_await chan.call(PmiGet("k"));
    CO_ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error(), RpcError::kPeerClosed);
    EXPECT_EQ(chan.in_flight(), 0u);
    done = true;
  }(engine, client, done));
  engine.run();
  EXPECT_TRUE(done);
}

TEST_F(RpcChannelTest, NotifyReachesPeerAndCounts) {
  establish();
  Channel chan(engine, client, &metrics);
  std::vector<std::string> got;
  engine.spawn("peer", [](SocketPtr s, std::vector<std::string>& got)
                   -> Task<void> {
    for (;;) {
      auto m = co_await s->recv();
      if (!m) break;
      got.push_back(m->tag);
    }
  }(server, got));
  EXPECT_TRUE(chan.notify(ReadyNote{}).ok());
  EXPECT_TRUE(chan.notify(TaskDone("t", 0, TaskDone::Reason::kApp)).ok());
  engine.spawn("closer", [](SocketPtr s) -> Task<void> {
    co_await sim::delay(sim::seconds(1));
    s->close();
  }(client));
  engine.run();
  EXPECT_EQ(got, (std::vector<std::string>{"ready", "done"}));
  EXPECT_EQ(count("jets.rpc.notifies"), 2u);
  EXPECT_EQ(count("jets.rpc.calls"), 0u);
}

}  // namespace
}  // namespace jets::net::rpc

// --- 5. Service-level regression -------------------------------------------

namespace jets::core {
namespace {

using test::seq_job;

// A worker that disconnects between task claim and flush: the "run"
// message's reply can never arrive, and the failure must surface through
// the typed RpcError::kPeerClosed path — counted in jets.rpc.peer_closed
// and classified kWorkerLost — not through an untyped dropped reply.
TEST(RpcService, RunToDisconnectedWorkerSurfacesAsPeerClosed) {
  test::ServiceBed bed(os::Machine::breadboard(2), {{"sleep", 16'384}});
  StandaloneOptions options;
  options.worker.task_overhead = sim::milliseconds(2);
  StandaloneJets jets(bed.machine, bed.apps, options);
  jets.start(test::ServiceBed::nodes(2));

  ChaosEngine chaos(bed.machine, sim::Rng(1));
  chaos.add({.at = sim::seconds(2), .kind = FaultKind::kSocketClose, .node = 0});

  BatchReport report = bed.run_chaos(
      jets, &chaos, std::vector<JobSpec>(2, seq_job({"sleep", "10"})));

  EXPECT_EQ(report.completed, 2u);
  const JobRecord* retried = nullptr;
  for (const JobRecord& rec : report.records) {
    if (rec.attempts > 1) retried = &rec;
  }
  ASSERT_NE(retried, nullptr);
  ASSERT_GE(retried->history.size(), 2u);
  EXPECT_EQ(retried->history[0].reason, FailureReason::kWorkerLost);
  EXPECT_EQ(jets.service().failures_by_reason(FailureReason::kWorkerLost), 1u);
  // The typed layer saw the disconnect: the in-flight "done" reply was
  // drained (or a post-EOF send refused) with kPeerClosed.
  EXPECT_GE(jets.service().metrics().counter_value("jets.rpc.peer_closed"), 1u);
  EXPECT_GT(jets.service().metrics().counter_value("jets.rpc.calls"), 0u);
}

}  // namespace
}  // namespace jets::core
