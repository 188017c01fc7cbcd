// Tests for the networked cluster transport: shared codec round-trips,
// frame decoding robustness (truncation at every byte boundary, magic /
// version / type / checksum corruption, random-byte fuzz, single-byte
// mutations of every message body), daemon <-> coordinator loopback
// round-trips with bit-identical results vs in-process execution,
// heartbeat-timeout demotion with zero lost grains, reconnect after a
// daemon restart, the engine's detach_unit contract (including its death
// conditions), and the pipelined data plane: chunked blocks bit-identical
// to sync, a one-chunk block as one synchronous round-trip, out-of-order
// and batched result frames, all-or-nothing application on chunk failure,
// mid-pipeline freeze with zero lost grains, partial send/recv through
// shrunken kernel socket buffers, and the batch codec's bounds.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "plbhec/apps/blackscholes.hpp"
#include "plbhec/apps/grn.hpp"
#include "plbhec/apps/matmul.hpp"
#include "plbhec/apps/nbody.hpp"
#include "plbhec/apps/registry.hpp"
#include "plbhec/apps/spmv.hpp"
#include "plbhec/apps/stencil.hpp"
#include "plbhec/apps/synthetic.hpp"
#include "plbhec/common/codec.hpp"
#include "plbhec/core/plb_hec.hpp"
#include "plbhec/obs/counters.hpp"
#include "plbhec/net/remote_unit.hpp"
#include "plbhec/net/socket.hpp"
#include "plbhec/net/wire.hpp"
#include "plbhec/net/workerd.hpp"
#include "plbhec/rt/thread_engine.hpp"

namespace plbhec::net {
namespace {

// ---- Shared codec ---------------------------------------------------------

TEST(Codec, FixedWidthRoundTrip) {
  std::vector<std::uint8_t> buf;
  common::ByteWriter w{buf};
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.f64(-1234.5678);
  w.str("plbhec");

  common::ByteReader r{buf};
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.f64(), -1234.5678);
  std::string s;
  EXPECT_TRUE(r.str(s, 64));
  EXPECT_EQ(s, "plbhec");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Codec, VarintRoundTripAndBoundaries) {
  const std::uint64_t cases[] = {0,
                                 1,
                                 127,
                                 128,
                                 16383,
                                 16384,
                                 (1ULL << 32) - 1,
                                 1ULL << 32,
                                 UINT64_MAX};
  for (std::uint64_t v : cases) {
    std::vector<std::uint8_t> buf;
    common::ByteWriter w{buf};
    w.var_u64(v);
    common::ByteReader r{buf};
    EXPECT_EQ(r.var_u64(), v) << v;
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(Codec, VarintRejectsOverlongAndNonCanonical) {
  // 11 continuation bytes: longer than any u64 needs.
  std::vector<std::uint8_t> overlong(11, 0x80);
  common::ByteReader r1{overlong};
  (void)r1.var_u64();
  EXPECT_FALSE(r1.ok);

  // 10-byte encoding whose final byte sets bits past 2^64.
  std::vector<std::uint8_t> too_big(9, 0x80);
  too_big.push_back(0x7f);
  common::ByteReader r2{too_big};
  (void)r2.var_u64();
  EXPECT_FALSE(r2.ok);
}

TEST(Codec, ReaderLatchesOnOverrun) {
  std::vector<std::uint8_t> buf = {1, 2};
  common::ByteReader r{buf};
  (void)r.u32();  // needs 4 bytes, only 2 remain
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.u64(), 0u);  // all further reads fail closed
  EXPECT_FALSE(r.ok);
}

// ---- Frame decoding -------------------------------------------------------

std::vector<std::uint8_t> sample_frame() {
  HelloMsg msg;
  msg.node = "test-node";
  return encode_frame(MsgType::kHello, msg.encode());
}

TEST(Wire, FrameRoundTrip) {
  const std::vector<std::uint8_t> bytes = sample_frame();
  Frame frame;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(bytes, &frame, &consumed), FrameStatus::kOk);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(frame.type, MsgType::kHello);
  const auto msg = HelloMsg::decode(frame.payload);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->node, "test-node");
  EXPECT_EQ(msg->protocol, kProtocolVersion);
}

TEST(Wire, TruncationAtEveryByteBoundaryRejects) {
  const std::vector<std::uint8_t> bytes = sample_frame();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    Frame frame;
    const FrameStatus status = decode_frame(
        std::span<const std::uint8_t>(bytes.data(), len), &frame, nullptr);
    EXPECT_NE(status, FrameStatus::kOk) << "accepted truncation at " << len;
  }
}

TEST(Wire, BadMagicRejects) {
  std::vector<std::uint8_t> bytes = sample_frame();
  bytes[0] ^= 0x01;
  Frame frame;
  EXPECT_EQ(decode_frame(bytes, &frame, nullptr), FrameStatus::kBadMagic);
}

TEST(Wire, VersionSkewRejects) {
  std::vector<std::uint8_t> bytes = sample_frame();
  bytes[8] += 1;  // version u32 lives right after the 8-byte magic
  Frame frame;
  EXPECT_EQ(decode_frame(bytes, &frame, nullptr), FrameStatus::kVersionSkew);
  // A version-2 peer's BlockResultBatch carries type 12, past this
  // version's last type; the version is checked first, so it is skew.
  bytes = sample_frame();
  ASSERT_EQ(kProtocolVersion, 3u);
  bytes[8] = 2;
  bytes[12] = 12;
  EXPECT_EQ(decode_frame(bytes, &frame, nullptr), FrameStatus::kVersionSkew);
}

TEST(Wire, UnknownTypeRejects) {
  std::vector<std::uint8_t> bytes = sample_frame();
  bytes[12] = 0xee;  // type byte after magic + version
  Frame frame;
  EXPECT_EQ(decode_frame(bytes, &frame, nullptr), FrameStatus::kBadType);
}

TEST(Wire, OversizedPayloadLengthRejects) {
  std::vector<std::uint8_t> bytes = sample_frame();
  bytes[13 + 7] = 0xff;  // high byte of the u64 payload length
  Frame frame;
  EXPECT_EQ(decode_frame(bytes, &frame, nullptr), FrameStatus::kTooLarge);
}

TEST(Wire, PayloadCorruptionFailsChecksum) {
  std::vector<std::uint8_t> bytes = sample_frame();
  bytes[kFrameHeaderBytes] ^= 0x40;  // first payload byte
  Frame frame;
  EXPECT_EQ(decode_frame(bytes, &frame, nullptr), FrameStatus::kBadChecksum);
}

TEST(Wire, SingleByteFlipsNeverDecodeToADifferentFrame) {
  const std::vector<std::uint8_t> good = sample_frame();
  Frame reference;
  ASSERT_EQ(decode_frame(good, &reference, nullptr), FrameStatus::kOk);
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::vector<std::uint8_t> bytes = good;
    bytes[i] ^= 0x5a;
    Frame frame;
    if (decode_frame(bytes, &frame, nullptr) == FrameStatus::kOk) {
      // A flip may land in the payload-length's low bytes and still frame
      // correctly only if everything re-checksums — then the payload must
      // equal the original (i.e. the flip was in trailing checksum bits
      // that happened to match, which FNV makes effectively impossible).
      EXPECT_EQ(frame.payload, reference.payload) << "byte " << i;
    }
  }
}

TEST(Wire, RandomByteFuzzNeverCrashesOrAccepts) {
  std::mt19937_64 rng(0xf00du);
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint8_t> bytes(rng() % 128);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    Frame frame;
    const FrameStatus status = decode_frame(bytes, &frame, nullptr);
    // Random bytes never start with the magic, so nothing decodes.
    EXPECT_NE(status, FrameStatus::kOk);
  }
}

TEST(Wire, MessageBodiesRejectTrailingGarbage) {
  HeartbeatMsg hb;
  hb.sequence = 7;
  std::vector<std::uint8_t> payload = hb.encode();
  payload.push_back(0x00);
  EXPECT_FALSE(HeartbeatMsg::decode(payload).has_value());
}

/// A valid encoding of one message body, and its decoder: `recode` returns
/// nullopt when the decoder rejects a payload, else the decoded message
/// encoded again.
struct BodySample {
  const char* name;
  MsgType type;
  std::vector<std::uint8_t> bytes;
  std::optional<std::vector<std::uint8_t>> (*recode)(
      std::span<const std::uint8_t>);
};

template <typename Msg>
BodySample body_sample(const char* name, MsgType type, const Msg& msg) {
  return {name, type, msg.encode(),
          [](std::span<const std::uint8_t> payload)
              -> std::optional<std::vector<std::uint8_t>> {
            const std::optional<Msg> decoded = Msg::decode(payload);
            if (!decoded) return std::nullopt;
            return decoded->encode();
          }};
}

BlockResultMsg sample_result(std::uint64_t sequence, std::size_t bytes) {
  BlockResultMsg r;
  r.run_id = 7;
  r.sequence = sequence;
  r.begin = 300 * sequence;
  r.end = r.begin + 150;
  r.exec_seconds = 0.0625;
  r.ok = true;
  for (std::size_t i = 0; i < bytes; ++i)
    r.results.push_back(static_cast<std::uint8_t>(17 * i + sequence));
  return r;
}

TEST(Wire, EveryBodyByteMutationDecodesCanonicallyOrRejects) {
  BlockResultMsg failed = sample_result(2, 0);
  failed.ok = false;
  failed.error = "oom";
  BlockResultBatchMsg batch;
  batch.results = {sample_result(1, 4), failed, sample_result(3, 6)};
  const std::vector<BodySample> samples{
      body_sample("hello", MsgType::kHello, HelloMsg{kProtocolVersion, "co"}),
      body_sample("hello_ack", MsgType::kHelloAck,
                  HelloAckMsg{kProtocolVersion, "wd", 4}),
      body_sample("begin_run", MsgType::kBeginRun,
                  BeginRunMsg{3, "synthetic:64"}),
      body_sample("run_ack", MsgType::kRunAck, RunAckMsg{3, false, "bad"}),
      body_sample("assign_block", MsgType::kAssignBlock,
                  AssignBlockMsg{3, 5, 128, 300}),
      body_sample("block_result", MsgType::kBlockResult,
                  sample_result(5, 6)),
      body_sample("block_result_batch", MsgType::kBlockResultBatch, batch),
      body_sample("heartbeat", MsgType::kHeartbeat, HeartbeatMsg{11}),
      body_sample("heartbeat_ack", MsgType::kHeartbeatAck,
                  HeartbeatAckMsg{11}),
  };
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (const BodySample& sample : samples) {
    ASSERT_EQ(sample.recode(sample.bytes), sample.bytes) << sample.name;
    for (std::size_t i = 0; i < sample.bytes.size(); ++i) {
      const std::uint8_t b = sample.bytes[i];
      for (const std::uint8_t v :
           {std::uint8_t{0x00}, std::uint8_t{0xff},
            static_cast<std::uint8_t>(b ^ 0x80),
            static_cast<std::uint8_t>(b + 1)}) {
        std::vector<std::uint8_t> body = sample.bytes;
        body[i] = v;
        // The frame layer reseals length and checksum, so it accepts the
        // frame and hands the mutated body to the body decoder unchanged.
        Frame frame;
        ASSERT_EQ(decode_frame(encode_frame(sample.type, body), &frame,
                               nullptr),
                  FrameStatus::kOk);
        ASSERT_EQ(frame.type, sample.type);
        ASSERT_EQ(frame.payload, body);
        const auto recoded = sample.recode(body);
        EXPECT_EQ(sample.recode(frame.payload), recoded)
            << sample.name << " byte " << i;
        if (!recoded) {
          ++rejected;
          continue;
        }
        ++decoded;
        // Whatever decodes re-encodes to a fixed point.
        EXPECT_EQ(sample.recode(*recoded), recoded)
            << sample.name << " byte " << i << " = " << int{v};
      }
    }
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(Wire, BlockResultRoundTripWithResults) {
  BlockResultMsg msg;
  msg.run_id = 3;
  msg.sequence = 9;
  msg.begin = 128;
  msg.end = 256;
  msg.exec_seconds = 0.125;
  msg.ok = true;
  msg.results = {1, 2, 3, 4, 5};
  const auto decoded = BlockResultMsg::decode(msg.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->begin, 128u);
  EXPECT_EQ(decoded->end, 256u);
  EXPECT_EQ(decoded->exec_seconds, 0.125);
  EXPECT_TRUE(decoded->ok);
  EXPECT_EQ(decoded->results, msg.results);
}

// ---- Workload registry ----------------------------------------------------

TEST(Registry, RebuildsEveryAppFromItsOwnSpec) {
  apps::MatMulWorkload matmul(96, /*materialize=*/true);
  apps::BlackScholesWorkload bs(apps::BlackScholesWorkload::Config{500, 0,
                                                                   32, 77});
  apps::GrnWorkload grn(apps::GrnWorkload::Config{64, 32, 8, true, 11});
  apps::SyntheticWorkload synth(apps::SyntheticWorkload::Config{});
  apps::SpmvWorkload spmv(apps::SpmvWorkload::Config{1000, 24, true, 5});
  apps::StencilWorkload stencil(
      apps::StencilWorkload::Config{64, 50, true, 9});
  apps::NbodyWorkload nbody(apps::NbodyWorkload::Config{300, true, 3});
  for (const rt::Workload* w :
       {static_cast<const rt::Workload*>(&matmul),
        static_cast<const rt::Workload*>(&bs),
        static_cast<const rt::Workload*>(&grn),
        static_cast<const rt::Workload*>(&synth),
        static_cast<const rt::Workload*>(&spmv),
        static_cast<const rt::Workload*>(&stencil),
        static_cast<const rt::Workload*>(&nbody)}) {
    std::string error;
    const auto rebuilt = apps::make_workload(w->remote_spec(), &error);
    ASSERT_NE(rebuilt, nullptr) << w->remote_spec() << ": " << error;
    EXPECT_EQ(rebuilt->total_grains(), w->total_grains());
    EXPECT_TRUE(rebuilt->supports_remote_execution());
  }
}

TEST(Registry, RejectsMalformedSpecs) {
  for (const char* spec :
       {"", "unknown:x=1", "matmul", "matmul:n=0", "matmul:n=999999",
        "matmul:n=abc", "matmul:n=", "matmul:n=1,n=2", "grn:genes=4,=5",
        "blackscholes:options=0", "synthetic:grains=", "spmv:rows=0",
        "spmv:rows=100,nnz=1000", "stencil:ny=100,nx=0",
        "stencil:nx=512", "nbody:bodies=99999999", "nbody"}) {
    std::string error;
    EXPECT_EQ(apps::make_workload(spec, &error), nullptr) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

// ---- Loopback daemon round-trips ------------------------------------------

// Tight liveness budget (60 ms) for the failure-injection tests, where
// fast demotion IS the behavior under test.
RemoteUnitOptions fast_options(std::uint16_t port) {
  RemoteUnitOptions ro;
  ro.port = port;
  ro.heartbeat_interval_seconds = 0.02;
  ro.max_missed_heartbeats = 3;
  ro.max_reconnect_attempts = 2;
  ro.backoff_initial_seconds = 0.01;
  ro.backoff_max_seconds = 0.05;
  return ro;
}

// Generous liveness budget (3 s) for the functional tests: a parallel
// ctest run starves threads long enough that a 60 ms heartbeat window
// falsely demotes a perfectly healthy loopback daemon.
RemoteUnitOptions steady_options(std::uint16_t port) {
  RemoteUnitOptions ro = fast_options(port);
  ro.heartbeat_interval_seconds = 0.2;
  ro.max_missed_heartbeats = 15;
  return ro;
}

TEST(Loopback, MatMulRemoteBlocksAreBitIdenticalToLocal) {
  constexpr std::size_t kN = 128;
  WorkerDaemon daemon({0, "wd", 1.0});

  apps::MatMulWorkload via_wire(kN, /*materialize=*/true);
  RemoteUnit unit(steady_options(daemon.port()));
  ASSERT_TRUE(unit.begin_run(via_wire));
  rt::BlockTiming timing;
  ASSERT_TRUE(unit.execute(via_wire, 0, kN / 2, timing));
  ASSERT_TRUE(unit.execute(via_wire, kN / 2, kN, timing));
  unit.end_run();
  EXPECT_GE(timing.exec_seconds, 0.0);
  EXPECT_GE(timing.transfer_seconds, 0.0);

  apps::MatMulWorkload local(kN, /*materialize=*/true);
  local.execute_cpu(0, kN);
  EXPECT_EQ(via_wire.result(), local.result());
  EXPECT_EQ(daemon.blocks_served(), 2u);
}

// The daemon may dispatch a different ISA variant than this process (its
// kdisp probe is its own business), so this is the end-to-end check of
// the variant bit-identity contract: results crossing the wire must equal
// local execution exactly for every dispatched family.
template <typename Workload, typename Fetch>
void expect_remote_bit_identical(Workload&& via_wire, Workload&& local,
                                 const Fetch& fetch) {
  WorkerDaemon daemon({0, "wd", 1.0});
  RemoteUnit unit(steady_options(daemon.port()));
  const std::size_t grains = via_wire.total_grains();
  ASSERT_TRUE(unit.begin_run(via_wire)) << via_wire.remote_spec();
  rt::BlockTiming timing;
  ASSERT_TRUE(unit.execute(via_wire, 0, grains / 2, timing));
  ASSERT_TRUE(unit.execute(via_wire, grains / 2, grains, timing));
  unit.end_run();
  local.execute_cpu(0, grains);
  EXPECT_EQ(fetch(via_wire), fetch(local)) << via_wire.remote_spec();
  EXPECT_EQ(daemon.blocks_served(), 2u);
}

TEST(Loopback, SpmvRemoteBlocksAreBitIdenticalToLocal) {
  const apps::SpmvWorkload::Config cfg{1500, 40, true, 0x59a125};
  expect_remote_bit_identical(
      apps::SpmvWorkload(cfg), apps::SpmvWorkload(cfg),
      [](const apps::SpmvWorkload& w) { return w.y(); });
}

TEST(Loopback, StencilRemoteBlocksAreBitIdenticalToLocal) {
  const apps::StencilWorkload::Config cfg{130, 120, true, 0x57e4c11};
  expect_remote_bit_identical(
      apps::StencilWorkload(cfg), apps::StencilWorkload(cfg),
      [](const apps::StencilWorkload& w) { return w.output(); });
}

TEST(Loopback, NbodyRemoteBlocksAreBitIdenticalToLocal) {
  const apps::NbodyWorkload::Config cfg{400, true, 0xb0d1e5};
  expect_remote_bit_identical(
      apps::NbodyWorkload(cfg), apps::NbodyWorkload(cfg),
      [](const apps::NbodyWorkload& w) {
        std::vector<double> all = w.ax();
        all.insert(all.end(), w.ay().begin(), w.ay().end());
        all.insert(all.end(), w.az().begin(), w.az().end());
        return all;
      });
}

TEST(Loopback, EngineWithRemoteUnitsConservesGrains) {
  // All units are remote so every grain must cross the wire: with a local
  // unit in the mix, a starved CI machine can let it drain the whole pool
  // before a daemon's first block lands, making per-daemon participation
  // unassertable. Mixed local+remote runs are covered by the Failure
  // tests (which pin participation with wait_for_first_block) and by
  // bench_net's distributed experiment.
  constexpr std::size_t kGrains = 4000;
  WorkerDaemon d1({0, "wd1", 1.0});
  WorkerDaemon d2({0, "wd2", 2.0});

  std::vector<std::unique_ptr<rt::ExecUnit>> units;
  units.push_back(std::make_unique<RemoteUnit>(steady_options(d1.port())));
  units.push_back(std::make_unique<RemoteUnit>(steady_options(d2.port())));

  rt::ThreadEngineOptions eopts;
  rt::ThreadEngine engine(eopts, std::move(units));
  apps::SyntheticWorkload workload(
      apps::SyntheticWorkload::Config{kGrains, 1e6, 64.0, 16.0, 2.0, 0.97,
                                      0.5, 0.5, 200});
  core::PlbHecScheduler plb;
  const rt::RunResult r = engine.run(workload, plb);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(workload.executed_grains(), kGrains);
  EXPECT_EQ(r.unit_stats[0].grains + r.unit_stats[1].grains, kGrains);
  EXPECT_GT(d1.blocks_served() + d2.blocks_served(), 0u);
}

TEST(Loopback, BeginRunFailsForUnknownSpecWithoutCrashing) {
  WorkerDaemon daemon({0, "wd", 1.0});
  // MatMul without materialization has no remote spec.
  apps::MatMulWorkload workload(64, /*materialize=*/false);
  RemoteUnit unit(steady_options(daemon.port()));
  EXPECT_FALSE(unit.begin_run(workload));
}

// ---- Failure handling -----------------------------------------------------

// Waits until the daemon has served at least one block (i.e. the run is
// demonstrably in flight), so fault injection cannot race run completion.
template <typename Daemon>
void wait_for_first_block(const Daemon& daemon) {
  for (int i = 0; i < 2000 && daemon.blocks_served() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

TEST(Failure, FrozenDaemonTriggersHeartbeatDemotionWithZeroLostGrains) {
  constexpr std::size_t kGrains = 10'000;
  WorkerDaemon healthy({0, "wd-ok", 1.0});
  WorkerDaemon doomed({0, "wd-doomed", 1.0});

  std::vector<std::unique_ptr<rt::ExecUnit>> units;
  units.push_back(std::make_unique<rt::LocalExecUnit>(
      rt::LocalExecUnit::Options{"local0", 1.0}));
  units.push_back(std::make_unique<RemoteUnit>(steady_options(healthy.port())));
  auto doomed_unit =
      std::make_unique<RemoteUnit>(fast_options(doomed.port()));
  RemoteUnit* doomed_ptr = doomed_unit.get();
  units.push_back(std::move(doomed_unit));

  rt::ThreadEngineOptions eopts;
  rt::ThreadEngine engine(eopts, std::move(units));
  apps::SyntheticWorkload workload(
      apps::SyntheticWorkload::Config{kGrains, 1e6, 64.0, 16.0, 2.0, 0.97,
                                      0.5, 0.5, 6'000});

  // Freeze the doomed daemon mid-run: its connections stay open but stop
  // answering, so only the heartbeat timeout can detect the hang.
  std::thread killer([&] {
    wait_for_first_block(doomed);
    doomed.freeze();
  });
  core::PlbHecScheduler plb;
  const rt::RunResult r = engine.run(workload, plb);
  killer.join();
  doomed.unfreeze();

  ASSERT_TRUE(r.ok) << r.error;
  // Zero lost grains: every grain executed exactly once despite the hang.
  EXPECT_EQ(workload.executed_grains(), kGrains);
  EXPECT_TRUE(doomed_ptr->demoted());
  EXPECT_GT(doomed_ptr->heartbeats_missed(), 0u);
  EXPECT_TRUE(r.unit_stats[2].failed);
  doomed.stop();
}

TEST(Failure, KilledDaemonIsDemotedAfterBoundedReconnects) {
  constexpr std::size_t kGrains = 10'000;
  WorkerDaemon healthy({0, "wd-ok", 1.0});
  auto doomed = std::make_unique<WorkerDaemon>(
      WorkerDaemonOptions{0, "wd-doomed", 1.0});

  std::vector<std::unique_ptr<rt::ExecUnit>> units;
  units.push_back(std::make_unique<rt::LocalExecUnit>(
      rt::LocalExecUnit::Options{"local0", 1.0}));
  units.push_back(std::make_unique<RemoteUnit>(steady_options(healthy.port())));
  auto doomed_unit =
      std::make_unique<RemoteUnit>(fast_options(doomed->port()));
  RemoteUnit* doomed_ptr = doomed_unit.get();
  units.push_back(std::move(doomed_unit));

  rt::ThreadEngineOptions eopts;
  rt::ThreadEngine engine(eopts, std::move(units));
  apps::SyntheticWorkload workload(
      apps::SyntheticWorkload::Config{kGrains, 1e6, 64.0, 16.0, 2.0, 0.97,
                                      0.5, 0.5, 6'000});

  std::thread killer([&] {
    wait_for_first_block(*doomed);
    doomed->kill();
  });
  core::PlbHecScheduler plb;
  const rt::RunResult r = engine.run(workload, plb);
  killer.join();

  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(workload.executed_grains(), kGrains);
  EXPECT_TRUE(doomed_ptr->demoted());
  EXPECT_GT(doomed_ptr->reconnects_attempted(), 0u);
}

TEST(Failure, ReconnectAfterDaemonRestartResumesService) {
  WorkerDaemon first({0, "wd", 1.0});
  const std::uint16_t port = first.port();

  apps::MatMulWorkload workload(64, /*materialize=*/true);
  RemoteUnitOptions ro = steady_options(port);
  ro.max_reconnect_attempts = 10;
  ro.backoff_initial_seconds = 0.02;
  RemoteUnit unit(ro);
  ASSERT_TRUE(unit.begin_run(workload));
  rt::BlockTiming timing;
  ASSERT_TRUE(unit.execute(workload, 0, 16, timing));

  // Kill and immediately restart a daemon on the same port; the next
  // block must survive through the reconnect path.
  first.kill();
  first.stop();
  WorkerDaemon second({port, "wd2", 1.0});
  ASSERT_TRUE(unit.execute(workload, 16, 64, timing));
  unit.end_run();
  EXPECT_FALSE(unit.demoted());
  EXPECT_GT(unit.reconnects_attempted(), 0u);

  apps::MatMulWorkload local(64, /*materialize=*/true);
  local.execute_cpu(0, 64);
  EXPECT_EQ(workload.result(), local.result());
}

// ---- Pipelined data plane -------------------------------------------------

RemoteUnitOptions pipelined_options(std::uint16_t port, std::size_t depth) {
  RemoteUnitOptions ro = steady_options(port);
  ro.pipeline_depth = depth;
  return ro;
}

TEST(Pipeline, ChunkedMatMulIsBitIdenticalToLocal) {
  constexpr std::size_t kN = 128;
  WorkerDaemon daemon({0, "wd", 1.0});

  apps::MatMulWorkload via_wire(kN, /*materialize=*/true);
  RemoteUnit unit(pipelined_options(daemon.port(), 4));
  ASSERT_TRUE(unit.begin_run(via_wire));
  rt::BlockTiming timing;
  ASSERT_TRUE(unit.execute(via_wire, 0, kN, timing));
  unit.end_run();

  // One engine block of 128 rows became a window of sequence-numbered
  // chunks (depth 4 -> up to 8), and the result rows are bit-identical
  // to a local run: matmul rows don't depend on block decomposition.
  EXPECT_GT(unit.wire_stats().chunks_pipelined, 1u);
  EXPECT_GT(unit.wire_stats().inflight_peak, 1u);
  EXPECT_GT(timing.wall_seconds, 0.0);
  EXPECT_LE(timing.wall_seconds,
            timing.transfer_seconds + timing.exec_seconds + 1.0);
  apps::MatMulWorkload local(kN, /*materialize=*/true);
  local.execute_cpu(0, kN);
  EXPECT_EQ(via_wire.result(), local.result());
  EXPECT_EQ(daemon.blocks_served(), unit.wire_stats().chunks_pipelined);
}

// The fake-server tests drive a RemoteUnit against a scripted peer, so
// frame ordering is fully controlled. By default they share this setup: 24
// grains in chunks of at least 4 with a window deeper than the chunk count
// puts all 6 chunks in flight before the first reply.
struct FakeServerRig {
  std::unique_ptr<TcpListener> listener = TcpListener::bind_loopback(0);
  apps::SyntheticWorkload::Config cfg;
  std::size_t window = 6;  ///< AssignBlock frames read before the reply
  /// Type of the first data-connection frame after the reply (kShutdown
  /// once the unit's run ends with nothing more to send).
  std::optional<MsgType> after_reply;
  FakeServerRig() {
    cfg.grains = 24;
    cfg.spin_iters_per_grain = 50;
    cfg.result_payload_per_grain = 8;
  }
  [[nodiscard]] RemoteUnitOptions unit_options() const {
    RemoteUnitOptions ro = steady_options(listener->port());
    ro.pipeline_depth = 8;
    ro.max_reconnect_attempts = 1;
    ro.backoff_initial_seconds = 0.01;
    return ro;
  }
  // Accepts the data connection, answers Hello and BeginRun, reads the
  // whole chunk window, then hands the assignments (and a result
  // factory) to `reply`. Returns false on any protocol surprise.
  template <typename Reply>
  [[nodiscard]] bool serve_one_window(Reply reply) {
    std::unique_ptr<TcpConn> conn = listener->accept(5.0);
    if (conn == nullptr) return false;
    Frame f;
    if (read_frame(*conn, &f, 5.0) != FrameStatus::kOk ||
        f.type != MsgType::kHello)
      return false;
    HelloAckMsg hello_ack;
    hello_ack.daemon = "fake";
    if (!write_frame(*conn, MsgType::kHelloAck, hello_ack.encode()))
      return false;
    if (read_frame(*conn, &f, 5.0) != FrameStatus::kOk ||
        f.type != MsgType::kBeginRun)
      return false;
    const auto begin = BeginRunMsg::decode(f.payload);
    if (!begin) return false;
    std::string error;
    std::unique_ptr<rt::Workload> workload =
        apps::make_workload(begin->spec, &error);
    if (workload == nullptr) return false;
    RunAckMsg run_ack;
    run_ack.run_id = begin->run_id;
    run_ack.ok = true;
    if (!write_frame(*conn, MsgType::kRunAck, run_ack.encode())) return false;

    std::vector<AssignBlockMsg> assigns;
    while (assigns.size() < window) {
      if (read_frame(*conn, &f, 5.0) != FrameStatus::kOk) return false;
      if (f.type != MsgType::kAssignBlock) return false;
      const auto assign = AssignBlockMsg::decode(f.payload);
      if (!assign) return false;
      assigns.push_back(*assign);
    }
    const auto make_result = [&](const AssignBlockMsg& a) {
      BlockResultMsg r;
      r.run_id = a.run_id;
      r.sequence = a.sequence;
      r.begin = a.begin;
      r.end = a.end;
      r.exec_seconds = 0.001;
      r.ok = true;
      r.results.resize(workload->result_bytes(
          static_cast<std::size_t>(a.begin), static_cast<std::size_t>(a.end)));
      workload->write_results(static_cast<std::size_t>(a.begin),
                              static_cast<std::size_t>(a.end),
                              r.results.data());
      return r;
    };
    if (!reply(*conn, assigns, make_result)) return false;
    // Drain until the coordinator's Shutdown (or the link drops).
    if (read_frame(*conn, &f, 1.0) == FrameStatus::kOk) after_reply = f.type;
    return true;
  }
};

TEST(Pipeline, OutOfOrderAndBatchedResultsAreAccepted) {
  FakeServerRig rig;
  ASSERT_NE(rig.listener, nullptr);
  apps::SyntheticWorkload coordinator_side(rig.cfg);

  std::atomic<bool> served{false};
  std::thread server([&] {
    served = rig.serve_one_window([&](TcpConn& conn, const auto& assigns,
                                      const auto& make_result) {
      // Two singles out of order, then one batch holding the remaining
      // four in reverse: every interleaving must land by sequence.
      if (!write_frame(conn, MsgType::kBlockResult,
                       make_result(assigns[5]).encode()))
        return false;
      if (!write_frame(conn, MsgType::kBlockResult,
                       make_result(assigns[2]).encode()))
        return false;
      BlockResultBatchMsg batch;
      for (int i : {4, 3, 1, 0}) batch.results.push_back(make_result(assigns[i]));
      return write_frame(conn, MsgType::kBlockResultBatch, batch.encode());
    });
  });

  RemoteUnit unit(rig.unit_options());
  ASSERT_TRUE(unit.begin_run(coordinator_side));
  rt::BlockTiming timing;
  ASSERT_TRUE(unit.execute(coordinator_side, 0, rig.cfg.grains, timing));
  unit.end_run();
  server.join();
  EXPECT_TRUE(served.load());

  EXPECT_EQ(coordinator_side.executed_grains(), rig.cfg.grains);
  EXPECT_EQ(unit.wire_stats().chunks_pipelined, 6u);
  EXPECT_EQ(unit.wire_stats().batched_results, 4u);
  EXPECT_EQ(unit.wire_stats().inflight_peak, 6u);
  apps::SyntheticWorkload local(rig.cfg);
  local.execute_cpu(0, rig.cfg.grains);
  EXPECT_NEAR(coordinator_side.checksum(), local.checksum(), 1e-9);
}

TEST(Pipeline, FailedChunkLeavesWorkloadUntouched) {
  FakeServerRig rig;
  ASSERT_NE(rig.listener, nullptr);
  apps::SyntheticWorkload coordinator_side(rig.cfg);

  std::atomic<bool> served{false};
  std::thread server([&] {
    served = rig.serve_one_window([&](TcpConn& conn, const auto& assigns,
                                      const auto& make_result) {
      // One good chunk, then a refusal: the already-buffered good chunk
      // must never reach the workload.
      if (!write_frame(conn, MsgType::kBlockResult,
                       make_result(assigns[0]).encode()))
        return false;
      BlockResultMsg bad = make_result(assigns[1]);
      bad.ok = false;
      bad.error = "injected refusal";
      bad.results.clear();
      return write_frame(conn, MsgType::kBlockResult, bad.encode());
    });
  });

  RemoteUnit unit(rig.unit_options());
  ASSERT_TRUE(unit.begin_run(coordinator_side));
  rt::BlockTiming timing;
  EXPECT_FALSE(unit.execute(coordinator_side, 0, rig.cfg.grains, timing));
  EXPECT_TRUE(unit.demoted());
  unit.end_run();
  server.join();
  EXPECT_TRUE(served.load());

  // All-or-nothing: a failed window applied nothing, so the engine can
  // requeue the whole range on another unit without double execution.
  EXPECT_EQ(coordinator_side.executed_grains(), 0u);
  EXPECT_EQ(coordinator_side.checksum(), 0.0);
}

// A block that fits one chunk (any block at depth 1, or one shorter than
// two minimum chunks at a deeper window) is the synchronous round-trip:
// one AssignBlock frame for the whole range, no pipeline statistics, and
// a timing split that charges the wall minus the daemon's kernel time to
// transfer.
TEST(Pipeline, OneChunkBlockIsASingleSynchronousRoundTrip) {
  struct Case {
    std::size_t depth;
    std::size_t grains;
  };
  for (const Case c : {Case{4, 7}, Case{1, 64}}) {
    SCOPED_TRACE(c.depth);
    FakeServerRig rig;
    ASSERT_NE(rig.listener, nullptr);
    rig.cfg.grains = 64;
    rig.window = 1;
    apps::SyntheticWorkload coordinator_side(rig.cfg);

    // The reply waits well past the reported kernel time, so the wall
    // (at least the wait) must exceed exec, and exec must be the
    // daemon's figure, not the wall.
    constexpr double kKernelSeconds = 0.005;
    constexpr auto kReplyDelay = std::chrono::milliseconds(20);
    std::vector<AssignBlockMsg> seen;
    std::atomic<bool> served{false};
    std::thread server([&] {
      served = rig.serve_one_window([&](TcpConn& conn, const auto& assigns,
                                        const auto& make_result) {
        seen = assigns;
        BlockResultMsg r = make_result(assigns[0]);
        r.exec_seconds = kKernelSeconds;
        std::this_thread::sleep_for(kReplyDelay);
        return write_frame(conn, MsgType::kBlockResult, r.encode());
      });
    });

    RemoteUnitOptions ro = rig.unit_options();
    ro.pipeline_depth = c.depth;
    RemoteUnit unit(ro);
    ASSERT_TRUE(unit.begin_run(coordinator_side));
    rt::BlockTiming timing;
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(unit.execute(coordinator_side, 0, c.grains, timing));
    const double outer = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    unit.end_run();
    server.join();
    ASSERT_TRUE(served.load());

    // Exactly one AssignBlock for the whole range; the next frame on the
    // data connection is the run's Shutdown.
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0].run_id, 1u);
    EXPECT_EQ(seen[0].sequence, 1u);
    EXPECT_EQ(seen[0].begin, 0u);
    EXPECT_EQ(seen[0].end, c.grains);
    EXPECT_EQ(rig.after_reply, MsgType::kShutdown);
    EXPECT_EQ(unit.wire_stats().chunks_pipelined, 0u);
    EXPECT_EQ(unit.wire_stats().inflight_peak, 0u);
    EXPECT_EQ(unit.wire_stats().overlap_floor_seconds, 0.0);

    EXPECT_EQ(timing.wall_seconds, 0.0);
    EXPECT_EQ(timing.exec_seconds, kKernelSeconds);
    const double wall = timing.transfer_seconds + timing.exec_seconds;
    EXPECT_GE(wall, std::chrono::duration<double>(kReplyDelay).count());
    EXPECT_LE(wall, outer);
    EXPECT_EQ(coordinator_side.executed_grains(), c.grains);
  }
}

TEST(Pipeline, FrozenDaemonMidPipelineLosesZeroGrains) {
  constexpr std::size_t kGrains = 10'000;
  WorkerDaemon healthy({0, "wd-ok", 1.0});
  WorkerDaemon doomed({0, "wd-doomed", 1.0});

  std::vector<std::unique_ptr<rt::ExecUnit>> units;
  units.push_back(std::make_unique<rt::LocalExecUnit>(
      rt::LocalExecUnit::Options{"local0", 1.0}));
  units.push_back(
      std::make_unique<RemoteUnit>(pipelined_options(healthy.port(), 4)));
  RemoteUnitOptions doomed_ro = fast_options(doomed.port());
  doomed_ro.pipeline_depth = 4;
  auto doomed_unit = std::make_unique<RemoteUnit>(doomed_ro);
  RemoteUnit* doomed_ptr = doomed_unit.get();
  units.push_back(std::move(doomed_unit));

  rt::ThreadEngineOptions eopts;
  rt::ThreadEngine engine(eopts, std::move(units));
  apps::SyntheticWorkload workload(
      apps::SyntheticWorkload::Config{kGrains, 1e6, 64.0, 16.0, 2.0, 0.97,
                                      0.5, 0.5, 6'000});

  // Freeze the doomed daemon with a chunk window in flight: the
  // heartbeat demotion must cancel the stalled window and the engine
  // requeue the whole block — the buffered partial results must not
  // leak into the workload.
  std::thread killer([&] {
    wait_for_first_block(doomed);
    doomed.freeze();
  });
  core::PlbHecScheduler plb;
  const rt::RunResult r = engine.run(workload, plb);
  killer.join();
  doomed.unfreeze();

  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(workload.executed_grains(), kGrains);
  EXPECT_TRUE(doomed_ptr->demoted());
  EXPECT_TRUE(r.unit_stats[2].failed);
  doomed.stop();
}

TEST(Pipeline, EngineRunPublishesWireAndOverlapCounters) {
  constexpr std::size_t kGrains = 4'000;
  WorkerDaemon d1({0, "wd1", 1.0});
  WorkerDaemon d2({0, "wd2", 1.0});

  RemoteUnitOptions ro1 = pipelined_options(d1.port(), 4);
  ro1.name = "wd1";
  RemoteUnitOptions ro2 = pipelined_options(d2.port(), 4);
  ro2.name = "wd2";
  auto u1 = std::make_unique<RemoteUnit>(ro1);
  auto u2 = std::make_unique<RemoteUnit>(ro2);
  RemoteUnit* p1 = u1.get();
  RemoteUnit* p2 = u2.get();
  std::vector<std::unique_ptr<rt::ExecUnit>> units;
  units.push_back(std::move(u1));
  units.push_back(std::move(u2));

  rt::ThreadEngineOptions eopts;
  rt::ThreadEngine engine(eopts, std::move(units));
  apps::SyntheticWorkload::Config cfg;
  cfg.grains = kGrains;
  cfg.spin_iters_per_grain = 400;
  cfg.result_payload_per_grain = 64;
  apps::SyntheticWorkload workload(cfg);
  core::PlbHecScheduler plb;
  const rt::RunResult r = engine.run(workload, plb);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(workload.executed_grains(), kGrains);

  // Execution-phase blocks are large enough to chunk, so the pipeline
  // must have engaged on at least one unit...
  EXPECT_GT(p1->wire_stats().chunks_pipelined +
                p2->wire_stats().chunks_pipelined,
            0u);
  for (const RemoteUnit* p : {p1, p2}) {
    EXPECT_GE(p->overlap_fraction(), 0.0);
    EXPECT_LE(p->overlap_fraction(), 1.0);
  }
  // ...and the unit wire stats, the transport's measured overlap among
  // them, publish into one registry for run summaries.
  obs::CounterRegistry reg;
  p1->publish_counters(reg);
  p2->publish_counters(reg);
  EXPECT_EQ(reg.value("net.wd1.chunks_pipelined"),
            p1->wire_stats().chunks_pipelined);
  EXPECT_EQ(reg.value("net.wd2.chunks_pipelined"),
            p2->wire_stats().chunks_pipelined);
  EXPECT_EQ(reg.value("net.wd1.overlap_milli"),
            static_cast<std::uint64_t>(p1->overlap_fraction() * 1000.0 + 0.5));
  EXPECT_EQ(reg.value("net.wd2.overlap_milli"),
            static_cast<std::uint64_t>(p2->overlap_fraction() * 1000.0 + 0.5));
}

TEST(Pipeline, PartialSendRecvSurvivesTinySocketBuffers) {
  auto listener = TcpListener::bind_loopback(0);
  ASSERT_NE(listener, nullptr);
  auto client = TcpConn::connect("127.0.0.1", listener->port(), 2.0);
  auto server = listener->accept(2.0);
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);

  // Shrink both kernel buffers so a 256 KiB frame takes many partial
  // sendmsg()/recv() rounds — the scatter-gather writer must resume
  // mid-iovec and across iovec boundaries. (Loopback with tiny windows
  // stalls on delayed ACKs, so keep the volume modest.)
  const int small = 8192;
  ASSERT_EQ(setsockopt(client->native_handle(), SOL_SOCKET, SO_SNDBUF,
                       &small, sizeof(small)),
            0);
  ASSERT_EQ(setsockopt(server->native_handle(), SOL_SOCKET, SO_RCVBUF,
                       &small, sizeof(small)),
            0);

  std::vector<std::uint8_t> payload(256u << 10);
  std::mt19937_64 rng(0xcafe);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng());

  std::thread writer([&] {
    FrameScratch scratch;
    for (int i = 0; i < 2; ++i)
      EXPECT_TRUE(
          write_frame(*client, MsgType::kBlockResult, payload, scratch));
  });
  for (int i = 0; i < 2; ++i) {
    Frame f;
    ASSERT_EQ(read_frame(*server, &f, 30.0), FrameStatus::kOk) << i;
    EXPECT_EQ(f.type, MsgType::kBlockResult);
    EXPECT_EQ(f.payload, payload) << i;
  }
  writer.join();
}

TEST(Pipeline, BatchCodecRoundTripPreservesEveryEntry) {
  BlockResultBatchMsg batch;
  for (std::uint64_t i = 0; i < 5; ++i) {
    BlockResultMsg r;
    r.run_id = 7;
    r.sequence = 100 + i;
    r.begin = i * 10;
    r.end = i * 10 + 10;
    r.exec_seconds = 0.25 * static_cast<double>(i);
    r.ok = (i % 2) == 0;
    r.error = r.ok ? "" : "boom";
    r.results.assign(static_cast<std::size_t>(i * 3),
                     static_cast<std::uint8_t>(i));
    batch.results.push_back(std::move(r));
  }
  const auto decoded = BlockResultBatchMsg::decode(batch.encode());
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->results.size(), batch.results.size());
  for (std::size_t i = 0; i < batch.results.size(); ++i) {
    const BlockResultMsg& a = batch.results[i];
    const BlockResultMsg& b = decoded->results[i];
    EXPECT_EQ(a.run_id, b.run_id);
    EXPECT_EQ(a.sequence, b.sequence);
    EXPECT_EQ(a.begin, b.begin);
    EXPECT_EQ(a.end, b.end);
    EXPECT_EQ(a.exec_seconds, b.exec_seconds);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.results, b.results);
  }
}

TEST(Pipeline, BatchCodecRejectsMalformedPayloads) {
  // Empty batches never ship (the sender always has >= 1 result).
  BlockResultBatchMsg empty;
  EXPECT_FALSE(BlockResultBatchMsg::decode(empty.encode()).has_value());

  // A count beyond the cap is rejected before any allocation.
  std::vector<std::uint8_t> oversized;
  common::ByteWriter w{oversized};
  w.var_u64(kMaxBatchedResults + 1);
  EXPECT_FALSE(BlockResultBatchMsg::decode(oversized).has_value());

  BlockResultBatchMsg batch;
  for (std::uint64_t i = 0; i < 2; ++i) {
    BlockResultMsg r;
    r.sequence = i;
    r.ok = true;
    r.results = {1, 2, 3};
    batch.results.push_back(std::move(r));
  }
  const std::vector<std::uint8_t> good = batch.encode();
  ASSERT_TRUE(BlockResultBatchMsg::decode(good).has_value());
  // Truncation at every byte boundary fails (count and per-entry length
  // prefixes leave no prefix that parses as a smaller valid batch)...
  for (std::size_t len = 0; len < good.size(); ++len)
    EXPECT_FALSE(BlockResultBatchMsg::decode(
                     std::span<const std::uint8_t>(good.data(), len))
                     .has_value())
        << "accepted truncation at " << len;
  // ...and so does trailing garbage.
  std::vector<std::uint8_t> padded = good;
  padded.push_back(0x00);
  EXPECT_FALSE(BlockResultBatchMsg::decode(padded).has_value());
}

// ---- Epoll reactor --------------------------------------------------------

TEST(Reactor, FourConcurrentCoordinatorsGetBitIdenticalResults) {
  constexpr std::size_t kN = 96;
  constexpr int kCoordinators = 4;
  WorkerDaemon daemon({0, "wd", 1.0});

  apps::MatMulWorkload local(kN, /*materialize=*/true);
  local.execute_cpu(0, kN);

  // Four coordinators hammer the same daemon at once; one reactor thread
  // multiplexes all of their connections and every result must still be
  // bit-identical to local execution.
  std::vector<std::unique_ptr<apps::MatMulWorkload>> workloads;
  for (int i = 0; i < kCoordinators; ++i)
    workloads.push_back(
        std::make_unique<apps::MatMulWorkload>(kN, /*materialize=*/true));
  std::atomic<int> failures{0};
  // Rendezvous after begin_run so all four data connections are open at
  // the same instant — otherwise a fast coordinator can come and go
  // before the last one dials and the peak never reaches four.
  std::latch all_connected(kCoordinators);
  std::vector<std::thread> coordinators;
  for (int i = 0; i < kCoordinators; ++i) {
    coordinators.emplace_back([&, i] {
      RemoteUnit unit(steady_options(daemon.port()));
      rt::BlockTiming timing;
      const bool connected = unit.begin_run(*workloads[i]);
      all_connected.arrive_and_wait();
      if (!connected || !unit.execute(*workloads[i], 0, kN / 2, timing) ||
          !unit.execute(*workloads[i], kN / 2, kN, timing))
        failures.fetch_add(1);
      unit.end_run();
    });
  }
  for (std::thread& t : coordinators) t.join();
  EXPECT_EQ(failures.load(), 0);
  for (const auto& w : workloads) EXPECT_EQ(w->result(), local.result());

  EXPECT_EQ(daemon.blocks_served(), 2u * kCoordinators);
  EXPECT_GE(daemon.connections_accepted(),
            static_cast<std::uint64_t>(kCoordinators));
  EXPECT_GE(daemon.peak_connections(),
            static_cast<std::uint64_t>(kCoordinators));
  EXPECT_GT(daemon.reactor_wakeups(), 0u);
  EXPECT_GT(daemon.frames_received(), 0u);
}

TEST(Reactor, ConcurrentCoordinatorsLoseZeroGrainsWhenDaemonIsKilled) {
  constexpr std::size_t kGrains = 6'000;
  constexpr int kCoordinators = 4;
  WorkerDaemon doomed({0, "wd-doomed", 1.0});

  // Four independent engines each pair a local unit with a remote unit
  // on the shared doomed daemon. Killing it mid-run cuts every
  // multiplexed connection at once; each engine must finish all of its
  // grains on the surviving local unit.
  struct Rig {
    std::unique_ptr<rt::ThreadEngine> engine;
    std::unique_ptr<apps::SyntheticWorkload> workload;
    RemoteUnit* remote = nullptr;
    rt::RunResult result;
  };
  std::vector<Rig> rigs(kCoordinators);
  for (Rig& rig : rigs) {
    std::vector<std::unique_ptr<rt::ExecUnit>> units;
    units.push_back(std::make_unique<rt::LocalExecUnit>(
        rt::LocalExecUnit::Options{"local0", 1.0}));
    auto remote = std::make_unique<RemoteUnit>(fast_options(doomed.port()));
    rig.remote = remote.get();
    units.push_back(std::move(remote));
    rig.engine = std::make_unique<rt::ThreadEngine>(rt::ThreadEngineOptions{},
                                                    std::move(units));
    rig.workload = std::make_unique<apps::SyntheticWorkload>(
        apps::SyntheticWorkload::Config{kGrains, 1e6, 64.0, 16.0, 2.0, 0.97,
                                        0.5, 0.5, 3'000});
  }

  std::thread killer([&] {
    wait_for_first_block(doomed);
    doomed.kill();
  });
  std::vector<std::thread> runners;
  for (Rig& rig : rigs) {
    runners.emplace_back([&rig] {
      core::PlbHecScheduler plb;
      rig.result = rig.engine->run(*rig.workload, plb);
    });
  }
  for (std::thread& t : runners) t.join();
  killer.join();

  for (Rig& rig : rigs) {
    ASSERT_TRUE(rig.result.ok) << rig.result.error;
    // Zero lost grains per coordinator despite the shared daemon dying.
    EXPECT_EQ(rig.workload->executed_grains(), kGrains);
  }
  EXPECT_GT(doomed.connections_accepted(), 0u);
}

// ---- Engine detach contract -----------------------------------------------

TEST(Detach, MidRunDetachReassignsRemainingWork) {
  rt::ThreadEngineOptions opts;
  opts.slowdowns = {1.0, 1.0, 1.0};
  rt::ThreadEngine engine(opts);
  apps::SyntheticWorkload workload(
      apps::SyntheticWorkload::Config{5000, 1e6, 64.0, 16.0, 2.0, 0.97, 0.5,
                                      0.5, 2000});
  std::thread detacher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    engine.detach_unit(2);
  });
  core::PlbHecScheduler plb;
  const rt::RunResult r = engine.run(workload, plb);
  detacher.join();

  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(workload.executed_grains(), 5000u);
  EXPECT_TRUE(engine.is_detached(2));
  EXPECT_EQ(engine.active_unit_count(), 2u);
}

TEST(Detach, DetachedUnitStaysOutAcrossRuns) {
  rt::ThreadEngineOptions opts;
  opts.slowdowns = {1.0, 1.0};
  rt::ThreadEngine engine(opts);
  engine.detach_unit(1);
  EXPECT_EQ(engine.active_unit_count(), 1u);

  apps::SyntheticWorkload workload(
      apps::SyntheticWorkload::Config{500, 1e6, 64.0, 16.0, 2.0, 0.97, 0.5,
                                      0.5, 200});
  core::PlbHecScheduler plb;
  const rt::RunResult r = engine.run(workload, plb);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.unit_stats[1].grains, 0u);
  EXPECT_EQ(workload.executed_grains(), 500u);
}

TEST(Detach, AllUnitsDetachedFailsTheRunCleanly) {
  rt::ThreadEngineOptions opts;
  opts.slowdowns = {1.0};
  rt::ThreadEngine engine(opts);
  engine.detach_unit(0);
  apps::SyntheticWorkload workload(
      apps::SyntheticWorkload::Config{100, 1e6, 64.0, 16.0, 2.0, 0.97, 0.5,
                                      0.5, 100});
  core::PlbHecScheduler plb;
  const rt::RunResult r = engine.run(workload, plb);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
}

using DetachDeathTest = ::testing::Test;

TEST(DetachDeathTest, OutOfRangeUnitAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  rt::ThreadEngineOptions opts;
  opts.slowdowns = {1.0};
  rt::ThreadEngine engine(opts);
  EXPECT_DEATH(engine.detach_unit(7), "precondition");
}

TEST(DetachDeathTest, DoubleDetachAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  rt::ThreadEngineOptions opts;
  opts.slowdowns = {1.0, 1.0};
  rt::ThreadEngine engine(opts);
  engine.detach_unit(0);
  EXPECT_DEATH(engine.detach_unit(0), "precondition");
}

}  // namespace
}  // namespace plbhec::net
