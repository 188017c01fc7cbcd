#include "plbhec/net/wire.hpp"

#include <sys/uio.h>

#include <chrono>
#include <cstring>

#include "plbhec/common/codec.hpp"

namespace plbhec::net {
namespace {

using common::ByteReader;
using common::ByteWriter;
using common::fnv1a64;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start, Clock::time_point stop) {
  return std::chrono::duration<double>(stop - start).count();
}

constexpr char kMagic[8] = {'P', 'L', 'B', 'H', 'E', 'C', 'N', 'T'};
constexpr std::size_t kMaxStringBytes = 4096;

}  // namespace

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "hello";
    case MsgType::kHelloAck: return "hello_ack";
    case MsgType::kBeginRun: return "begin_run";
    case MsgType::kRunAck: return "run_ack";
    case MsgType::kAssignBlock: return "assign_block";
    case MsgType::kBlockResult: return "block_result";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kHeartbeatAck: return "heartbeat_ack";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kBlockResultBatch: return "block_result_batch";
  }
  return "unknown";
}

const char* to_string(FrameStatus status) {
  switch (status) {
    case FrameStatus::kOk: return "ok";
    case FrameStatus::kIoError: return "io_error";
    case FrameStatus::kBadMagic: return "bad_magic";
    case FrameStatus::kVersionSkew: return "version_skew";
    case FrameStatus::kBadType: return "bad_type";
    case FrameStatus::kTooLarge: return "too_large";
    case FrameStatus::kBadChecksum: return "bad_checksum";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_frame(MsgType type,
                                       std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + payload.size() + kFrameTrailerBytes);
  ByteWriter w{out};
  w.bytes(kMagic, sizeof(kMagic));
  w.u32(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(payload.size());
  w.bytes(payload.data(), payload.size());
  w.u64(fnv1a64(payload));
  return out;
}

FrameStatus decode_frame(std::span<const std::uint8_t> bytes, Frame* out,
                         std::size_t* consumed) {
  if (bytes.size() < kFrameHeaderBytes) return FrameStatus::kIoError;
  ByteReader r{bytes};
  char magic[8] = {};
  r.take(magic, sizeof(magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    return FrameStatus::kBadMagic;
  const std::uint32_t version = r.u32();
  if (version != kProtocolVersion) return FrameStatus::kVersionSkew;
  const std::uint8_t type = r.u8();
  if (type == 0 || type > kMaxMsgType) return FrameStatus::kBadType;
  const std::uint64_t payload_len = r.u64();
  if (payload_len > kMaxPayloadBytes) return FrameStatus::kTooLarge;
  if (r.remaining() < payload_len + kFrameTrailerBytes)
    return FrameStatus::kIoError;  // truncated

  const std::span<const std::uint8_t> payload =
      bytes.subspan(r.pos, static_cast<std::size_t>(payload_len));
  r.pos += static_cast<std::size_t>(payload_len);
  const std::uint64_t checksum = r.u64();
  if (checksum != fnv1a64(payload)) return FrameStatus::kBadChecksum;

  out->type = static_cast<MsgType>(type);
  out->payload.assign(payload.begin(), payload.end());
  if (consumed != nullptr) *consumed = r.pos;
  return FrameStatus::kOk;
}

bool write_frame(TcpConn& conn, MsgType type,
                 std::span<const std::uint8_t> payload,
                 FrameScratch& scratch) {
  scratch.head.clear();
  scratch.tail.clear();
  ByteWriter head{scratch.head};
  head.bytes(kMagic, sizeof(kMagic));
  head.u32(kProtocolVersion);
  head.u8(static_cast<std::uint8_t>(type));
  head.u64(payload.size());
  ByteWriter tail{scratch.tail};
  tail.u64(fnv1a64(payload));

  iovec iov[3];
  iov[0] = {scratch.head.data(), scratch.head.size()};
  iov[1] = {const_cast<std::uint8_t*>(payload.data()), payload.size()};
  iov[2] = {scratch.tail.data(), scratch.tail.size()};
  return conn.send_vectors(iov, 3);
}

bool write_frame(TcpConn& conn, MsgType type,
                 std::span<const std::uint8_t> payload) {
  FrameScratch scratch;
  return write_frame(conn, type, payload, scratch);
}

FrameStatus read_frame(TcpConn& conn, Frame* out, double timeout_seconds,
                       FrameReadTiming* timing) {
  const Clock::time_point t0 = Clock::now();
  std::uint8_t header[kFrameHeaderBytes];
  if (!conn.recv_all(header, sizeof(header), timeout_seconds))
    return FrameStatus::kIoError;
  const Clock::time_point t_header = Clock::now();

  ByteReader r{std::span<const std::uint8_t>(header, sizeof(header))};
  char magic[8] = {};
  r.take(magic, sizeof(magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    return FrameStatus::kBadMagic;
  const std::uint32_t version = r.u32();
  if (version != kProtocolVersion) return FrameStatus::kVersionSkew;
  const std::uint8_t type = r.u8();
  if (type == 0 || type > kMaxMsgType) return FrameStatus::kBadType;
  const std::uint64_t payload_len = r.u64();
  if (payload_len > kMaxPayloadBytes) return FrameStatus::kTooLarge;

  std::vector<std::uint8_t> payload(static_cast<std::size_t>(payload_len));
  if (payload_len > 0 &&
      !conn.recv_all(payload.data(), payload.size(), timeout_seconds))
    return FrameStatus::kIoError;
  std::uint64_t checksum = 0;
  if (!conn.recv_all(&checksum, sizeof(checksum), timeout_seconds))
    return FrameStatus::kIoError;
  if (checksum != fnv1a64(payload)) return FrameStatus::kBadChecksum;

  if (timing != nullptr) {
    const Clock::time_point t_done = Clock::now();
    timing->wait_seconds = seconds_since(t0, t_header);
    timing->drain_seconds = seconds_since(t_header, t_done);
  }
  out->type = static_cast<MsgType>(type);
  out->payload = std::move(payload);
  return FrameStatus::kOk;
}

// --- Message bodies -------------------------------------------------------

std::vector<std::uint8_t> HelloMsg::encode() const {
  std::vector<std::uint8_t> out;
  ByteWriter w{out};
  w.u32(protocol);
  w.str(node);
  return out;
}

std::optional<HelloMsg> HelloMsg::decode(
    std::span<const std::uint8_t> payload) {
  ByteReader r{payload};
  HelloMsg m;
  m.protocol = r.u32();
  r.str(m.node, kMaxStringBytes);
  if (!r.ok || r.remaining() != 0) return std::nullopt;
  return m;
}

std::vector<std::uint8_t> HelloAckMsg::encode() const {
  std::vector<std::uint8_t> out;
  ByteWriter w{out};
  w.u32(protocol);
  w.str(daemon);
  w.u32(concurrency);
  return out;
}

std::optional<HelloAckMsg> HelloAckMsg::decode(
    std::span<const std::uint8_t> payload) {
  ByteReader r{payload};
  HelloAckMsg m;
  m.protocol = r.u32();
  r.str(m.daemon, kMaxStringBytes);
  m.concurrency = r.u32();
  if (!r.ok || r.remaining() != 0) return std::nullopt;
  return m;
}

std::vector<std::uint8_t> BeginRunMsg::encode() const {
  std::vector<std::uint8_t> out;
  ByteWriter w{out};
  w.u64(run_id);
  w.str(spec);
  return out;
}

std::optional<BeginRunMsg> BeginRunMsg::decode(
    std::span<const std::uint8_t> payload) {
  ByteReader r{payload};
  BeginRunMsg m;
  m.run_id = r.u64();
  r.str(m.spec, kMaxStringBytes);
  if (!r.ok || r.remaining() != 0) return std::nullopt;
  return m;
}

std::vector<std::uint8_t> RunAckMsg::encode() const {
  std::vector<std::uint8_t> out;
  ByteWriter w{out};
  w.u64(run_id);
  w.u8(ok ? 1 : 0);
  w.str(error);
  return out;
}

std::optional<RunAckMsg> RunAckMsg::decode(
    std::span<const std::uint8_t> payload) {
  ByteReader r{payload};
  RunAckMsg m;
  m.run_id = r.u64();
  m.ok = r.u8() != 0;
  r.str(m.error, kMaxStringBytes);
  if (!r.ok || r.remaining() != 0) return std::nullopt;
  return m;
}

std::vector<std::uint8_t> AssignBlockMsg::encode() const {
  std::vector<std::uint8_t> out;
  encode_into(out);
  return out;
}

void AssignBlockMsg::encode_into(std::vector<std::uint8_t>& out) const {
  out.clear();
  ByteWriter w{out};
  w.u64(run_id);
  w.u64(sequence);
  w.var_u64(begin);
  w.var_u64(end);
}

std::optional<AssignBlockMsg> AssignBlockMsg::decode(
    std::span<const std::uint8_t> payload) {
  ByteReader r{payload};
  AssignBlockMsg m;
  m.run_id = r.u64();
  m.sequence = r.u64();
  m.begin = r.var_u64();
  m.end = r.var_u64();
  if (!r.ok || r.remaining() != 0 || m.begin > m.end) return std::nullopt;
  return m;
}

std::vector<std::uint8_t> BlockResultMsg::encode() const {
  std::vector<std::uint8_t> out;
  encode_into(out);
  return out;
}

void BlockResultMsg::encode_into(std::vector<std::uint8_t>& out) const {
  out.clear();
  out.reserve(48 + error.size() + results.size());
  ByteWriter w{out};
  w.u64(run_id);
  w.u64(sequence);
  w.var_u64(begin);
  w.var_u64(end);
  w.f64(exec_seconds);
  w.u8(ok ? 1 : 0);
  w.str(error);
  w.u64(results.size());
  w.bytes(results.data(), results.size());
}

std::optional<BlockResultMsg> BlockResultMsg::decode(
    std::span<const std::uint8_t> payload) {
  ByteReader r{payload};
  BlockResultMsg m;
  m.run_id = r.u64();
  m.sequence = r.u64();
  m.begin = r.var_u64();
  m.end = r.var_u64();
  m.exec_seconds = r.f64();
  m.ok = r.u8() != 0;
  r.str(m.error, kMaxStringBytes);
  const std::uint64_t result_len = r.u64();
  if (!r.ok || result_len > kMaxPayloadBytes || r.remaining() < result_len)
    return std::nullopt;
  m.results.assign(payload.begin() + static_cast<std::ptrdiff_t>(r.pos),
                   payload.begin() + static_cast<std::ptrdiff_t>(
                                         r.pos + static_cast<std::size_t>(
                                                     result_len)));
  r.pos += static_cast<std::size_t>(result_len);
  if (r.remaining() != 0 || m.begin > m.end) return std::nullopt;
  return m;
}

std::vector<std::uint8_t> BlockResultBatchMsg::encode() const {
  std::vector<std::uint8_t> out;
  encode_into(out);
  return out;
}

void BlockResultBatchMsg::encode_into(std::vector<std::uint8_t>& out) const {
  out.clear();
  ByteWriter w{out};
  w.var_u64(results.size());
  std::vector<std::uint8_t> entry;  // capacity reused across entries
  for (const BlockResultMsg& result : results) {
    result.encode_into(entry);
    w.u64(entry.size());
    w.bytes(entry.data(), entry.size());
  }
}

std::optional<BlockResultBatchMsg> BlockResultBatchMsg::decode(
    std::span<const std::uint8_t> payload) {
  ByteReader r{payload};
  const std::uint64_t count = r.var_u64();
  if (!r.ok || count == 0 || count > kMaxBatchedResults) return std::nullopt;
  BlockResultBatchMsg m;
  m.results.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t len = r.u64();
    if (!r.ok || len > kMaxPayloadBytes || r.remaining() < len)
      return std::nullopt;
    std::optional<BlockResultMsg> entry = BlockResultMsg::decode(
        payload.subspan(r.pos, static_cast<std::size_t>(len)));
    if (!entry) return std::nullopt;
    r.pos += static_cast<std::size_t>(len);
    m.results.push_back(std::move(*entry));
  }
  if (r.remaining() != 0) return std::nullopt;
  return m;
}

std::vector<std::uint8_t> HeartbeatMsg::encode() const {
  std::vector<std::uint8_t> out;
  ByteWriter w{out};
  w.u64(sequence);
  return out;
}

std::optional<HeartbeatMsg> HeartbeatMsg::decode(
    std::span<const std::uint8_t> payload) {
  ByteReader r{payload};
  HeartbeatMsg m;
  m.sequence = r.u64();
  if (!r.ok || r.remaining() != 0) return std::nullopt;
  return m;
}

std::vector<std::uint8_t> HeartbeatAckMsg::encode() const {
  std::vector<std::uint8_t> out;
  ByteWriter w{out};
  w.u64(sequence);
  return out;
}

std::optional<HeartbeatAckMsg> HeartbeatAckMsg::decode(
    std::span<const std::uint8_t> payload) {
  ByteReader r{payload};
  HeartbeatAckMsg m;
  m.sequence = r.u64();
  if (!r.ok || r.remaining() != 0) return std::nullopt;
  return m;
}

}  // namespace plbhec::net
