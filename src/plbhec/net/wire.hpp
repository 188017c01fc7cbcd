#pragma once
/// \file wire.hpp
/// Length-prefixed binary framing and message codecs for the cluster
/// transport. Every frame is
///
///   +0   magic      8 bytes  "PLBHECNT"
///   +8   version    u32      kProtocolVersion
///   +12  type       u8       MsgType
///   +13  payload    u64      byte length of the payload that follows
///   +21  payload    ...      message body (common::ByteWriter encoding)
///   end  checksum   u64      FNV-1a 64 over the payload bytes
///
/// Decoding is defensive in the same style as svc/profile_store.cpp: a
/// reader rejects — without crashing and without partially applying —
/// truncated frames, wrong magic, version skew, unknown types, oversized
/// payloads and checksum mismatches. A bad frame poisons the connection
/// (framing cannot resynchronize mid-stream), so readers treat anything
/// but kOk as a dead link.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "plbhec/net/socket.hpp"

namespace plbhec::net {

/// v2 added kBlockResultBatch (coalesced small results from the daemon's
/// pipelined sender); v3 dropped the profile-sync pair, which renumbered
/// kShutdown and kBlockResultBatch. Framing rejects version skew before
/// it reads the type byte, so both ends must upgrade together —
/// acceptable for a research transport.
inline constexpr std::uint32_t kProtocolVersion = 3;
inline constexpr std::size_t kFrameHeaderBytes = 8 + 4 + 1 + 8;
inline constexpr std::size_t kFrameTrailerBytes = 8;
/// Caps a frame's payload; a block of 4096 matmul rows at n=4096 is
/// ~128 MiB, so 256 MiB leaves headroom without letting a corrupt length
/// field allocate the host away.
inline constexpr std::size_t kMaxPayloadBytes = 256u << 20;

enum class MsgType : std::uint8_t {
  kHello = 1,        ///< coordinator -> daemon: protocol handshake
  kHelloAck,         ///< daemon -> coordinator: handshake accepted
  kBeginRun,         ///< coordinator -> daemon: instantiate workload spec
  kRunAck,           ///< daemon -> coordinator: workload built (or not)
  kAssignBlock,      ///< coordinator -> daemon: execute grains [begin,end)
  kBlockResult,      ///< daemon -> coordinator: timings + result bytes
  kHeartbeat,        ///< coordinator -> daemon: liveness probe
  kHeartbeatAck,     ///< daemon -> coordinator: liveness echo
  kShutdown,         ///< either side: close the connection cleanly
  kBlockResultBatch, ///< daemon -> coordinator: several small results (v2)
};

/// Largest valid MsgType value (frame decoding rejects anything above).
inline constexpr std::uint8_t kMaxMsgType =
    static_cast<std::uint8_t>(MsgType::kBlockResultBatch);

[[nodiscard]] const char* to_string(MsgType type);

enum class FrameStatus : std::uint8_t {
  kOk,
  kIoError,      ///< short read / connection gone
  kBadMagic,     ///< stream does not start with the frame magic
  kVersionSkew,  ///< peer speaks an incompatible protocol version
  kBadType,      ///< unknown MsgType value
  kTooLarge,     ///< payload length exceeds kMaxPayloadBytes
  kBadChecksum,  ///< payload bytes do not match the trailing checksum
};

[[nodiscard]] const char* to_string(FrameStatus status);

struct Frame {
  MsgType type = MsgType::kShutdown;
  std::vector<std::uint8_t> payload;
};

/// Encodes a complete frame (header + payload + checksum) into a buffer.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    MsgType type, std::span<const std::uint8_t> payload);

/// Decodes one frame from `bytes`. On kOk, `*out` holds the frame and
/// `*consumed` the total frame size; on failure `out` is unchanged.
[[nodiscard]] FrameStatus decode_frame(std::span<const std::uint8_t> bytes,
                                       Frame* out, std::size_t* consumed);

/// Reusable per-connection serialization buffers for the framed-write
/// hot path: the 21-byte header and 8-byte checksum trailer are built in
/// place and shipped with the payload as three scatter-gather vectors,
/// so a steady stream of frames performs no per-frame allocation and
/// never copies the payload into a contiguous staging buffer.
struct FrameScratch {
  std::vector<std::uint8_t> head;
  std::vector<std::uint8_t> tail;
};

/// Writes one frame to the connection; false on I/O error. The scratch
/// overload is the zero-copy path (see FrameScratch); the plain overload
/// keeps a local scratch and is fine off the hot path.
[[nodiscard]] bool write_frame(TcpConn& conn, MsgType type,
                               std::span<const std::uint8_t> payload,
                               FrameScratch& scratch);
[[nodiscard]] bool write_frame(TcpConn& conn, MsgType type,
                               std::span<const std::uint8_t> payload);

/// Wall-clock decomposition of one read_frame call, separating "waiting
/// for the frame to exist" from "moving its bytes". `wait_seconds`
/// covers the 21-byte header (dominated by idle/queueing time),
/// `drain_seconds` the payload + trailer (dominated by the bandwidth
/// term of G_p). The pipelined coordinator samples drain time as its
/// per-chunk wire cost so queue waits never contaminate the G_p fit.
struct FrameReadTiming {
  double wait_seconds = 0.0;
  double drain_seconds = 0.0;
};

/// Reads one frame. `timeout_seconds` bounds the wait for the *header*;
/// once a header arrives the payload read gets the same bound again
/// (< 0 = wait forever). `timing`, when non-null, receives the
/// wait/drain split for this frame.
[[nodiscard]] FrameStatus read_frame(TcpConn& conn, Frame* out,
                                     double timeout_seconds = -1.0,
                                     FrameReadTiming* timing = nullptr);

// --- Message bodies -------------------------------------------------------
// Each struct encodes with encode() and decodes with the static decode(),
// which returns nullopt on any structural error (latched ByteReader).

struct HelloMsg {
  std::uint32_t protocol = kProtocolVersion;
  std::string node;  ///< coordinator's self-reported name
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static std::optional<HelloMsg> decode(
      std::span<const std::uint8_t> payload);
};

struct HelloAckMsg {
  std::uint32_t protocol = kProtocolVersion;
  std::string daemon;        ///< daemon's self-reported name
  std::uint32_t concurrency = 1;  ///< daemon-side kernel threads
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static std::optional<HelloAckMsg> decode(
      std::span<const std::uint8_t> payload);
};

struct BeginRunMsg {
  std::uint64_t run_id = 0;
  std::string spec;  ///< Workload::remote_spec() string
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static std::optional<BeginRunMsg> decode(
      std::span<const std::uint8_t> payload);
};

struct RunAckMsg {
  std::uint64_t run_id = 0;
  bool ok = false;
  std::string error;
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static std::optional<RunAckMsg> decode(
      std::span<const std::uint8_t> payload);
};

struct AssignBlockMsg {
  std::uint64_t run_id = 0;
  std::uint64_t sequence = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  /// Hot-path encode into a caller-owned reusable buffer (cleared first).
  void encode_into(std::vector<std::uint8_t>& out) const;
  [[nodiscard]] static std::optional<AssignBlockMsg> decode(
      std::span<const std::uint8_t> payload);
};

struct BlockResultMsg {
  std::uint64_t run_id = 0;
  std::uint64_t sequence = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  double exec_seconds = 0.0;  ///< kernel time on the daemon host
  bool ok = false;
  std::string error;
  std::vector<std::uint8_t> results;  ///< Workload::write_results bytes
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  /// Hot-path encode into a caller-owned reusable buffer (cleared first).
  void encode_into(std::vector<std::uint8_t>& out) const;
  [[nodiscard]] static std::optional<BlockResultMsg> decode(
      std::span<const std::uint8_t> payload);
};

/// Several small BlockResults coalesced into one kBlockResultBatch frame:
/// the daemon's sender drains its outbox into a batch so the fixed
/// header/checksum/syscall cost amortizes across pipelined chunk
/// results. Each entry is an individually encoded BlockResultMsg body,
/// length-prefixed so decode slices without resynchronizing.
struct BlockResultBatchMsg {
  std::vector<BlockResultMsg> results;
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  void encode_into(std::vector<std::uint8_t>& out) const;
  [[nodiscard]] static std::optional<BlockResultBatchMsg> decode(
      std::span<const std::uint8_t> payload);
};

/// Batch size cap (decode rejects larger counts before allocating).
inline constexpr std::size_t kMaxBatchedResults = 256;
/// Results at most this large are eligible for batching; anything bigger
/// ships alone so one slow frame never delays a window of small acks.
inline constexpr std::size_t kBatchableResultBytes = 4096;

struct HeartbeatMsg {
  std::uint64_t sequence = 0;
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static std::optional<HeartbeatMsg> decode(
      std::span<const std::uint8_t> payload);
};

struct HeartbeatAckMsg {
  std::uint64_t sequence = 0;
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static std::optional<HeartbeatAckMsg> decode(
      std::span<const std::uint8_t> payload);
};

}  // namespace plbhec::net
