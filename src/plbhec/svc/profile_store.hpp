#pragma once
/// \file profile_store.hpp
/// Versioned, checksummed on-disk database of processing-unit profiles,
/// keyed by (application kind, device kind). The multi-tenant service
/// persists each completed job's per-device profiling samples and
/// warm-starts later jobs of the same kind from them, skipping most of
/// PLB-HeC's exponential probing schedule. A stored profile is its
/// samples: moments and the selected model are derived from them when an
/// entry is built (make_entry) or decoded.
///
/// File format (little-endian, native IEEE-754 doubles):
///
///   +0   magic      8 bytes  "PLBHECPS"
///   +8   version    u32      kFormatVersion
///   +12  payload    u64      byte length of the payload that follows
///   +20  payload    ...      u32 entry count, u64 write sequence, entries
///   end  checksum   u64      FNV-1a 64 over the payload bytes
///
/// Each entry: app kind and device kind (u32 length + bytes each), f64
/// total_grains, u64 updates, u64 stamp, then the exec and the transfer
/// samples (u32 count of at most kMaxSamplesPerCurve, then f64 x and f64
/// time each). Version 4 dropped the moment sums, the stored R^2 and the
/// selected models version 3 carried beside the samples; an older image
/// decodes as version skew and the service cold-starts.
///
/// A reader rejects — without crashing and without partially applying —
/// truncated files, wrong magic, version skew, checksum mismatches and
/// structurally corrupt payloads; the service then falls back to cold
/// probing. Entries are kept sorted by key so lookup and iteration order
/// are a pure function of the contents. (Staleness stamps record local
/// write order, so two stores given the same entries in different orders
/// hold the same profiles but encode different stamps.)

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "plbhec/fit/samples.hpp"
#include "plbhec/rt/profile_db.hpp"

namespace plbhec::svc {

/// Outcome of loading a store image; everything but kOk leaves the target
/// store empty (cold-start fallback).
enum class StoreLoadStatus : std::uint8_t {
  kOk,           ///< decoded successfully
  kMissing,      ///< file does not exist / is unreadable
  kTruncated,    ///< shorter than the header + payload it announces
  kBadMagic,     ///< not a profile-store file
  kVersionSkew,  ///< written by an incompatible format version
  kBadChecksum,  ///< payload bytes do not match the trailing checksum
  kCorrupt,      ///< checksum passed but the payload is structurally invalid
};

[[nodiscard]] const char* to_string(StoreLoadStatus status);

/// One persisted profile: the unit's samples (x relative to
/// `total_grains`) and the default-options selection over its exec
/// samples, under its (app, device) key.
struct ProfileEntry : rt::SampledProfile {
  std::string app_kind;     ///< workload identity, e.g. "matmul-4096"
  std::string device_kind;  ///< DeviceModel::description() of the unit
  std::uint64_t updates = 0;  ///< times this key has been refreshed
  /// Store write sequence at the last refresh of this key. The owning
  /// store's sequence() minus this is the entry's age — how many other
  /// profile writes landed since this one was current — which the
  /// warm-start validation gate uses to tighten acceptance with staleness.
  std::uint64_t stamp = 0;

  friend bool operator==(const ProfileEntry&, const ProfileEntry&) = default;
};

/// Builds a store entry from one job's per-unit observation sets: keeps
/// the most recent kMaxSamplesPerCurve samples of each curve and runs the
/// exec selection the warm-start gate reads.
[[nodiscard]] ProfileEntry make_entry(std::string app_kind,
                                      std::string device_kind,
                                      const fit::SampleSet& exec,
                                      const fit::SampleSet& transfer,
                                      double total_grains);

class ProfileStore {
 public:
  static constexpr std::uint32_t kFormatVersion = 4;
  /// Per-curve sample cap; bounds file size however often a key is
  /// refreshed. No writer exceeds it, so a longer curve in an image
  /// decodes as corrupt.
  static constexpr std::size_t kMaxSamplesPerCurve = 64;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  /// Monotonic write counter; put() stamps each entry with its value, so
  /// sequence() - entry.stamp is that entry's staleness age.
  [[nodiscard]] std::uint64_t sequence() const { return seq_; }
  [[nodiscard]] const std::vector<ProfileEntry>& entries() const {
    return entries_;
  }

  /// Entry for (app, device) or nullptr.
  [[nodiscard]] const ProfileEntry* find(std::string_view app_kind,
                                         std::string_view device_kind) const;

  /// Inserts or replaces the entry with the same key, preserving the
  /// superseded entry's update count and stamping the new entry with the
  /// advanced write sequence. Entries stay sorted by key.
  void put(ProfileEntry entry);

  /// Warm-start profile for (app, device); a default-constructed (unusable)
  /// profile when the key is absent.
  [[nodiscard]] rt::WarmProfile warm_profile(
      std::string_view app_kind, std::string_view device_kind) const;

  /// Serializes the store to the on-disk image described above.
  [[nodiscard]] std::vector<std::uint8_t> encode() const;

  /// Decodes an image into `out`, rebuilding each entry's sample sets by
  /// replay and re-running its selection, so a decoded entry equals the
  /// one make_entry() built. On any failure `out` is left empty.
  [[nodiscard]] static StoreLoadStatus decode(
      std::span<const std::uint8_t> bytes, ProfileStore& out);

  /// Atomically-ish writes the store image (temp file + rename).
  [[nodiscard]] bool save(const std::string& path) const;

  /// Loads `path` into `out`; kMissing when the file cannot be read.
  [[nodiscard]] static StoreLoadStatus load(const std::string& path,
                                            ProfileStore& out);

 private:
  std::vector<ProfileEntry> entries_;  ///< sorted by (app_kind, device_kind)
  std::uint64_t seq_ = 0;              ///< monotonic write counter
};

}  // namespace plbhec::svc
