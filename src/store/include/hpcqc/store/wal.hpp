#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hpcqc/obs/metrics.hpp"

namespace hpcqc::store {

/// IEEE CRC-32 (reflected, polynomial 0xEDB88320), table-driven. `seed`
/// chains partial computations; the canonical test vector "123456789"
/// yields 0xCBF43926.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size,
                    std::uint32_t seed = 0);

/// One decoded journal record.
struct WalRecord {
  std::uint64_t lsn = 0;  ///< log sequence number, strictly increasing
  std::uint8_t type = 0;  ///< RecordType (see journal.hpp)
  std::vector<std::uint8_t> payload;
  std::uint64_t segment = 0;  ///< id of the segment holding the record
};

/// Storage behind a Wal: an ordered set of append-only segments. Exactly one
/// segment is open for appends at a time; scan/recovery reads them all in id
/// order. Two implementations: a deterministic in-memory backend (tests,
/// crash simulation) and a file backend.
class WalBackend {
public:
  virtual ~WalBackend() = default;
  /// Segment ids, ascending.
  virtual std::vector<std::uint64_t> segments() const = 0;
  virtual std::vector<std::uint8_t> read_segment(std::uint64_t id) const = 0;
  /// Creates (or truncates) segment `id` and makes it the append target.
  virtual void open_segment(std::uint64_t id) = 0;
  virtual void append(const std::uint8_t* data, std::size_t size) = 0;
  virtual void remove_segment(std::uint64_t id) = 0;
  /// Shortens segment `id` to its first `size` bytes (no-op when it is not
  /// longer). The cut is one step: a crash during it leaves the old length
  /// or the new one, and never touches the bytes before `size`.
  virtual void truncate_segment(std::uint64_t id, std::size_t size) = 0;
};

/// Deterministic in-memory backend with crash hooks: tests simulate a
/// process crash by truncating the byte stream at an arbitrary offset, which
/// produces exactly the torn tail a real crash leaves behind.
class MemoryWalBackend final : public WalBackend {
public:
  std::vector<std::uint64_t> segments() const override;
  std::vector<std::uint8_t> read_segment(std::uint64_t id) const override;
  void open_segment(std::uint64_t id) override;
  void append(const std::uint8_t* data, std::size_t size) override;
  void remove_segment(std::uint64_t id) override;
  void truncate_segment(std::uint64_t id, std::size_t size) override;

  /// Total bytes across all segments (in id order).
  std::size_t total_bytes() const;
  /// Crash hook: keep only the first `bytes` bytes of the concatenated
  /// segment stream (id order), dropping everything after — including whole
  /// later segments. Simulates a crash with a torn final frame.
  void truncate_total(std::size_t bytes);
  void clear();

private:
  std::map<std::uint64_t, std::vector<std::uint8_t>> store_;
  std::uint64_t current_ = 0;
  bool has_current_ = false;
};

/// File-backed segments (`wal-<id>.log` under one directory). Appends are
/// flushed per record; scan tolerates a torn tail exactly like the memory
/// backend.
class FileWalBackend final : public WalBackend {
public:
  explicit FileWalBackend(std::string directory);

  std::vector<std::uint64_t> segments() const override;
  std::vector<std::uint8_t> read_segment(std::uint64_t id) const override;
  void open_segment(std::uint64_t id) override;
  void append(const std::uint8_t* data, std::size_t size) override;
  void remove_segment(std::uint64_t id) override;
  /// One ftruncate of the segment file.
  void truncate_segment(std::uint64_t id, std::size_t size) override;

  const std::string& directory() const { return directory_; }

private:
  std::string segment_path(std::uint64_t id) const;

  std::string directory_;
  std::uint64_t current_ = 0;
  bool has_current_ = false;
};

/// Result of scanning a backend: every intact record in order, plus how many
/// trailing bytes were dropped as a torn/corrupt tail. The scan stops at the
/// first bad frame (bad length, bad CRC, truncated header) — everything
/// after it is untrusted, which is exactly the prefix-consistency a
/// write-ahead log guarantees.
struct WalScan {
  std::vector<WalRecord> records;
  std::size_t dropped_bytes = 0;
  bool torn = false;
  /// When torn: the segment holding the first bad frame, and how many of
  /// its bytes come before that frame.
  std::uint64_t torn_segment = 0;
  std::size_t torn_offset = 0;
};

/// Write-ahead log over a backend: CRC32-framed, length-prefixed records
/// with monotonically increasing LSNs and segment rotation.
///
/// Frame layout (little-endian):
///   [u32 body_len][u32 crc32(body)][body]
///   body = [u64 lsn][u8 type][payload...]
///
/// Construction scans the backend to continue the LSN sequence and always
/// opens a *fresh* segment — a reopened log never appends after a possibly
/// torn tail, so one crash cannot corrupt records written after recovery.
class Wal {
public:
  struct Config {
    /// Rotate once the open segment exceeds this many bytes.
    std::size_t segment_bytes = 256 * 1024;
  };

  explicit Wal(WalBackend& backend);
  Wal(WalBackend& backend, Config config,
      obs::MetricsRegistry* metrics = nullptr);

  /// Appends one record, returns its LSN.
  std::uint64_t append(std::uint8_t type,
                       const std::vector<std::uint8_t>& payload);

  /// Closes the open segment and starts a new one (checkpointing rotates
  /// *before* writing the snapshot record, so truncate_below can drop every
  /// fully-replayed segment).
  void rotate();

  /// Removes whole segments whose records all have lsn < `lsn`. The open
  /// segment is never removed.
  void truncate_below(std::uint64_t lsn);

  std::uint64_t next_lsn() const { return next_lsn_; }

  /// Decodes every intact record across all segments of `backend`.
  static WalScan scan(const WalBackend& backend);

  /// Cuts the torn tail `scan` found off `backend`. Until then the bad
  /// frame ends every later scan, hiding whatever is journaled after
  /// recovery. Empties every segment after the torn one, last first, then
  /// shortens the torn segment to its intact prefix; later segments are
  /// emptied rather than removed, so a Wal already appending to one keeps
  /// it. Only bytes at or after the bad frame go, so a crash mid-trim loses
  /// no intact record: the next scan finds the same bad frame or none.
  /// No-op when `scan` is not torn.
  static void trim_torn_tail(WalBackend& backend, const WalScan& scan);

private:
  struct SegmentMeta {
    std::uint64_t max_lsn = 0;
    bool any = false;
  };

  WalBackend* backend_;
  Config config_;
  std::uint64_t next_lsn_ = 1;
  std::uint64_t current_segment_ = 1;
  std::size_t open_bytes_ = 0;
  std::map<std::uint64_t, SegmentMeta> meta_;
  obs::Counter* m_appended_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
};

}  // namespace hpcqc::store
