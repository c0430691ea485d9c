#include "hpcqc/store/wal.hpp"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>

#include "hpcqc/common/error.hpp"
#include "hpcqc/store/codec.hpp"

namespace hpcqc::store {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

constexpr std::size_t kFrameHeader = 8;  ///< u32 len + u32 crc

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size,
                    std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i)
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------- memory --

std::vector<std::uint64_t> MemoryWalBackend::segments() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(store_.size());
  for (const auto& [id, bytes] : store_) ids.push_back(id);
  return ids;
}

std::vector<std::uint8_t> MemoryWalBackend::read_segment(
    std::uint64_t id) const {
  const auto it = store_.find(id);
  if (it == store_.end())
    throw NotFoundError("MemoryWalBackend: no segment " + std::to_string(id));
  return it->second;
}

void MemoryWalBackend::open_segment(std::uint64_t id) {
  store_[id].clear();
  current_ = id;
  has_current_ = true;
}

void MemoryWalBackend::append(const std::uint8_t* data, std::size_t size) {
  ensure_state(has_current_, "MemoryWalBackend: no open segment");
  auto& segment = store_[current_];
  segment.insert(segment.end(), data, data + size);
}

void MemoryWalBackend::remove_segment(std::uint64_t id) {
  store_.erase(id);
  if (has_current_ && id == current_) has_current_ = false;
}

void MemoryWalBackend::truncate_segment(std::uint64_t id, std::size_t size) {
  const auto it = store_.find(id);
  if (it == store_.end())
    throw NotFoundError("MemoryWalBackend: no segment " + std::to_string(id));
  if (it->second.size() > size) it->second.resize(size);
}

std::size_t MemoryWalBackend::total_bytes() const {
  std::size_t total = 0;
  for (const auto& [id, bytes] : store_) total += bytes.size();
  return total;
}

void MemoryWalBackend::truncate_total(std::size_t bytes) {
  std::size_t kept = 0;
  for (auto it = store_.begin(); it != store_.end();) {
    auto& segment = it->second;
    if (kept >= bytes) {
      it = store_.erase(it);
      continue;
    }
    const std::size_t room = bytes - kept;
    if (segment.size() > room) segment.resize(room);
    kept += segment.size();
    ++it;
  }
  has_current_ = false;
}

void MemoryWalBackend::clear() {
  store_.clear();
  has_current_ = false;
}

// ------------------------------------------------------------------ file --

FileWalBackend::FileWalBackend(std::string directory)
    : directory_(std::move(directory)) {
  std::filesystem::create_directories(directory_);
}

std::string FileWalBackend::segment_path(std::uint64_t id) const {
  std::string name = std::to_string(id);
  if (name.size() < 8) name.insert(0, 8 - name.size(), '0');
  return directory_ + "/wal-" + name + ".log";
}

std::vector<std::uint64_t> FileWalBackend::segments() const {
  std::vector<std::uint64_t> ids;
  for (const auto& entry : std::filesystem::directory_iterator(directory_)) {
    const std::string name = entry.path().filename().string();
    if (name.size() < 9 || name.rfind("wal-", 0) != 0) continue;
    if (name.substr(name.size() - 4) != ".log") continue;
    const std::string digits = name.substr(4, name.size() - 8);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
      continue;
    ids.push_back(std::stoull(digits));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<std::uint8_t> FileWalBackend::read_segment(
    std::uint64_t id) const {
  std::ifstream in(segment_path(id), std::ios::binary);
  if (!in)
    throw NotFoundError("FileWalBackend: no segment " + std::to_string(id));
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void FileWalBackend::open_segment(std::uint64_t id) {
  std::ofstream out(segment_path(id), std::ios::binary | std::ios::trunc);
  ensure_state(static_cast<bool>(out),
               "FileWalBackend: cannot open segment " + segment_path(id));
  current_ = id;
  has_current_ = true;
}

void FileWalBackend::append(const std::uint8_t* data, std::size_t size) {
  ensure_state(has_current_, "FileWalBackend: no open segment");
  const std::string path = segment_path(current_);
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) throw StateError("FileWalBackend: cannot append to " + path);
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(size));
  out.flush();
}

void FileWalBackend::remove_segment(std::uint64_t id) {
  std::filesystem::remove(segment_path(id));
  if (has_current_ && id == current_) has_current_ = false;
}

void FileWalBackend::truncate_segment(std::uint64_t id, std::size_t size) {
  const std::string path = segment_path(id);
  if (!std::filesystem::exists(path))
    throw NotFoundError("FileWalBackend: no segment " + std::to_string(id));
  if (std::filesystem::file_size(path) > size)
    std::filesystem::resize_file(path, size);
}

// ------------------------------------------------------------------- wal --

Wal::Wal(WalBackend& backend) : Wal(backend, Config{}) {}

Wal::Wal(WalBackend& backend, Config config, obs::MetricsRegistry* metrics)
    : backend_(&backend), config_(config) {
  expects(config_.segment_bytes > 0, "Wal: segment_bytes must be positive");
  if (metrics != nullptr) {
    m_appended_ = &metrics->counter("store.wal.appended");
    m_bytes_ = &metrics->counter("store.wal.bytes");
  }
  // Continue the LSN sequence past everything intact on disk, and index
  // which segment each record landed in so truncate_below can drop the
  // segments once replayed. Segments past a torn frame hold no trusted
  // record; they are indexed empty.
  std::uint64_t max_segment = 0;
  for (const std::uint64_t id : backend_->segments()) {
    max_segment = std::max(max_segment, id);
    meta_[id] = SegmentMeta{};
  }
  for (const WalRecord& record : scan(*backend_).records) {
    next_lsn_ = std::max(next_lsn_, record.lsn + 1);
    SegmentMeta& m = meta_[record.segment];
    m.max_lsn = std::max(m.max_lsn, record.lsn);
    m.any = true;
  }
  // Never append after a possibly-torn tail: always start a fresh segment.
  current_segment_ = max_segment + 1;
  backend_->open_segment(current_segment_);
  meta_[current_segment_] = SegmentMeta{};
  open_bytes_ = 0;
}

std::uint64_t Wal::append(std::uint8_t type,
                          const std::vector<std::uint8_t>& payload) {
  const std::uint64_t lsn = next_lsn_++;
  ByteWriter frame;
  frame.u32(static_cast<std::uint32_t>(9 + payload.size()));
  frame.u32(0);  // CRC placeholder, patched below
  frame.u64(lsn);
  frame.u8(type);
  for (const std::uint8_t b : payload) frame.u8(b);
  std::vector<std::uint8_t> bytes = frame.take();
  // CRC over the body (lsn + type + payload), patched into the header.
  const std::uint32_t crc =
      crc32(bytes.data() + kFrameHeader, bytes.size() - kFrameHeader);
  for (int i = 0; i < 4; ++i)
    bytes[4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  backend_->append(bytes.data(), bytes.size());

  SegmentMeta& m = meta_[current_segment_];
  m.max_lsn = std::max(m.max_lsn, lsn);
  m.any = true;
  open_bytes_ += bytes.size();
  if (m_appended_ != nullptr) m_appended_->inc();
  if (m_bytes_ != nullptr) m_bytes_->inc(static_cast<double>(bytes.size()));
  if (open_bytes_ > config_.segment_bytes) rotate();
  return lsn;
}

void Wal::rotate() {
  current_segment_ += 1;
  backend_->open_segment(current_segment_);
  meta_[current_segment_] = SegmentMeta{};
  open_bytes_ = 0;
}

void Wal::truncate_below(std::uint64_t lsn) {
  for (auto it = meta_.begin(); it != meta_.end();) {
    if (it->first == current_segment_) {
      ++it;
      continue;
    }
    const bool replayed = !it->second.any || it->second.max_lsn < lsn;
    if (replayed) {
      backend_->remove_segment(it->first);
      it = meta_.erase(it);
    } else {
      ++it;
    }
  }
}

WalScan Wal::scan(const WalBackend& backend) {
  WalScan result;
  bool stopped = false;
  std::size_t dropped = 0;
  for (const std::uint64_t id : backend.segments()) {
    const std::vector<std::uint8_t> bytes = backend.read_segment(id);
    if (stopped) {
      // Prefix consistency: once a bad frame is found, everything after it
      // — including whole later segments — is untrusted.
      dropped += bytes.size();
      continue;
    }
    std::size_t pos = 0;
    while (pos < bytes.size()) {
      if (bytes.size() - pos < kFrameHeader) {
        stopped = true;
        break;
      }
      ByteReader header(bytes.data() + pos, kFrameHeader);
      const std::uint32_t len = header.u32();
      const std::uint32_t crc = header.u32();
      if (len < 9 || bytes.size() - pos - kFrameHeader < len) {
        stopped = true;
        break;
      }
      if (crc32(bytes.data() + pos + kFrameHeader, len) != crc) {
        stopped = true;
        break;
      }
      ByteReader body(bytes.data() + pos + kFrameHeader, len);
      WalRecord record;
      record.lsn = body.u64();
      record.type = body.u8();
      record.payload.assign(bytes.data() + pos + kFrameHeader + 9,
                            bytes.data() + pos + kFrameHeader + len);
      record.segment = id;
      result.records.push_back(std::move(record));
      pos += kFrameHeader + len;
    }
    if (stopped) {
      dropped += bytes.size() - pos;
      result.torn_segment = id;
      result.torn_offset = pos;
    }
  }
  result.dropped_bytes = dropped;
  result.torn = stopped && dropped > 0;
  return result;
}

void Wal::trim_torn_tail(WalBackend& backend, const WalScan& scan) {
  if (!scan.torn) return;
  std::vector<std::uint64_t> ids = backend.segments();
  for (auto it = ids.rbegin(); it != ids.rend() && *it > scan.torn_segment;
       ++it)
    backend.truncate_segment(*it, 0);
  backend.truncate_segment(scan.torn_segment, scan.torn_offset);
}

}  // namespace hpcqc::store
