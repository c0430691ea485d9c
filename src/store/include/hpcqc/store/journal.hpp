#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hpcqc/sched/journal.hpp"
#include "hpcqc/sched/qrm.hpp"
#include "hpcqc/store/wal.hpp"

namespace hpcqc::store {

/// WAL record types.
enum class RecordType : std::uint8_t {
  kJobEvent = 1,    ///< one sched::JobEvent (per-device lifecycle)
  kFleetEvent = 2,  ///< one sched::FleetEvent (placement / migration)
  kSnapshot = 3,    ///< full durable image (see snapshot.hpp)
};

/// A decoded job event: the flat, owning mirror of sched::JobEvent (whose
/// pointers are only valid inside the sink call). This is what recovery
/// replays.
struct JobEventRecord {
  sched::JobEvent::Kind kind{};
  int device = -1;
  int id = 0;
  Seconds at = 0.0;
  bool has_job = false;
  sched::QuantumJob job;
  bool has_record = false;
  sched::QuantumJobRecord record;
  std::string reason;
  std::uint64_t count = 0;
  sched::JobPriority priority{};
  double bucket_tokens = 0.0;
  Seconds bucket_refill = 0.0;
  std::string project;
};

/// A decoded fleet event.
struct FleetEventRecord {
  sched::FleetEvent::Kind kind{};
  int id = 0;
  Seconds at = 0.0;
  std::string name;
  int device = -1;
  int local_id = -1;
  int width = 0;
  sched::JobPriority priority{};
  sched::QuantumJobState refused_state{};
  std::string reason;
  int from = -1;
};

// Payload codecs (also reused by snapshots). Parametric payloads are
// serialized structurally (ops + binding) and the concrete circuit is
// re-bound at decode; plain circuits travel as qasm-lite text.
void encode_job(class ByteWriter& out, const sched::QuantumJob& job);
sched::QuantumJob decode_job(class ByteReader& in);
void encode_record(class ByteWriter& out, const sched::QuantumJobRecord& rec);
sched::QuantumJobRecord decode_record(class ByteReader& in);

std::vector<std::uint8_t> encode_job_event(const sched::JobEvent& event);
JobEventRecord decode_job_event(const std::vector<std::uint8_t>& payload);
std::vector<std::uint8_t> encode_fleet_event(const sched::FleetEvent& event);
FleetEventRecord decode_fleet_event(const std::vector<std::uint8_t>& payload);

/// The JournalSink that writes every Qrm/Fleet lifecycle event into a Wal —
/// the write-ahead half of the durability story. Attach via
/// Qrm::set_journal / Fleet::set_journal.
class Journal final : public sched::JournalSink {
public:
  explicit Journal(Wal& wal) : wal_(&wal) {}

  void on_event(const sched::JobEvent& event) override {
    wal_->append(static_cast<std::uint8_t>(RecordType::kJobEvent),
                 encode_job_event(event));
  }
  void on_fleet_event(const sched::FleetEvent& event) override {
    wal_->append(static_cast<std::uint8_t>(RecordType::kFleetEvent),
                 encode_fleet_event(event));
  }

  Wal& wal() { return *wal_; }

private:
  Wal* wal_;
};

}  // namespace hpcqc::store
