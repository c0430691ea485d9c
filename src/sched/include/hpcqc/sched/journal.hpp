#pragma once

#include <cstddef>
#include <string_view>

#include "hpcqc/common/units.hpp"

namespace hpcqc::sched {

struct QuantumJob;
struct QuantumJobRecord;
enum class JobPriority;
enum class QuantumJobState;

/// One journal-worthy lifecycle transition inside a Qrm. Events are emitted
/// synchronously at the moment the in-memory state changes (write-ahead of
/// any externally visible effect), carry pointers into the QRM's live state
/// that are valid only for the duration of the sink call, and reference the
/// QRM's simulated clock — never wall time — so a journal replays
/// bit-identically.
struct JobEvent {
  enum class Kind {
    kSubmitted,      ///< record created; payload attached (pre-admission)
    kAdmitted,       ///< entered the queue; carries class-bucket state
    kRejected,       ///< terminal refusal at submit (record has the state)
    kDispatched,     ///< queue -> running; an execution attempt started
    kCompleted,      ///< terminal success
    kRetrying,       ///< failed attempt; waiting out its backoff
    kRetryRequeued,  ///< backoff expired; re-entered at the queue head
    kInterrupted,    ///< outage aborted the attempt; requeued at head
    kCancelled,      ///< withdrawn before completion
    kShed,           ///< brownout victim
    kDeadLettered,   ///< retry budget exhausted (or forced); DLQ entry made
    kDlqDropped,     ///< DLQ overflow dropped its oldest record
    kDlqDrained,     ///< dead letters handed out for replay
    kMigratedOut,    ///< extracted for re-placement on a peer device
    kTenantDelta,    ///< tenant token-bucket state after an admission take
    kOffline,        ///< the QPU left service
    kOnline,         ///< the QPU returned to service
  };

  Kind kind{};
  int device = -1;  ///< fleet device tag (set by the QRM; -1 standalone)
  int id = 0;       ///< local job id (0 for kOffline/kOnline)
  Seconds at = 0.0;

  /// Live payload / record at the moment of the event; sinks must copy
  /// what they keep. `job` is set for kSubmitted, `record` whenever the
  /// event concerns a job.
  const QuantumJob* job = nullptr;
  const QuantumJobRecord* record = nullptr;

  std::string_view reason{};
  std::size_t count = 0;  ///< kDlqDrained: records handed out

  /// kAdmitted: per-priority class bucket after the take;
  /// kTenantDelta: the tenant's bucket after the take (with `project`).
  JobPriority priority{};
  double bucket_tokens = 0.0;
  Seconds bucket_refill = 0.0;
  std::string_view project{};
};

/// One fleet-level transition (placement or migration hop). The per-device
/// lifecycle is journaled by the owning QRM; these events carry only the
/// fleet's own record state.
struct FleetEvent {
  enum class Kind {
    kSubmitted,  ///< fleet record created (device == -1: refused fleet-wide)
    kMigrated,   ///< job hopped between devices
  };

  Kind kind{};
  int id = 0;  ///< fleet job id
  Seconds at = 0.0;
  std::string_view name{};
  int device = -1;    ///< owner after the event
  int local_id = -1;  ///< id on the owning QRM after the event
  int width = 0;
  JobPriority priority{};
  QuantumJobState refused_state{};
  std::string_view reason{};
  int from = -1;  ///< kMigrated: source device
};

/// Receiver of journal events (store::Journal encodes them into the WAL;
/// tests plug in recording fakes). A null sink is the disabled path — every
/// emission site guards on the pointer, so durability off costs one test.
class JournalSink {
public:
  virtual ~JournalSink() = default;
  virtual void on_event(const JobEvent& event) = 0;
  virtual void on_fleet_event(const FleetEvent& event) { (void)event; }
};

}  // namespace hpcqc::sched
