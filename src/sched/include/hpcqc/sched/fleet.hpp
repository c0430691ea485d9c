#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hpcqc/common/sim_clock.hpp"
#include "hpcqc/mqss/service.hpp"
#include "hpcqc/qdmi/model_device.hpp"
#include "hpcqc/sched/qrm.hpp"

namespace hpcqc::sched {

struct FleetDurableState;
struct RestoreSummary;

/// The fleet-level scheduler the paper's scaling argument (20 -> 54 -> 150
/// qubits) points at: N simulated QPUs — each with its own DeviceModel,
/// calibration epoch, drift state, health mask, QDMI view, compile service
/// (per-device structure cache), and QRM — behind one submission front door.
///
/// On top of the per-device QRMs the fleet adds:
///  - admission control that refuses a job only when *no* device can serve
///    it (an outage becomes a capacity event, not an availability cliff);
///  - a device-selection policy scoring candidates by predicted fidelity
///    (calibration state x healthy fraction) against estimated queue wait;
///  - cross-device migration: when a device goes offline or its mask
///    strands queued work, pending and retry-backlog jobs are re-placed on
///    healthy peers (re-compiled there through the peer's structure cache)
///    or dead-lettered when no peer fits, with every hop accounted in job
///    records, spans, and fleet metrics;
///  - calibration-slot coordination: at most `max_concurrent_calibrations`
///    devices run controller-driven calibration at once, so the fleet never
///    drains itself into a maintenance window.
///
/// Determinism: devices advance in index order over fixed coordination
/// slices, all randomness flows from the one seeded Rng, and every decision
/// (scores, tie-breaks, migration order) is a pure function of simulated
/// state — campaigns replay bit-identically.
class Fleet {
public:
  struct Config {
    /// Per-device QRM configuration (validated by each Qrm at add_device).
    Qrm::Config qrm;
    /// At most this many devices in controller-driven calibration at once.
    /// Clamped to fleet size - 1 once a second device exists, so the fleet
    /// always keeps at least one device serving.
    std::size_t max_concurrent_calibrations = 1;
    /// Placement score = fidelity_weight x predicted fidelity
    ///                 - wait_weight x estimated wait (hours).
    double fidelity_weight = 1.0;
    double wait_weight = 1.0;
    /// Devices advance in lockstep slices of this length; migration and
    /// calibration-slot decisions happen at slice boundaries.
    Seconds coordination_step = minutes(15.0);
  };

  /// Fleet-side view of one submission. The per-device lifecycle lives in
  /// the owning QRM's record; this tracks which device owns the job now and
  /// where it has been.
  struct FleetJobRecord {
    int id = 0;
    std::string name;
    int device = -1;    ///< current owner; -1 = refused at fleet admission
    int local_id = -1;  ///< id on the owning QRM
    Seconds submit_time = 0.0;
    int width = 0;  ///< distinct touched qubits (placement eligibility)
    JobPriority priority = JobPriority::kNormal;
    std::size_t migrations = 0;
    /// Terminal state + reason when no device could serve (device == -1).
    QuantumJobState refused_state = QuantumJobState::kQueued;
    std::string refusal_reason;
    /// Placement history, oldest first: (device, local id) per hop,
    /// including the current placement.
    std::vector<std::pair<int, int>> hops;
  };

  /// Throws PermanentError on degenerate config (no calibration slots,
  /// negative score weights, non-positive coordination step).
  Fleet(Config config, Rng& rng, EventLog* log = nullptr,
        obs::MetricsRegistry* metrics = nullptr);
  ~Fleet();

  /// Adds one QPU (with its own QDMI view, compile service, and QRM) and
  /// returns its device index. Empty name -> "qpu<index>". The per-device
  /// QRM validates config.qrm here (PermanentError on degenerate values).
  int add_device(std::unique_ptr<device::DeviceModel> model,
                 std::string name = "");

  std::size_t num_devices() const { return slots_.size(); }
  const std::string& device_name(int device) const;
  Qrm& qrm(int device);
  const Qrm& qrm(int device) const;
  device::DeviceModel& device_model(int device);
  mqss::QpuService& service(int device);

  Seconds now() const { return now_; }
  std::size_t devices_online() const;
  std::size_t devices_calibrating() const;

  /// Places the job on the best eligible device (highest placement score,
  /// lowest index on ties) and returns a fleet job id. When no device can
  /// serve, the fleet record is terminal (kRejectedTooWide when width is
  /// the only obstacle, kRejectedOverload otherwise) — refusals are
  /// auditable, never silent. Plain pre-compiled circuits are only eligible
  /// for devices whose register matches; parametric jobs re-compile at
  /// dispatch and fit any device their width allows.
  int submit(QuantumJob job);

  /// Advances every device in index order over coordination slices,
  /// rebalancing at each slice boundary.
  void advance_to(Seconds t);

  /// Runs until every device is idle with empty queues and backlogs.
  void drain();

  /// Re-places pending work: every queued/retry job on an offline device is
  /// migrated to the best healthy peer or dead-lettered when none fits;
  /// queued jobs a health mask strands (width no longer fits the device's
  /// largest healthy component) move to peers they still fit. Called
  /// automatically at slice boundaries.
  void rebalance();

  /// Takes one device out of service (jobs migrate at the next rebalance —
  /// call rebalance() directly for immediate re-placement).
  void set_device_offline(int device, const std::string& reason);
  void set_device_online(int device);

  const FleetJobRecord& record(int id) const;
  /// Current lifecycle state, resolved through the owning device's QRM
  /// (never kMigrated: the fleet record follows the job to its new owner).
  QuantumJobState state(int id) const;

  /// Fleet-wide conservation audit over every fleet submission, each
  /// counted once at its current owner.
  JobConservation conservation() const;

  /// Wires the tracer into every device QRM and compile service; each
  /// fleet submission also gets a fleet-level root span that migration
  /// hops re-attach to.
  void set_tracer(obs::Tracer* tracer);

  /// Attaches (or replaces) the shared write-ahead journal sink: fleet
  /// placement/migration events plus every existing and future device
  /// QRM's lifecycle events (tagged by index) flow into it. The sink must
  /// outlive the fleet; nullptr detaches everywhere.
  void set_journal(JournalSink* sink);
  JournalSink* journal() const { return journal_; }

  /// Captures the fleet-wide durable image (fleet records + one
  /// QrmDurableState per device, in index order).
  FleetDurableState capture_durable() const;

  /// Reconstructs a recovered image onto a fresh fleet that already has the
  /// same device roster (StateError when device counts disagree or jobs
  /// were already submitted). Returns the summed per-device summary.
  RestoreSummary restore_durable(const FleetDurableState& state);

  obs::MetricsRegistry& metrics_registry() { return *registry_; }
  const obs::MetricsRegistry& metrics_registry() const { return *registry_; }

private:
  struct Slot {
    std::string name;
    std::unique_ptr<device::DeviceModel> model;
    std::unique_ptr<SimClock> clock;
    std::unique_ptr<qdmi::ModelBackedDevice> qdmi;
    std::unique_ptr<mqss::QpuService> service;
    std::unique_ptr<Qrm> qrm;
    std::map<int, int> local_to_fleet;
    obs::Counter* m_migrations_in = nullptr;
    obs::Counter* m_migrations_out = nullptr;
  };

  Slot& slot(int device);
  const Slot& slot(int device) const;
  /// Higher is better; negative infinity when ineligible.
  double placement_score(const Slot& s, const circuit::Circuit& circuit) const;
  bool register_fits(const Slot& s, const QuantumJob& job) const;
  /// Best peer (by score) that would accept a migrated job of this shape;
  /// -1 when none. Migrations bypass rate control, so only offline,
  /// too-wide, and queue-full probes disqualify a peer.
  int best_migration_peer(int from, const QuantumJob& job, int width) const;
  void migrate_job(int from, int local_id, int to, const std::string& reason);
  void note_gauges();
  void close_finished_spans();
  std::size_t effective_calibration_slots() const;
  /// Stamps the fleet clock and forwards to the sink (no-op without one).
  void emit(FleetEvent event);

  Config config_;
  Rng* rng_;
  EventLog* log_;
  obs::Tracer* tracer_ = nullptr;
  JournalSink* journal_ = nullptr;
  Seconds now_ = 0.0;
  int next_id_ = 1;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::map<int, FleetJobRecord> records_;
  std::map<int, obs::SpanHandle> open_spans_;  ///< fleet root span per job

  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_ = nullptr;
  obs::Counter* m_submitted_ = nullptr;
  obs::Counter* m_rejected_ = nullptr;
  obs::Counter* m_migrations_ = nullptr;
  obs::Counter* m_migration_dead_letters_ = nullptr;
  obs::Gauge* m_devices_online_ = nullptr;
  obs::Gauge* m_devices_calibrating_ = nullptr;
};

}  // namespace hpcqc::sched
