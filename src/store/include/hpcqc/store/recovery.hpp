#pragma once

#include <cstdint>

#include "hpcqc/obs/metrics.hpp"
#include "hpcqc/obs/trace.hpp"
#include "hpcqc/sched/durable.hpp"
#include "hpcqc/store/wal.hpp"

namespace hpcqc::store {

/// What one recovery pass did.
struct RecoveryStats {
  std::uint64_t snapshot_lsn = 0;    ///< LSN of the base snapshot (0 = none)
  std::size_t replayed = 0;          ///< journal events applied on top
  std::size_t requeued = 0;          ///< in-flight attempts requeued at head
  std::size_t dropped_bytes = 0;     ///< torn/corrupt tail bytes discarded
  std::size_t scrubbed = 0;          ///< records whose admission outcome was
                                     ///< lost in the torn tail (cancelled)
  std::size_t backfilled_traces = 0; ///< DLQ/pending trace contexts patched
  bool torn_tail = false;
  bool had_snapshot = false;
  Seconds recovered_now = 0.0;  ///< simulated clock of the recovered image
};

/// Rebuilds a durable image from a WAL: load the last snapshot (if any),
/// replay every intact journal record after it, scrub records whose
/// admission outcome was torn off the tail. restore() then cuts the torn
/// tail off the log (Wal::trim_torn_tail), so what the recovered control
/// plane journals stays visible to the next recovery. Exactly-once
/// contract: a job that is terminal in the recovered image is never
/// re-executed; in-flight attempts are requeued at the head (set_offline
/// semantics), so at most the unacknowledged suffix of work is repeated.
class Recovery {
public:
  explicit Recovery(WalBackend& backend,
                    obs::MetricsRegistry* metrics = nullptr,
                    obs::Tracer* tracer = nullptr);

  /// Rebuilds a standalone-QRM image (journal written via Qrm::set_journal
  /// with the default device tag).
  sched::QrmDurableState recover_qrm();

  /// Rebuilds a fleet image; `min_devices` pads the per-device vector so it
  /// can be restored into a fleet of that size even when the tail devices
  /// never journaled an event.
  sched::FleetDurableState recover_fleet(std::size_t min_devices = 0);

  /// recover_* + torn-tail trim + restore_durable + metrics
  /// (store.recovery.*) + a "recovery" span with snapshot-load /
  /// journal-replay children. Attach the tracer to the target *before*
  /// calling restore so recovered jobs get fresh spans.
  RecoveryStats restore(sched::Qrm& qrm);
  RecoveryStats restore(sched::Fleet& fleet);

  /// Stats of the most recent recover_*/restore call.
  const RecoveryStats& stats() const { return stats_; }

private:
  /// Scans the log: resets stats_ to what the scan dropped and keeps the
  /// torn-tail position for restore's trim.
  std::vector<WalRecord> scan();
  void finish(const sched::RestoreSummary& summary);

  WalBackend* backend_;
  WalScan tail_;  ///< the last scan, without its records
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  RecoveryStats stats_;
};

}  // namespace hpcqc::store
