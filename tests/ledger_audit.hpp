#pragma once

#include <gtest/gtest.h>

#include "hpcqc/sched/qrm.hpp"

namespace hpcqc::sched {

/// Independent audit of Qrm::conservation(), which reads a per-state ledger
/// kept by the QRM's transitions: walks every record the QRM has issued
/// (ids are dense from 1) and checks that the per-state counts agree.
inline void expect_ledger_matches_records(const Qrm& qrm) {
  const JobConservation ledger = qrm.conservation();
  JobConservation walk;
  walk.submitted = ledger.submitted;
  for (int id = 1; id <= static_cast<int>(ledger.submitted); ++id) {
    switch (qrm.record(id).state) {
      case QuantumJobState::kCompleted: walk.completed += 1; break;
      case QuantumJobState::kFailed: walk.failed += 1; break;
      case QuantumJobState::kCancelled: walk.cancelled += 1; break;
      case QuantumJobState::kRejectedOverload:
        walk.rejected_overload += 1;
        break;
      case QuantumJobState::kRejectedTooWide:
        walk.rejected_too_wide += 1;
        break;
      case QuantumJobState::kShed: walk.shed += 1; break;
      case QuantumJobState::kMigrated: walk.migrated += 1; break;
      case QuantumJobState::kQueued:
      case QuantumJobState::kRunning:
      case QuantumJobState::kRetrying:
        walk.in_flight += 1;
        break;
    }
  }
  EXPECT_EQ(ledger.completed, walk.completed);
  EXPECT_EQ(ledger.failed, walk.failed);
  EXPECT_EQ(ledger.cancelled, walk.cancelled);
  EXPECT_EQ(ledger.rejected_overload, walk.rejected_overload);
  EXPECT_EQ(ledger.rejected_too_wide, walk.rejected_too_wide);
  EXPECT_EQ(ledger.shed, walk.shed);
  EXPECT_EQ(ledger.migrated, walk.migrated);
  EXPECT_EQ(ledger.in_flight, walk.in_flight);
  EXPECT_TRUE(ledger.holds());
}

}  // namespace hpcqc::sched
