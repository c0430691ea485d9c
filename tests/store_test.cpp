// Durable-state store: WAL framing and torn-tail semantics, the job/event
// codecs, snapshot round-trips, and crash recovery rebuilding a QRM that
// continues exactly where the journal left off.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "hpcqc/calibration/benchmark.hpp"
#include "hpcqc/circuit/parametric.hpp"
#include "hpcqc/common/error.hpp"
#include "hpcqc/device/presets.hpp"
#include "hpcqc/fault/fault_plan.hpp"
#include "hpcqc/fault/injector.hpp"
#include "hpcqc/obs/metrics.hpp"
#include "hpcqc/obs/trace.hpp"
#include "hpcqc/sched/durable.hpp"
#include "hpcqc/sched/qrm.hpp"
#include "hpcqc/store/codec.hpp"
#include "hpcqc/store/journal.hpp"
#include "hpcqc/store/recovery.hpp"
#include "hpcqc/store/snapshot.hpp"
#include "hpcqc/store/wal.hpp"

namespace hpcqc::store {
namespace {

sched::Qrm::Config fast_config() {
  sched::Qrm::Config config;
  config.benchmark.qubits = 8;
  config.benchmark.shots = 200;
  config.benchmark.analytic = true;
  config.execution_mode = device::ExecutionMode::kEstimateOnly;
  config.benchmark_overhead = minutes(2.0);
  return config;
}

sched::QuantumJob ghz_job(const device::DeviceModel& device, int qubits,
                          std::size_t shots, const std::string& name) {
  sched::QuantumJob job;
  job.name = name;
  job.circuit = calibration::GhzBenchmark::chain_circuit(device, qubits);
  job.shots = shots;
  return job;
}

std::vector<std::uint8_t> bytes_of(const std::string& text) {
  return std::vector<std::uint8_t>(text.begin(), text.end());
}

// ----------------------------------------------------------------- crc32 --

TEST(StoreCrc, MatchesTheIeeeTestVector) {
  const std::vector<std::uint8_t> check = bytes_of("123456789");
  EXPECT_EQ(crc32(check.data(), check.size()), 0xCBF43926u);
}

TEST(StoreCrc, SeedChainsPartialComputations) {
  const std::vector<std::uint8_t> whole = bytes_of("the quick brown fox");
  const std::uint32_t direct = crc32(whole.data(), whole.size());
  const std::uint32_t part = crc32(whole.data(), 9);
  EXPECT_EQ(crc32(whole.data() + 9, whole.size() - 9, part), direct);
}

// ----------------------------------------------------------------- codec --

TEST(StoreCodec, RoundTripsEveryPrimitiveAndThrowsOnTruncation) {
  ByteWriter out;
  out.u8(0xAB);
  out.u32(0xDEADBEEFu);
  out.u64(0x0123456789ABCDEFull);
  out.i32(-42);
  out.f64(-1234.5678);
  out.boolean(true);
  out.str("snapshot");
  out.str("");
  const std::vector<std::uint8_t> bytes = out.take();

  ByteReader in(bytes);
  EXPECT_EQ(in.u8(), 0xAB);
  EXPECT_EQ(in.u32(), 0xDEADBEEFu);
  EXPECT_EQ(in.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(in.i32(), -42);
  EXPECT_EQ(in.f64(), -1234.5678);
  EXPECT_TRUE(in.boolean());
  EXPECT_EQ(in.str(), "snapshot");
  EXPECT_EQ(in.str(), "");
  EXPECT_TRUE(in.done());

  std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + 3);
  ByteReader torn(cut);
  EXPECT_EQ(torn.u8(), 0xAB);
  EXPECT_THROW(torn.u32(), ParseError);
}

TEST(StoreCodec, JobRoundTripsPlainAndParametricPayloads) {
  Rng rng(7);
  device::DeviceModel device = device::make_iqm20(rng);

  sched::QuantumJob plain = ghz_job(device, 5, 750, "plain-job");
  plain.project = "alice";
  plain.priority = sched::JobPriority::kHigh;
  plain.trace = {0x1234, 9};
  plain.migrations = 2;
  plain.migrated_in = true;
  ByteWriter wp;
  encode_job(wp, plain);
  const std::vector<std::uint8_t> pb = wp.take();
  ByteReader rp(pb);
  const sched::QuantumJob plain2 = decode_job(rp);
  EXPECT_EQ(plain2.name, "plain-job");
  EXPECT_EQ(plain2.project, "alice");
  EXPECT_EQ(plain2.shots, 750u);
  EXPECT_EQ(plain2.priority, sched::JobPriority::kHigh);
  EXPECT_EQ(plain2.trace, plain.trace);
  EXPECT_EQ(plain2.migrations, 2u);
  EXPECT_TRUE(plain2.migrated_in);
  EXPECT_EQ(plain2.circuit.num_qubits(), plain.circuit.num_qubits());
  EXPECT_EQ(plain2.circuit.ops().size(), plain.circuit.ops().size());

  circuit::ParametricCircuit pc(3);
  {
    circuit::ParametricOperation op;
    op.kind = circuit::OpKind::kRz;
    op.qubits = {1};
    op.params = {circuit::ParamExpr::symbol("theta", 2.0, 0.5)};
    pc.append(std::move(op));
  }
  {
    circuit::ParametricOperation op;
    op.kind = circuit::OpKind::kCz;
    op.qubits = {0, 1};
    pc.append(std::move(op));
  }
  sched::QuantumJob vqe;
  vqe.name = "vqe-iter";
  vqe.shots = 200;
  vqe.parametric = std::make_shared<circuit::ParametricCircuit>(pc);
  vqe.binding = {{"theta", 0.75}};
  ByteWriter wv;
  encode_job(wv, vqe);
  const std::vector<std::uint8_t> vb = wv.take();
  ByteReader rv(vb);
  const sched::QuantumJob vqe2 = decode_job(rv);
  ASSERT_NE(vqe2.parametric, nullptr);
  EXPECT_EQ(vqe2.parametric->structural_hash(), pc.structural_hash());
  EXPECT_EQ(vqe2.binding, vqe.binding);
  // The concrete circuit is re-bound at decode, exactly like Qrm::submit.
  EXPECT_EQ(vqe2.circuit.num_qubits(), 3);
}

// ------------------------------------------------------------------- wal --

TEST(StoreWal, AppendScanRoundTripsInOrder) {
  MemoryWalBackend backend;
  Wal wal(backend);
  EXPECT_EQ(wal.append(1, bytes_of("alpha")), 1u);
  EXPECT_EQ(wal.append(2, bytes_of("beta")), 2u);
  EXPECT_EQ(wal.append(1, bytes_of("")), 3u);

  const WalScan scan = Wal::scan(backend);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_FALSE(scan.torn);
  EXPECT_EQ(scan.dropped_bytes, 0u);
  EXPECT_EQ(scan.records[0].lsn, 1u);
  EXPECT_EQ(scan.records[0].type, 1);
  EXPECT_EQ(scan.records[0].payload, bytes_of("alpha"));
  EXPECT_EQ(scan.records[1].type, 2);
  EXPECT_EQ(scan.records[1].payload, bytes_of("beta"));
  EXPECT_TRUE(scan.records[2].payload.empty());
}

TEST(StoreWal, TornTailDropsOnlyTheUnflushedSuffix) {
  MemoryWalBackend backend;
  Wal wal(backend);
  wal.append(1, bytes_of("first"));
  const std::size_t intact = backend.total_bytes();
  wal.append(1, bytes_of("second-record-payload"));

  // The crash left the second frame half-written.
  backend.truncate_total(intact + 5);
  const WalScan scan = Wal::scan(backend);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].payload, bytes_of("first"));
  EXPECT_TRUE(scan.torn);
  EXPECT_EQ(scan.dropped_bytes, 5u);
}

TEST(StoreWal, RotationSplitsSegmentsAndTruncateDropsReplayedOnes) {
  MemoryWalBackend backend;
  Wal::Config config;
  config.segment_bytes = 64;  // a few records per segment
  Wal wal(backend, config);
  std::uint64_t last = 0;
  for (int i = 0; i < 12; ++i)
    last = wal.append(1, bytes_of("record-" + std::to_string(i)));
  ASSERT_GT(backend.segments().size(), 2u);

  const WalScan before = Wal::scan(backend);
  ASSERT_EQ(before.records.size(), 12u);

  // Everything below the last record is replayed: every whole older segment
  // goes; the record itself (in the open or newest segment) survives.
  wal.truncate_below(last);
  const WalScan after = Wal::scan(backend);
  ASSERT_FALSE(after.records.empty());
  EXPECT_EQ(after.records.back().lsn, last);
  EXPECT_LT(backend.total_bytes(), 64u * 12u);
}

TEST(StoreWal, ReopenContinuesTheLsnSequenceInAFreshSegment) {
  MemoryWalBackend backend;
  {
    Wal wal(backend);
    wal.append(1, bytes_of("one"));
    wal.append(1, bytes_of("two"));
  }
  const std::size_t segments_before = backend.segments().size();
  Wal reopened(backend);
  EXPECT_EQ(reopened.next_lsn(), 3u);
  // Never append after a possibly-torn tail: reopen starts a new segment.
  EXPECT_GT(backend.segments().size(), segments_before);
  reopened.append(1, bytes_of("three"));

  const WalScan scan = Wal::scan(backend);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[2].lsn, 3u);
  EXPECT_EQ(scan.records[2].payload, bytes_of("three"));
}

TEST(StoreWal, FileBackendRoundTripsAndStopsAtCorruption) {
  const std::string dir = ::testing::TempDir() + "/hpcqc_wal_test";
  std::filesystem::remove_all(dir);
  FileWalBackend backend(dir);
  {
    Wal wal(backend);
    wal.append(1, bytes_of("disk-one"));
    wal.append(2, bytes_of("disk-two"));
    wal.append(1, bytes_of("disk-three"));
  }
  FileWalBackend again(dir);
  const WalScan scan = Wal::scan(again);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[1].payload, bytes_of("disk-two"));

  // Flip one byte inside the second record's payload: the scan keeps the
  // first record and distrusts everything after the bad CRC.
  const std::uint64_t id = again.segments().front();
  std::vector<std::uint8_t> raw = again.read_segment(id);
  const std::size_t second_payload = (8 + 9 + 8) + 8 + 9 + 2;
  raw[second_payload] ^= 0xFF;
  {
    std::ofstream out(dir + "/wal-00000001.log", std::ios::binary);
    out.write(reinterpret_cast<const char*>(raw.data()),
              static_cast<std::streamsize>(raw.size()));
  }
  const WalScan corrupt = Wal::scan(again);
  ASSERT_EQ(corrupt.records.size(), 1u);
  EXPECT_EQ(corrupt.records[0].payload, bytes_of("disk-one"));
  EXPECT_TRUE(corrupt.torn);
  EXPECT_GT(corrupt.dropped_bytes, 0u);
}

// A Wal reopened after a tear appends behind the bad frame, where no scan
// reaches. Trimming the tail exposes those appends and leaves the reopened
// Wal's open segment usable.
void expect_trim_exposes_later_appends(WalBackend& backend,
                                       const std::function<void()>& tear) {
  {
    Wal wal(backend);
    wal.append(1, bytes_of("kept"));
    wal.append(1, bytes_of("torn-off"));
  }
  tear();
  Wal reopened(backend);
  const WalScan torn = Wal::scan(backend);
  ASSERT_TRUE(torn.torn);
  ASSERT_EQ(torn.records.size(), 1u);

  Wal::trim_torn_tail(backend, torn);
  reopened.append(1, bytes_of("after-trim"));
  const WalScan scan = Wal::scan(backend);
  EXPECT_FALSE(scan.torn);
  EXPECT_EQ(scan.dropped_bytes, 0u);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].payload, bytes_of("kept"));
  EXPECT_EQ(scan.records[1].payload, bytes_of("after-trim"));
  EXPECT_EQ(scan.records[1].lsn, 2u);
}

TEST(StoreWal, TrimmedTornTailExposesLaterAppendsOnBothBackends) {
  MemoryWalBackend memory;
  expect_trim_exposes_later_appends(
      memory, [&memory] { memory.truncate_total(memory.total_bytes() - 3); });

  const std::string dir = ::testing::TempDir() + "/hpcqc_wal_trim_test";
  std::filesystem::remove_all(dir);
  FileWalBackend file(dir);
  expect_trim_exposes_later_appends(file, [&file] {
    const std::uint64_t id = file.segments().back();
    file.truncate_segment(id, file.read_segment(id).size() - 3);
  });
}

// -------------------------------------------------------------- snapshot --

TEST(StoreSnapshot, QrmImageRoundTripsByteIdentically) {
  Rng rng(21);
  device::DeviceModel device = device::make_iqm20(rng);
  sched::Qrm qrm(device, fast_config(), rng, nullptr);
  qrm.submit(ghz_job(device, 6, 500, "snap-a"));
  qrm.submit(ghz_job(device, 4, 300, "snap-b"));
  qrm.advance_to(minutes(30.0));
  qrm.submit(ghz_job(device, 5, 400, "snap-c"));

  const sched::QrmDurableState image = qrm.capture_durable();
  const std::vector<std::uint8_t> bytes = encode_snapshot(image);
  EXPECT_EQ(snapshot_scope(bytes), SnapshotScope::kQrm);
  const sched::QrmDurableState back = decode_qrm_snapshot(bytes);
  EXPECT_EQ(encode_snapshot(back), bytes);
  EXPECT_EQ(back.records.size(), image.records.size());
  EXPECT_EQ(back.queue, image.queue);
  EXPECT_EQ(back.now, image.now);

  EXPECT_THROW(decode_fleet_snapshot(bytes), PreconditionError);
  std::vector<std::uint8_t> bad = bytes;
  bad[0] ^= 0x5A;
  EXPECT_THROW(snapshot_scope(bad), PreconditionError);
}

TEST(StoreSnapshot, RestoredQrmContinuesAndConservesJobs) {
  Rng rng(22);
  device::DeviceModel device = device::make_iqm20(rng);
  sched::Qrm qrm(device, fast_config(), rng, nullptr);
  const int a = qrm.submit(ghz_job(device, 6, 500, "go-a"));
  const int b = qrm.submit(ghz_job(device, 4, 300, "go-b"));
  qrm.advance_to(minutes(20.0));

  const sched::QrmDurableState image = qrm.capture_durable();
  Rng rng2(99);  // the restored plane's own stream
  sched::Qrm restored(device, fast_config(), rng2, nullptr);
  const sched::RestoreSummary summary = restored.restore_durable(image);
  EXPECT_EQ(summary.restored_jobs, 2u);
  EXPECT_EQ(restored.now(), image.now);
  restored.drain();
  EXPECT_EQ(restored.record(a).state, sched::QuantumJobState::kCompleted);
  EXPECT_EQ(restored.record(b).state, sched::QuantumJobState::kCompleted);
  const sched::JobConservation audit = restored.conservation();
  EXPECT_TRUE(audit.holds());
  EXPECT_EQ(audit.in_flight, 0u);
}

// -------------------------------------------------------------- recovery --

TEST(StoreRecovery, JournalReplayRebuildsTheLiveImage) {
  Rng rng(23);
  device::DeviceModel device = device::make_iqm20(rng);
  MemoryWalBackend backend;
  Wal wal(backend);
  Journal journal(wal);
  sched::Qrm qrm(device, fast_config(), rng, nullptr);
  qrm.set_journal(&journal, 0);

  // One job per priority class, so every class bucket is observed by the
  // journal and the replayed image matches the live capture byte-for-byte.
  sched::QuantumJob high = ghz_job(device, 6, 500, "replay-a");
  high.priority = sched::JobPriority::kHigh;
  qrm.submit(std::move(high));
  qrm.submit(ghz_job(device, 4, 300, "replay-b"));
  qrm.advance_to(minutes(45.0));
  sched::QuantumJob low = ghz_job(device, 5, 400, "replay-c");
  low.priority = sched::JobPriority::kLow;
  qrm.submit(std::move(low));

  const sched::QrmDurableState live = qrm.capture_durable();
  Recovery recovery(backend);
  sched::QrmDurableState replayed = recovery.recover_qrm();
  EXPECT_FALSE(recovery.stats().had_snapshot);
  EXPECT_GT(recovery.stats().replayed, 0u);
  EXPECT_EQ(recovery.stats().scrubbed, 0u);
  // The journal lower-bounds the clock at the last event; idle time after
  // it is not journaled. Everything else must match bit-for-bit.
  EXPECT_LE(replayed.now, live.now);
  replayed.now = live.now;
  EXPECT_EQ(encode_snapshot(replayed), encode_snapshot(live));
}

TEST(StoreRecovery, CheckpointPlusReplayMatchesAndBoundsTheJournal) {
  Rng rng(24);
  device::DeviceModel device = device::make_iqm20(rng);
  MemoryWalBackend backend;
  obs::MetricsRegistry metrics;
  Wal wal(backend, Wal::Config{}, &metrics);
  Journal journal(wal);
  Checkpointer::Config cadence;
  cadence.interval = hours(1.0);
  Checkpointer checkpointer(wal, cadence, &metrics);
  sched::Qrm qrm(device, fast_config(), rng, nullptr);
  qrm.set_journal(&journal, 0);

  std::size_t snapshots = 0;
  for (int k = 0; k <= 16; ++k) {
    qrm.advance_to(minutes(30.0) * k);
    if (k % 2 == 1)
      qrm.submit(ghz_job(device, 4 + k % 3, 300, "ck-" + std::to_string(k)));
    if (checkpointer.maybe_checkpoint(qrm)) snapshots += 1;
  }
  ASSERT_GE(snapshots, 3u);
  EXPECT_EQ(metrics.counter("store.snapshots").count(), snapshots);
  EXPECT_GT(metrics.counter("store.wal.appended").count(), snapshots);

  Recovery recovery(backend, &metrics);
  sched::QrmDurableState replayed = recovery.recover_qrm();
  EXPECT_TRUE(recovery.stats().had_snapshot);
  EXPECT_EQ(recovery.stats().snapshot_lsn, checkpointer.last_snapshot_lsn());

  sched::QrmDurableState live = qrm.capture_durable();
  EXPECT_LE(replayed.now, live.now);
  replayed.now = live.now;
  EXPECT_EQ(encode_snapshot(replayed), encode_snapshot(live));
}

TEST(StoreRecovery, InFlightAttemptIsRequeuedAtTheHeadExactlyOnce) {
  Rng rng(25);
  device::DeviceModel device = device::make_iqm20(rng);
  MemoryWalBackend backend;
  Wal wal(backend);
  Journal journal(wal);
  sched::Qrm qrm(device, fast_config(), rng, nullptr);
  qrm.set_journal(&journal, 0);

  const int a = qrm.submit(ghz_job(device, 6, 500000, "long-a"));
  const int b = qrm.submit(ghz_job(device, 4, 300, "short-b"));
  qrm.advance_to(minutes(3.0));
  ASSERT_EQ(qrm.record(a).state, sched::QuantumJobState::kRunning);
  const std::size_t attempts_before = qrm.record(a).attempts;

  // kill -9: the journal's kDispatched is the last word on job a.
  obs::MetricsRegistry metrics;
  Rng rng2(4);
  sched::Qrm rebuilt(device, fast_config(), rng2, nullptr);
  Recovery recovery(backend, &metrics);
  const RecoveryStats stats = recovery.restore(rebuilt);
  EXPECT_EQ(stats.requeued, 1u);
  EXPECT_EQ(metrics.counter("store.recovery.requeued").count(), 1u);

  const sched::QuantumJobRecord& rec = rebuilt.record(a);
  EXPECT_EQ(rec.state, sched::QuantumJobState::kQueued);
  EXPECT_EQ(rec.attempts, attempts_before - 1);
  EXPECT_EQ(rec.interruptions, 1u);
  EXPECT_EQ(rec.failure_reason,
            "interrupted by control-plane crash; requeued at recovery");

  rebuilt.drain();
  EXPECT_EQ(rebuilt.record(a).state, sched::QuantumJobState::kCompleted);
  EXPECT_EQ(rebuilt.record(b).state, sched::QuantumJobState::kCompleted);
  // Exactly-once accounting: the interrupted attempt was not charged, so
  // the rerun is the job's only completed attempt.
  EXPECT_EQ(rebuilt.record(a).attempts, attempts_before);
  EXPECT_TRUE(rebuilt.conservation().holds());
}

TEST(StoreRecovery, TornAdmissionOutcomeIsScrubbedDeterministically) {
  Rng rng(26);
  device::DeviceModel device = device::make_iqm20(rng);
  MemoryWalBackend backend;
  Wal wal(backend);
  Journal journal(wal);
  sched::Qrm qrm(device, fast_config(), rng, nullptr);
  qrm.set_journal(&journal, 0);

  qrm.submit(ghz_job(device, 6, 500, "kept"));
  const int lost = qrm.submit(ghz_job(device, 4, 300, "lost"));

  // Crash flushed the second submission's kSubmitted but tore its
  // kAdmitted (the final frame) off the tail: recovery must not guess the
  // admission outcome.
  const WalScan full = Wal::scan(backend);
  const std::size_t last_frame = 8 + 9 + full.records.back().payload.size();
  backend.truncate_total(backend.total_bytes() - last_frame);

  Recovery recovery(backend);
  Rng rng2(5);
  sched::Qrm rebuilt(device, fast_config(), rng2, nullptr);
  const RecoveryStats stats = recovery.restore(rebuilt);
  EXPECT_EQ(stats.scrubbed, 1u);
  EXPECT_EQ(rebuilt.record(lost).state, sched::QuantumJobState::kCancelled);
  EXPECT_EQ(rebuilt.record(lost).failure_reason,
            "recovery: admission outcome lost in torn journal tail");
  rebuilt.drain();
  EXPECT_TRUE(rebuilt.conservation().holds());
  EXPECT_EQ(rebuilt.conservation().in_flight, 0u);
}

TEST(StoreRecovery, RecordsJournaledAfterATornTailSurviveTheNextCrash) {
  // A torn frame ends every scan. Unless restore cuts it off, the recovered
  // control plane's first checkpoint and everything journaled after it stay
  // hidden behind it, so a second crash before the next checkpoint would
  // roll back to the image the first recovery started from.
  Rng rng(27);
  device::DeviceModel device = device::make_iqm20(rng);
  MemoryWalBackend backend;
  {
    Wal wal(backend);
    Journal journal(wal);
    sched::Qrm qrm(device, fast_config(), rng, nullptr);
    qrm.set_journal(&journal, 0);
    qrm.submit(ghz_job(device, 4, 300, "before-a"));
    qrm.submit(ghz_job(device, 5, 300, "before-b"));
    qrm.advance_to(minutes(30.0));
  }
  backend.truncate_total(backend.total_bytes() - 7);  // tears the last frame

  // Generation 1 boots as run_durable_campaign does (WAL and journal first),
  // recovers, checkpoints once, journals one more job and dies.
  int later = 0;
  {
    Rng rng1(2);
    Wal wal(backend);
    Journal journal(wal);
    sched::Qrm qrm(device, fast_config(), rng1, nullptr);
    qrm.set_journal(&journal, 0);
    Recovery recovery(backend);
    const RecoveryStats stats = recovery.restore(qrm);
    EXPECT_TRUE(stats.torn_tail);
    EXPECT_GT(stats.dropped_bytes, 0u);
    Checkpointer(wal).checkpoint(qrm);
    later = qrm.submit(ghz_job(device, 4, 300, "after-checkpoint"));
    qrm.advance_to(minutes(50.0));
  }

  // Generation 2 recovers from the snapshot and finds the later job.
  Rng rng2(3);
  sched::Qrm qrm(device, fast_config(), rng2, nullptr);
  Recovery recovery(backend);
  const RecoveryStats stats = recovery.restore(qrm);
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_EQ(stats.dropped_bytes, 0u);
  EXPECT_TRUE(stats.had_snapshot);
  EXPECT_GT(stats.replayed, 0u);
  ASSERT_NO_THROW((void)qrm.record(later));
  EXPECT_EQ(qrm.record(later).name, "after-checkpoint");
  EXPECT_EQ(qrm.conservation().submitted, 3u);
}

TEST(StoreRecovery, RecoverySpansDocumentTheRebuild) {
  Rng rng(27);
  device::DeviceModel device = device::make_iqm20(rng);
  MemoryWalBackend backend;
  Wal wal(backend);
  Journal journal(wal);
  sched::Qrm qrm(device, fast_config(), rng, nullptr);
  qrm.set_journal(&journal, 0);
  qrm.submit(ghz_job(device, 5, 400, "traced"));
  qrm.advance_to(minutes(10.0));

  obs::Tracer tracer;
  Rng rng2(6);
  sched::Qrm rebuilt(device, fast_config(), rng2, nullptr);
  rebuilt.set_tracer(&tracer);
  Recovery recovery(backend, nullptr, &tracer);
  recovery.restore(rebuilt);

  bool saw_root = false, saw_load = false, saw_replay = false;
  for (const auto& span : tracer.records()) {
    if (span.name == "recovery") saw_root = true;
    if (span.name == "snapshot-load") saw_load = true;
    if (span.name == "journal-replay") saw_replay = true;
  }
  EXPECT_TRUE(saw_root);
  EXPECT_TRUE(saw_load);
  EXPECT_TRUE(saw_replay);
  rebuilt.drain();
  EXPECT_TRUE(rebuilt.conservation().holds());
}

}  // namespace
}  // namespace hpcqc::store
