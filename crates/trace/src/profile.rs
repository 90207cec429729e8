//! Darshan-style I/O characterization profiles.
//!
//! A profile reduces an instrumented run to per-(rank, file) counters in
//! the spirit of Darshan's POSIX module: operation counts, byte totals,
//! transfer-size histograms, sequential/consecutive/random access
//! fractions, first/last access timestamps, and per-op metadata counts.
//! Job-level aggregation detects shared files (accessed by more than one
//! rank) and computes the read/write byte mix that Sec. V of the paper
//! revisits ("HPC storage systems may no longer be dominated by write
//! I/O").

use pioeval_types::{
    size_bucket, FileId, IoKind, Layer, LayerRecord, PatternDetector, Rank, RecordOp, SimDuration,
    SimTime,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Counters for one (rank, file) pair at the POSIX layer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FileRecord {
    /// Observing rank.
    pub rank: Rank,
    /// The file.
    pub file: FileId,
    /// Read calls.
    pub reads: u64,
    /// Write calls.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Transfer-size histogram, reads (Darshan's SIZE_READ_* buckets).
    pub read_size_hist: [u64; 10],
    /// Transfer-size histogram, writes.
    pub write_size_hist: [u64; 10],
    /// Per-metadata-op counts (indexed by [`pioeval_types::MetaOp::index`]).
    pub meta_counts: [u64; 8],
    /// Access-pattern statistics (reads and writes combined).
    pub pattern: PatternDetector,
    /// Time of the first data access.
    pub first_access: SimTime,
    /// Time of the last data access completing.
    pub last_access: SimTime,
    /// Cumulative time inside data calls.
    pub io_time: SimDuration,
    /// Cumulative time inside metadata calls.
    pub meta_time: SimDuration,
}

impl FileRecord {
    fn new(rank: Rank, file: FileId) -> Self {
        FileRecord {
            rank,
            file,
            reads: 0,
            writes: 0,
            bytes_read: 0,
            bytes_written: 0,
            read_size_hist: [0; 10],
            write_size_hist: [0; 10],
            meta_counts: [0; 8],
            pattern: PatternDetector::new(),
            first_access: SimTime::MAX,
            last_access: SimTime::ZERO,
            io_time: SimDuration::ZERO,
            meta_time: SimDuration::ZERO,
        }
    }

    /// Total data calls.
    pub fn data_ops(&self) -> u64 {
        self.reads + self.writes
    }

    /// Mean read size (0 when no reads).
    pub fn mean_read_size(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.bytes_read as f64 / self.reads as f64
        }
    }

    /// Mean write size (0 when no writes).
    pub fn mean_write_size(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.bytes_written as f64 / self.writes as f64
        }
    }
}

/// A job-level profile: per-(rank, file) records plus aggregates.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct JobProfile {
    /// Per-(rank, file) records, keyed for deterministic ordering.
    pub records: BTreeMap<(u32, u32), FileRecord>,
    /// Barriers observed.
    pub barriers: u64,
    /// Total compute time observed.
    pub compute_time: SimDuration,
}

impl JobProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a profile from captured records (only POSIX-layer records
    /// feed the file counters, as in Darshan's POSIX module; Application
    /// records feed barrier/compute totals).
    pub fn from_records(records: &[LayerRecord]) -> Self {
        let mut p = JobProfile::new();
        for r in records {
            p.observe(r);
        }
        p
    }

    /// Streaming observation of one record.
    pub fn observe(&mut self, r: &LayerRecord) {
        match (r.layer, r.op) {
            (Layer::Posix, RecordOp::Data(kind)) => {
                let rec = self
                    .records
                    .entry((r.rank.0, r.file.0))
                    .or_insert_with(|| FileRecord::new(r.rank, r.file));
                match kind {
                    IoKind::Read => {
                        rec.reads += 1;
                        rec.bytes_read += r.len;
                        rec.read_size_hist[size_bucket(r.len)] += 1;
                    }
                    IoKind::Write => {
                        rec.writes += 1;
                        rec.bytes_written += r.len;
                        rec.write_size_hist[size_bucket(r.len)] += 1;
                    }
                }
                rec.pattern.observe(r.offset, r.len);
                rec.first_access = rec.first_access.min(r.start);
                rec.last_access = rec.last_access.max(r.end);
                rec.io_time += r.elapsed();
            }
            (Layer::Posix, RecordOp::Meta(op)) => {
                let rec = self
                    .records
                    .entry((r.rank.0, r.file.0))
                    .or_insert_with(|| FileRecord::new(r.rank, r.file));
                rec.meta_counts[op.index()] += 1;
                rec.meta_time += r.elapsed();
            }
            (Layer::Application, RecordOp::Barrier) => self.barriers += 1,
            (Layer::Application, RecordOp::Compute) => self.compute_time += r.elapsed(),
            _ => {}
        }
    }

    /// Total bytes read.
    pub fn bytes_read(&self) -> u64 {
        self.records.values().map(|r| r.bytes_read).sum()
    }

    /// Total bytes written.
    pub fn bytes_written(&self) -> u64 {
        self.records.values().map(|r| r.bytes_written).sum()
    }

    /// Read fraction of total data volume (0 when no I/O).
    pub fn read_fraction(&self) -> f64 {
        let r = self.bytes_read();
        let w = self.bytes_written();
        if r + w == 0 {
            return 0.0;
        }
        r as f64 / (r + w) as f64
    }

    /// Total metadata operations.
    pub fn meta_ops(&self) -> u64 {
        self.records
            .values()
            .map(|r| r.meta_counts.iter().sum::<u64>())
            .sum()
    }

    /// Total data operations.
    pub fn data_ops(&self) -> u64 {
        self.records.values().map(|r| r.data_ops()).sum()
    }

    /// Metadata operations per data operation — high values flag the
    /// metadata-intensive behaviour of workflow/DL workloads (Sec. V-C).
    pub fn meta_per_data_op(&self) -> f64 {
        let d = self.data_ops();
        if d == 0 {
            return 0.0;
        }
        self.meta_ops() as f64 / d as f64
    }

    /// Files accessed by more than one rank ("shared files").
    pub fn shared_files(&self) -> Vec<FileId> {
        let mut ranks_per_file: BTreeMap<u32, u32> = BTreeMap::new();
        for &(_, file) in self.records.keys() {
            *ranks_per_file.entry(file).or_insert(0) += 1;
        }
        ranks_per_file
            .into_iter()
            .filter(|&(_, n)| n > 1)
            .map(|(f, _)| FileId::new(f))
            .collect()
    }

    /// Distinct files touched.
    pub fn num_files(&self) -> usize {
        let mut files: Vec<u32> = self.records.keys().map(|&(_, f)| f).collect();
        files.sort_unstable();
        files.dedup();
        files.len()
    }

    /// Job-wide per-file pattern summary, merged across ranks.
    pub fn pattern_for_file(&self, file: FileId) -> PatternDetector {
        let mut merged = PatternDetector::new();
        for ((_, f), rec) in &self.records {
            if *f == file.0 {
                merged.merge(&rec.pattern);
            }
        }
        merged
    }

    /// Aggregate transfer-size histogram for reads.
    pub fn read_size_hist(&self) -> [u64; 10] {
        let mut h = [0u64; 10];
        for rec in self.records.values() {
            for (i, v) in rec.read_size_hist.iter().enumerate() {
                h[i] += v;
            }
        }
        h
    }

    /// Aggregate transfer-size histogram for writes.
    pub fn write_size_hist(&self) -> [u64; 10] {
        let mut h = [0u64; 10];
        for rec in self.records.values() {
            for (i, v) in rec.write_size_hist.iter().enumerate() {
                h[i] += v;
            }
        }
        h
    }

    /// Merge another profile into this one (cross-rank aggregation: each
    /// rank maintains its own streaming profile; the job-level view is
    /// the merge, exactly like Darshan's reduction step).
    pub fn merge(&mut self, other: &JobProfile) {
        for (key, rec) in &other.records {
            match self.records.get_mut(key) {
                None => {
                    self.records.insert(*key, rec.clone());
                }
                Some(mine) => {
                    mine.reads += rec.reads;
                    mine.writes += rec.writes;
                    mine.bytes_read += rec.bytes_read;
                    mine.bytes_written += rec.bytes_written;
                    for i in 0..10 {
                        mine.read_size_hist[i] += rec.read_size_hist[i];
                        mine.write_size_hist[i] += rec.write_size_hist[i];
                    }
                    for i in 0..8 {
                        mine.meta_counts[i] += rec.meta_counts[i];
                    }
                    mine.pattern.merge(&rec.pattern);
                    mine.first_access = mine.first_access.min(rec.first_access);
                    mine.last_access = mine.last_access.max(rec.last_access);
                    mine.io_time += rec.io_time;
                    mine.meta_time += rec.meta_time;
                }
            }
        }
        self.barriers += other.barriers;
        self.compute_time += other.compute_time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pioeval_types::MetaOp;

    fn rec(
        rank: u32,
        file: u32,
        op: RecordOp,
        offset: u64,
        len: u64,
        t0: u64,
        t1: u64,
    ) -> LayerRecord {
        LayerRecord {
            layer: Layer::Posix,
            rank: Rank::new(rank),
            file: FileId::new(file),
            op,
            offset,
            len,
            start: SimTime::from_micros(t0),
            end: SimTime::from_micros(t1),
        }
    }

    #[test]
    fn counts_bytes_and_ops() {
        let records = vec![
            rec(0, 1, RecordOp::Data(IoKind::Write), 0, 1000, 0, 10),
            rec(0, 1, RecordOp::Data(IoKind::Write), 1000, 1000, 10, 20),
            rec(0, 1, RecordOp::Data(IoKind::Read), 0, 500, 20, 25),
            rec(0, 1, RecordOp::Meta(MetaOp::Close), 0, 0, 25, 26),
        ];
        let p = JobProfile::from_records(&records);
        assert_eq!(p.bytes_written(), 2000);
        assert_eq!(p.bytes_read(), 500);
        assert_eq!(p.data_ops(), 3);
        assert_eq!(p.meta_ops(), 1);
        assert!((p.read_fraction() - 0.2).abs() < 1e-12);
        let fr = &p.records[&(0, 1)];
        assert_eq!(fr.reads, 1);
        assert_eq!(fr.writes, 2);
        assert_eq!(fr.mean_write_size(), 1000.0);
        assert_eq!(fr.io_time, SimDuration::from_micros(25));
        assert_eq!(fr.first_access, SimTime::ZERO);
        assert_eq!(fr.last_access, SimTime::from_micros(25));
    }

    #[test]
    fn size_histograms_bucket_correctly() {
        let records = vec![
            rec(0, 1, RecordOp::Data(IoKind::Write), 0, 50, 0, 1),
            rec(0, 1, RecordOp::Data(IoKind::Write), 50, 5000, 1, 2),
            rec(0, 1, RecordOp::Data(IoKind::Read), 0, 2_000_000, 2, 3),
        ];
        let p = JobProfile::from_records(&records);
        let wh = p.write_size_hist();
        assert_eq!(wh[0], 1); // 0-100
        assert_eq!(wh[2], 1); // 1K-10K
        let rh = p.read_size_hist();
        assert_eq!(rh[5], 1); // 1M-4M
    }

    #[test]
    fn shared_file_detection() {
        let records = vec![
            rec(0, 7, RecordOp::Data(IoKind::Write), 0, 10, 0, 1),
            rec(1, 7, RecordOp::Data(IoKind::Write), 10, 10, 0, 1),
            rec(1, 8, RecordOp::Data(IoKind::Write), 0, 10, 1, 2),
        ];
        let p = JobProfile::from_records(&records);
        assert_eq!(p.shared_files(), vec![FileId::new(7)]);
        assert_eq!(p.num_files(), 2);
    }

    #[test]
    fn pattern_merges_across_ranks() {
        // Rank 0 sequential, rank 1 random on the same file.
        let records = vec![
            rec(0, 3, RecordOp::Data(IoKind::Read), 0, 100, 0, 1),
            rec(0, 3, RecordOp::Data(IoKind::Read), 100, 100, 1, 2),
            rec(1, 3, RecordOp::Data(IoKind::Read), 500, 100, 0, 1),
            rec(1, 3, RecordOp::Data(IoKind::Read), 0, 100, 1, 2),
        ];
        let p = JobProfile::from_records(&records);
        let merged = p.pattern_for_file(FileId::new(3));
        assert_eq!(merged.total, 4);
        assert_eq!(merged.random, 1);
    }

    #[test]
    fn app_layer_records_feed_job_aggregates() {
        let mut barrier = rec(0, 0, RecordOp::Barrier, 0, 0, 0, 5);
        barrier.layer = Layer::Application;
        let mut compute = rec(0, 0, RecordOp::Compute, 0, 0, 5, 105);
        compute.layer = Layer::Application;
        let p = JobProfile::from_records(&[barrier, compute]);
        assert_eq!(p.barriers, 1);
        assert_eq!(p.compute_time, SimDuration::from_micros(100));
        assert_eq!(p.data_ops(), 0);
    }

    #[test]
    fn non_posix_data_records_do_not_pollute_file_counters() {
        let mut r = rec(0, 1, RecordOp::Data(IoKind::Write), 0, 4096, 0, 1);
        r.layer = Layer::MpiIo;
        let p = JobProfile::from_records(&[r]);
        // MPI-IO-layer records describe logical volume; the POSIX module
        // only counts what reached the file system interface.
        assert_eq!(p.bytes_written(), 0);
        assert_eq!(p.meta_per_data_op(), 0.0);
    }

    #[test]
    fn merge_aggregates_ranks() {
        let a = JobProfile::from_records(&[rec(0, 1, RecordOp::Data(IoKind::Write), 0, 100, 0, 1)]);
        let b = JobProfile::from_records(&[
            rec(0, 1, RecordOp::Data(IoKind::Write), 100, 50, 1, 2),
            rec(1, 2, RecordOp::Data(IoKind::Read), 0, 30, 0, 1),
        ]);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.bytes_written(), 150);
        assert_eq!(merged.bytes_read(), 30);
        assert_eq!(merged.records[&(0, 1)].writes, 2);
        assert_eq!(merged.num_files(), 2);
    }
}
