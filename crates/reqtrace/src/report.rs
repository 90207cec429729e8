//! Trace analytics: tail percentiles, per-layer and per-op statistics,
//! tail-latency attribution, and per-collective critical paths.

use crate::assemble::{Bucket, RequestRecord, BUCKETS};
use pioeval_types::{percentile_sorted_u64, percentile_u64, SimDuration, SimTime};
use std::collections::BTreeMap;

/// Exact nearest-rank tail percentiles of one latency population.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PercentileSet {
    /// Median.
    pub p50: SimDuration,
    /// 95th percentile.
    pub p95: SimDuration,
    /// 99th percentile.
    pub p99: SimDuration,
    /// 99.9th percentile.
    pub p999: SimDuration,
    /// Maximum.
    pub max: SimDuration,
}

impl PercentileSet {
    /// Compute from a population already sorted ascending, with the
    /// same nearest-rank rule as [`percentile_u64`] (zeroes when empty).
    pub(crate) fn from_sorted(sorted: &[u64]) -> Self {
        let q = |p: f64| SimDuration::from_nanos(percentile_sorted_u64(sorted, p));
        PercentileSet {
            p50: q(50.0),
            p95: q(95.0),
            p99: q(99.0),
            p999: q(99.9),
            max: SimDuration::from_nanos(sorted.last().copied().unwrap_or(0)),
        }
    }
}

/// Aggregate statistics for one latency layer across all requests.
#[derive(Clone, Copy, Debug)]
pub struct LayerStats {
    /// Which layer.
    pub bucket: Bucket,
    /// Total time attributed to the layer, summed over requests.
    pub total: SimDuration,
    /// Share of the summed end-to-end latency (0..=1).
    pub share: f64,
    /// Percentiles of the per-request component for this layer.
    pub percentiles: PercentileSet,
}

/// Aggregate statistics for one operation class.
#[derive(Clone, Debug)]
pub struct OpStats {
    /// Operation name ([`pioeval_types::ReqOp::name`]).
    pub op: String,
    /// Requests of this class.
    pub count: usize,
    /// End-to-end latency percentiles for the class.
    pub latency: PercentileSet,
}

/// Whole-trace summary: the `pioeval requests` analyzer's data model.
#[derive(Clone, Debug)]
pub struct TraceSummary {
    /// Completed requests.
    pub requests: usize,
    /// Requests still in flight when the run ended.
    pub incomplete: usize,
    /// End-to-end latency percentiles across all requests.
    pub latency: PercentileSet,
    /// Summed end-to-end latency (attribution denominator).
    pub total_latency: SimDuration,
    /// Per-layer attribution, in [`BUCKETS`] order.
    pub layers: Vec<LayerStats>,
    /// Per-operation statistics, ordered by descending count.
    pub ops: Vec<OpStats>,
}

impl TraceSummary {
    /// Per-layer shares in [`BUCKETS`] order
    /// (queue, service, device, fabric), each 0..=1.
    pub fn shares(&self) -> [f64; 4] {
        let mut out = [0.0; 4];
        for l in &self.layers {
            out[l.bucket.index()] = l.share;
        }
        out
    }
}

/// Summarize assembled requests (`incomplete` is carried through from
/// [`crate::assemble::Assembly`]).
pub fn summarize(requests: &[RequestRecord], incomplete: usize) -> TraceSummary {
    // One pass fills every population; each is then sorted once.
    let mut latencies = Vec::with_capacity(requests.len());
    let mut components: [Vec<u64>; 4] = std::array::from_fn(|_| Vec::with_capacity(requests.len()));
    let mut per_op: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for r in requests {
        let latency = r.latency().as_nanos();
        latencies.push(latency);
        for (c, ns) in components.iter_mut().zip(r.breakdown()) {
            c.push(ns);
        }
        per_op.entry(r.op.name()).or_default().push(latency);
    }
    let total_latency_ns: u64 = latencies.iter().sum();

    let layers = BUCKETS
        .iter()
        .zip(&mut components)
        .map(|(&bucket, samples)| {
            let total: u64 = samples.iter().sum();
            samples.sort_unstable();
            LayerStats {
                bucket,
                total: SimDuration::from_nanos(total),
                share: if total_latency_ns > 0 {
                    total as f64 / total_latency_ns as f64
                } else {
                    0.0
                },
                percentiles: PercentileSet::from_sorted(samples),
            }
        })
        .collect();

    let mut ops: Vec<OpStats> = per_op
        .into_iter()
        .map(|(op, mut lat)| {
            lat.sort_unstable();
            OpStats {
                op: op.to_string(),
                count: lat.len(),
                latency: PercentileSet::from_sorted(&lat),
            }
        })
        .collect();
    ops.sort_by(|a, b| b.count.cmp(&a.count).then(a.op.cmp(&b.op)));

    latencies.sort_unstable();
    TraceSummary {
        requests: requests.len(),
        incomplete,
        latency: PercentileSet::from_sorted(&latencies),
        total_latency: SimDuration::from_nanos(total_latency_ns),
        layers,
        ops,
    }
}

/// Where the tail of the latency distribution spends its time.
#[derive(Clone, Copy, Debug)]
pub struct TailAttribution {
    /// The percentile the tail was cut at (e.g. 99.0).
    pub percentile: f64,
    /// Latency threshold: requests at or above it form the tail.
    pub threshold: SimDuration,
    /// Number of tail requests.
    pub count: usize,
    /// Per-layer nanoseconds inside the tail, in [`BUCKETS`] order.
    pub totals: [u64; 4],
}

impl TailAttribution {
    /// Per-layer shares of the tail's summed latency, in [`BUCKETS`]
    /// order.
    pub fn shares(&self) -> [f64; 4] {
        let sum: u64 = self.totals.iter().sum();
        if sum == 0 {
            return [0.0; 4];
        }
        let mut out = [0.0; 4];
        for (o, &t) in out.iter_mut().zip(&self.totals) {
            *o = t as f64 / sum as f64;
        }
        out
    }
}

/// Attribute the latency of the requests at or above the `p`-th
/// latency percentile — the "why is my p99 slow" answer.
pub fn tail_attribution(requests: &[RequestRecord], p: f64) -> TailAttribution {
    let latencies: Vec<u64> = requests.iter().map(|r| r.latency().as_nanos()).collect();
    if latencies.is_empty() {
        return TailAttribution {
            percentile: p,
            threshold: SimDuration::ZERO,
            count: 0,
            totals: [0; 4],
        };
    }
    let threshold = percentile_u64(&latencies, p);
    let mut totals = [0u64; 4];
    let mut count = 0;
    for r in requests {
        if r.latency().as_nanos() >= threshold {
            count += 1;
            for (t, b) in totals.iter_mut().zip(r.breakdown()) {
                *t += b;
            }
        }
    }
    TailAttribution {
        percentile: p,
        threshold: SimDuration::from_nanos(threshold),
        count,
        totals,
    }
}

/// The critical path of one collective-I/O instance: the slowest rank's
/// chain of storage requests, which bounds when the collective can
/// complete.
#[derive(Clone, Copy, Debug)]
pub struct CollectivePath {
    /// Cross-rank-aligned collective instance index.
    pub instance: u32,
    /// Ranks that issued traced requests in this instance.
    pub ranks: usize,
    /// Requests across all ranks in this instance.
    pub requests: usize,
    /// Earliest issue across the instance.
    pub start: SimTime,
    /// Latest reply delivery across the instance (instance completion).
    pub end: SimTime,
    /// The rank whose last reply lands at `end`.
    pub slowest_rank: u32,
    /// Number of requests on the slowest rank's chain.
    pub slowest_requests: usize,
    /// Per-layer nanoseconds summed over the slowest rank's chain, in
    /// [`crate::assemble::BUCKETS`] order.
    pub slowest_totals: [u64; 4],
}

/// Extract per-collective critical paths from assembled requests.
/// Instances are returned in index order; requests outside any
/// collective are ignored.
pub fn collective_paths(requests: &[RequestRecord]) -> Vec<CollectivePath> {
    let mut by_instance: BTreeMap<u32, Vec<&RequestRecord>> = BTreeMap::new();
    for r in requests {
        if r.in_collective() {
            by_instance.entry(r.collective).or_default().push(r);
        }
    }
    by_instance
        .into_iter()
        .map(|(instance, reqs)| {
            let start = reqs.iter().map(|r| r.issue).min().unwrap_or(SimTime::ZERO);
            // The slowest rank is the one whose last reply arrives last.
            let mut rank_end: BTreeMap<u32, SimTime> = BTreeMap::new();
            for r in &reqs {
                let e = rank_end.entry(r.rank).or_insert(SimTime::ZERO);
                *e = (*e).max(r.done);
            }
            let (&slowest_rank, &end) = rank_end
                .iter()
                .max_by_key(|(rank, end)| (**end, **rank))
                .expect("instance has at least one request");
            let mut slowest_totals = [0u64; 4];
            let mut slowest_requests = 0;
            for r in &reqs {
                if r.rank == slowest_rank {
                    slowest_requests += 1;
                    for (t, b) in slowest_totals.iter_mut().zip(r.breakdown()) {
                        *t += b;
                    }
                }
            }
            CollectivePath {
                instance,
                ranks: rank_end.len(),
                requests: reqs.len(),
                start,
                end,
                slowest_rank,
                slowest_requests,
                slowest_totals,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::{Span, SpanLabel};
    use pioeval_types::{ReqOp, ServerKind, NO_COLLECTIVE};
    use proptest::prelude::*;

    fn req(
        rank: u32,
        collective: u32,
        issue_ns: u64,
        done_ns: u64,
        queue_ns: u64,
    ) -> RequestRecord {
        let issue = SimTime::from_nanos(issue_ns);
        let done = SimTime::from_nanos(done_ns);
        let queue_end = SimTime::from_nanos(issue_ns + queue_ns);
        RequestRecord {
            tid: (rank as u64 + 1) << 32 | issue_ns,
            rank,
            op: ReqOp::Write,
            file: 0,
            bytes: 1,
            collective,
            issue,
            done,
            spans: vec![
                Span {
                    entity: 1,
                    label: SpanLabel::Server(ServerKind::OssDevice),
                    bucket: Bucket::Queue,
                    start: issue,
                    end: queue_end,
                },
                Span {
                    entity: 1,
                    label: SpanLabel::Server(ServerKind::OssDevice),
                    bucket: Bucket::Device,
                    start: queue_end,
                    end: done,
                },
            ],
        }
    }

    #[test]
    fn summary_shares_sum_to_one() {
        let reqs: Vec<RequestRecord> = (0..10)
            .map(|i| req(0, NO_COLLECTIVE, 0, 100 + i, 10))
            .collect();
        let s = summarize(&reqs, 2);
        assert_eq!(s.requests, 10);
        assert_eq!(s.incomplete, 2);
        let shares = s.shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(shares[Bucket::Device.index()] > shares[Bucket::Queue.index()]);
        assert_eq!(s.ops.len(), 1);
        assert_eq!(s.ops[0].count, 10);
    }

    #[test]
    fn tail_attribution_selects_slowest_requests() {
        let mut reqs: Vec<RequestRecord> =
            (0..99).map(|_| req(0, NO_COLLECTIVE, 0, 100, 10)).collect();
        // One outlier dominated by queueing. With 100 samples the
        // nearest-rank p99 is the 99th value (still 100 ns), so cut at
        // p99.5 to isolate the outlier.
        reqs.push(req(1, NO_COLLECTIVE, 0, 10_000, 9_900));
        let tail = tail_attribution(&reqs, 99.5);
        assert_eq!(tail.count, 1);
        assert_eq!(tail.threshold, SimDuration::from_nanos(10_000));
        assert!(tail.shares()[Bucket::Queue.index()] > 0.9);
    }

    #[test]
    fn collective_path_finds_slowest_rank() {
        let reqs = vec![
            req(0, 3, 0, 100, 0),
            req(1, 3, 0, 500, 400),
            req(2, 3, 0, 200, 0),
            req(0, NO_COLLECTIVE, 1000, 1100, 0),
        ];
        let paths = collective_paths(&reqs);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.instance, 3);
        assert_eq!(p.ranks, 3);
        assert_eq!(p.requests, 3);
        assert_eq!(p.slowest_rank, 1);
        assert_eq!(p.end, SimTime::from_nanos(500));
        assert_eq!(p.slowest_totals[Bucket::Queue.index()], 400);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Sorting once and indexing gives exactly what the shared
        /// nearest-rank helper gives for each percentile, with ties
        /// (values from a tiny range) and without, down to 0 and 1
        /// samples.
        #[test]
        fn percentile_set_matches_percentile_u64(
            len in prop::sample::select(vec![0usize, 1, 2, 3, 10, 999, 1000]),
            tied in prop::collection::vec(0u64..8, 1000..1001),
            spread in prop::collection::vec(0u64..u64::MAX, 1000..1001),
            ties in any::<bool>(),
        ) {
            let samples = if ties { &tied[..len] } else { &spread[..len] };
            let mut sorted = samples.to_vec();
            sorted.sort_unstable();
            let set = PercentileSet::from_sorted(&sorted);
            let q = |p: f64| SimDuration::from_nanos(percentile_u64(samples, p));
            prop_assert_eq!(set.p50, q(50.0));
            prop_assert_eq!(set.p95, q(95.0));
            prop_assert_eq!(set.p99, q(99.0));
            prop_assert_eq!(set.p999, q(99.9));
            prop_assert_eq!(
                set.max,
                SimDuration::from_nanos(samples.iter().copied().max().unwrap_or(0))
            );
        }
    }
}
