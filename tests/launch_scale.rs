//! Job launch state is linear in the rank count.
//!
//! A launch registers one coordinator and one entity per rank. If any of
//! them kept a per-rank copy of the job's rank list, launch memory would
//! grow as ranks², and the bytes allocated per rank would grow with the
//! job. This file counts every byte the launch asks the allocator for and
//! checks that the per-rank figure is the same at 1024 and at 4096 ranks.
//!
//! The counter is the process's global allocator, so this file holds one
//! test: no concurrently running test may allocate while it measures.

use pioeval::iostack::{launch_on, JobSpec, StackConfig, StackOp, StorageTarget};
use pioeval::pfs::{Cluster, ClusterConfig};
use pioeval::types::{FileId, IoKind, MetaOp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes requested from the allocator so far: every allocation's size,
/// plus the growth of every reallocation.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call forwards unchanged to `System`; the counter is a
// relaxed atomic add with no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size.saturating_sub(layout.size());
        ALLOCATED.fetch_add(grown as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes `launch_on` allocates per rank for an `nranks`-rank job whose
/// ranks each write a block and meet at a barrier.
fn launch_bytes_per_rank(nranks: u32) -> f64 {
    let file = FileId::new(1);
    let program = vec![
        StackOp::PosixMeta {
            op: MetaOp::Create,
            file,
        },
        StackOp::PosixData {
            kind: IoKind::Write,
            file,
            offset: 0,
            len: 1 << 20,
        },
        StackOp::Barrier,
        StackOp::PosixMeta {
            op: MetaOp::Close,
            file,
        },
    ];
    let spec = JobSpec::spmd(nranks, program, StackConfig::default());
    let mut target = StorageTarget::Pfs(Cluster::new(ClusterConfig::default()).unwrap());
    let before = ALLOCATED.load(Ordering::Relaxed);
    let handle = launch_on(&mut target, &spec);
    let bytes = ALLOCATED.load(Ordering::Relaxed) - before;
    assert_eq!(handle.nranks, nranks);
    bytes as f64 / f64::from(nranks)
}

#[test]
fn launch_allocates_the_same_bytes_per_rank_at_every_scale() {
    // Warm up the process-wide telemetry registry, whose first use
    // allocates its instruments once.
    launch_bytes_per_rank(16);
    let small = launch_bytes_per_rank(1024);
    let large = launch_bytes_per_rank(4096);
    let ratio = large.max(small) / large.min(small);
    assert!(
        ratio <= 1.25,
        "launch allocates {small:.0} B/rank at 1024 ranks but {large:.0} B/rank at 4096 \
         ({ratio:.2}x): some launch state grows with the job, not with the rank"
    );
}
