//! A virtual CPU reuses the cleared global buffer of its last joined task
//! for the next task forked onto it.  These tests pin that a reused buffer
//! carries nothing over: no read-set entry, no write-set entry, no
//! overflow state, and the right reader identity.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mutls_runtime::membuf::BufferConfig;
use mutls_runtime::{
    task, GPtr, JoinOutcome, RecoveryConfig, RollbackReason, Runtime, RuntimeConfig, SpecContext,
    SpecFailure, ThreadManager, TlsContext,
};

/// One CPU, so every speculative task runs on rank 1.
fn one_cpu() -> RuntimeConfig {
    RuntimeConfig::with_cpus(1).memory_bytes(1 << 16)
}

/// Allocate `n` words, padded to a page so no two allocations share a
/// commit-log range.
fn alloc_padded(rt: &Runtime, n: usize) -> GPtr<u64> {
    let words = rt.alloc::<u64>(n.max(512));
    words.slice(0, n)
}

/// Fork `body` and join it, asserting it really ran speculatively.
fn fork_join(
    ctx: &mut SpecContext,
    point: u32,
    body: impl Fn(&mut SpecContext) -> mutls_runtime::SpecResult<()> + Send + Sync + 'static,
) -> JoinOutcome {
    let handle = ctx.fork(point, task(body)).expect("fork");
    assert!(handle.speculated(), "fork {point} found no idle CPU");
    ctx.join(handle).expect("join")
}

#[test]
fn sequential_forks_on_one_cpu_see_fresh_state_and_commit_only_their_writes() {
    let rt = Runtime::new(one_cpu());
    let x = alloc_padded(&rt, 1);
    let out = alloc_padded(&rt, 3);
    // Twice through the same runtime: the buffer is reused within a run
    // and across runs.
    for run in 0..2u64 {
        let (_, report) = rt.run(|ctx| {
            ctx.store(&x, 0, 3)?;
            for i in 0..3 {
                ctx.store(&out, i, 0)?;
            }
            // First child: reads x and writes out[0] and out[2].
            let first = fork_join(ctx, 1, move |c| {
                let v = c.load(&x, 0)?;
                c.store(&out, 0, v)?;
                c.store(&out, 2, 11)
            });
            assert_eq!(first, JoinOutcome::Committed, "run {run}: first child");
            assert_eq!(ctx.load(&out, 2)?, 11);
            // Rank 0 changes what the first child read and overwrites
            // what it wrote.
            ctx.store(&x, 0, 7)?;
            ctx.store(&out, 2, 0)?;
            // Second child on the same CPU: a stale read-set entry would
            // serve 3 (and fail validation); a stale write-set entry would
            // republish out[2] = 11.
            let second = fork_join(ctx, 2, move |c| {
                let v = c.load(&x, 0)?;
                c.store(&out, 1, v)
            });
            assert_eq!(second, JoinOutcome::Committed, "run {run}: second child");
            Ok(())
        });
        let mem = rt.memory();
        assert_eq!(mem.get(&out, 0), 3, "run {run}");
        assert_eq!(mem.get(&out, 1), 7, "run {run}: second child read stale x");
        assert_eq!(
            mem.get(&out, 2),
            0,
            "run {run}: second child republished the first child's write"
        );
        assert_eq!(report.committed_threads, 2, "run {run}");
        assert_eq!(report.rolled_back_threads, 0, "run {run}");
    }
}

#[test]
fn overflow_rollback_leaves_a_clean_buffer_for_the_next_fork() {
    let rt = Runtime::new(one_cpu().buffer(BufferConfig::tiny()));
    // Far more words than the tiny write set (16 slots + 4 overflow).
    let big = alloc_padded(&rt, 64);
    let small = alloc_padded(&rt, 2);
    let (_, report) = rt.run(|ctx| {
        let overflowed = fork_join(ctx, 1, move |c| {
            for i in 0..64 {
                c.store(&big, i, i as u64 + 1)?;
            }
            Ok(())
        });
        assert_eq!(
            overflowed,
            JoinOutcome::RolledBack(SpecFailure::BufferOverflow)
        );
        // Rank 0 re-executed the child inline; clear its words again so a
        // leftover write-set entry would show.
        for i in 0..64 {
            ctx.store(&big, i, 0)?;
        }
        let next = fork_join(ctx, 2, move |c| {
            let v = c.load(&small, 0)?;
            c.store(&small, 1, v + 5)
        });
        assert_eq!(next, JoinOutcome::Committed);
        Ok(())
    });
    let mem = rt.memory();
    assert_eq!(mem.get(&small, 1), 5);
    assert!((0..64).all(|i| mem.get(&big, i) == 0));
    assert_eq!(report.committed_threads, 1);
    assert_eq!(report.rollback_reasons[RollbackReason::Overflow.index()], 1);
}

/// Whether rank 1 is registered as a reader of `ptr[0]`.
fn registered(mgr: &ThreadManager, ptr: &GPtr<u64>) -> bool {
    mgr.commit_log()
        .registered_readers(ptr.addr_of(0))
        .contains(1)
}

#[test]
fn reused_buffer_keeps_the_reader_identity_of_its_recovery_mode() {
    for (recovery, targeted) in [
        (RecoveryConfig::default(), true),
        (RecoveryConfig::cascade_only(), false),
    ] {
        let rt = Runtime::new(one_cpu().recovery(recovery));
        let warm = alloc_padded(&rt, 1);
        let x = alloc_padded(&rt, 1);
        let mgr = Arc::clone(rt.manager());
        // Observed on the worker, asserted here: a failed assertion on the
        // worker would leave the join waiting forever.
        let first_registered = Arc::new(AtomicBool::new(false));
        let second_registered = Arc::new(AtomicBool::new(false));
        let read_done = Arc::new(AtomicBool::new(false));
        let doomed = Arc::new(AtomicBool::new(false));
        rt.run(|ctx| {
            // The first fork allocates rank 1's buffer; the second reuses it.
            let (m, seen) = (Arc::clone(&mgr), Arc::clone(&first_registered));
            let first = fork_join(ctx, 1, move |c| {
                c.load(&warm, 0)?;
                if c.is_speculative() {
                    seen.store(registered(&m, &warm), Ordering::Release);
                }
                Ok(())
            });
            assert_eq!(first, JoinOutcome::Committed);

            let (m, seen) = (Arc::clone(&mgr), Arc::clone(&second_registered));
            let (read, hit) = (Arc::clone(&read_done), Arc::clone(&doomed));
            let handle = ctx.fork(
                2,
                task(move |c: &mut SpecContext| {
                    c.load(&x, 0)?;
                    if !c.is_speculative() {
                        return Ok(());
                    }
                    seen.store(registered(&m, &x), Ordering::Release);
                    read.store(true, Ordering::Release);
                    if !targeted {
                        return Ok(());
                    }
                    // Spin until rank 0's store dooms this thread.
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while Instant::now() < deadline {
                        if let Err(abort) = c.check_point() {
                            hit.store(true, Ordering::Release);
                            return Err(abort);
                        }
                        std::hint::spin_loop();
                    }
                    Ok(())
                }),
            )?;
            assert!(handle.speculated());
            if targeted {
                while !read_done.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                // A changed value, so the in-flight value retry cannot
                // clear the doom.
                ctx.store(&x, 0, 9)?;
                assert_eq!(
                    ctx.join(handle)?,
                    JoinOutcome::RolledBack(SpecFailure::ReadConflict)
                );
            } else {
                assert_eq!(ctx.join(handle)?, JoinOutcome::Committed);
            }
            Ok(())
        });
        let mode = if targeted { "targeted" } else { "cascade" };
        assert_eq!(
            first_registered.load(Ordering::Acquire),
            targeted,
            "{mode}: first fork's reader registration"
        );
        assert_eq!(
            second_registered.load(Ordering::Acquire),
            targeted,
            "{mode}: reused buffer's reader registration"
        );
        assert!(read_done.load(Ordering::Acquire), "{mode}");
        assert_eq!(
            doomed.load(Ordering::Acquire),
            targeted,
            "{mode}: a rank-0 store dooms the reused buffer's reader only under targeted recovery"
        );
    }
}
