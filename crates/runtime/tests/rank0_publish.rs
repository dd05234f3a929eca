//! Rank 0 publishes its stores to the commit log only while some
//! speculative task could still commit.  These tests pin both halves of
//! that gate: a quiescent store records nothing, and a store made while a
//! task is counted — running, or completed but not yet joined — is
//! published, so the task's stale read never commits.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mutls_runtime::membuf::BufferConfig;
use mutls_runtime::{
    task, DirectContext, GPtr, GlobalMemory, JoinOutcome, RecoveryConfig, Runtime, RuntimeConfig,
    SpecContext, SpecFailure, SpecHandle, SpecResult, TlsContext,
};

const MEMORY_BYTES: u64 = 1 << 16;

/// One CPU, so every speculative task runs on rank 1.
fn one_cpu(recovery: RecoveryConfig) -> RuntimeConfig {
    RuntimeConfig::with_cpus(1)
        .memory_bytes(MEMORY_BYTES)
        .recovery(recovery)
}

/// Every recovery engine the gate must hold under.
fn recovery_modes() -> [(&'static str, RecoveryConfig); 3] {
    [
        ("cascade", RecoveryConfig::cascade_only()),
        ("targeted", RecoveryConfig::targeted()),
        ("mvcc", RecoveryConfig::default()),
    ]
}

/// Allocate `n` words through `alloc`, padded to a page so no two
/// allocations share a commit-log range.  The runtime and the sequential
/// baseline allocate in the same order, so their addresses match.
fn padded(alloc: impl Fn(usize) -> GPtr<u64>, n: usize) -> GPtr<u64> {
    alloc(n.max(512)).slice(0, n)
}

/// Hand-offs between rank 0 and the speculative child.
#[derive(Default)]
struct Handshake {
    /// The child has read `x`.
    read: AtomicBool,
    /// The child has finished its body.
    done: AtomicBool,
    /// Rank 0 has stored the new `x`.
    stored: AtomicBool,
}

/// Spin until `flag` is set or `check` aborts the caller (a doom).
fn wait_for<C: TlsContext>(c: &mut C, flag: &AtomicBool) -> SpecResult<()> {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !flag.load(Ordering::Acquire) {
        assert!(Instant::now() < deadline, "handshake timed out");
        c.check_point()?;
        std::hint::spin_loop();
    }
    Ok(())
}

/// Rank 0 stores `x = 1`, forks a child that reads `x` and writes
/// `out = 10 * x`, then stores `x = 2` after the child's read and joins.
/// With `child_waits`, the child is still running at the store (it spins
/// until the store lands); without, it has finished and waits to be
/// joined.  Sequentially the child runs at the join and reads 2.
/// `speculated` tells whether a fork handle found a CPU.
fn stale_read_program<C: TlsContext + 'static>(
    ctx: &mut C,
    x: GPtr<u64>,
    out: GPtr<u64>,
    sync: Arc<Handshake>,
    child_waits: bool,
    speculated: impl Fn(&C::Handle) -> bool,
) -> SpecResult<(u64, Option<JoinOutcome>)> {
    ctx.store(&x, 0, 1)?;
    let child_sync = Arc::clone(&sync);
    let handle = ctx.fork(
        1,
        task(move |c: &mut C| {
            let v = c.load(&x, 0)?;
            if c.is_speculative() {
                child_sync.read.store(true, Ordering::Release);
                if child_waits {
                    wait_for(c, &child_sync.stored)?;
                }
            }
            c.store(&out, 0, 10 * v)?;
            child_sync.done.store(true, Ordering::Release);
            Ok(())
        }),
    )?;
    let speculated = speculated(&handle);
    if speculated {
        let flag = if child_waits { &sync.read } else { &sync.done };
        while !flag.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        if !child_waits {
            // Let the finished child deposit its outcome.
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    ctx.store(&x, 0, 2)?;
    sync.stored.store(true, Ordering::Release);
    let joined = ctx.join(handle)?;
    Ok((ctx.load(&out, 0)?, speculated.then_some(joined)))
}

/// The sequential result of [`stale_read_program`].
fn sequential_stale_read(child_waits: bool) -> u64 {
    let memory = Arc::new(GlobalMemory::new(MEMORY_BYTES));
    let x = padded(|n| memory.alloc::<u64>(n), 1);
    let out = padded(|n| memory.alloc::<u64>(n), 1);
    let mut ctx = DirectContext::new(Arc::clone(&memory));
    let sync = Arc::new(Handshake::default());
    let (value, joined) =
        stale_read_program(&mut ctx, x, out, sync, child_waits, |_| false).unwrap();
    assert_eq!(joined, None);
    value
}

fn check_stale_read_is_caught(child_waits: bool) {
    let expected = sequential_stale_read(child_waits);
    assert_eq!(expected, 20);
    for (mode, recovery) in recovery_modes() {
        let rt = Runtime::new(one_cpu(recovery));
        let x = padded(|n| rt.alloc::<u64>(n), 1);
        let out = padded(|n| rt.alloc::<u64>(n), 1);
        let sync = Arc::new(Handshake::default());
        let ((value, joined), report) = rt
            .run(|ctx| stale_read_program(ctx, x, out, sync, child_waits, SpecHandle::speculated));
        assert_eq!(
            joined,
            Some(JoinOutcome::RolledBack(SpecFailure::ReadConflict)),
            "{mode}: the stale read must not commit"
        );
        assert_eq!(value, expected, "{mode}: differs from DirectContext");
        assert!(
            report.commit_log.commits >= 1,
            "{mode}: the store made while the child was live was not published"
        );
        assert_eq!(report.committed_threads, 0, "{mode}");
    }
}

#[test]
fn a_run_without_forks_publishes_nothing() {
    let rt = Runtime::new(one_cpu(RecoveryConfig::default()));
    let data = padded(|n| rt.alloc::<u64>(n), 64);
    let (sum, report) = rt.run(|ctx| {
        for i in 0..64 {
            ctx.store(&data, i, i as u64)?;
        }
        let mut sum = 0;
        for i in 0..64 {
            sum += ctx.load(&data, i)?;
        }
        Ok(sum)
    });
    assert_eq!(sum, (0..64).sum::<u64>());
    assert_eq!(report.commit_log.commits, 0);
    assert_eq!(report.commit_log.stamp_writes, 0);
}

#[test]
fn a_store_under_a_running_reader_fails_its_validation() {
    check_stale_read_is_caught(true);
}

#[test]
fn a_store_under_a_completed_unjoined_reader_fails_its_validation() {
    check_stale_read_is_caught(false);
}

#[test]
fn stores_after_an_overflow_failure_publish_nothing() {
    let rt = Runtime::new(one_cpu(RecoveryConfig::default()).buffer(BufferConfig::tiny()));
    // Far more words than the tiny write set (16 slots + 4 overflow).
    let big = padded(|n| rt.alloc::<u64>(n), 64);
    let flag = padded(|n| rt.alloc::<u64>(n), 1);
    let mgr = Arc::clone(rt.manager());
    let go = Arc::new(AtomicBool::new(false));
    let child_go = Arc::clone(&go);
    let (commits_while_live, report) = rt.run(|ctx| {
        let handle = ctx.fork(
            1,
            task(move |c: &mut SpecContext| {
                if c.is_speculative() {
                    wait_for(c, &child_go)?;
                }
                for i in 0..64 {
                    c.store(&big, i, i as u64 + 1)?;
                }
                Ok(())
            }),
        )?;
        assert!(handle.speculated());
        assert_eq!(mgr.committable_speculations(), 1);
        // Published: the child could still commit.
        ctx.store(&flag, 0, 1)?;
        let commits_while_live = mgr.commit_log().commits();
        go.store(true, Ordering::Release);
        // The child overflows and deposits its failure; it stops counting
        // before the join.
        while mgr.committable_speculations() != 0 {
            std::thread::yield_now();
        }
        assert_eq!(mgr.active_speculations(), 1, "not joined yet");
        for i in 0..64 {
            ctx.store(&big, i, 0)?;
        }
        ctx.store(&flag, 0, 2)?;
        assert_eq!(mgr.commit_log().commits(), commits_while_live);
        assert_eq!(
            ctx.join(handle)?,
            JoinOutcome::RolledBack(SpecFailure::BufferOverflow)
        );
        Ok(commits_while_live)
    });
    assert_eq!(commits_while_live, 1);
    // Neither the failed join nor rank 0's inline re-execution publishes.
    assert_eq!(report.commit_log.commits, commits_while_live);
    let mem = rt.memory();
    assert!((0..64).all(|i| mem.get(&big, i) == i as u64 + 1));
    assert_eq!(mem.get(&flag, 0), 2);
}

#[test]
fn a_run_returns_only_after_reaped_subtrees_unwind() {
    let rt = Runtime::new(
        RuntimeConfig::with_cpus(2)
            .memory_bytes(MEMORY_BYTES)
            .buffer(BufferConfig::tiny()),
    );
    let big = padded(|n| rt.alloc::<u64>(n), 64);
    let (_, report) = rt.run(|ctx| {
        let handle = ctx.fork(
            1,
            task(move |c: &mut SpecContext| {
                if c.is_speculative() {
                    // A grandchild left unjoined, which notices the reap of
                    // its subtree only at its next slow poll.
                    c.fork(
                        2,
                        task(|g: &mut SpecContext| {
                            let deadline = Instant::now() + Duration::from_secs(10);
                            while g.is_speculative() && Instant::now() < deadline {
                                std::thread::sleep(Duration::from_millis(20));
                                g.check_point()?;
                            }
                            Ok(())
                        }),
                    )?;
                }
                for i in 0..64 {
                    c.store(&big, i, 1)?;
                }
                Ok(())
            }),
        )?;
        assert!(handle.speculated());
        assert_eq!(
            ctx.join(handle)?,
            JoinOutcome::RolledBack(SpecFailure::BufferOverflow)
        );
        Ok(())
    });
    assert_eq!(
        report.rolled_back_threads, 2,
        "the child and its grandchild"
    );
    let mgr = rt.manager();
    assert_eq!(
        mgr.active_speculations(),
        0,
        "a reaped task outlived the run"
    );
    assert_eq!(mgr.committable_speculations(), 0);
}
