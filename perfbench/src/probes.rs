//! Layer probes: ns/op microbenchmarks of the public functions of
//! `runtime`, `membuf` and `adaptive`.
//!
//! Each probe times one operation class on its own, in batches of `OPS`
//! operations, with every allocation and reset kept outside the timed
//! region; the reported value is the median batch's ns per operation.
//! The speculative-path probes run inside a real forked task on rank ≥ 1,
//! timed by the task itself; the rank-0 probes run inside `Runtime::run`
//! with no children.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mutls_adaptive::{ForkModel, Governor, GovernorConfig, SiteOutcome};
use mutls_membuf::{BufferConfig, GPtr, GlobalBuffer, GlobalMemory, MainMemory, WORD_BYTES};
use mutls_runtime::{task, DirectContext, Runtime, RuntimeConfig, SpecContext, TlsContext};

use crate::stats::median;
use crate::workload::{self, Size};

/// Operations per timed batch.
const OPS: usize = 4096;
/// Words a join-commit probe child reads and writes.
const JOIN_WORDS: usize = 64;
/// Fork-site ids of the probes (distinct from every workload site).
const PROBE_SITE: u32 = 9_001;
const SPINNER_SITE: u32 = 9_002;
const DENIED_SITE: u32 = 9_003;

/// Probe results as `(metric name, value)`.
pub type Results = Vec<(&'static str, f64)>;

fn ns_per_op(elapsed: Duration, ops: usize) -> f64 {
    elapsed.as_nanos() as f64 / ops as f64
}

/// Run every probe with `batches` batches each.
pub fn run_all(config: RuntimeConfig, batches: usize) -> Results {
    let mut out = Results::new();
    let rt = Runtime::new(config);
    run_entry(&rt, batches, &mut out);
    speculative_path(&rt, batches, &mut out);
    rank0_path(&rt, batches, &mut out);
    direct_path(config, batches, &mut out);
    fork_and_join(&rt, batches, &mut out);
    membuf(&rt, batches, &mut out);
    write_set_capacity(config.buffer, &mut out);
    governor(config.governor, batches, &mut out);
    out
}

/// The fixed cost of entering and leaving `Runtime::run`.
fn run_entry(rt: &Runtime, batches: usize, out: &mut Results) {
    let samples = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            let _ = rt.run(|_| Ok(()));
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    out.push(("runtime.run_empty_ns", median(samples)));
}

/// First-touch loads, re-reads and stores inside a forked task.
fn speculative_path(rt: &Runtime, batches: usize, out: &mut Results) {
    let src = rt.alloc::<u64>(OPS);
    let dst = rt.alloc::<u64>(OPS);
    let samples = Arc::new(Mutex::new(Vec::<[Duration; 3]>::new()));
    let _ = rt.run(|ctx| {
        for _ in 0..batches {
            let samples = Arc::clone(&samples);
            let probe = task(move |c: &mut SpecContext| {
                if !c.is_speculative() {
                    return Ok(());
                }
                let mut acc = 0u64;
                let t0 = Instant::now();
                for i in 0..OPS {
                    acc ^= c.load(&src, i)?;
                }
                let t1 = Instant::now();
                for i in 0..OPS {
                    acc ^= c.load(&src, i)?;
                }
                let t2 = Instant::now();
                for i in 0..OPS {
                    c.store(&dst, i, black_box(acc) ^ i as u64)?;
                }
                let t3 = Instant::now();
                samples
                    .lock()
                    .expect("probe sample lock")
                    .push([t1 - t0, t2 - t1, t3 - t2]);
                Ok(())
            });
            let handle = ctx.fork(PROBE_SITE, probe)?;
            ctx.join(handle)?;
        }
        Ok(())
    });
    let samples = samples.lock().expect("probe sample lock");
    for (k, name) in [
        "runtime.spec_load_ns",
        "runtime.spec_load_hit_ns",
        "runtime.spec_store_ns",
    ]
    .into_iter()
    .enumerate()
    {
        out.push((
            name,
            median(samples.iter().map(|s| ns_per_op(s[k], OPS)).collect()),
        ));
    }
}

/// Loads and stores of the non-speculative thread with no children.
fn rank0_path(rt: &Runtime, batches: usize, out: &mut Results) {
    let words = rt.alloc::<u64>(OPS);
    let (mut loads, mut stores) = (Vec::new(), Vec::new());
    let _ = rt.run(|ctx| {
        for _ in 0..batches {
            let mut acc = 0u64;
            let t0 = Instant::now();
            for i in 0..OPS {
                acc ^= ctx.load(&words, i)?;
            }
            let t1 = Instant::now();
            for i in 0..OPS {
                ctx.store(&words, i, black_box(acc) ^ i as u64)?;
            }
            let t2 = Instant::now();
            loads.push(ns_per_op(t1 - t0, OPS));
            stores.push(ns_per_op(t2 - t1, OPS));
        }
        Ok(())
    });
    out.push(("runtime.rank0_load_ns", median(loads)));
    out.push(("runtime.rank0_store_ns", median(stores)));
}

/// The sequential floor: `DirectContext` loads and stores.
fn direct_path(config: RuntimeConfig, batches: usize, out: &mut Results) {
    let memory = Arc::new(GlobalMemory::new(config.memory_bytes));
    let words = memory.alloc::<u64>(OPS);
    let mut ctx = DirectContext::new(Arc::clone(&memory));
    let (mut loads, mut stores) = (Vec::new(), Vec::new());
    for _ in 0..batches {
        let mut acc = 0u64;
        let t0 = Instant::now();
        for i in 0..OPS {
            acc ^= ctx.load(&words, i).expect("direct load");
        }
        let t1 = Instant::now();
        for i in 0..OPS {
            ctx.store(&words, i, black_box(acc) ^ i as u64)
                .expect("direct store");
        }
        let t2 = Instant::now();
        loads.push(ns_per_op(t1 - t0, OPS));
        stores.push(ns_per_op(t2 - t1, OPS));
    }
    out.push(("runtime.direct_load_ns", median(loads)));
    out.push(("runtime.direct_store_ns", median(stores)));
}

/// Wait until `flag` is set, then give the worker time to deposit its
/// outcome so the timed join does not include the child's own run.
fn await_finished(flag: &AtomicBool) {
    while !flag.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_micros(200));
}

/// Fork start latency, denied forks, committing joins and rollbacks.
fn fork_and_join(rt: &Runtime, batches: usize, out: &mut Results) {
    let num_cpus = rt.config().num_cpus;
    let src = rt.alloc::<u64>(JOIN_WORDS);
    let dst = rt.alloc::<u64>(JOIN_WORDS);
    let geometry = workload::mandelbrot_config(Size::Full);
    let image = rt.alloc::<u64>(geometry.width * geometry.height);
    let origin = Instant::now();
    let (mut start, mut denied, mut commit, mut rollback) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let _ = rt.run(|ctx| {
        for _ in 0..batches {
            // Parent's fork call → child's first instruction.
            let started_at = Arc::new(AtomicU64::new(0));
            let stamp = Arc::clone(&started_at);
            let first = task(move |c: &mut SpecContext| {
                if c.is_speculative() {
                    stamp.store(origin.elapsed().as_nanos() as u64, Ordering::Release);
                }
                Ok(())
            });
            let forked_at = origin.elapsed().as_nanos() as u64;
            let handle = ctx.fork(PROBE_SITE, first)?;
            ctx.join(handle)?;
            let child_at = started_at.load(Ordering::Acquire);
            if child_at > 0 {
                start.push(child_at.saturating_sub(forked_at) as f64);
            }

            // Forks denied because every CPU is busy with a spinner.
            let release = Arc::new(AtomicBool::new(false));
            let mut spinners = Vec::new();
            for _ in 0..num_cpus {
                let release = Arc::clone(&release);
                let spin = task(move |c: &mut SpecContext| {
                    while c.is_speculative() && !release.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    Ok(())
                });
                spinners.push(ctx.fork(SPINNER_SITE, spin)?);
            }
            let noop = task(|_: &mut SpecContext| Ok(()));
            let mut refused = Vec::with_capacity(OPS);
            let t0 = Instant::now();
            for _ in 0..OPS {
                refused.push(ctx.fork(DENIED_SITE, Arc::clone(&noop))?);
            }
            let t1 = Instant::now();
            release.store(true, Ordering::Release);
            if refused.iter().all(|h| !h.speculated()) {
                denied.push(ns_per_op(t1 - t0, OPS));
            }
            for handle in refused {
                ctx.join(handle)?;
            }
            while let Some(handle) = spinners.pop() {
                ctx.join(handle)?;
            }

            // A committing join of a finished child that read and wrote
            // JOIN_WORDS words.
            let done = Arc::new(AtomicBool::new(false));
            let finished = Arc::clone(&done);
            let child = task(move |c: &mut SpecContext| {
                if !c.is_speculative() {
                    return Ok(());
                }
                let mut acc = 0u64;
                for i in 0..JOIN_WORDS {
                    acc ^= c.load(&src, i)?;
                }
                for i in 0..JOIN_WORDS {
                    c.store(&dst, i, acc ^ i as u64)?;
                }
                finished.store(true, Ordering::Release);
                Ok(())
            });
            let handle = ctx.fork(PROBE_SITE, child)?;
            if handle.speculated() {
                await_finished(&done);
                let t0 = Instant::now();
                ctx.join(handle)?;
                commit.push(t0.elapsed().as_nanos() as f64);
            } else {
                ctx.join(handle)?;
            }

            // A rolling-back join of a child that overflowed its write set
            // with mandelbrot's row-interleaved store pattern.
            let done = Arc::new(AtomicBool::new(false));
            let finished = Arc::clone(&done);
            let child = task(move |c: &mut SpecContext| {
                if !c.is_speculative() {
                    return Ok(());
                }
                let result = (|| {
                    for idx in row_interleaved().map(|a| a as usize) {
                        c.store(&image, idx, 1u64)?;
                    }
                    Ok(())
                })();
                finished.store(true, Ordering::Release);
                result
            });
            let handle = ctx.fork(PROBE_SITE, child)?;
            if handle.speculated() {
                await_finished(&done);
                let t0 = Instant::now();
                ctx.join(handle)?;
                rollback.push(t0.elapsed().as_nanos() as f64);
            } else {
                ctx.join(handle)?;
            }
        }
        Ok(())
    });
    out.push(("runtime.fork_start_ns", median(start)));
    out.push(("runtime.fork_denied_ns", median(denied)));
    out.push(("runtime.join_commit_ns", median(commit)));
    out.push(("runtime.rollback_ns", median(rollback)));
}

/// Word indices of the measured mandelbrot image in the order its first
/// speculative chunk chain stores them: chunk 1's rows, then chunk 2's, and
/// so on.
fn row_interleaved() -> impl Iterator<Item = u64> {
    let image = workload::mandelbrot_config(Size::Full);
    let (width, chunks) = (image.width, image.chunks);
    (1..chunks).flat_map(move |chunk| {
        (chunk..image.height)
            .step_by(chunks)
            .flat_map(move |row| (0..width).map(move |col| (row * width + col) as u64))
    })
}

/// `GlobalMemory`, `GlobalBuffer` and `CommitLog` operations on the
/// runtime's own arena and commit log.
fn membuf(rt: &Runtime, batches: usize, out: &mut Results) {
    let memory = rt.memory();
    let mem: &GlobalMemory = &memory;
    let log = rt.manager().commit_log();
    let words: GPtr<u64> = rt.alloc::<u64>(OPS);
    let addrs: Vec<u64> = (0..OPS).map(|i| words.addr_of(i)).collect();
    let reader = 1;
    let mut buffer = GlobalBuffer::for_reader(rt.config().buffer, reader);
    let mut samples: [Vec<f64>; 7] = Default::default();
    for _ in 0..batches {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for &a in &addrs {
            acc ^= mem.read_word(a);
        }
        black_box(acc);
        samples[0].push(ns_per_op(t0.elapsed(), OPS));

        let t0 = Instant::now();
        for &a in &addrs {
            acc ^= buffer
                .load_logged(mem, Some(log), a, WORD_BYTES)
                .expect("probe load fits the read set");
        }
        black_box(acc);
        samples[1].push(ns_per_op(t0.elapsed(), OPS));
        let t0 = Instant::now();
        black_box(buffer.validate_against_with(log, mem));
        samples[2].push(ns_per_op(t0.elapsed(), OPS));
        log.unregister_reader(addrs.iter().copied(), reader);
        buffer.clear();

        let t0 = Instant::now();
        for &a in &addrs {
            buffer
                .store(a, a, WORD_BYTES)
                .expect("probe store fits the write set");
        }
        samples[3].push(ns_per_op(t0.elapsed(), OPS));
        let t0 = Instant::now();
        buffer.commit(mem);
        log.record(buffer.write_addresses());
        samples[4].push(ns_per_op(t0.elapsed(), OPS));
        buffer.clear();

        let t0 = Instant::now();
        for &a in &addrs {
            log.record_word(a);
        }
        samples[5].push(ns_per_op(t0.elapsed(), OPS));

        let t0 = Instant::now();
        for &a in &addrs {
            log.register_reader(a, reader);
        }
        samples[6].push(ns_per_op(t0.elapsed(), OPS));
        log.unregister_reader(addrs.iter().copied(), reader);
    }
    let names = [
        "membuf.memory_read_ns",
        "membuf.buffer_load_ns",
        "membuf.validate_ns_per_word",
        "membuf.buffer_store_ns",
        "membuf.commit_ns_per_word",
        "membuf.log_record_word_ns",
        "membuf.log_register_reader_ns",
    ];
    for (name, s) in names.into_iter().zip(samples) {
        out.push((name, median(s)));
    }
}

/// Exact number of stores a fresh `GlobalBuffer` accepts before it
/// overflows, for a contiguous and a row-interleaved address pattern.
fn write_set_capacity(config: BufferConfig, out: &mut Results) {
    let accepted = |indices: &mut dyn Iterator<Item = u64>| {
        let mut buffer = GlobalBuffer::new(config);
        let mut count = 0u64;
        for idx in indices {
            let addr = GlobalMemory::BASE_ADDR + idx * WORD_BYTES;
            if buffer.store(addr, idx, WORD_BYTES).is_err() {
                break;
            }
            count += 1;
        }
        count as f64
    };
    out.push((
        "membuf.write_set_capacity_words.contiguous",
        accepted(&mut (0u64..)),
    ));
    out.push((
        "membuf.write_set_capacity_words.row_interleaved",
        accepted(&mut row_interleaved()),
    ));
}

/// The governor's fork decision and join-outcome bookkeeping.
fn governor(config: GovernorConfig, batches: usize, out: &mut Results) {
    let gov = Governor::new(config);
    let outcome = SiteOutcome::committed(1_000, 10, ForkModel::Mixed);
    let (mut decide, mut record) = (Vec::new(), Vec::new());
    for _ in 0..batches {
        let t0 = Instant::now();
        for _ in 0..OPS {
            black_box(gov.decide(black_box(PROBE_SITE), ForkModel::Mixed));
        }
        decide.push(ns_per_op(t0.elapsed(), OPS));
        let t0 = Instant::now();
        for _ in 0..OPS {
            gov.record_outcome(black_box(PROBE_SITE), &outcome);
        }
        record.push(ns_per_op(t0.elapsed(), OPS));
    }
    out.push(("adaptive.decide_ns", median(decide)));
    out.push(("adaptive.record_outcome_ns", median(record)));
}
