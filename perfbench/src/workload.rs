//! The three Table II workloads the benchmark drives, at the sizes it
//! measures them, with inputs generated from the benchmark's seed.
//!
//! Each workload is set up by its own crate's `setup` (allocation plus
//! first touch of the arena), then the benchmark overwrites the input
//! arrays with values drawn from the seed, so the `DirectContext` side
//! and the TLS side of one repetition see the same input.

use mutls_membuf::GlobalMemory;
use mutls_workloads::{fft, mandelbrot, md, WorkloadData};

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Molecular dynamics: read-heavy loop chain that commits every join.
    Md,
    /// Tree-form divide-and-conquer FFT whose children overflow.
    Fft,
    /// Row-interleaved, write-only image loop that overflows the write set.
    Mandelbrot,
}

impl Kind {
    /// Every workload, in the order of `BENCHMARK.json`.
    pub const ALL: [Kind; 3] = [Kind::Md, Kind::Fft, Kind::Mandelbrot];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Md => "md",
            Kind::Fft => "fft",
            Kind::Mandelbrot => "mandelbrot",
        }
    }

    /// Whether the seed changes the input (mandelbrot has no data input).
    pub fn seed_applies(self) -> bool {
        !matches!(self, Kind::Mandelbrot)
    }
}

/// Problem size: the measured one, or a tiny one for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark reports.
    Full,
    /// Seconds-fast sizes that exercise every code path.
    Tiny,
}

impl Size {
    /// Parse `full` / `tiny`.
    pub fn parse(name: &str) -> Option<Size> {
        match name {
            "full" => Some(Size::Full),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }
}

/// md: the paper's 256 particles and 64 force chunks.
fn md_config(size: Size) -> md::Config {
    match size {
        Size::Full => md::Config {
            particles: 256,
            steps: 40,
            chunks: 64,
        },
        Size::Tiny => md::Config::tiny(),
    }
}

/// fft: the paper's n : fork-threshold ratio of 2^6.
fn fft_config(size: Size) -> fft::Config {
    match size {
        Size::Full => fft::Config {
            n: 1 << 16,
            fork_threshold: 1 << 10,
        },
        Size::Tiny => fft::Config {
            n: 1 << 8,
            fork_threshold: 1 << 2,
        },
    }
}

/// mandelbrot: the paper's 512×512 image and 64 chunks; only `max_iter`
/// is reduced.
pub(crate) fn mandelbrot_config(size: Size) -> mandelbrot::Config {
    match size {
        Size::Full => mandelbrot::Config {
            width: 512,
            height: 512,
            max_iter: 1024,
            chunks: 64,
        },
        Size::Tiny => mandelbrot::Config::tiny(),
    }
}

/// Describe the configuration of `kind` at `size` for the provenance line.
pub fn describe(kind: Kind, size: Size) -> String {
    match kind {
        Kind::Md => format!("{:?}", md_config(size)),
        Kind::Fft => format!("{:?}", fft_config(size)),
        Kind::Mandelbrot => format!("{:?}", mandelbrot_config(size)),
    }
}

/// SplitMix64: the seed expands into the input arrays.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Allocate `kind` in `memory` and fill its input from `seed`.
pub fn setup(kind: Kind, size: Size, memory: &GlobalMemory, seed: u64) -> WorkloadData {
    let mut rng = SplitMix(seed);
    match kind {
        Kind::Md => {
            let config = md_config(size);
            let data = md::setup(memory, &config);
            // Positions uniform in the unit box, as `md::setup` draws them.
            for i in 0..3 * config.particles {
                memory.set(&data.pos, i, rng.unit());
            }
            WorkloadData::Md(data, config)
        }
        Kind::Fft => {
            let config = fft_config(size);
            let data = fft::setup(memory, &config);
            for i in 0..config.n {
                memory.set(&data.re, i, 2.0 * rng.unit() - 1.0);
                memory.set(&data.im, i, 2.0 * rng.unit() - 1.0);
            }
            WorkloadData::Fft(data, config)
        }
        Kind::Mandelbrot => {
            let config = mandelbrot_config(size);
            WorkloadData::Mandelbrot(mandelbrot::setup(memory, &config), config)
        }
    }
}
