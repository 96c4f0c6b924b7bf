//! What every workload shares: options, seeded inputs, repeated cold
//! set-ups, the time-boxed pass loop and the correctness tally.

use crate::trace;
use pmor_num::{Complex64, Matrix};
use std::time::Instant;

/// Input scale. `Tiny` exists for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmarked sizes.
    Full,
    /// Small inputs that run in well under a second.
    Tiny,
}

/// A deliberate defect, for the negative tests: the run must count it as
/// a failed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Flip one byte of a ROM before it is loaded.
    CorruptRom,
    /// Flip one bit of one evaluated value before it is checked.
    PerturbResponse,
}

/// One invocation's options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds the pass loop runs.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Input scale.
    pub size: Size,
    /// Injected defect, if any.
    pub fault: Option<Fault>,
}

impl Opts {
    /// `full` at the benchmarked size, `tiny` otherwise.
    pub fn pick<T>(&self, full: T, tiny: T) -> T {
        match self.size {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }
}

/// A workload's measured outcome. Times are in reference seconds (see
/// [`Speed`]) unless a workload's passes are not corrected; the `_wall`
/// lists keep the same samples as measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Reference seconds per cold set-up, one value per timed sample.
    pub setup_s: Vec<f64>,
    /// Wall seconds per cold set-up, one value per timed sample.
    pub setup_wall: Vec<f64>,
    /// How many set-ups each sample timed back to back.
    pub setup_group: usize,
    /// Reference (or, uncorrected, wall) seconds of each untraced pass.
    pub pass_s: Vec<f64>,
    /// Wall seconds of each untraced pass.
    pub pass_wall: Vec<f64>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
}

/// The host's current speed, read from a fixed reference kernel timed
/// next to every pass and set-up sample.
///
/// The measuring host's vCPUs slow down by up to 1.6x for minutes at a
/// time under their neighbours' load, which moves every wall time of a
/// run together. A measured interval `t` is therefore reported as
/// `t * REFERENCE_S / k`, where `k` is the mean of the kernel's times
/// just before and just after the interval: the interval's length at
/// the speed at which the kernel takes `REFERENCE_S`. The kernel is
/// benchmark code that no change to the library touches.
pub struct Speed {
    before: f64,
}

impl Speed {
    /// The reference kernel's time on the measuring host when its
    /// neighbours are quiet. Any fixed value works: only ratios between
    /// runs matter.
    pub const REFERENCE_S: f64 = 0.006;

    /// Takes the first reading.
    pub fn new() -> Speed {
        Speed {
            before: reference_kernel(),
        }
    }

    /// Reads the speed again and converts `wall` seconds, measured since
    /// the previous reading, to reference seconds.
    pub fn correct(&mut self, wall: f64) -> f64 {
        let after = reference_kernel();
        let k = 0.5 * (self.before + after);
        self.before = after;
        wall * Self::REFERENCE_S / k
    }
}

/// Seconds a fixed dense kernel takes: three products of two 128x128
/// matrices.
fn reference_kernel() -> f64 {
    const N: usize = 128;
    let a: Vec<f64> = (0..N * N).map(|i| (i % 97) as f64 * 0.01).collect();
    let b: Vec<f64> = (0..N * N).map(|i| (i % 89) as f64 * 0.01).collect();
    let (a, b) = (std::hint::black_box(a), std::hint::black_box(b));
    let mut c = vec![0.0f64; N * N];
    let t = Instant::now();
    for _ in 0..3 {
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
        std::hint::black_box(&mut c);
    }
    t.elapsed().as_secs_f64()
}

/// A deterministic generator for benchmark inputs (SplitMix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator; `stream` separates independent uses of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// A parameter point with every coordinate uniform in `[-r, r)`.
    pub fn params(&mut self, n: usize, r: f64) -> Vec<f64> {
        (0..n).map(|_| self.uniform(-r, r)).collect()
    }

    /// A frequency log-uniform in `[lo, hi)` Hz.
    pub fn log_freq(&mut self, lo: f64, hi: f64) -> f64 {
        (self.uniform(lo.ln(), hi.ln())).exp()
    }
}

/// `s = j·2πf`.
pub fn jw(f_hz: f64) -> Complex64 {
    Complex64::jw(2.0 * std::f64::consts::PI * f_hz)
}

/// `n` log-spaced frequencies from `lo` to `hi` Hz inclusive.
pub fn log_space(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (lo.ln() + (hi.ln() - lo.ln()) * i as f64 / (n - 1).max(1) as f64).exp())
        .collect()
}

/// Largest entry of `|a − b|` relative to the largest entry of `|b|`.
pub fn rel_err(a: &Matrix<Complex64>, b: &Matrix<Complex64>) -> f64 {
    a.sub_mat(b).max_abs() / b.max_abs().max(1e-300)
}

/// Whether `err` is within `tol`; a NaN error never is.
pub fn within(err: f64, tol: f64) -> bool {
    err <= tol
}

/// Whether two value lists are bitwise identical.
pub fn same_bits(a: &[Complex64], b: &[Complex64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// Cold set-ups timed in samples of `group` back to back. The first
/// sample runs before the passes and yields the state they use; the rest
/// are spread over the pass loop (see [`run_passes`]) so that set-up and
/// pass times see the same host conditions. Each set-up is a root span
/// named `setup`.
pub struct Setups<T, S, D> {
    samples: usize,
    group: usize,
    setup: S,
    teardown: D,
    times: Vec<f64>,
    wall: Vec<f64>,
    _out: std::marker::PhantomData<T>,
}

impl<T, S, D> Setups<T, S, D>
where
    S: FnMut() -> Result<T, String>,
    D: FnMut(T) -> Result<(), String>,
{
    /// `samples` samples of `group` set-ups each. `teardown` receives
    /// every output not handed back, after its sample's clock stopped, so
    /// tearing down is never timed.
    pub fn new(samples: usize, group: usize, setup: S, teardown: D) -> Self {
        Setups {
            samples,
            group,
            setup,
            teardown,
            times: Vec::with_capacity(samples),
            wall: Vec::with_capacity(samples),
            _out: std::marker::PhantomData,
        }
    }

    /// Times one sample and returns the last set-up's output.
    ///
    /// # Errors
    ///
    /// The first set-up or teardown error.
    pub fn sample(&mut self) -> Result<T, String> {
        let mut outputs: Vec<T> = Vec::with_capacity(self.group);
        let mut speed = Speed::new();
        let t = Instant::now();
        for _ in 0..self.group {
            let _g = trace::enter("setup");
            outputs.push(std::hint::black_box((self.setup)()?));
        }
        let wall = t.elapsed().as_secs_f64() / self.group as f64;
        self.wall.push(wall);
        self.times.push(speed.correct(wall));
        let last = outputs.pop().ok_or("no set-up ran")?;
        for out in outputs {
            (self.teardown)(out)?;
        }
        Ok(last)
    }

    /// Stores the per-set-up seconds of every sample in `outcome`.
    pub fn finish(self, outcome: &mut Outcome) {
        outcome.setup_s = self.times;
        outcome.setup_wall = self.wall;
        outcome.setup_group = self.group;
    }
}

/// What [`run_passes`] needs of [`Setups`]: take another sample.
pub trait Sampler {
    /// Samples still to take.
    fn remaining(&self) -> usize;
    /// Times one more sample and tears its output down.
    ///
    /// # Errors
    ///
    /// The first set-up or teardown error.
    fn sample_and_discard(&mut self) -> Result<(), String>;
}

impl<T, S, D> Sampler for Setups<T, S, D>
where
    S: FnMut() -> Result<T, String>,
    D: FnMut(T) -> Result<(), String>,
{
    fn remaining(&self) -> usize {
        self.samples.saturating_sub(self.times.len())
    }

    fn sample_and_discard(&mut self) -> Result<(), String> {
        let out = self.sample()?;
        (self.teardown)(out)
    }
}

/// The result of one pass's check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checked {
    /// Operations the pass performed and checked.
    pub ops: u64,
    /// How many of them failed their check.
    pub failed: u64,
}

impl Checked {
    /// One operation, failed unless `ok`.
    pub fn one(ok: bool) -> Checked {
        Checked {
            ops: 1,
            failed: u64::from(!ok),
        }
    }
}

/// Runs passes until `opts.seconds` have passed (at least `min_passes`).
/// `work` is the timed unit of work; `check` verifies its output and is
/// not timed. A `work` error counts as one failed operation. The set-up
/// samples `setups` still owes are taken between passes, evenly spaced in
/// time, and any left when the time is up right after.
///
/// In a traced run, two passes in three are traced (a root span `pass`
/// with the layers' spans below it) and every third runs with recording
/// off (a childless root span `pass.untraced`), so the run measures its
/// own tracing overhead. Only untraced passes go into `pass_s`. When
/// `corrected`, every pass is converted to reference seconds by the
/// [`Speed`] readings on either side of it; a pass that keeps both vCPUs
/// busy is not, since one reading does not describe it (`pass_s` is then
/// wall seconds).
///
/// # Errors
///
/// A failed set-up sample.
pub fn run_passes<T>(
    opts: &Opts,
    min_passes: usize,
    corrected: bool,
    outcome: &mut Outcome,
    setups: &mut dyn Sampler,
    mut work: impl FnMut() -> Result<T, String>,
    mut check: impl FnMut(T) -> Checked,
) -> Result<(), String> {
    let start = Instant::now();
    let mut speed = Speed::new();
    let spacing = opts.seconds / (setups.remaining() + 1) as f64;
    let mut taken = 0usize;
    let mut i = 0usize;
    while i < min_passes || start.elapsed().as_secs_f64() < opts.seconds {
        if setups.remaining() > 0 && start.elapsed().as_secs_f64() >= spacing * (taken + 1) as f64 {
            setups.sample_and_discard()?;
            taken += 1;
            speed = Speed::new();
        }
        let traced = opts.trace && !i.is_multiple_of(3);
        let t = Instant::now();
        let out = if traced {
            let _g = trace::enter("pass");
            work()
        } else {
            trace::untraced("pass.untraced", &mut work)
        };
        let secs = t.elapsed().as_secs_f64();
        let reference = speed.correct(secs);
        if !traced {
            outcome.pass_wall.push(secs);
            outcome
                .pass_s
                .push(if corrected { reference } else { secs });
        }
        let checked = match out {
            Ok(v) => check(v),
            Err(e) => {
                eprintln!("pass {i}: {e}");
                Checked::one(false)
            }
        };
        outcome.attempted += checked.ops;
        outcome.failed += checked.failed;
        i += 1;
    }
    while setups.remaining() > 0 {
        setups.sample_and_discard()?;
    }
    Ok(())
}
