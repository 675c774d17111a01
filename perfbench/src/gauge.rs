//! Host-speed gauge: a fixed Monte Carlo kernel of the benchmark's own,
//! timed between calls, that scales a run's wall times to a reference
//! host speed.
//!
//! The benchmark runs on shared virtual machines whose speed drifts: for
//! minutes at a time every piece of code runs up to 40 % slower, the
//! update probe's fixed, seed-independent ticks as much as the queries.
//! Longer runs cannot average that away. The gauge measures it with work
//! shaped like the workloads' Phase 3 — draw a Gaussian cloud of the
//! workload's dimension and sample count, then count the samples near a
//! few fixed points — but with its own arithmetic and random numbers: it
//! calls no code of the repository, and its work is the same in every
//! pass, so a change to the library moves the scaled times exactly as it
//! moves the raw ones.

use std::hint::black_box;
use std::time::Instant;

/// Seconds of calls between two passes.
const INTERVAL_S: f64 = 0.5;
/// Fixed points whose neighbourhoods each pass counts.
const PROBES: usize = 4;

/// The kernel's buffers and the pass times taken so far.
pub struct Gauge<const D: usize> {
    /// The cloud, one column per coordinate.
    cols: Vec<Vec<f64>>,
    dist: Vec<f64>,
    ms: Vec<f64>,
    last: Option<Instant>,
}

impl<const D: usize> Gauge<D> {
    /// A gauge drawing clouds of `samples` points. One untimed pass
    /// touches its buffers.
    pub fn new(samples: usize) -> Self {
        let mut g = Gauge {
            cols: vec![vec![0.0; samples]; D],
            dist: vec![0.0; samples],
            ms: Vec::new(),
            last: None,
        };
        g.pass();
        g
    }

    /// One pass: the same cloud and counts every time.
    fn pass(&mut self) {
        // xorshift64 from a fixed state, Box–Muller pairs.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut uniform = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 + 0.5) / (1u64 << 53) as f64
        };
        let n = self.dist.len();
        for r in 0..D {
            for j in (0..n).step_by(2) {
                let radius = (-2.0 * uniform().ln()).sqrt();
                let (sin, cos) = (std::f64::consts::TAU * uniform()).sin_cos();
                self.cols[r][j] = radius * cos;
                if j + 1 < n {
                    self.cols[r][j + 1] = radius * sin;
                }
            }
            // Correlate with the previous coordinate, as x = L·z does.
            if r > 0 {
                let (before, rest) = self.cols.split_at_mut(r);
                for (x, p) in rest[0].iter_mut().zip(&before[r - 1]) {
                    *x = 0.8 * *x + 0.6 * p;
                }
            }
        }
        let mut hits = 0usize;
        for k in 0..PROBES {
            let centre = 0.25 * k as f64;
            self.dist.fill(0.0);
            for col in &self.cols {
                for (acc, x) in self.dist.iter_mut().zip(col) {
                    let d = x - centre;
                    *acc += d * d;
                }
            }
            hits += self.dist.iter().filter(|&&s| s <= D as f64).count();
        }
        black_box(hits);
    }

    /// Runs a pass if none ran in the last [`INTERVAL_S`]; returns the
    /// seconds it took.
    pub fn tick(&mut self) -> f64 {
        if self
            .last
            .is_some_and(|t| t.elapsed().as_secs_f64() < INTERVAL_S)
        {
            return 0.0;
        }
        let started = Instant::now();
        self.pass();
        let s = started.elapsed().as_secs_f64();
        self.ms.push(s * 1e3);
        self.last = Some(Instant::now());
        s
    }

    /// Median pass time in ms, and the number of passes.
    pub fn median_ms(&self) -> (f64, usize) {
        let mut v = self.ms.clone();
        v.sort_by(f64::total_cmp);
        (v.get(v.len() / 2).copied().unwrap_or(f64::NAN), v.len())
    }
}
