//! Calibrated time.
//!
//! The machines this benchmark runs on are shared: while another tenant
//! loads the same physical core, the program runs up to 2× slower for
//! seconds at a time, and a run can fall wholly in a slow or a fast
//! spell. So each stretch of measured work is scaled by how fast a fixed
//! kernel ran just before it: `REFERENCE_NS / kernel_ns`. The kernel
//! (hash-map updates over a working set of about 2 MiB, then a sort,
//! in buffers it reuses) slows down with the program under such
//! contention, nearly as much: of the kernels tried, the larger working
//! sets tracked the query engine best, at about 10% residual from one
//! second to the next. It calls nothing in the program, so a change to
//! the program cannot move it. A calibrated millisecond is a
//! millisecond at the kernel speed `REFERENCE_NS`.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::hint::black_box;

use trinit_obs::now_ns;

/// The kernel's time on an uncontended core of a 2-vCPU Xeon VM: with
/// it, calibrated times read as times measured there without contention.
pub const REFERENCE_NS: f64 = 4_000_000.0;
/// Work timed longer ago than this since the last kernel run triggers a
/// new one; the kernel costs 5-10% of a slice.
const SLICE_NS: u64 = 100_000_000;
/// A factor is the median of this many latest kernel runs: one run
/// varies by tens of percent, and contention spells last seconds.
const WINDOW: usize = 5;
const KERNEL_KEYS: u64 = 65_536;
const KERNEL_UPDATES: u64 = 100_000;

/// The kernel's reusable buffers.
#[derive(Default)]
struct Kernel {
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    pairs: Vec<(u64, u64)>,
}

impl Kernel {
    fn run_ns(&mut self) -> u64 {
        let start = now_ns();
        self.map.clear();
        self.pairs.clear();
        for i in 0..KERNEL_UPDATES {
            *self
                .map
                .entry(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % KERNEL_KEYS)
                .or_insert(0) += i;
        }
        self.pairs.extend(self.map.iter().map(|(k, v)| (*v, *k)));
        self.pairs.sort_unstable();
        black_box(&self.pairs);
        now_ns() - start
    }
}

/// A scale factor: the median over the latest kernel runs.
#[derive(Default)]
struct Factor {
    value: f64,
    at: u64,
    recent: VecDeque<f64>,
}

impl Factor {
    fn update(&mut self, kernel_ns: f64) -> f64 {
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(REFERENCE_NS / kernel_ns);
        let mut sorted: Vec<f64> = self.recent.iter().copied().collect();
        sorted.sort_by(f64::total_cmp);
        self.value = sorted[sorted.len() / 2];
        self.at = now_ns();
        self.value
    }
}

pub struct Calibrator {
    kernels: Vec<Kernel>,
    /// For work on this thread, and for work spread over every worker.
    one: Factor,
    wide: Factor,
    factors: Vec<f64>,
}

impl Calibrator {
    /// A calibrator for work on this thread and on up to `workers`
    /// threads at once.
    pub fn new(workers: usize) -> Calibrator {
        let mut c = Calibrator {
            kernels: (0..workers.max(1)).map(|_| Kernel::default()).collect(),
            one: Factor::default(),
            wide: Factor::default(),
            factors: Vec::new(),
        };
        c.recalibrate();
        c.tick_wide();
        c
    }

    /// Runs the kernel on this thread.
    fn recalibrate(&mut self) {
        let ns = self.kernels[0].run_ns().max(1);
        let value = self.one.update(ns as f64);
        self.factors.push(value);
    }

    /// Recalibrates when the last kernel run is older than one slice.
    pub fn tick(&mut self) {
        if now_ns() - self.one.at > SLICE_NS {
            self.recalibrate();
        }
    }

    /// Like `tick`, for work spread over every worker: the kernel runs on
    /// every worker at once, and the factor uses their mean time.
    pub fn tick_wide(&mut self) {
        if now_ns() - self.wide.at <= SLICE_NS {
            return;
        }
        let total: u64 = std::thread::scope(|scope| {
            let (first, rest) = self.kernels.split_at_mut(1);
            let others: Vec<_> = rest
                .iter_mut()
                .map(|k| scope.spawn(move || k.run_ns().max(1)))
                .collect();
            let own = first[0].run_ns().max(1);
            own + others
                .into_iter()
                .map(|h| h.join().expect("the kernel does not panic"))
                .sum::<u64>()
        });
        let value = self.wide.update(total as f64 / self.kernels.len() as f64);
        self.factors.push(value);
    }

    /// The factor for work on this thread since the last `tick`.
    pub fn factor(&self) -> f64 {
        self.one.value
    }

    /// The factor for work over every worker since the last `tick_wide`.
    pub fn factor_wide(&self) -> f64 {
        self.wide.value
    }

    /// Every factor applied so far.
    pub fn factors(&self) -> &[f64] {
        &self.factors
    }
}
