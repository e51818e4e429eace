//! Minimal in-workspace stand-in for `criterion`.
//!
//! Offers the macro/struct surface the `micro` bench target uses —
//! `criterion_group!`/`criterion_main!`, `Criterion::bench_function`,
//! `benchmark_group`, `Bencher::iter`/`iter_batched`, `BatchSize` — with a
//! simple time-boxed measurement loop printing mean/min per iteration. No
//! statistical analysis, HTML reports, or CLI filtering.

#![warn(missing_docs)]
#![expect(
    clippy::disallowed_types,
    reason = "a benchmark timer measures host time"
)]

use std::time::{Duration, Instant};

/// How `iter_batched` amortizes setup (ignored by this stub's timer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// Timing loop handle passed to benchmark closures.
#[derive(Debug, Default)]
pub struct Bencher {
    samples: Vec<f64>,
}

const WARMUP_ITERS: usize = 3;
const MEASURE_BUDGET: Duration = Duration::from_millis(200);
const MAX_SAMPLES: usize = 200;

impl Bencher {
    /// Times `routine` repeatedly.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        for _ in 0..WARMUP_ITERS {
            std::hint::black_box(routine());
        }
        let started = Instant::now();
        while self.samples.len() < MAX_SAMPLES && started.elapsed() < MEASURE_BUDGET {
            let t0 = Instant::now();
            std::hint::black_box(routine());
            self.samples.push(t0.elapsed().as_secs_f64() * 1e9);
        }
    }

    /// Times `routine` on fresh inputs from `setup` (setup time excluded).
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        for _ in 0..WARMUP_ITERS {
            std::hint::black_box(routine(setup()));
        }
        let started = Instant::now();
        while self.samples.len() < MAX_SAMPLES && started.elapsed() < MEASURE_BUDGET {
            let input = setup();
            let t0 = Instant::now();
            std::hint::black_box(routine(input));
            self.samples.push(t0.elapsed().as_secs_f64() * 1e9);
        }
    }
}

fn report(name: &str, samples: &[f64]) {
    if samples.is_empty() {
        println!("{name:<44} (no samples)");
        return;
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "{name:<44} mean {:>12} min {:>12}  ({} iters)",
        fmt_ns(mean),
        fmt_ns(min),
        samples.len()
    );
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// The benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Runs one named benchmark.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let name = name.into();
        let mut bencher = Bencher::default();
        f(&mut bencher);
        report(&name, &bencher.samples);
        self
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
        }
    }
}

/// A named group of related benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark within the group.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, name.into());
        let mut bencher = Bencher::default();
        f(&mut bencher);
        report(&full, &bencher.samples);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Declares a group function running each benchmark function in order.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_collects_samples() {
        let mut c = Criterion::default();
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        let mut group = c.benchmark_group("g");
        group.bench_function(format!("case{}", 1), |b| {
            b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput)
        });
        group.finish();
    }
}
