//! Discrete-event execution engine.
//!
//! Models the part of the GPU the paper's forward stage cares about:
//!
//! * a **GigaThread-style dispatcher** placing CTAs onto SMs as shared-memory,
//!   register, thread, and slot resources free up;
//! * a **shared HBM bus**: at any instant, resident CTAs split the global
//!   bandwidth by max–min fairness, with each CTA capped at the rate its
//!   in-flight (double-buffered) tile data can sustain (`in_flight / L`,
//!   constraint ② of §5.2);
//! * **compute floors**: a CTA cannot finish before its tensor-core pipeline
//!   does, which exposes final-tile compute bubbles on short KV;
//! * **streams**: kernels in one stream run serially (with launch overhead),
//!   kernels in different streams run concurrently (§6).
//!
//! The engine returns a makespan, per-CTA spans (Fig. 15), and bandwidth
//! accounting (Fig. 8c).

use crate::occupancy::{CtaResources, Occupancy, OccupancyViolation};
use crate::trace::{CtaSpan, ExecutionTrace, KernelSpan};
use crate::GpuSpec;
use sim_core::cast::usize_to_isize;
use sim_core::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::fmt;

/// Work performed by a single CTA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CtaWork {
    /// Caller correlation id (e.g. pack index), surfaced in the trace.
    pub tag: u64,
    /// Bytes this CTA must stream from global memory (DRAM).
    pub dram_bytes: f64,
    /// Bytes served by L2 (cheaper, but still occupy the CTA's pipeline).
    pub l2_bytes: f64,
    /// Lower bound on the CTA's wall time from dispatch (pipeline latency +
    /// tensor-core compute, including the exposed final-tile compute).
    pub min_exec_ns: f64,
    /// Maximum DRAM-equivalent load rate in bytes/ns this CTA can sustain,
    /// i.e. its in-flight bytes divided by the memory latency.
    pub rate_cap: f64,
    /// Exposed epilogue after the final tile's data arrives (the last tile's
    /// compute cannot overlap any further load — §5.2's compute bubble).
    pub tail_ns: f64,
}

/// A kernel: a set of homogeneous CTAs sharing one resource footprint.
#[derive(Debug, Clone)]
pub struct KernelSpec {
    /// Display label, e.g. `"pat(m=32,n=64)"`.
    pub label: String,
    /// Per-CTA resource footprint (determines occupancy).
    pub resources: CtaResources,
    /// The CTAs to execute.
    pub ctas: Vec<CtaWork>,
}

/// A CUDA stream: kernels execute in order within a stream.
#[derive(Debug, Clone, Default)]
pub struct StreamSpec {
    /// Kernels in issue order.
    pub kernels: Vec<KernelSpec>,
}

/// Result of simulating a set of streams.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Wall-clock makespan in ns.
    pub total_ns: f64,
    /// Bytes moved from DRAM.
    pub dram_bytes: f64,
    /// Bytes served by L2.
    pub l2_bytes: f64,
    /// Average fraction of peak HBM bandwidth used over the makespan.
    pub bandwidth_utilization: f64,
    /// Per-CTA and per-kernel spans.
    pub trace: ExecutionTrace,
}

/// Errors from [`Engine::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A kernel's CTAs can never fit on an SM.
    CtaDoesNotFit {
        /// The offending kernel's label.
        kernel: String,
        /// Which resource limit was violated.
        violation: OccupancyViolation,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::CtaDoesNotFit { kernel, violation } => {
                write!(
                    f,
                    "kernel `{kernel}` has CTAs that cannot fit on any SM ({violation:?})"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

#[derive(Debug, Clone, Copy)]
struct SmState {
    free_smem: isize,
    free_regs: isize,
    free_threads: isize,
    free_slots: isize,
}

#[derive(Debug)]
struct ActiveKernel {
    stream: usize,
    kernel_index: usize,
    label: String,
    resources: CtaResources,
    /// `resources` pre-converted to the signed accounting domain, so the
    /// per-SM fit scan does not re-convert four fields per probe.
    need_smem: isize,
    need_regs: isize,
    need_threads: isize,
    pending: VecDeque<CtaWork>,
    outstanding: usize,
    launch_time: SimTime,
    first_dispatch: Option<SimTime>,
}

#[derive(Debug)]
struct RunningCta {
    sm: usize,
    active_kernel: usize,
    tag: u64,
    start: SimTime,
    /// Remaining DRAM-equivalent bytes to stream (L2 bytes are pre-scaled).
    remaining: f64,
    rate_cap: f64,
    floor_end: SimTime,
    tail: SimDuration,
    tail_applied: bool,
    rate: f64,
}

/// The execution engine for one device.
///
/// # Examples
///
/// ```
/// use sim_gpu::{CtaResources, CtaWork, Engine, GpuSpec, KernelSpec, StreamSpec};
///
/// let engine = Engine::new(GpuSpec::a100_sxm4_80gb());
/// let kernel = KernelSpec {
///     label: "demo".into(),
///     resources: CtaResources { smem_bytes: 32 * 1024, regs_per_thread: 64, threads: 128 },
///     ctas: vec![CtaWork { tag: 0, dram_bytes: 1e6, l2_bytes: 0.0,
///                          min_exec_ns: 1_000.0, rate_cap: 50.0, tail_ns: 0.0 }],
/// };
/// let result = engine.run(vec![StreamSpec { kernels: vec![kernel] }])?;
/// assert!(result.total_ns > 0.0);
/// # Ok::<(), sim_gpu::EngineError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    spec: GpuSpec,
}

/// Tolerance for *byte* quantities only (remaining transfer sizes, rate
/// caps). Clock comparisons are exact integer nanoseconds and need no
/// epsilon — that is the point of the `SimTime` spine.
const EPS: f64 = 1e-6;

/// The next `f64` above a positive value (one ulp up; `+inf` maps to
/// itself). Used to turn a rounded product into a guaranteed upper bound on
/// the exact product.
#[inline]
fn up(x: f64) -> f64 {
    if x.is_finite() {
        f64::from_bits(x.to_bits() + 1)
    } else {
        x
    }
}

impl Engine {
    /// Creates an engine for `spec`.
    pub fn new(spec: GpuSpec) -> Self {
        Engine { spec }
    }

    /// The device being simulated.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Simulates the streams to completion.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::CtaDoesNotFit`] if any kernel's per-CTA resource
    /// footprint exceeds hardware limits (the run would hang on real hardware).
    pub fn run(&self, streams: Vec<StreamSpec>) -> Result<RunResult, EngineError> {
        let occupancy = Occupancy::new(self.spec.clone());
        for stream in &streams {
            for kernel in &stream.kernels {
                if let Err(violation) = occupancy.ctas_per_sm(kernel.resources) {
                    return Err(EngineError::CtaDoesNotFit {
                        kernel: kernel.label.clone(),
                        violation,
                    });
                }
            }
        }

        let l2_speedup = self.spec.global_bandwidth / self.spec.l2_bandwidth;
        let mut sms: Vec<SmState> = (0..self.spec.num_sms)
            .map(|_| SmState {
                free_smem: usize_to_isize(self.spec.smem_per_sm),
                free_regs: usize_to_isize(self.spec.regs_per_sm),
                free_threads: usize_to_isize(self.spec.max_threads_per_sm),
                free_slots: usize_to_isize(self.spec.max_ctas_per_sm),
            })
            .collect();

        // Per-stream cursor and the time the next kernel may launch.
        let mut next_kernel: Vec<usize> = vec![0; streams.len()];
        let mut launch_ready: Vec<SimTime> = vec![SimTime::ZERO; streams.len()];
        let mut active: Vec<ActiveKernel> = Vec::new();
        let mut running: Vec<RunningCta> = Vec::new();
        let mut trace = ExecutionTrace::default();
        let mut total_dram = 0.0;
        let mut total_l2 = 0.0;
        let mut streamed_eff = 0.0;

        // Number of SMs with at least one free CTA slot. Every CTA needs a
        // slot, so when this hits zero the dispatch scan cannot succeed and
        // is skipped wholesale (the saturated steady state, where the scan
        // would otherwise walk every SM once per event).
        let mut sms_with_free_slots = self.spec.num_sms;
        // Scratch buffers reused across events (the loop runs O(#CTAs)
        // times; reallocating these per event dominated the event cost).
        let mut order: Vec<usize> = Vec::new();
        let mut finished_kernels: Vec<usize> = Vec::new();
        let mut cap_scratch: Vec<f64> = Vec::new();

        let mut now = SimTime::ZERO;
        loop {
            // 1. Activate stream-head kernels whose launch time has arrived.
            for (s, stream) in streams.iter().enumerate() {
                while next_kernel[s] < stream.kernels.len() && launch_ready[s] <= now {
                    // Only one kernel of a stream is in flight at a time.
                    let in_flight = active.iter().any(|k| k.stream == s);
                    if in_flight {
                        break;
                    }
                    let k = next_kernel[s];
                    let kernel = &stream.kernels[k];
                    active.push(ActiveKernel {
                        stream: s,
                        kernel_index: k,
                        label: kernel.label.clone(),
                        resources: kernel.resources,
                        need_smem: usize_to_isize(kernel.resources.smem_bytes),
                        need_regs: usize_to_isize(kernel.resources.regs_per_cta()),
                        need_threads: usize_to_isize(kernel.resources.threads),
                        pending: kernel.ctas.iter().copied().collect(),
                        outstanding: 0,
                        launch_time: now,
                        first_dispatch: None,
                    });
                    next_kernel[s] += 1;
                }
            }

            // 2. Dispatch pending CTAs onto SMs (GigaThread greedy placement,
            //    oldest kernel first; launch-time ties go to the kernel with
            //    the larger per-CTA footprint so big CTAs are not starved by
            //    a flood of small ones filling every partially-free SM).
            let any_pending = active.iter().any(|k| !k.pending.is_empty());
            if any_pending && sms_with_free_slots > 0 {
                order.clear();
                order.extend(0..active.len());
                if order.len() > 1 {
                    order.sort_by(|&a, &b| {
                        active[a]
                            .launch_time
                            .cmp(&active[b].launch_time)
                            .then_with(|| {
                                active[b]
                                    .resources
                                    .smem_bytes
                                    .cmp(&active[a].resources.smem_bytes)
                            })
                    });
                }
                for &idx in &order {
                    let need_smem = active[idx].need_smem;
                    let need_regs = active[idx].need_regs;
                    let need_threads = active[idx].need_threads;
                    // First fit, resumed at the SM that took this kernel's
                    // previous CTA: the SMs before it did not fit, and
                    // dispatch only takes resources away.
                    let mut first_sm = 0;
                    while let Some(&work) = active[idx].pending.front() {
                        if sms_with_free_slots == 0 {
                            break;
                        }
                        let slot = sms[first_sm..].iter().position(|sm| {
                            sm.free_smem >= need_smem
                                && sm.free_regs >= need_regs
                                && sm.free_threads >= need_threads
                                && sm.free_slots >= 1
                        });
                        let Some(sm) = slot.map(|p| first_sm + p) else {
                            break;
                        };
                        first_sm = sm;
                        sms[sm].free_smem -= need_smem;
                        sms[sm].free_regs -= need_regs;
                        sms[sm].free_threads -= need_threads;
                        sms[sm].free_slots -= 1;
                        if sms[sm].free_slots == 0 {
                            sms_with_free_slots -= 1;
                        }
                        active[idx].pending.pop_front();
                        active[idx].outstanding += 1;
                        if active[idx].first_dispatch.is_none() {
                            active[idx].first_dispatch = Some(now);
                        }
                        total_dram += work.dram_bytes;
                        total_l2 += work.l2_bytes;
                        running.push(RunningCta {
                            sm,
                            active_kernel: idx,
                            tag: work.tag,
                            start: now,
                            remaining: work.dram_bytes + work.l2_bytes * l2_speedup,
                            rate_cap: work.rate_cap.max(EPS),
                            // Cost models hand in f64 ns; this is the lossy
                            // ingest boundary onto the integer spine. Floors and
                            // tails round UP so quantization never shortens a
                            // span below its cost-model minimum.
                            floor_end: now
                                + SimDuration::from_ns_f64_ceil(work.min_exec_ns.max(0.0)),
                            tail: SimDuration::from_ns_f64_ceil(work.tail_ns.max(0.0)),
                            tail_applied: false,
                            rate: 0.0,
                        });
                    }
                }
            }

            if running.is_empty() && active.iter().all(|k| k.pending.is_empty()) {
                // Nothing resident: either we're done or we jump to the next
                // launch time.
                let next_launch = (0..streams.len())
                    .filter(|&s| next_kernel[s] < streams[s].kernels.len())
                    .map(|s| launch_ready[s])
                    .min();
                match next_launch {
                    None if active.is_empty() => break,
                    Some(t) if t > now => {
                        now = t;
                        continue;
                    }
                    _ => {}
                }
            }

            // 3. Max-min fair bandwidth allocation among loading CTAs; the
            //    shared budget is the *achievable* DRAM bandwidth.
            Self::waterfill(
                &mut running,
                self.spec.global_bandwidth * self.spec.dram_efficiency,
                &mut cap_scratch,
            );

            // 4. Find the next event. Fractional f64 waits (bytes / rate)
            //    quantize *up* to whole nanoseconds so every step strictly
            //    advances the integer clock.
            //
            // The bytes-done candidate is `min_i ceil(remaining_i / rate_i)`.
            // Both rounding-to-nearest division and ceil are weakly monotone
            // in the real quotient, so the minimum commutes with them: track
            // the smallest *quotient* and convert once. A CTA whose
            // `remaining > up(best * rate)` has a real quotient strictly
            // above `best` (up() bumps one ulp, covering the product's
            // rounding error) and provably cannot improve the minimum — the
            // common case, decided by one multiply instead of one divide.
            let step_floor = now + SimDuration::NANOSECOND;
            let mut best_quot = f64::INFINITY;
            let mut best_stall: Option<SimTime> = None;
            for cta in &running {
                if cta.remaining > EPS && cta.rate > EPS {
                    // Wake at the bytes-done moment to re-waterfill (the
                    // compute floor is checked again at retirement).
                    let bound = up(best_quot * cta.rate);
                    if cta.remaining > bound {
                        continue;
                    }
                    let q = cta.remaining / cta.rate;
                    if q < best_quot {
                        best_quot = q;
                    }
                } else {
                    let t = cta.floor_end;
                    best_stall = Some(best_stall.map_or(t, |cur| cur.min(t)));
                }
            }
            let mut next_event: Option<SimTime> = None;
            let mut consider = |t: SimTime| {
                let t = t.max(step_floor);
                next_event = Some(next_event.map_or(t, |cur| cur.min(t)));
            };
            if best_quot.is_finite() {
                consider(now + SimDuration::from_ns_f64_ceil(best_quot));
            }
            if let Some(t) = best_stall {
                consider(t);
            }
            for (s, _) in streams.iter().enumerate() {
                if next_kernel[s] < streams[s].kernels.len()
                    && !active.iter().any(|k| k.stream == s)
                    && launch_ready[s] > now
                {
                    consider(launch_ready[s]);
                }
            }
            let Some(next_event) = next_event else {
                debug_assert!(running.is_empty(), "running CTAs but no next event");
                break;
            };

            // 5. Advance time.
            let dt = (next_event - now).as_ns_f64();
            for cta in running.iter_mut() {
                let moved = (cta.rate * dt).min(cta.remaining);
                cta.remaining -= moved;
                streamed_eff += moved;
            }
            now = next_event;

            // 6. Retire finished CTAs and kernels. A CTA whose bytes just
            //    completed first serves its exposed epilogue (final-tile
            //    compute) before releasing its SM resources.
            for cta in running.iter_mut() {
                if cta.remaining <= EPS && !cta.tail_applied {
                    cta.tail_applied = true;
                    cta.floor_end = cta.floor_end.max(now + cta.tail);
                }
            }
            finished_kernels.clear();
            let mut i = 0;
            while i < running.len() {
                let done = running[i].remaining <= EPS && running[i].floor_end <= now;
                if done {
                    let cta = running.swap_remove(i);
                    let kernel = &active[cta.active_kernel];
                    sms[cta.sm].free_smem += kernel.need_smem;
                    sms[cta.sm].free_regs += kernel.need_regs;
                    sms[cta.sm].free_threads += kernel.need_threads;
                    sms[cta.sm].free_slots += 1;
                    if sms[cta.sm].free_slots == 1 {
                        sms_with_free_slots += 1;
                    }
                    trace.ctas.push(CtaSpan {
                        stream: kernel.stream,
                        kernel_index: kernel.kernel_index,
                        tag: cta.tag,
                        sm: cta.sm,
                        start_ns: cta.start.as_ns_f64(),
                        end_ns: now.as_ns_f64(),
                    });
                    active[cta.active_kernel].outstanding -= 1;
                    if active[cta.active_kernel].outstanding == 0
                        && active[cta.active_kernel].pending.is_empty()
                    {
                        finished_kernels.push(cta.active_kernel);
                    }
                } else {
                    i += 1;
                }
            }
            finished_kernels.sort_unstable();
            finished_kernels.dedup();
            for &idx in finished_kernels.iter().rev() {
                let kernel = active.swap_remove(idx);
                // swap_remove moved the last element into `idx`; fix refs.
                for cta in running.iter_mut() {
                    if cta.active_kernel == active.len() {
                        cta.active_kernel = idx;
                    }
                }
                launch_ready[kernel.stream] =
                    now + SimDuration::from_ns_f64(self.spec.kernel_launch_ns);
                trace.kernels.push(KernelSpan {
                    stream: kernel.stream,
                    kernel_index: kernel.kernel_index,
                    label: kernel.label,
                    launch_ns: kernel.launch_time.as_ns_f64(),
                    start_ns: kernel
                        .first_dispatch
                        .unwrap_or(kernel.launch_time)
                        .as_ns_f64(),
                    end_ns: now.as_ns_f64(),
                });
            }
        }

        trace.ctas.sort_by(|a, b| a.start_ns.total_cmp(&b.start_ns));
        trace
            .kernels
            .sort_by(|a, b| a.launch_ns.total_cmp(&b.launch_ns));
        let utilization = if now > SimTime::ZERO {
            (streamed_eff / (self.spec.global_bandwidth * now.as_ns_f64())).min(1.0)
        } else {
            0.0
        };
        Ok(RunResult {
            total_ns: now.as_ns_f64(),
            dram_bytes: total_dram,
            l2_bytes: total_l2,
            bandwidth_utilization: utilization,
            trace,
        })
    }

    /// Max-min fair sharing of `budget` bytes/ns among loading CTAs, each
    /// capped at its own `rate_cap`. `caps` is caller-owned scratch so the
    /// per-event call does not allocate.
    ///
    /// Loaders are served in ascending-cap order, ties in `running` order:
    /// the order of a stable sort by cap, reached without one. The distinct
    /// caps are few (one per tile shape), so they are ranked on their own
    /// and each gets one pass over `running`. Every loader then sees the
    /// same `fair` share, and the floats run in the same sequence, as under
    /// the sort.
    fn waterfill(running: &mut [RunningCta], budget: f64, caps: &mut Vec<f64>) {
        caps.clear();
        let mut loaders = 0usize;
        let mut last_cap = None;
        for cta in running.iter_mut() {
            if cta.remaining > EPS {
                cta.rate = 0.0;
                loaders += 1;
                // Equal bits are equal under `total_cmp`, the sort's order.
                let cap = cta.rate_cap.to_bits();
                if last_cap != Some(cap) && !caps.iter().any(|c| c.to_bits() == cap) {
                    caps.push(cta.rate_cap);
                }
                last_cap = Some(cap);
            }
        }
        caps.sort_unstable_by(f64::total_cmp);
        let mut remaining_budget = budget;
        let mut remaining_n = loaders;
        for &cap in caps.iter() {
            for cta in running.iter_mut() {
                if cta.remaining > EPS && cta.rate_cap.to_bits() == cap.to_bits() {
                    let fair = remaining_budget / remaining_n as f64;
                    let rate = cta.rate_cap.min(fair);
                    cta.rate = rate;
                    remaining_budget -= rate;
                    remaining_n -= 1;
                }
            }
        }
    }

    /// The stable-sort waterfill that [`Engine::waterfill`] replaced, kept
    /// as its bit-exactness oracle.
    #[cfg(test)]
    fn waterfill_sorted(running: &mut [RunningCta], budget: f64, loaders: &mut Vec<usize>) {
        loaders.clear();
        // Track whether the cap sequence is already non-decreasing while
        // collecting; plans overwhelmingly run homogeneous tiles (equal
        // caps), where the stable sort is the identity and can be skipped.
        let mut sorted = true;
        let mut prev_cap = f64::NEG_INFINITY;
        for (i, cta) in running.iter_mut().enumerate() {
            if cta.remaining > EPS {
                sorted &= prev_cap <= cta.rate_cap;
                prev_cap = cta.rate_cap;
                cta.rate = 0.0;
                loaders.push(i);
            }
        }
        if !sorted {
            loaders.sort_by(|&a, &b| running[a].rate_cap.total_cmp(&running[b].rate_cap));
        }
        let mut remaining_budget = budget;
        let mut remaining_n = loaders.len();
        for &i in loaders.iter() {
            let fair = remaining_budget / remaining_n as f64;
            let rate = running[i].rate_cap.min(fair);
            running[i].rate = rate;
            remaining_budget -= rate;
            remaining_n -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_res() -> CtaResources {
        CtaResources {
            smem_bytes: 32 * 1024,
            regs_per_thread: 64,
            threads: 128,
        }
    }

    fn work(bytes: f64) -> CtaWork {
        CtaWork {
            tag: 0,
            dram_bytes: bytes,
            l2_bytes: 0.0,
            min_exec_ns: 500.0,
            rate_cap: 60.0,
            tail_ns: 0.0,
        }
    }

    fn engine() -> Engine {
        Engine::new(GpuSpec::a100_sxm4_80gb())
    }

    #[test]
    fn single_cta_is_rate_capped() {
        let e = engine();
        let bytes = 6.0e6;
        let r = e
            .run(vec![StreamSpec {
                kernels: vec![KernelSpec {
                    label: "k".into(),
                    resources: small_res(),
                    ctas: vec![work(bytes)],
                }],
            }])
            .unwrap();
        // One CTA cannot use the whole bus: time ~ bytes / rate_cap.
        let expected = bytes / 60.0;
        assert!(
            (r.total_ns - expected).abs() / expected < 0.05,
            "{} vs {}",
            r.total_ns,
            expected
        );
        assert!(r.bandwidth_utilization < 0.1);
    }

    #[test]
    fn many_ctas_saturate_the_bus() {
        let e = engine();
        let n: u64 = 1024;
        let bytes = 1.0e6;
        let ctas: Vec<CtaWork> = (0..n).map(|tag| CtaWork { tag, ..work(bytes) }).collect();
        let r = e
            .run(vec![StreamSpec {
                kernels: vec![KernelSpec {
                    label: "k".into(),
                    resources: small_res(),
                    ctas,
                }],
            }])
            .unwrap();
        let ideal = n as f64 * bytes / 2039.0;
        assert!(
            r.bandwidth_utilization > 0.8,
            "util {}",
            r.bandwidth_utilization
        );
        assert!(r.total_ns < 1.5 * ideal);
    }

    #[test]
    fn compute_floor_delays_completion() {
        let e = engine();
        let mut cta = work(1_000.0);
        cta.min_exec_ns = 1.0e6;
        let r = e
            .run(vec![StreamSpec {
                kernels: vec![KernelSpec {
                    label: "k".into(),
                    resources: small_res(),
                    ctas: vec![cta],
                }],
            }])
            .unwrap();
        assert!(r.total_ns >= 1.0e6);
    }

    #[test]
    fn streams_run_concurrently_but_kernels_serialize_within_a_stream() {
        let e = engine();
        let mk = |label: &str| KernelSpec {
            label: label.into(),
            resources: small_res(),
            ctas: (0..432)
                .map(|i| CtaWork {
                    tag: i,
                    ..work(1.0e5)
                })
                .collect(),
        };
        let serial = e
            .run(vec![StreamSpec {
                kernels: vec![mk("a"), mk("b")],
            }])
            .unwrap();
        let parallel = e
            .run(vec![
                StreamSpec {
                    kernels: vec![mk("a")],
                },
                StreamSpec {
                    kernels: vec![mk("b")],
                },
            ])
            .unwrap();
        assert!(
            parallel.total_ns < serial.total_ns,
            "parallel {} !< serial {}",
            parallel.total_ns,
            serial.total_ns
        );
    }

    #[test]
    fn oversized_kernel_is_rejected() {
        let e = engine();
        let res = CtaResources {
            smem_bytes: 300 * 1024,
            regs_per_thread: 32,
            threads: 128,
        };
        let err = e
            .run(vec![StreamSpec {
                kernels: vec![KernelSpec {
                    label: "huge".into(),
                    resources: res,
                    ctas: vec![work(1.0)],
                }],
            }])
            .unwrap_err();
        assert!(matches!(err, EngineError::CtaDoesNotFit { .. }));
    }

    #[test]
    fn l2_bytes_move_faster_than_dram_bytes() {
        let e = engine();
        let dram_only = CtaWork {
            tag: 0,
            dram_bytes: 4.0e6,
            l2_bytes: 0.0,
            min_exec_ns: 0.0,
            rate_cap: 60.0,
            tail_ns: 0.0,
        };
        let l2_heavy = CtaWork {
            tag: 0,
            dram_bytes: 1.0e6,
            l2_bytes: 3.0e6,
            min_exec_ns: 0.0,
            rate_cap: 60.0,
            tail_ns: 0.0,
        };
        let run = |cta| {
            e.run(vec![StreamSpec {
                kernels: vec![KernelSpec {
                    label: "k".into(),
                    resources: small_res(),
                    ctas: vec![cta],
                }],
            }])
            .unwrap()
            .total_ns
        };
        assert!(run(l2_heavy) < run(dram_only));
    }

    #[test]
    fn trace_covers_all_ctas() {
        let e = engine();
        let ctas: Vec<CtaWork> = (0..10)
            .map(|i| CtaWork {
                tag: i,
                ..work(1.0e5)
            })
            .collect();
        let r = e
            .run(vec![StreamSpec {
                kernels: vec![KernelSpec {
                    label: "k".into(),
                    resources: small_res(),
                    ctas,
                }],
            }])
            .unwrap();
        assert_eq!(r.trace.ctas.len(), 10);
        assert_eq!(r.trace.kernels.len(), 1);
        for span in &r.trace.ctas {
            assert!(span.end_ns > span.start_ns);
            assert!(span.sm < 108);
        }
    }

    #[test]
    fn empty_run_completes_instantly() {
        let r = engine().run(vec![]).unwrap();
        assert_eq!(r.total_ns, 0.0);
        assert_eq!(r.dram_bytes, 0.0);
    }

    #[test]
    fn imbalanced_ctas_create_a_tail() {
        // One CTA with 10x the bytes dominates the makespan: the execution
        // bubble of §3.3.
        let e = engine();
        let mut ctas: Vec<CtaWork> = (0..100)
            .map(|i| CtaWork {
                tag: i,
                ..work(1.0e5)
            })
            .collect();
        ctas.push(CtaWork {
            tag: 999,
            ..work(4.0e6)
        });
        let r = e
            .run(vec![StreamSpec {
                kernels: vec![KernelSpec {
                    label: "k".into(),
                    resources: small_res(),
                    ctas,
                }],
            }])
            .unwrap();
        let long = r.trace.ctas.iter().find(|c| c.tag == 999).unwrap();
        assert!((long.end_ns - r.total_ns).abs() < 1.0, "long CTA ends last");
        assert!(r.bandwidth_utilization < 0.6, "tail leaves the bus idle");
    }

    #[test]
    fn first_fit_packs_each_sm_before_the_next() {
        // A (100 KiB) fits once per 192 KiB SM and dispatches first (larger
        // footprint); B (32 KiB) then fits twice into each SM's 92 KiB left.
        let kernel = |smem_kb: usize, n: u64| KernelSpec {
            label: format!("k{smem_kb}"),
            resources: CtaResources {
                smem_bytes: smem_kb * 1024,
                ..small_res()
            },
            ctas: (0..n)
                .map(|tag| CtaWork {
                    tag,
                    min_exec_ns: 1.0e6,
                    ..work(1.0e3)
                })
                .collect(),
        };
        let r = engine()
            .run(vec![
                StreamSpec {
                    kernels: vec![kernel(100, 3)],
                },
                StreamSpec {
                    kernels: vec![kernel(32, 4)],
                },
            ])
            .unwrap();
        let mut placed: Vec<(usize, u64, usize)> = r
            .trace
            .ctas
            .iter()
            .map(|c| (c.stream, c.tag, c.sm))
            .collect();
        placed.sort_unstable();
        let sms: Vec<usize> = placed.iter().map(|&(_, _, sm)| sm).collect();
        assert_eq!(sms, [0, 1, 2, 0, 0, 1, 1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The sort-free waterfill assigns every CTA the bit-identical rate
        /// the stable sort did: 1–300 CTAs over 1–4 interleaved caps, some
        /// already drained (they keep their previous rate).
        #[test]
        fn waterfill_matches_the_stable_sort(
            caps in prop::collection::vec(1.0f64..400.0, 1..5),
            ctas in prop::collection::vec((0usize..4, 0u8..4, 0.0f64..300.0), 1..301),
            budget in 50.0f64..3000.0,
        ) {
            let running = || -> Vec<RunningCta> {
                ctas.iter()
                    .map(|&(cap, drained, prev_rate)| RunningCta {
                        sm: 0,
                        active_kernel: 0,
                        tag: 0,
                        start: SimTime::ZERO,
                        remaining: if drained == 0 { EPS } else { 1.0e6 },
                        rate_cap: caps[cap % caps.len()],
                        floor_end: SimTime::ZERO,
                        tail: SimDuration::ZERO,
                        tail_applied: false,
                        rate: prev_rate,
                    })
                    .collect()
            };
            let (mut fast, mut sorted) = (running(), running());
            Engine::waterfill(&mut fast, budget, &mut Vec::new());
            Engine::waterfill_sorted(&mut sorted, budget, &mut Vec::new());
            for (i, (a, b)) in fast.iter().zip(&sorted).enumerate() {
                prop_assert_eq!(a.rate.to_bits(), b.rate.to_bits(), "cta {}", i);
            }
        }
    }
}
