//! Execution traces and the ASCII pipeline rendering used for Fig. 15.

use sim_core::cast::{f64_to_usize, usize_to_u32};
use std::fmt::Write as _;

/// Execution record of a single CTA.
#[derive(Debug, Clone, PartialEq)]
pub struct CtaSpan {
    /// Stream the CTA's kernel was launched on.
    pub stream: usize,
    /// Position of the owning kernel within its stream: the
    /// [`KernelSpan::kernel_index`] of its span.
    pub kernel_index: usize,
    /// Caller-provided correlation id.
    pub tag: u64,
    /// SM the CTA executed on.
    pub sm: usize,
    /// Dispatch time in ns.
    pub start_ns: f64,
    /// Completion time in ns.
    pub end_ns: f64,
}

/// Execution record of a kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpan {
    /// Stream index.
    pub stream: usize,
    /// Position of the kernel within its stream.
    pub kernel_index: usize,
    /// Kernel label.
    pub label: String,
    /// When the launch was issued.
    pub launch_ns: f64,
    /// When the first CTA was dispatched.
    pub start_ns: f64,
    /// When the last CTA retired.
    pub end_ns: f64,
}

/// Full trace of an [`Engine`](crate::Engine) run.
#[derive(Debug, Clone, Default)]
pub struct ExecutionTrace {
    /// All CTA spans, sorted by start time.
    pub ctas: Vec<CtaSpan>,
    /// All kernel spans, sorted by launch time.
    pub kernels: Vec<KernelSpan>,
}

impl ExecutionTrace {
    /// The span of the kernel that ran `cta`.
    pub fn kernel_of(&self, cta: &CtaSpan) -> Option<&KernelSpan> {
        self.kernels
            .iter()
            .find(|k| k.stream == cta.stream && k.kernel_index == cta.kernel_index)
    }

    /// Makespan of the trace in ns.
    pub fn makespan_ns(&self) -> f64 {
        self.ctas.iter().map(|c| c.end_ns).fold(0.0, f64::max)
    }

    /// Fraction of SM-time left idle across the SMs that executed work, i.e.
    /// the execution-bubble metric of §3.3 (0 = perfectly packed).
    pub fn bubble_fraction(&self, num_sms: usize) -> f64 {
        let makespan = self.makespan_ns();
        if makespan <= 0.0 || num_sms == 0 {
            return 0.0;
        }
        let busy: f64 = self.ctas.iter().map(|c| c.end_ns - c.start_ns).sum();
        // CTA spans may overlap on one SM (multiple resident CTAs); busy time
        // per SM is capped at the makespan.
        let mut per_sm = vec![0.0f64; num_sms];
        for c in &self.ctas {
            if c.sm < num_sms {
                per_sm[c.sm] += c.end_ns - c.start_ns;
            }
        }
        let _ = busy;
        let used: f64 = per_sm.iter().map(|&b| b.min(makespan)).sum();
        1.0 - used / (makespan * num_sms as f64)
    }

    /// Renders the first `num_sms` SMs' occupancy over time as an ASCII Gantt
    /// chart (Fig. 15). Each row is one SM; each column a time bucket; the
    /// character is the stream id of the executing CTA (`.` = idle).
    pub fn render_gantt(&self, num_sms: usize, width: usize) -> String {
        let makespan = self.makespan_ns();
        let mut out = String::new();
        if makespan <= 0.0 || width == 0 {
            return out;
        }
        let bucket = makespan / width as f64;
        for sm in 0..num_sms {
            let mut row = vec!['.'; width];
            for c in self.ctas.iter().filter(|c| c.sm == sm) {
                let from = f64_to_usize(c.start_ns / bucket).min(width - 1);
                let to = f64_to_usize((c.end_ns / bucket).ceil()).clamp(from + 1, width);
                let glyph = char::from_digit(usize_to_u32(c.stream % 10), 10).unwrap_or('#');
                for cell in row.iter_mut().take(to).skip(from) {
                    *cell = glyph;
                }
            }
            let _ = writeln!(out, "SM{sm:<3} {}", row.iter().collect::<String>());
        }
        let _ = writeln!(
            out,
            "      0 ns {:>width$.0} ns",
            makespan,
            width = width - 5
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(sm: usize, start: f64, end: f64, stream: usize) -> CtaSpan {
        CtaSpan {
            stream,
            kernel_index: 0,
            tag: 0,
            sm,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn makespan_is_latest_end() {
        let t = ExecutionTrace {
            ctas: vec![span(0, 0.0, 5.0, 0), span(1, 2.0, 9.0, 0)],
            kernels: vec![],
        };
        assert_eq!(t.makespan_ns(), 9.0);
    }

    #[test]
    fn bubble_fraction_zero_when_fully_packed() {
        let t = ExecutionTrace {
            ctas: vec![span(0, 0.0, 10.0, 0), span(1, 0.0, 10.0, 0)],
            kernels: vec![],
        };
        assert!(t.bubble_fraction(2).abs() < 1e-9);
    }

    #[test]
    fn bubble_fraction_half_when_one_sm_idles() {
        let t = ExecutionTrace {
            ctas: vec![span(0, 0.0, 10.0, 0)],
            kernels: vec![],
        };
        assert!((t.bubble_fraction(2) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn gantt_renders_rows_per_sm() {
        let t = ExecutionTrace {
            ctas: vec![span(0, 0.0, 10.0, 0), span(1, 5.0, 10.0, 1)],
            kernels: vec![],
        };
        let g = t.render_gantt(2, 20);
        assert!(g.contains("SM0"));
        assert!(g.contains("SM1"));
        assert!(g.lines().next().unwrap().contains('0'));
        assert!(g.lines().nth(1).unwrap().contains('1'));
    }

    #[test]
    fn empty_trace_renders_empty() {
        let t = ExecutionTrace::default();
        assert!(t.render_gantt(4, 40).is_empty());
        assert_eq!(t.bubble_fraction(4), 0.0);
    }
}
