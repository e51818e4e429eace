//! Chrome trace-event export.
//!
//! Converts an [`ExecutionTrace`] into the Trace Event Format consumed by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): one track per
//! SM, one complete event (`ph: "X"`) per CTA, kernels as a separate process
//! row. Useful for inspecting the Fig. 15 pipelines interactively.

use crate::trace::ExecutionTrace;

/// Serializes the trace into Trace Event Format JSON (object form).
///
/// Timestamps are microseconds (the format's native unit); SMs map to
/// thread ids under process 0, kernels to process 1 keyed by stream. A CTA
/// event is named by its kernel's label (empty when the trace lacks that
/// kernel's span). The
/// events sit under `traceEvents`, and `otherData.knobs` records the
/// output-scoped knob snapshot (`sim_core::knobs`) so every exported
/// trace carries the configuration that produced it.
///
/// # Examples
///
/// ```
/// use sim_gpu::{chrome_trace_json, ExecutionTrace};
///
/// let json = chrome_trace_json(&ExecutionTrace::default());
/// assert!(json.starts_with("{\"traceEvents\":["));
/// assert!(json.contains("\"knobs\""));
/// ```
pub fn chrome_trace_json(trace: &ExecutionTrace) -> String {
    let mut events = Vec::new();
    for cta in &trace.ctas {
        events.push(format!(
            concat!(
                "{{\"name\":{},\"cat\":\"cta\",\"ph\":\"X\",\"ts\":{:.3},",
                "\"dur\":{:.3},\"pid\":0,\"tid\":{},\"args\":{{\"stream\":{},\"tag\":{}}}}}"
            ),
            json_string(trace.kernel_of(cta).map_or("", |k| &k.label)),
            cta.start_ns / 1000.0,
            (cta.end_ns - cta.start_ns) / 1000.0,
            cta.sm,
            cta.stream,
            cta.tag,
        ));
    }
    for kernel in &trace.kernels {
        events.push(format!(
            concat!(
                "{{\"name\":{},\"cat\":\"kernel\",\"ph\":\"X\",\"ts\":{:.3},",
                "\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"launch_us\":{:.3}}}}}"
            ),
            json_string(&kernel.label),
            kernel.start_ns / 1000.0,
            (kernel.end_ns - kernel.start_ns) / 1000.0,
            kernel.stream,
            kernel.launch_ns / 1000.0,
        ));
    }
    format!(
        "{{\"traceEvents\":[{}],\"otherData\":{{\"knobs\":{}}}}}",
        events.join(","),
        sim_core::knobs::snapshot().artifact_json(),
    )
}

/// Minimal JSON string escaping for labels.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{CtaSpan, KernelSpan};

    fn sample() -> ExecutionTrace {
        ExecutionTrace {
            ctas: vec![CtaSpan {
                stream: 1,
                kernel_index: 0,
                tag: 7,
                sm: 3,
                start_ns: 1000.0,
                end_ns: 5000.0,
            }],
            kernels: vec![KernelSpan {
                stream: 1,
                kernel_index: 0,
                label: "attn(m=16,n=64)".into(),
                launch_ns: 0.0,
                start_ns: 1000.0,
                end_ns: 5000.0,
            }],
        }
    }

    #[test]
    fn events_carry_sm_and_duration() {
        let json = chrome_trace_json(&sample());
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("\"dur\":4.000"));
        assert!(json.contains("\"ph\":\"X\""));
        // The CTA event carries its kernel's label.
        assert!(
            json.contains("{\"name\":\"attn(m=16,n=64)\",\"cat\":\"cta\""),
            "{json}"
        );
    }

    #[test]
    fn output_is_parseable_json() {
        // No serde dependency here; check balance and quoting manually.
        let json = chrome_trace_json(&sample());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn labels_are_escaped() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn empty_trace_still_carries_the_knob_snapshot() {
        let json = chrome_trace_json(&ExecutionTrace::default());
        assert!(json.starts_with("{\"traceEvents\":[]"), "{json}");
        assert!(json.contains("\"otherData\":{\"knobs\":{"), "{json}");
        assert!(json.contains("\"PAT_GPU_MODEL\""), "{json}");
    }
}
