//! # workloads — synthetic batches, trace models, and arrival processes
//!
//! Inputs for both evaluation tracks of the paper:
//!
//! * [`BatchSpec`] builds the controlled `(B, L)` decode batches of the
//!   kernel benchmark (§8.3, Fig. 11/17), with [`figure11_specs`] providing
//!   the 20-configuration suite;
//! * [`generate_trace`] synthesizes request streams statistically matched to
//!   the four real-world traces of §3.1/§8.2 (Fig. 4's prefix ratios, the
//!   conversation trace's 46/348/2123 three-level prefix, toolagent's
//!   task-specific system prompts);
//! * [`PoissonArrivals`] drives the online-serving experiments (§8.4).
//!
//! ## Example
//!
//! ```
//! use attn_math::HeadConfig;
//! use workloads::{figure11_specs, BatchSpec};
//!
//! // The paper's example configuration: B=[1,4,16], L=[128,256,1024].
//! let spec = BatchSpec::new(vec![1, 4, 16], vec![128, 256, 1024]);
//! let batch = spec.build(HeadConfig::new(32, 8, 128));
//! assert_eq!(batch.num_queries(), 16);
//! assert_eq!(figure11_specs().len(), 20);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod arrival;
mod io;
mod requests;
mod synthetic;
mod tenants;
mod traces;

pub use arrival::{Burst, BurstyArrivals, DiurnalArrivals, PoissonArrivals};
pub use io::{load_trace, save_trace};
pub use requests::{PromptSpec, Request, Segment};
pub use synthetic::{ablation_specs, figure11_specs, BatchSpec};
pub use tenants::{
    generate_multi_tenant, generate_multi_tenant_at, MultiTenantConfig, MultiTenantTrace,
    TenantSpec,
};
pub use traces::{generate_trace, generate_trace_at, measure_prefix_ratio, TraceConfig, TraceKind};
