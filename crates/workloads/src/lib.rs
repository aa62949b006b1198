//! # polyject-workloads
//!
//! The evaluation workloads of paper Section VI: the seven target networks
//! of Table I with deterministic fused-operator populations standing in
//! for MindSpore's ModelZoo traces, the TVM-style per-statement manual
//! baseline, and the measurement harness that produces Table II rows.
//!
//! # Examples
//!
//! ```
//! use polyject_workloads::{aggregate_network, lstm, measure_op, Tool};
//! use polyject_gpusim::GpuModel;
//!
//! let net = lstm();
//! let model = GpuModel::v100();
//! let per_op = net.ops.iter().map(|op| measure_op(op, &model)).collect();
//! let m = aggregate_network(&net, per_op);
//! assert_eq!(m.total_ops, 4);
//! println!("LSTM infl speedup: {:.2}x", m.speedup_all(Tool::Infl));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classes;
mod measure;
mod networks;
mod tvm;

pub use classes::OpClass;
pub use measure::{
    aggregate_network, geomean_speedup, measure_op, measure_op_with_perf, op_key, unique_ops,
    NetworkMeasurement, OpMeasurement, OpPerf, Tool,
};
pub use networks::{all_networks, lstm, NetKind, Network};
pub use tvm::compile_tvm;
