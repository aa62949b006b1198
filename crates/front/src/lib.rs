//! # polyject-front
//!
//! A textual frontend for `polyject`: the `.pj` kernel language (the
//! fused-operator descriptions AKG would receive from graph-kernel
//! fusion) with a lexer, a recursive-descent parser lowering directly to
//! [`polyject_ir::Kernel`], emission back to canonical `.pj` source
//! ([`emit_pj`] / [`canonical_pj`], the content-hash basis of the
//! serving cache), and the `.pj` half of the `polyjectc` compiler driver
//! (the binary itself lives in `polyject-serve`, where it can also reach
//! a running `polyjectd` daemon).
//!
//! # Examples
//!
//! ```
//! let src = "
//! kernel axpy
//! param N = 64
//! tensor X[N]: f32
//! tensor Y[N]: f32
//! stmt S for (i in 0..N) Y[i] = 2.0 * X[i] + Y[i]
//! ";
//! let kernel = polyject_front::parse(src).unwrap();
//! assert_eq!(kernel.param_defaults(), &[64]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod emit;
mod lexer;
mod parser;

pub use emit::{canonical_pj, emit_pj};
pub use parser::{parse, ParseError};
