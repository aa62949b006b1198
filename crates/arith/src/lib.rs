//! # polyject-arith
//!
//! Exact rational and integer linear algebra underpinning the `polyject`
//! polyhedral compiler: [`Rat`] (exact `i128` rationals), dense rational
//! [`Matrix`] operations, and the primitive integer kernel
//! ([`integer_kernel_basis`]) used to build the scheduler's orthogonality
//! constraints.
//!
//! Everything here is exact — no floating point is ever used in a
//! scheduling decision.
//!
//! # Examples
//!
//! ```
//! use polyject_arith::{Matrix, Rat};
//!
//! let m = Matrix::from_rows(&[vec![1, 1], vec![1, -1]]);
//! let x = m.solve(&[Rat::int(4), Rat::int(2)]).unwrap();
//! assert_eq!(x, vec![Rat::int(3), Rat::int(1)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fnv;
mod matrix;
mod prng;
mod rat;

pub use fnv::{fnv1a64, Fnv64};
pub use matrix::{integer_kernel_basis, Matrix};
pub use prng::SplitMix64;
pub use rat::{gcd, lcm, Rat};
