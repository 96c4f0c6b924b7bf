#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Dense linear-algebra kernels for the `pmor` workspace.
//!
//! This crate provides everything the parametric model-order-reduction stack
//! needs from dense numerics, implemented from scratch:
//!
//! * [`Complex64`] — double-precision complex arithmetic,
//! * [`Scalar`] — an abstraction over `f64` and [`Complex64`] so that dense
//!   and sparse factorizations can be written once and instantiated for both
//!   real (time-constant) and complex (frequency-sweep) systems,
//! * [`Matrix`] — a dense row-major matrix with the usual algebra,
//! * [`LuFactors`](lu::LuFactors) — LU with partial pivoting,
//! * [`qr`] — Householder QR,
//! * [`orth`] — modified Gram–Schmidt orthonormalization with
//!   reorthogonalization and rank deflation (the work-horse of every Krylov
//!   subspace routine in `pmor`),
//! * [`svd`] — one-sided Jacobi singular value decomposition,
//! * [`eig`] — Hessenberg reduction plus shifted QR eigensolver and a cyclic
//!   Jacobi symmetric eigensolver,
//! * [`par`] — the workspace's one deterministic scoped worker pool.
//!
//! # Example
//!
//! ```
//! use pmor_num::{Matrix, lu::LuFactors};
//!
//! # fn main() -> Result<(), pmor_num::NumError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[2.0, 3.0]]);
//! let lu = LuFactors::factor(&a)?;
//! let x = lu.solve(&[5.0, 5.0])?;
//! assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

pub mod complex;
pub mod eig;
pub mod lu;
pub mod matrix;
pub mod orth;
pub mod par;
pub mod qr;
pub mod scalar;
pub mod svd;
pub mod vecops;

pub use complex::Complex64;
pub use matrix::Matrix;
pub use scalar::Scalar;

use std::fmt;

/// Error type for dense linear-algebra operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NumError {
    /// A factorization encountered an (numerically) singular matrix.
    ///
    /// The payload is the pivot index at which breakdown occurred.
    Singular(usize),
    /// Matrix dimensions were incompatible with the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        context: &'static str,
        /// Expected dimension.
        expected: usize,
        /// Dimension actually supplied.
        actual: usize,
    },
    /// An iterative algorithm failed to converge within its iteration budget.
    NoConvergence {
        /// Human-readable description of the algorithm that failed.
        context: &'static str,
        /// Number of iterations performed.
        iterations: usize,
    },
}

impl fmt::Display for NumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumError::Singular(k) => write!(f, "matrix is singular at pivot {k}"),
            NumError::DimensionMismatch {
                context,
                expected,
                actual,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {expected}, got {actual}"
            ),
            NumError::NoConvergence {
                context,
                iterations,
            } => write!(
                f,
                "{context} did not converge after {iterations} iterations"
            ),
        }
    }
}

impl std::error::Error for NumError {}

/// Workspace-wide result alias for dense numerics.
pub type Result<T> = std::result::Result<T, NumError>;
