//! The verifier passes. Each is a pure function from [`crate::ExecutionPlan`]
//! to a list of [`crate::Diagnostic`]s; [`crate::verify`] runs all five.

pub mod advisor;
pub mod borrow;
pub mod circuit;
pub mod fusion;
pub mod trials;
