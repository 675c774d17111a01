//! # gprq-gaussian
//!
//! Gaussian-distribution machinery for the `gaussian-prq` workspace
//! (reproduction of *"Spatial Range Querying for Gaussian-Based Imprecise
//! Query Objects"*, ICDE 2009):
//!
//! * [`specfun`] — ln Γ, erf/erfc, the regularized incomplete gamma
//!   function, and the standard normal CDF, implemented from scratch;
//! * [`chi`] — the CDF of the chi distribution, i.e. the probability mass
//!   of a standard `d`-dimensional Gaussian inside a centered ball
//!   (paper Eq. 7 / Fig. 17), plus its inverse used to compute `r_θ`;
//! * [`noncentral`] — off-center ball probabilities: the mass of a
//!   standard Gaussian inside a ball whose center sits at distance β from
//!   the origin (a noncentral-χ² CDF). These are exactly the entries of
//!   the paper's BF U-catalog (`ucatalog_lookup(δ, θ)`, §IV-C);
//! * [`mvn`] — the `N(q, Σ)` density of paper Eq. 1, with Mahalanobis
//!   forms and log-space normalization;
//! * [`sampler`] — standard-normal sampling (our substitute for RANDLIB,
//!   §V-A): the exact ziggurat behind every Monte-Carlo draw, with the
//!   Cholesky affine transform for `N(q, Σ)`, and the frozen Box–Muller
//!   stream that generates the workload data;
//! * [`integrate`] — the qualification-probability integrators: the
//!   paper's importance-sampling Monte Carlo, a uniform-ball Monte Carlo
//!   comparator, a 2-D Gauss–Legendre quadrature reference, and the
//!   analytic 1-D case;
//! * [`cloud`] — the shared-sample Phase-3 engine: one SoA batch of
//!   mean-free offsets per query ([`SampleCloud`]) plus a uniform-grid
//!   index ([`CloudGrid`], drawn and built in one fused pass) so each
//!   candidate's hit count only touches samples near it. This is the
//!   default integration path in `gprq-core`.
//!
//! ```
//! use gprq_gaussian::chi;
//! // Paper §VI-B: for d = 2, θ = 0.01, the θ-region radius is r_θ ≈ 2.79.
//! let r = chi::chi_inverse(2, 0.98);
//! assert!((r - 2.797).abs() < 1e-3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chi;
pub mod cloud;
pub mod integrate;
pub mod mvn;
pub mod noncentral;
pub mod quasi;
pub mod sampler;
pub mod specfun;

pub use chi::{chi_ball_probability, chi_inverse, chi_squared_cdf};
pub use cloud::{CloudGrid, CloudStats, SampleCloud};
pub use integrate::{
    analytic_interval_probability_1d, importance_sampling_probability, quadrature_probability_2d,
    uniform_ball_probability, InvalidSampleBudget, RunningEstimate, StreamingProbability,
};
pub use mvn::Gaussian;
pub use noncentral::{
    ball_probability, inverse_center_distance, isotropic_qualification_probability,
    noncentral_chi_squared_cdf,
};
pub use quasi::{quasi_monte_carlo_probability, Halton};
pub use sampler::{GaussianSampler, StandardNormal, Ziggurat};
