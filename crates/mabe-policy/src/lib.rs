//! # mabe-policy
//!
//! Access-policy language and LSSS engine for the MA-ABAC reproduction of
//! *"Attribute-based Access Control for Multi-Authority Systems in Cloud
//! Storage"* (Yang & Jia, ICDCS 2012).
//!
//! * [`attr`] — qualified attributes (`name@authority`) and authority
//!   identifiers (the paper's `AID`s).
//! * [`ast`] — monotone formulas with `AND` / `OR` / `k`-of-`n` gates.
//! * [`parser`] — the textual policy language.
//! * [`lsss`] — conversion to monotone span programs `(M, ρ)` (the
//!   Lewko–Waters construction: `AND` as a `{0, ±1}` chain, `k`-of-`n`
//!   as a Vandermonde tail), secret sharing `λ_i = M_i · v`, and
//!   reconstruction coefficients by a walk of the formula — the "any
//!   LSSS access structure" machinery of the paper.
//! * [`linalg`] — Gauss–Jordan elimination over `F_r`, for the
//!   security-game span checks and as the reconstruction walk's test
//!   oracle.
//!
//! # Examples
//!
//! ```
//! use std::collections::BTreeSet;
//! use mabe_policy::{parse, AccessStructure};
//!
//! let policy = parse("(Doctor@MedOrg AND Researcher@Trial) OR Admin@MedOrg")?;
//! let lsss = AccessStructure::from_policy(&policy)?;
//!
//! let attrs: BTreeSet<_> = ["Doctor@MedOrg", "Researcher@Trial"]
//!     .iter().map(|s| s.parse().unwrap()).collect();
//! assert!(lsss.reconstruction_coefficients(&attrs).is_some());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod ast;
pub mod attr;
pub mod linalg;
pub mod lsss;
pub mod parser;

pub use ast::Policy;
pub use attr::{Attribute, AuthorityId, ParseAttributeError};
pub use lsss::{AccessStructure, HeldAttributes, LsssError};
pub use parser::{parse, ParsePolicyError};
