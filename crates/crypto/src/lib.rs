//! # rap-crypto — minimal crypto substrate for the RAP-Track RoT model
//!
//! From-scratch SHA-256 and HMAC-SHA256, used by the Secure-World CFA
//! Engine to compute `H_MEM` (the attested application's code hash) and
//! to authenticate CFA reports, and by the Verifier to check them.
//!
//! The paper's prototype signs reports inside TrustZone with a key held
//! in the Secure World; this crate provides the functionally equivalent
//! symmetric primitive (a MAC, as §II-C of the paper explicitly allows).
//!
//! Every SHA-256 block compression runs through one function: an x86-64
//! SHA-NI kernel when run-time detection finds the SHA extensions, the
//! portable compression otherwise. Both give the same digests;
//! [`sha256_backend`] names the one in use and [`compressions`] counts
//! blocks per thread.
//!
//! ```
//! use rap_crypto::{hmac_sha256, sha256, verify_tag};
//! let h_mem = sha256(b"application binary bytes");
//! let tag = hmac_sha256(b"device key", &h_mem);
//! assert!(verify_tag(&tag, &hmac_sha256(b"device key", &h_mem)));
//! ```

#![warn(missing_docs)]

mod hmac;
mod sha256;

pub use hmac::{hmac_sha256, verify_tag, HmacSha256};
pub use sha256::{compressions, sha256, sha256_backend, Digest, Sha256, DIGEST_LEN};
