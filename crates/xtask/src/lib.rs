//! # xtask — workspace static analysis and observability tooling
//!
//! A zero-dependency maintenance crate, run as
//! `cargo run -p xtask -- <lint|deepcheck|sanitize|obsreport>`:
//!
//! * **project lints** ([`tokens`], [`rules`], [`lint`]) — the rules no
//!   compiler lint covers, over the token stream and the manifests:
//!   invariant-naming `.expect()` messages (L001), manifests that inherit
//!   the workspace lint table (L002), registered observability labels
//!   (L003), workspace-mediated dependencies (L006) and pinned CI actions
//!   (L007), with an auditable waiver pragma:
//!   `// breval-lint: allow(L001) -- <reason, mandatory>` (L000). The
//!   workspace lint table in the root `Cargo.toml` and `clippy.toml` leave
//!   `unsafe`, `.unwrap()`, library printing, hash containers and the wall
//!   clock to rustc and clippy;
//! * **flow rules** ([`ast`], [`resolve`], [`callgraph`], [`rules_flow`]) —
//!   `deepcheck` parses items, resolves symbols workspace-wide, builds a
//!   cross-crate call graph, and enforces L009–L011 (entry-reachable panic
//!   freedom, allocation-free hot kernels, parallel-closure hygiene)
//!   against the `entry`/`kernel` registry in `crates/xtask/deepcheck.txt`,
//!   honouring the same waiver pragma;
//! * **data sanitizer** (in `breval_core::sanitize`, driven from this
//!   crate's binary) — domain invariants of the paper pipeline checked over
//!   a freshly-run scenario and the persisted `results/` artifacts;
//! * **observability reporting** ([`obsreport`]) — a self-time-sorted flame
//!   summary and pool-utilisation table rendered from a run manifest.

#![warn(missing_docs)]

pub mod ast;
pub mod callgraph;
pub mod json;
pub mod lint;
pub mod obsreport;
pub mod report;
pub mod resolve;
pub mod rules;
pub mod rules_flow;
pub mod tokens;
