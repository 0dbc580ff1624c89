//! # xtask — workspace static analysis and observability tooling
//!
//! A zero-dependency maintenance crate, run as
//! `cargo run -p xtask -- <lint|deepcheck|sanitize|obsreport>`:
//!
//! * **token lints** ([`lexer`], [`rules`], [`lint`]) — a token-level Rust
//!   scanner enforcing the project rules L001–L008 (panic discipline,
//!   `#![forbid(unsafe_code)]`, registered observability labels, clock
//!   usage, print discipline, workspace-mediated dependencies, pinned CI
//!   actions, no hash containers outside tests), with an auditable waiver
//!   pragma: `// breval-lint: allow(L001) -- <reason, mandatory>`;
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod callgraph;
pub mod json;
pub mod lexer;
pub mod lint;
pub mod obsreport;
pub mod report;
pub mod resolve;
pub mod rules;
pub mod rules_flow;
pub mod tokens;
