//! `reghd-net` — the event-driven RGNP front-end of the RegHD serving
//! stack, and the only way to serve.
//!
//! A thread per connection would mean 10k stacks at 10k connections, so
//! this crate multiplexes every socket over a few epoll pollers. The
//! serving engine — registry, batcher, workers, shed controller,
//! deadlines, metrics, fault injection — lives in `reghd-serve`; this
//! crate adds the transport:
//!
//! * [`sys`]: a dependency-free epoll + wakeup-pipe layer built on raw
//!   Linux syscalls (the same direct-syscall idiom as `reghd-store`'s
//!   mmap layer), gated to `linux` on `x86_64`/`aarch64`.
//! * [`frame`]: the **RGNP v1** codec — length-prefixed binary frames
//!   with explicit request ids, so clients pipeline requests and the
//!   server completes them out of order (see `docs/PROTOCOL.md`).
//! * [`server`]: a fixed poller-thread pool multiplexing all
//!   connections, with per-connection write-budget backpressure,
//!   idle/reply timeouts, the `ADMIN` operator commands (reload, sweep,
//!   fault injection) and a background integrity sweeper; model math
//!   still runs on the worker pool.
//! * [`client`]: a small blocking RGNP client for tests, the CLI, and
//!   the chaos harness.
//! * [`loadgen`]: an open-loop (fixed offered rate) load generator that
//!   reports latency quantiles without coordinated omission.
//!
//! Serving is Linux-only (x86_64/aarch64). On other platforms the codec,
//! client and config types still build, but [`server::serve_rgnp`] and
//! the loadgen return `Unsupported` errors.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub(crate) mod sys;

pub mod client;
pub mod frame;
pub mod loadgen;
pub mod server;

pub use client::RgnpClient;
pub use loadgen::{LoadConfig, LoadReport};
pub use server::{serve_rgnp, NetConfig, NetServerHandle};
