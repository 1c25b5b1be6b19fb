//! # dmhpc-des — discrete-event simulation kernel
//!
//! The foundation of the `dmhpc` reproduction: a hand-rolled,
//! fully-deterministic discrete-event simulation (DES) substrate.
//!
//! The crate provides four things, each usable on its own:
//!
//! * [`time`] — integer simulated time ([`SimTime`], [`SimDuration`]): `u64`
//!   microseconds, so event ordering is exact and runs are bit-reproducible.
//! * [`queue`] — pending-event sets: a stable [binary-heap
//!   queue](queue::BinaryHeapQueue) and a [calendar
//!   queue](queue::CalendarQueue) behind one [`queue::EventQueue`]
//!   trait. Equal-time events dequeue in insertion order in both.
//! * [`rng`] — a deterministic PCG64 generator seeded via SplitMix64, plus
//!   the statistical distributions workload synthesis needs (exponential,
//!   normal, lognormal, gamma, hyper-Gamma, Zipf).
//! * [`stats`] — online statistics: Welford moments, P² streaming quantiles,
//!   time-weighted step functions, CDF collection.
//!
//! Everything is `#![forbid(unsafe_code)]` and dependency-free, so
//! determinism cannot rot underneath the simulator.
//!
//! ## Example
//!
//! ```
//! use dmhpc_des::queue::{BinaryHeapQueue, EventQueue};
//! use dmhpc_des::time::SimTime;
//!
//! let mut q: BinaryHeapQueue<&'static str> = BinaryHeapQueue::new();
//! q.schedule(SimTime::from_secs(10), "finish");
//! q.schedule(SimTime::from_secs(2), "arrive");
//! assert_eq!(q.pop().map(|(t, e)| (t.as_secs(), e)), Some((2, "arrive")));
//! assert_eq!(q.pop().map(|(t, e)| (t.as_secs(), e)), Some((10, "finish")));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use queue::{BinaryHeapQueue, CalendarQueue, EventQueue};
pub use rng::Pcg64;
pub use time::{SimDuration, SimTime};
