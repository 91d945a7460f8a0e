//! # hni-transport — closed-loop reliable transport over AAL5
//!
//! The paper's host interface ends at reassembled frames; everything
//! above it in the experiments so far has been **open loop** — offered
//! load in, deliveries and discards out, no feedback. This crate closes
//! the loop: a windowed, retransmitting transport running over the same
//! simulated receive interface, so the discard policies (drop-tail,
//! EPD, PPD) can be measured where they actually matter — in the
//! steady state a feedback loop settles into, not in a single pass.
//!
//! Three pieces:
//!
//! * [`SendWindow`] — per-VC sliding window over frame sequence
//!   numbers, with cumulative + selective acknowledgement and
//!   duplicate-ack counting;
//! * [`RtoEstimator`] — adaptive retransmission timeout: Jacobson
//!   SRTT/RTTVAR, Karn's rule (retransmitted frames never produce RTT
//!   samples), capped exponential backoff;
//! * [`run_transport`] — the closed-loop simulator itself, driven off
//!   the cell-slot clock of a [`hni_sonet::LineRate`], with
//!   deterministic fault injection and propagation-delay models from
//!   `hni_sim::faults` on both the forward and reverse paths.
//!
//! Determinism is load-bearing: the whole closed loop — fault fates,
//! jitter, timer interleavings — reproduces byte-identically from one
//! seed, and a faultless, jitterless run draws zero random values.

pub mod rto;
pub mod sim;
pub mod window;

pub use rto::{RtoConfig, RtoEstimator};
pub use sim::{run_transport, TransportConfig, TransportReport};
pub use window::SendWindow;
