//! The **vehicular cloud** optimization service.
//!
//! The paper's introduction frames deployment through the vehicular-cloud
//! computing model of \[6\], \[7\]: velocity-profile optimization is too heavy
//! for in-vehicle hardware, so *"each vehicle uploads its state (starting
//! time and route) to the cloud through wireless communication, and then
//! the cloud calculates the optimal velocity profile for the vehicle"*.
//! This crate implements that service:
//!
//! * [`protocol`] — a compact binary wire format (length-prefixed frames,
//!   explicit field encoding; no self-describing serialization on the wire)
//!   carrying the trip request — corridor geometry, departure time,
//!   per-light arrival rates, queue parameters — and the optimized profile
//!   back,
//! * [`CloudServer`] — an event-driven TCP service: an acceptor deals
//!   connections round-robin to N epoll-backed **reactor shards** (see
//!   DESIGN.md §11), each owning a slab of nonblocking per-connection
//!   state machines that assemble length-prefixed frames incrementally;
//!   decoded requests run on a separate compute-worker pool and the
//!   encoded responses flow back to the owning shard through an eventfd
//!   wake pipe. Responses are encoded once into pooled buffers
//!   (zero-copy framing), and a request-keyed, byte-bounded **plan cache**
//!   (identical trips are common: every EV entering the corridor in the
//!   same signal cycle with the same demand gets the same plan) stores the
//!   encoded frame, so repeat trips skip both the solve *and* the encode.
//!   Identical requests that race one miss share one solve
//!   (single-flight), and every solve runs on one optimizer built at
//!   spawn over a pool of warm solver arenas. Concurrency scales with
//!   file descriptors, not threads; tune it with [`ServerConfig`],
//! * [`CloudClient`] — the in-vehicle side: connect, upload the trip,
//!   receive the profile; a fleet gateway can send a [`TripFrame`] on many
//!   connections before reading any reply.
//!
//! Beyond trip planning, the service forecasts traffic itself:
//! `REQ_PREDICT_BATCH`/`RESP_PREDICT_BATCH` frames carry a
//! [`PredictBatchRequest`] — lag windows for N intersections plus a
//! lookahead horizon count — answered from a shared cache of trained SAE
//! predictors (`velopt-traffic`), so one training serves every vehicle
//! asking about the same station.
//!
//! It also routes across whole road graphs: `REQ_ROUTE`/`RESP_ROUTE`
//! frames carry a [`RouteNetRequest`] — junctions, directed corridor
//! edges, and an `origin → dest` query — answered by the certified-A\*
//! router of `velopt-core::route` running on one shared process-wide
//! instance, so its edge-plan memo and `emin` lower-bound cache persist
//! across every query (fleet vehicles sharing corridor classes share
//! solved plans), with a byte-keyed `RESP_ROUTE` frame cache on top for
//! repeat queries.
//!
//! # Examples
//!
//! ```
//! # fn main() -> velopt_common::Result<()> {
//! use velopt_cloud::{CloudClient, CloudServer, TripRequest};
//!
//! let server = CloudServer::spawn(2)?;
//! let mut client = CloudClient::connect(server.addr())?;
//! let profile = client.request(&TripRequest::us25_at(0.0))?;
//! assert_eq!(profile.window_violations, 0);
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

mod cache;
mod client;
mod coalesce;
mod planner;
pub mod protocol;
mod reactor;
mod server;

pub use client::{CloudClient, TripFrame};
pub use protocol::{
    CloudResponse, PredictBatchRequest, PredictBatchResponse, PredictQuery, RouteNetRequest,
    RouteNetResponse, TripRequest,
};
pub use server::{CloudServer, ServerConfig, ServerStats};
