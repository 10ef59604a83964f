//! A hand-rolled implementation of SUMO's **TraCI** wire protocol.
//!
//! The paper applies its optimized velocity profiles "in SUMO using \[the\]
//! TraCI interface" (§III-B-3): an external controller connects to the
//! simulator over TCP and, every step, reads the ego vehicle's state and
//! commands its speed. This crate reproduces that control path against
//! [`velopt_microsim`] with the *real* TraCI message format, so the client
//! side is a faithful TraCI client:
//!
//! * [`protocol`] — message framing (4-byte big-endian message length,
//!   capped at [`protocol::MAX_MESSAGE_LEN`]; 1-byte or `0x00` + 4-byte
//!   command lengths), typed values ([`TraciValue`]), command/status/result
//!   encoding, request builders ([`Command::get`],
//!   [`Command::simulation_step`], [`Command::set_vehicle_speed`]), the
//!   in-place outgoing [`Message`] and the reply cursor [`Answers`], and
//!   the command and variable identifier constants from SUMO's
//!   `TraCIConstants`.
//! * [`TraciClient`] — a blocking client over TCP. Its one transport is
//!   [`TraciClient::send`]: the caller encodes any number of commands into
//!   a reused [`Message`], it goes out in one write, and the one reply is
//!   read in place through [`Answers`] — one typed read per command, in
//!   order, returning `f64`, `i32`, a position, a `&str` or an iterator of
//!   `&str` borrowed from the reply — so a rejected command fails only its
//!   own read and a fleet tick decodes nothing into owned values. The
//!   typed methods (`get_version`, `simulation_step`, vehicle
//!   speed/position/id-list reads, `set_vehicle_speed`, traffic-light
//!   state, induction-loop counts, simulation time, subscriptions, `close`)
//!   send one command each through the same path.
//! * [`TraciServer`] — serves one client per connection, answering every
//!   command of a message in order in one reply, and translating TraCI
//!   commands into calls on a [`TraciBackend`]. Each answer is written
//!   straight into the connection's one reply buffer, object ids read as
//!   slices of the request, and the reply goes out in one write. Client
//!   and server both take a message with one `read` when it is already in
//!   the socket buffer. The backend is a single-corridor
//!   [`velopt_microsim::Simulation`] (vehicles `veh<N>`, traffic lights
//!   `tl<N>`, induction loops `loop<N>`) or a multi-corridor
//!   [`velopt_microsim::Network`] (network-unique `veh<N>` plus
//!   corridor-scoped `tl<corridor>:<N>` and `loop<corridor>:<N>`). Every
//!   `<N>` is canonical decimal: no sign, no leading zero.
//!
//! # Examples
//!
//! ```
//! # fn main() -> velopt_common::Result<()> {
//! use velopt_microsim::{SimConfig, Simulation};
//! use velopt_road::Road;
//! use velopt_traci::{TraciClient, TraciServer};
//!
//! let sim = Simulation::new(Road::us25(), SimConfig::default())?;
//! let server = TraciServer::spawn(sim)?;
//! let mut client = TraciClient::connect(server.addr())?;
//! let version = client.get_version()?;
//! assert!(version.api >= 20);
//! client.simulation_step(0.0)?; // advance one step
//! assert!(client.simulation_time()? > 0.0);
//!
//! // One round trip: step, then read the time and a light that exists
//! // and one that does not. Each command gets its own answer, read in
//! // order from the reply in place.
//! use velopt_traci::protocol::ids;
//! use velopt_traci::Message;
//! let mut message = Message::new();
//! message.simulation_step(0.0);
//! message.get(ids::CMD_GET_SIM_VARIABLE, ids::VAR_TIME, "");
//! for light in ["tl0", "tl9"] {
//!     message.get(ids::CMD_GET_TL_VARIABLE, ids::TL_RED_YELLOW_GREEN_STATE, light);
//! }
//! let mut answers = client.send(&message)?;
//! answers.check()?;
//! assert!(answers.f64()? > 0.1);
//! assert!(answers.str().is_ok());
//! assert!(answers.str().is_err()); // US-25 has two lights
//! answers.finish()?;
//! client.close()?;
//! # Ok(())
//! # }
//! ```

mod backend;
mod client;
pub mod protocol;
mod server;

pub use backend::{TraciBackend, VehicleView};
pub use client::{TraciClient, Version};
pub use protocol::{Answers, Command, Ids, Message, SubscriptionResult, TraciValue};
pub use server::TraciServer;
