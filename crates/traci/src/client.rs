//! The TraCI client.

use crate::protocol::{
    ids, put_string, read_message, Answers, Message, SubscriptionResult, READ_BUFFER,
};
use bytes::BufMut;
use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use velopt_common::Result;

/// The version information returned by `CMD_GETVERSION`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Version {
    /// TraCI API level.
    pub api: i32,
    /// Human-readable simulator identity.
    pub software: String,
}

/// A blocking TraCI client over TCP.
///
/// [`send`](Self::send) writes a caller-encoded [`Message`] of any number
/// of commands and returns the reply as [`Answers`], read in place one
/// command at a time, so a controller can read or command a whole fleet in
/// one round trip without decoding into owned values. The typed methods
/// (`vehicle_position`, `set_vehicle_speed`, …) send one command each. See
/// the crate-level example.
#[derive(Debug)]
pub struct TraciClient {
    stream: BufReader<TcpStream>,
    /// The typed methods' one-command message, reused from call to call.
    message: Message,
    /// The last reply's body, which [`Answers`] reads in place.
    body: Vec<u8>,
}

impl TraciClient {
    /// Connects to a TraCI server.
    ///
    /// # Errors
    ///
    /// Returns [`velopt_common::Error::Io`] if the connection cannot be
    /// established.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Self {
            stream: BufReader::with_capacity(READ_BUFFER, stream),
            message: Message::new(),
            body: Vec::new(),
        })
    }

    /// Sends `message` in one write, reads the one reply message, and
    /// returns its answers to be read in the message's order. An empty
    /// message sends nothing and has no answers.
    ///
    /// # Errors
    ///
    /// Returns [`velopt_common::Error::Io`] on socket failures and
    /// [`velopt_common::Error::Protocol`] on a malformed reply header.
    /// Each answer is checked as it is read.
    pub fn send<'a>(&'a mut self, message: &'a Message) -> Result<Answers<'a>> {
        transact(&mut self.stream, &mut self.body, message)
    }

    /// Requests the server's version.
    ///
    /// # Errors
    ///
    /// Returns [`velopt_common::Error::Protocol`] on malformed responses
    /// and [`velopt_common::Error::Io`] on socket failures.
    pub fn get_version(&mut self) -> Result<Version> {
        self.ask(
            |m| m.command(ids::CMD_GETVERSION, &[]),
            |a| {
                let (api, software) = a.version()?;
                Ok(Version {
                    api,
                    software: software.to_owned(),
                })
            },
        )
    }

    /// Advances the simulation to `target_time` seconds (0 = one step).
    ///
    /// # Errors
    ///
    /// Returns [`velopt_common::Error::Protocol`]/[`velopt_common::Error::Io`]
    /// on failures.
    pub fn simulation_step(&mut self, target_time: f64) -> Result<()> {
        self.ask(|m| m.simulation_step(target_time), |a| a.check())
    }

    /// Advances the simulation and returns the values of every live
    /// variable subscription (see
    /// [`subscribe_vehicle`](Self::subscribe_vehicle)).
    ///
    /// # Errors
    ///
    /// Returns [`velopt_common::Error::Protocol`]/[`velopt_common::Error::Io`]
    /// on failures.
    pub fn simulation_step_collect(&mut self, target_time: f64) -> Result<Vec<SubscriptionResult>> {
        self.ask(|m| m.simulation_step(target_time), |a| a.subscriptions())
    }

    /// Subscribes to vehicle variables for `[begin, end)`; their values
    /// arrive with every subsequent
    /// [`simulation_step_collect`](Self::simulation_step_collect). An empty
    /// variable list cancels the object's subscription.
    ///
    /// # Errors
    ///
    /// Returns [`velopt_common::Error::Protocol`] if the server rejects a
    /// variable.
    pub fn subscribe_vehicle(
        &mut self,
        vehicle: &str,
        variables: &[u8],
        begin: f64,
        end: f64,
    ) -> Result<()> {
        let mut payload = Vec::with_capacity(21 + vehicle.len() + variables.len());
        payload.put_f64(begin);
        payload.put_f64(end);
        put_string(&mut payload, vehicle);
        payload.put_u8(variables.len() as u8);
        payload.put_slice(variables);
        self.ask(
            |m| m.command(ids::CMD_SUBSCRIBE_VEHICLE_VARIABLE, &payload),
            |a| a.check(),
        )
    }

    /// Reads the current simulation time in seconds.
    ///
    /// # Errors
    ///
    /// Returns [`velopt_common::Error::Protocol`]/[`velopt_common::Error::Io`]
    /// on failures.
    pub fn simulation_time(&mut self) -> Result<f64> {
        self.ask(
            |m| m.get(ids::CMD_GET_SIM_VARIABLE, ids::VAR_TIME, ""),
            |a| a.f64(),
        )
    }

    /// Reads a vehicle's speed in m/s.
    ///
    /// # Errors
    ///
    /// Returns [`velopt_common::Error::Protocol`] with the server's message
    /// if the vehicle does not exist.
    pub fn vehicle_speed(&mut self, vehicle: &str) -> Result<f64> {
        self.ask(
            |m| m.get(ids::CMD_GET_VEHICLE_VARIABLE, ids::VAR_SPEED, vehicle),
            |a| a.f64(),
        )
    }

    /// Reads a vehicle's 2-D position (corridor offset, corridor index).
    ///
    /// # Errors
    ///
    /// Returns [`velopt_common::Error::Protocol`] with the server's message
    /// if the vehicle does not exist.
    pub fn vehicle_position(&mut self, vehicle: &str) -> Result<(f64, f64)> {
        self.ask(
            |m| m.get(ids::CMD_GET_VEHICLE_VARIABLE, ids::VAR_POSITION, vehicle),
            |a| a.position(),
        )
    }

    /// Lists the ids of all vehicles currently in the simulation.
    ///
    /// # Errors
    ///
    /// Returns [`velopt_common::Error::Protocol`]/[`velopt_common::Error::Io`]
    /// on failures.
    pub fn vehicle_ids(&mut self) -> Result<Vec<String>> {
        self.ask(
            |m| m.get(ids::CMD_GET_VEHICLE_VARIABLE, ids::ID_LIST, ""),
            |a| Ok(a.ids()?.map(str::to_owned).collect()),
        )
    }

    /// Commands a vehicle's speed (TraCI `setSpeed`). A negative value
    /// returns control to the car-following model.
    ///
    /// # Errors
    ///
    /// Returns [`velopt_common::Error::Protocol`] with the server's message
    /// if the vehicle does not exist or is not externally controllable.
    pub fn set_vehicle_speed(&mut self, vehicle: &str, speed: f64) -> Result<()> {
        self.ask(
            |m| {
                m.set_vehicle_speed(vehicle, speed);
                m
            },
            |a| a.check(),
        )
    }

    /// Reads a traffic light's state string (`"G"` during green, `"r"`
    /// during red).
    ///
    /// # Errors
    ///
    /// Returns [`velopt_common::Error::Protocol`] if the light does not
    /// exist.
    pub fn traffic_light_state(&mut self, light: &str) -> Result<String> {
        self.ask(
            |m| {
                m.get(
                    ids::CMD_GET_TL_VARIABLE,
                    ids::TL_RED_YELLOW_GREEN_STATE,
                    light,
                )
            },
            |a| a.str().map(str::to_owned),
        )
    }

    /// Reads the number of vehicles that crossed an induction loop during
    /// the last **completed** simulation step (SUMO
    /// `LAST_STEP_VEHICLE_NUMBER`). Reading is non-destructive: repeated
    /// reads within the same step return the same count.
    ///
    /// # Errors
    ///
    /// Returns [`velopt_common::Error::Protocol`] if the loop does not
    /// exist.
    pub fn induction_loop_count(&mut self, loop_id: &str) -> Result<i32> {
        self.ask(
            |m| {
                m.get(
                    ids::CMD_GET_INDUCTIONLOOP_VARIABLE,
                    ids::LAST_STEP_VEHICLE_NUMBER,
                    loop_id,
                )
            },
            |a| a.i32(),
        )
    }

    /// Closes the session; the server tears down after acknowledging.
    ///
    /// # Errors
    ///
    /// Returns [`velopt_common::Error::Io`] on socket failures.
    pub fn close(&mut self) -> Result<()> {
        self.ask(|m| m.command(ids::CMD_CLOSE, &[]), |a| a.check())
    }

    /// Sends the one command `encode` appends to the reused message, reads
    /// its answer with `read`, and checks the reply holds nothing else.
    fn ask<T>(
        &mut self,
        encode: impl FnOnce(&mut Message) -> &mut Message,
        read: impl FnOnce(&mut Answers<'_>) -> Result<T>,
    ) -> Result<T> {
        self.message.clear();
        encode(&mut self.message);
        let mut answers = transact(&mut self.stream, &mut self.body, &self.message)?;
        let value = read(&mut answers)?;
        answers.finish()?;
        Ok(value)
    }
}

/// Writes `message`, reads the reply into `body`, and returns its answers.
fn transact<'a>(
    stream: &mut BufReader<TcpStream>,
    body: &'a mut Vec<u8>,
    message: &'a Message,
) -> Result<Answers<'a>> {
    body.clear();
    if !message.is_empty() {
        stream.get_mut().write_all(message.as_bytes())?;
        read_message(stream, body)?;
    }
    Ok(Answers::new(message, body))
}
