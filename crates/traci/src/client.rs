//! The TraCI client.

use crate::protocol::{
    decode_message_body, ids, put_message, put_string, read_message, split_replies, take_i32,
    take_string, Command, Reply, SubscriptionResult, TraciValue, READ_BUFFER,
};
use bytes::{BufMut, Bytes, BytesMut};
use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use velopt_common::{Error, Result};

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
/// [`exchange`](Self::exchange) sends any number of commands as one
/// message and returns one [`Reply`] per command, so a controller can read
/// or command a whole fleet in one round trip. The typed methods
/// (`vehicle_position`, `set_vehicle_speed`, …) are exchanges of one
/// command. See the crate-level example.
#[derive(Debug)]
pub struct TraciClient {
    stream: BufReader<TcpStream>,
    /// The outgoing message and the reply's body, each reused from
    /// exchange to exchange.
    out: Vec<u8>,
    body: Vec<u8>,
}

impl TraciClient {
    /// Connects to a TraCI server.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Self {
            stream: BufReader::with_capacity(READ_BUFFER, stream),
            out: Vec::new(),
            body: Vec::new(),
        })
    }

    /// Sends `commands` as one message, reads the one reply message, and
    /// splits it into one [`Reply`] per command, in order. A command the
    /// server rejects shows in its own reply's status and leaves the
    /// others untouched. An empty batch sends nothing.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on socket failures and [`Error::Protocol`] if
    /// the reply does not answer every command in order.
    pub fn exchange(&mut self, commands: &[Command]) -> Result<Vec<Reply>> {
        if commands.is_empty() {
            return Ok(Vec::new());
        }
        self.out.clear();
        put_message(&mut self.out, commands);
        self.stream.get_mut().write_all(&self.out)?;
        read_message(&mut self.stream, &mut self.body)?;
        split_replies(
            commands,
            decode_message_body(Bytes::copy_from_slice(&self.body))?,
        )
    }

    /// Requests the server's version.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] on malformed responses and [`Error::Io`]
    /// on socket failures.
    pub fn get_version(&mut self) -> Result<Version> {
        let reply = self.exchange_one(Command::new(ids::CMD_GETVERSION, Vec::<u8>::new()))?;
        reply.check()?;
        let mut payload = reply
            .results
            .first()
            .ok_or_else(|| Error::protocol("missing version result"))?
            .payload
            .clone();
        let api = take_i32(&mut payload)?;
        let software = take_string(&mut payload)?;
        Ok(Version { api, software })
    }

    /// Advances the simulation to `target_time` seconds (0 = one step).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`]/[`Error::Io`] on failures.
    pub fn simulation_step(&mut self, target_time: f64) -> Result<()> {
        self.exchange_one(Command::simulation_step(target_time))?
            .check()
    }

    /// Advances the simulation and returns the values of every live
    /// variable subscription (see
    /// [`subscribe_vehicle`](Self::subscribe_vehicle)).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`]/[`Error::Io`] on failures.
    pub fn simulation_step_collect(&mut self, target_time: f64) -> Result<Vec<SubscriptionResult>> {
        self.exchange_one(Command::simulation_step(target_time))?
            .subscriptions()
    }

    /// Subscribes to vehicle variables for `[begin, end)`; their values
    /// arrive with every subsequent
    /// [`simulation_step_collect`](Self::simulation_step_collect). An empty
    /// variable list cancels the object's subscription.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] if the server rejects a variable.
    pub fn subscribe_vehicle(
        &mut self,
        vehicle: &str,
        variables: &[u8],
        begin: f64,
        end: f64,
    ) -> Result<()> {
        let mut buf = BytesMut::new();
        buf.put_f64(begin);
        buf.put_f64(end);
        put_string(&mut buf, vehicle);
        buf.put_u8(variables.len() as u8);
        for &v in variables {
            buf.put_u8(v);
        }
        self.exchange_one(Command::new(
            ids::CMD_SUBSCRIBE_VEHICLE_VARIABLE,
            buf.freeze(),
        ))?
        .check()
    }

    /// Reads the current simulation time in seconds.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`]/[`Error::Io`] on failures.
    pub fn simulation_time(&mut self) -> Result<f64> {
        self.get(ids::CMD_GET_SIM_VARIABLE, ids::VAR_TIME, "")?
            .as_double()
    }

    /// Reads a vehicle's speed in m/s.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] with the server's message if the vehicle
    /// does not exist.
    pub fn vehicle_speed(&mut self, vehicle: &str) -> Result<f64> {
        self.get(ids::CMD_GET_VEHICLE_VARIABLE, ids::VAR_SPEED, vehicle)?
            .as_double()
    }

    /// Reads a vehicle's 2-D position (corridor offset, corridor index).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] with the server's message if the vehicle
    /// does not exist.
    pub fn vehicle_position(&mut self, vehicle: &str) -> Result<(f64, f64)> {
        self.get(ids::CMD_GET_VEHICLE_VARIABLE, ids::VAR_POSITION, vehicle)?
            .as_position()
    }

    /// Lists the ids of all vehicles currently in the simulation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`]/[`Error::Io`] on failures.
    pub fn vehicle_ids(&mut self) -> Result<Vec<String>> {
        self.get(ids::CMD_GET_VEHICLE_VARIABLE, ids::ID_LIST, "")?
            .into_string_list()
    }

    /// Commands a vehicle's speed (TraCI `setSpeed`). A negative value
    /// returns control to the car-following model.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] with the server's message if the vehicle
    /// does not exist or is not externally controllable.
    pub fn set_vehicle_speed(&mut self, vehicle: &str, speed: f64) -> Result<()> {
        self.exchange_one(Command::set_vehicle_speed(vehicle, speed))?
            .check()
    }

    /// Reads a traffic light's state string (`"G"` during green, `"r"`
    /// during red).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] if the light does not exist.
    pub fn traffic_light_state(&mut self, light: &str) -> Result<String> {
        Ok(self
            .get(
                ids::CMD_GET_TL_VARIABLE,
                ids::TL_RED_YELLOW_GREEN_STATE,
                light,
            )?
            .as_string()?
            .to_owned())
    }

    /// Reads the number of vehicles that crossed an induction loop during
    /// the last **completed** simulation step (SUMO
    /// `LAST_STEP_VEHICLE_NUMBER`). Reading is non-destructive: repeated
    /// reads within the same step return the same count.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] if the loop does not exist.
    pub fn induction_loop_count(&mut self, loop_id: &str) -> Result<i32> {
        self.get(
            ids::CMD_GET_INDUCTIONLOOP_VARIABLE,
            ids::LAST_STEP_VEHICLE_NUMBER,
            loop_id,
        )?
        .as_integer()
    }

    /// Closes the session; the server tears down after acknowledging.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] on socket failures.
    pub fn close(&mut self) -> Result<()> {
        self.exchange_one(Command::new(ids::CMD_CLOSE, Vec::<u8>::new()))?
            .check()
    }

    /// Issues one "get variable" command and decodes its typed value.
    fn get(&mut self, command: u8, variable: u8, object: &str) -> Result<TraciValue> {
        self.exchange_one(Command::get(command, variable, object))?
            .value()
    }

    /// An exchange of one command.
    fn exchange_one(&mut self, command: Command) -> Result<Reply> {
        let mut replies = self.exchange(std::slice::from_ref(&command))?;
        Ok(replies.pop().expect("split_replies answers every command"))
    }
}
