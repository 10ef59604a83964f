//! TraCI wire format: framing, typed values, commands and constants.
//!
//! The format follows SUMO's TraCI specification:
//!
//! * A **message** is a 4-byte big-endian total length (including itself)
//!   followed by one or more commands.
//! * A **command** starts with its length — one byte if the whole command
//!   fits in 255 bytes, otherwise a `0x00` byte followed by a 4-byte length
//!   — then a 1-byte command identifier and the payload.
//! * Values are **typed**: a 1-byte type code followed by the big-endian
//!   payload.
//! * The server answers every command with a **status** response (command
//!   id, result code, description string), optionally followed by a result
//!   command whose id is `command id + 0x10` for "get variable" commands.
//! * A message may carry many commands; the reply message carries their
//!   answers in the same order, and [`split_replies`] cuts it back into one
//!   [`Reply`] per command. A rejected command fails only its own reply.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::{ErrorKind, Read};
use velopt_common::{Error, Result};

/// Command and variable identifiers (the subset of SUMO's `TraCIConstants`
/// this reproduction needs).
pub mod ids {
    /// Retrieve the TraCI API version and simulator identity.
    pub const CMD_GETVERSION: u8 = 0x00;
    /// Advance the simulation (payload: target time as double; 0 = one step).
    pub const CMD_SIMSTEP: u8 = 0x02;
    /// Close the connection and tear down the simulation.
    pub const CMD_CLOSE: u8 = 0x7F;
    /// Get an induction-loop variable.
    pub const CMD_GET_INDUCTIONLOOP_VARIABLE: u8 = 0xA0;
    /// Get a traffic-light variable.
    pub const CMD_GET_TL_VARIABLE: u8 = 0xA2;
    /// Get a vehicle variable.
    pub const CMD_GET_VEHICLE_VARIABLE: u8 = 0xA4;
    /// Get a simulation variable.
    pub const CMD_GET_SIM_VARIABLE: u8 = 0xAB;
    /// Set a vehicle variable.
    pub const CMD_SET_VEHICLE_VARIABLE: u8 = 0xC4;
    /// Subscribe to vehicle variables (results arrive with each sim step).
    pub const CMD_SUBSCRIBE_VEHICLE_VARIABLE: u8 = 0xD4;
    /// Response carrying one subscription's values.
    pub const RESPONSE_SUBSCRIBE_VEHICLE_VARIABLE: u8 = 0xE4;

    /// Offset added to a get command's id to form its result command id.
    pub const RESPONSE_OFFSET: u8 = 0x10;

    /// Variable: list of object ids.
    pub const ID_LIST: u8 = 0x00;
    /// Variable: number of vehicles on an induction loop in the last step.
    pub const LAST_STEP_VEHICLE_NUMBER: u8 = 0x10;
    /// Variable: traffic-light state string (e.g. `"G"` / `"r"`).
    pub const TL_RED_YELLOW_GREEN_STATE: u8 = 0x20;
    /// Variable: vehicle speed (double, m/s). Also the `setSpeed` target.
    pub const VAR_SPEED: u8 = 0x40;
    /// Variable: vehicle position (2D).
    pub const VAR_POSITION: u8 = 0x42;
    /// Variable: simulation time in seconds (double).
    pub const VAR_TIME: u8 = 0x66;

    /// Status result: success.
    pub const RTYPE_OK: u8 = 0x00;
    /// Status result: command not implemented by this server.
    pub const RTYPE_NOTIMPLEMENTED: u8 = 0x01;
    /// Status result: error, see description.
    pub const RTYPE_ERR: u8 = 0xFF;
}

/// Largest message, header included, either side accepts (64 MiB, the
/// cloud reactor's frame limit). The length comes from the peer, so it is
/// checked before the body is allocated.
pub const MAX_MESSAGE_LEN: usize = 64 * 1024 * 1024;

/// Deepest nesting of compound values either side decodes. SUMO's
/// compounds nest a level or two; the cap keeps a peer's deeply nested
/// value from overflowing the decoding thread's stack.
pub const MAX_COMPOUND_DEPTH: usize = 16;

/// Type codes for [`TraciValue`].
mod type_codes {
    pub const POSITION_2D: u8 = 0x01;
    pub const TYPE_UBYTE: u8 = 0x07;
    pub const TYPE_BYTE: u8 = 0x08;
    pub const TYPE_INTEGER: u8 = 0x09;
    pub const TYPE_DOUBLE: u8 = 0x0B;
    pub const TYPE_STRING: u8 = 0x0C;
    pub const TYPE_STRINGLIST: u8 = 0x0E;
    pub const TYPE_COMPOUND: u8 = 0x0F;
}

/// A typed TraCI value.
#[derive(Debug, Clone, PartialEq)]
pub enum TraciValue {
    /// Unsigned byte.
    UByte(u8),
    /// Signed byte.
    Byte(i8),
    /// 32-bit integer.
    Integer(i32),
    /// 64-bit float.
    Double(f64),
    /// Length-prefixed UTF-8 string.
    String(String),
    /// List of strings.
    StringList(Vec<String>),
    /// 2-D position (x, y).
    Position2D(f64, f64),
    /// Compound value: item count followed by nested typed values.
    Compound(Vec<TraciValue>),
}

impl TraciValue {
    /// Encodes the value (type byte + payload) into `buf`.
    pub fn encode(&self, buf: &mut impl BufMut) {
        match self {
            TraciValue::UByte(v) => {
                buf.put_u8(type_codes::TYPE_UBYTE);
                buf.put_u8(*v);
            }
            TraciValue::Byte(v) => {
                buf.put_u8(type_codes::TYPE_BYTE);
                buf.put_i8(*v);
            }
            TraciValue::Integer(v) => {
                buf.put_u8(type_codes::TYPE_INTEGER);
                buf.put_i32(*v);
            }
            TraciValue::Double(v) => {
                buf.put_u8(type_codes::TYPE_DOUBLE);
                buf.put_f64(*v);
            }
            TraciValue::String(s) => put_string_value(buf, s),
            TraciValue::StringList(list) => {
                buf.put_u8(type_codes::TYPE_STRINGLIST);
                buf.put_i32(list.len() as i32);
                for s in list {
                    put_string(buf, s);
                }
            }
            TraciValue::Position2D(x, y) => {
                buf.put_u8(type_codes::POSITION_2D);
                buf.put_f64(*x);
                buf.put_f64(*y);
            }
            TraciValue::Compound(items) => {
                buf.put_u8(type_codes::TYPE_COMPOUND);
                buf.put_i32(items.len() as i32);
                for item in items {
                    item.encode(buf);
                }
            }
        }
    }

    /// Decodes one typed value from `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] on truncation, an unknown type code, or
    /// compounds nested more than [`MAX_COMPOUND_DEPTH`] deep.
    pub fn decode(buf: &mut Bytes) -> Result<TraciValue> {
        take(buf, Self::read)
    }

    /// [`decode`](Self::decode) from the front of a borrowed slice.
    pub(crate) fn read(buf: &mut &[u8]) -> Result<TraciValue> {
        Self::read_nested(buf, 0)
    }

    /// Decodes one value inside `depth` enclosing compounds.
    fn read_nested(buf: &mut &[u8], depth: usize) -> Result<TraciValue> {
        match read_u8(buf)? {
            type_codes::TYPE_UBYTE => Ok(TraciValue::UByte(read_u8(buf)?)),
            type_codes::TYPE_BYTE => Ok(TraciValue::Byte(read_u8(buf)? as i8)),
            type_codes::TYPE_INTEGER => Ok(TraciValue::Integer(read_i32(buf)?)),
            type_codes::TYPE_DOUBLE => Ok(TraciValue::Double(read_f64(buf)?)),
            type_codes::TYPE_STRING => Ok(TraciValue::String(read_str(buf)?.to_owned())),
            type_codes::TYPE_STRINGLIST => {
                let n = read_i32(buf)?;
                // Every string needs at least its 4-byte length prefix, so a
                // count larger than remaining/4 is malformed — reject before
                // allocating (a hostile length would otherwise OOM us).
                if n < 0 || n as usize > buf.len() / 4 {
                    return Err(Error::protocol("implausible string-list length"));
                }
                let mut list = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    list.push(read_str(buf)?.to_owned());
                }
                Ok(TraciValue::StringList(list))
            }
            type_codes::POSITION_2D => {
                let x = read_f64(buf)?;
                let y = read_f64(buf)?;
                Ok(TraciValue::Position2D(x, y))
            }
            type_codes::TYPE_COMPOUND => {
                if depth == MAX_COMPOUND_DEPTH {
                    return Err(Error::protocol(format!(
                        "compound values nest deeper than {MAX_COMPOUND_DEPTH} levels"
                    )));
                }
                let n = read_i32(buf)?;
                // Every item needs at least a type byte; bound the count by
                // the bytes actually present before allocating.
                if n < 0 || n as usize > buf.len() {
                    return Err(Error::protocol("implausible compound length"));
                }
                let mut items = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    items.push(Self::read_nested(buf, depth + 1)?);
                }
                Ok(TraciValue::Compound(items))
            }
            other => Err(Error::protocol(format!("unknown type code 0x{other:02x}"))),
        }
    }

    /// Extracts a double, erroring on any other variant.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] if the value is not a `Double`.
    pub fn as_double(&self) -> Result<f64> {
        match self {
            TraciValue::Double(v) => Ok(*v),
            other => Err(Error::protocol(format!("expected double, got {other:?}"))),
        }
    }

    /// Extracts a string, erroring on any other variant.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] if the value is not a `String`.
    pub fn as_string(&self) -> Result<&str> {
        match self {
            TraciValue::String(s) => Ok(s),
            other => Err(Error::protocol(format!("expected string, got {other:?}"))),
        }
    }

    /// Extracts an integer, erroring on any other variant.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] if the value is not an `Integer`.
    pub fn as_integer(&self) -> Result<i32> {
        match self {
            TraciValue::Integer(v) => Ok(*v),
            other => Err(Error::protocol(format!("expected integer, got {other:?}"))),
        }
    }

    /// Extracts a 2-D position, erroring on any other variant.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] if the value is not a `Position2D`.
    pub fn as_position(&self) -> Result<(f64, f64)> {
        match self {
            TraciValue::Position2D(x, y) => Ok((*x, *y)),
            other => Err(Error::protocol(format!("expected position, got {other:?}"))),
        }
    }

    /// Extracts a string list, erroring on any other variant.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] if the value is not a `StringList`.
    pub fn into_string_list(self) -> Result<Vec<String>> {
        match self {
            TraciValue::StringList(list) => Ok(list),
            other => Err(Error::protocol(format!("expected id list, got {other:?}"))),
        }
    }
}

/// One decoded command (or response command) of a message.
#[derive(Debug, Clone, PartialEq)]
pub struct Command {
    /// The command identifier.
    pub id: u8,
    /// Raw payload (everything after the id byte).
    pub payload: Bytes,
}

impl Command {
    /// Builds a command from id and payload bytes.
    pub fn new(id: u8, payload: impl Into<Bytes>) -> Self {
        Self {
            id,
            payload: payload.into(),
        }
    }

    /// A "get variable" command reading `variable` of `object`.
    pub fn get(command: u8, variable: u8, object: &str) -> Self {
        let mut buf = BytesMut::with_capacity(5 + object.len());
        buf.put_u8(variable);
        put_string(&mut buf, object);
        Self::new(command, buf.freeze())
    }

    /// A `CMD_SIMSTEP` to `target_time` seconds (0 = one step).
    pub fn simulation_step(target_time: f64) -> Self {
        Self::new(ids::CMD_SIMSTEP, target_time.to_be_bytes().to_vec())
    }

    /// A vehicle `setSpeed`; a negative speed returns control to the
    /// car-following model.
    pub fn set_vehicle_speed(vehicle: &str, speed: f64) -> Self {
        let mut buf = BytesMut::with_capacity(14 + vehicle.len());
        buf.put_u8(ids::VAR_SPEED);
        put_string(&mut buf, vehicle);
        TraciValue::Double(speed).encode(&mut buf);
        Self::new(ids::CMD_SET_VEHICLE_VARIABLE, buf.freeze())
    }

    /// Encodes the command (length prefix + id + payload) at the end of
    /// `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let at = begin_command(out, self.id);
        out.extend_from_slice(&self.payload);
        end_command(out, at);
    }

    /// Decodes one command from the front of `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] on truncation or inconsistent lengths.
    pub fn decode(buf: &mut Bytes) -> Result<Command> {
        let (id, payload_len) = take(buf, read_frame)?;
        let payload = buf.split_to(payload_len);
        Ok(Command { id, payload })
    }
}

/// Reads a command's length prefix and id from the front of `buf`, and
/// checks that its whole payload follows; returns the id and the payload
/// length.
fn read_frame(buf: &mut &[u8]) -> Result<(u8, usize)> {
    let first = read_u8(buf)?;
    let total = if first != 0 {
        first as usize
    } else {
        let ext = read_i32(buf)?;
        if ext < 6 {
            return Err(Error::protocol("extended command length too small"));
        }
        // Extended length includes the 1-byte marker and 4-byte length.
        ext as usize - 4
    };
    // `total` now counts: 1 length byte + 1 id byte + payload.
    if total < 2 {
        return Err(Error::protocol("command length too small"));
    }
    let id = read_u8(buf)?;
    let payload_len = total - 2;
    if buf.len() < payload_len {
        return Err(Error::protocol("truncated command payload"));
    }
    Ok((id, payload_len))
}

/// Splits one command off the front of a message body: its id and its
/// payload, borrowed from the body.
///
/// # Errors
///
/// Returns [`Error::Protocol`] on truncation or inconsistent lengths, as
/// [`Command::decode`] does.
pub(crate) fn read_command<'a>(body: &mut &'a [u8]) -> Result<(u8, &'a [u8])> {
    let (id, payload_len) = read_frame(body)?;
    let (payload, rest) = body.split_at(payload_len);
    *body = rest;
    Ok((id, payload))
}

/// Starts a command with id `id` at the end of `out`, its length byte a
/// placeholder until [`end_command`]; returns where the command starts.
pub(crate) fn begin_command(out: &mut Vec<u8>, id: u8) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0, id]);
    at
}

/// Writes the length of the command begun at `at`, which runs to the end
/// of `out`: one byte, or, past 255 bytes, the `0x00` marker and a 4-byte
/// length inserted after it.
pub(crate) fn end_command(out: &mut Vec<u8>, at: usize) {
    let len = out.len() - at;
    if len <= u8::MAX as usize {
        out[at] = len as u8;
    } else {
        let extended = i32::try_from(len + 4).expect("a command fits a message");
        out.splice(at + 1..at + 1, extended.to_be_bytes());
    }
}

/// A status response to one command.
#[derive(Debug, Clone, PartialEq)]
pub struct Status {
    /// The command this status answers.
    pub command: u8,
    /// Result code ([`ids::RTYPE_OK`] on success).
    pub result: u8,
    /// Human-readable description (empty on success).
    pub description: String,
}

impl Status {
    /// A success status for `command`.
    pub fn ok(command: u8) -> Self {
        Self {
            command,
            result: ids::RTYPE_OK,
            description: String::new(),
        }
    }

    /// An error status for `command`.
    pub fn err(command: u8, description: impl Into<String>) -> Self {
        Self {
            command,
            result: ids::RTYPE_ERR,
            description: description.into(),
        }
    }

    /// Encodes the status as a whole command (length, command id, result
    /// code, description) at the end of `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let at = begin_command(out, self.command);
        out.put_u8(self.result);
        put_string(out, &self.description);
        end_command(out, at);
    }

    /// Decodes from a command.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] on truncation.
    pub fn from_command(cmd: &Command) -> Result<Status> {
        let mut payload = cmd.payload.clone();
        let result = take_u8(&mut payload)?;
        let description = take_string(&mut payload)?;
        Ok(Status {
            command: cmd.id,
            result,
            description,
        })
    }
}

/// The answer to one command of a message: its status, and the result
/// commands that followed it.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// The command's status response.
    pub status: Status,
    /// What followed the status: nothing for a rejected command or a
    /// set, subscribe or close; the result for a get or a version
    /// request; for a step, the subscription count and one
    /// [`ids::RESPONSE_SUBSCRIBE_VEHICLE_VARIABLE`] per delivered
    /// subscription.
    pub results: Vec<Command>,
}

impl Reply {
    /// Succeeds if the server accepted the command.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] with the server's description if the
    /// command was rejected or is not implemented.
    pub fn check(&self) -> Result<()> {
        if self.status.result == ids::RTYPE_OK {
            Ok(())
        } else {
            Err(Error::protocol(format!(
                "server rejected command 0x{:02x}: {}",
                self.status.command, self.status.description
            )))
        }
    }

    /// The typed value of an accepted "get variable" command.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] if the command was rejected or its
    /// result does not decode.
    pub fn value(&self) -> Result<TraciValue> {
        self.check()?;
        let result = self
            .results
            .first()
            .ok_or_else(|| Error::protocol("missing get-variable result"))?;
        let mut payload = result.payload.clone();
        take_u8(&mut payload)?; // variable, checked by `split_replies`
        take_string(&mut payload)?; // object id
        TraciValue::decode(&mut payload)
    }

    /// The subscription values delivered with an accepted step.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Protocol`] if the step was rejected or a
    /// subscription result does not decode.
    pub fn subscriptions(&self) -> Result<Vec<SubscriptionResult>> {
        self.check()?;
        let mut out = Vec::new();
        for cmd in &self.results {
            if cmd.id != ids::RESPONSE_SUBSCRIBE_VEHICLE_VARIABLE {
                continue;
            }
            let mut payload = cmd.payload.clone();
            let object = take_string(&mut payload)?;
            let count = take_u8(&mut payload)? as usize;
            let mut values = Vec::with_capacity(count);
            for _ in 0..count {
                let var = take_u8(&mut payload)?;
                let status = take_u8(&mut payload)?;
                let value = TraciValue::decode(&mut payload)?;
                if status == ids::RTYPE_OK {
                    values.push((var, value));
                }
            }
            out.push(SubscriptionResult { object, values });
        }
        Ok(out)
    }
}

/// One subscription's values delivered with a simulation step.
#[derive(Debug, Clone, PartialEq)]
pub struct SubscriptionResult {
    /// The subscribed object's id.
    pub object: String,
    /// `(variable id, value)` pairs in subscription order.
    pub values: Vec<(u8, TraciValue)>,
}

impl SubscriptionResult {
    /// The value of a specific variable, if present.
    pub fn value_of(&self, variable: u8) -> Option<&TraciValue> {
        self.values
            .iter()
            .find(|(v, _)| *v == variable)
            .map(|(_, val)| val)
    }
}

/// Whether `id` lies in SUMO's "get variable" command range, whose
/// accepted commands are answered by one result command.
fn is_get(id: u8) -> bool {
    (0xA0..=0xAF).contains(&id)
}

/// Splits the reply to a message of `requests` into one [`Reply`] per
/// request, in order. Each answer starts with a status for the request's
/// command id; what follows an accepted status depends on the command
/// (see [`Reply::results`]).
///
/// # Errors
///
/// Returns [`Error::Protocol`] if an answer is missing, answers the wrong
/// command, carries a mismatched result, or the reply has trailing
/// commands.
pub fn split_replies(requests: &[Command], responses: Vec<Command>) -> Result<Vec<Reply>> {
    let mut responses = responses.into_iter();
    let mut next = |what: &str| {
        responses
            .next()
            .ok_or_else(|| Error::protocol(format!("reply ended before {what}")))
    };
    let mut replies = Vec::with_capacity(requests.len());
    for request in requests {
        let status = Status::from_command(&next("a status")?)?;
        if status.command != request.id {
            return Err(Error::protocol(format!(
                "status for wrong command: 0x{:02x} vs 0x{:02x}",
                status.command, request.id
            )));
        }
        let mut results = Vec::new();
        if status.result == ids::RTYPE_OK {
            match request.id {
                ids::CMD_GETVERSION => results.push(next("a version result")?),
                ids::CMD_SIMSTEP => {
                    let counted = next("a step result")?;
                    let count = take_i32(&mut counted.payload.clone())?;
                    let count = usize::try_from(count)
                        .map_err(|_| Error::protocol("negative subscription count"))?;
                    results.push(counted);
                    for _ in 0..count {
                        results.push(next("a subscription result")?);
                    }
                }
                id if is_get(id) => {
                    let result = next("a get-variable result")?;
                    if result.id != id.wrapping_add(ids::RESPONSE_OFFSET) {
                        return Err(Error::protocol(format!(
                            "unexpected result command 0x{:02x}",
                            result.id
                        )));
                    }
                    if result.payload.first() != request.payload.first() {
                        return Err(Error::protocol("result variable mismatch"));
                    }
                    results.push(result);
                }
                _ => {}
            }
        }
        replies.push(Reply { status, results });
    }
    if responses.next().is_some() {
        return Err(Error::protocol("reply has more answers than commands"));
    }
    Ok(replies)
}

/// Encodes a whole message (length header + commands) ready to write to a
/// socket.
pub fn encode_message(commands: &[Command]) -> Bytes {
    let mut msg = Vec::new();
    put_message(&mut msg, commands);
    Bytes::from(msg)
}

/// Appends a whole message to `out`: a length header, patched in place
/// once the commands are written behind it.
pub(crate) fn put_message(out: &mut Vec<u8>, commands: &[Command]) {
    let at = out.len();
    out.reserve(4 + commands.iter().map(|c| 6 + c.payload.len()).sum::<usize>());
    out.put_i32(0);
    for c in commands {
        c.encode(out);
    }
    patch_message_len(out, at);
}

/// Writes the length of the message that starts at `at` and runs to the
/// end of `out` into its header.
pub(crate) fn patch_message_len(out: &mut [u8], at: usize) {
    let total = i32::try_from(out.len() - at).expect("a message fits its i32 length header");
    out[at..at + 4].copy_from_slice(&total.to_be_bytes());
}

/// Decodes a message body (after the 4-byte length header has been consumed)
/// into commands.
///
/// # Errors
///
/// Returns [`Error::Protocol`] if the body cannot be fully parsed.
pub fn decode_message_body(mut body: Bytes) -> Result<Vec<Command>> {
    let mut commands = Vec::new();
    while body.has_remaining() {
        commands.push(Command::decode(&mut body)?);
    }
    Ok(commands)
}

/// Capacity of each connection's read buffer, and the most a message body
/// buffer keeps between messages: every message this crate's client or
/// server exchanges on a fleet tick fits.
pub(crate) const READ_BUFFER: usize = 64 * 1024;

/// Reads one full message from a blocking reader into `body`: the bytes
/// after its 4-byte length header, ready for [`decode_message_body`].
///
/// The length is checked against [`MAX_MESSAGE_LEN`] before anything is
/// read into `body`, which then grows only as the bytes arrive. `body` is
/// meant to be reused from message to message: capacity past 64 KiB that
/// a longer message left is given back before the next header is read.
/// Over a [`BufReader`](std::io::BufReader) of that capacity, a message
/// already in the socket buffer is taken with one `read` call.
///
/// # Errors
///
/// Returns [`Error::Io`] on socket errors or end of stream, and
/// [`Error::Protocol`] on malformed lengths, including any above
/// [`MAX_MESSAGE_LEN`].
pub fn read_message(reader: &mut impl Read, body: &mut Vec<u8>) -> Result<()> {
    body.clear();
    body.shrink_to(READ_BUFFER);
    let mut header = [0u8; 4];
    reader.read_exact(&mut header)?;
    let total = i32::from_be_bytes(header);
    let len = match usize::try_from(total) {
        Ok(n @ 4..=MAX_MESSAGE_LEN) => n - 4,
        _ => {
            return Err(Error::protocol(format!(
                "message length {total} out of range"
            )))
        }
    };
    if reader.take(len as u64).read_to_end(body)? < len {
        return Err(std::io::Error::from(ErrorKind::UnexpectedEof).into());
    }
    Ok(())
}

/// Writes a TraCI length-prefixed string.
pub fn put_string(buf: &mut impl BufMut, s: &str) {
    buf.put_i32(s.len() as i32);
    buf.put_slice(s.as_bytes());
}

/// Writes a typed string value: the string type code, then the string.
pub(crate) fn put_string_value(buf: &mut impl BufMut, s: &str) {
    buf.put_u8(type_codes::TYPE_STRING);
    put_string(buf, s);
}

/// Runs a slice reader over the front of `buf` and advances `buf` past
/// what it read; on error `buf` is left as it was.
fn take<T>(buf: &mut Bytes, read: impl FnOnce(&mut &[u8]) -> Result<T>) -> Result<T> {
    let mut rest: &[u8] = buf;
    let value = read(&mut rest)?;
    let used = buf.len() - rest.len();
    buf.advance(used);
    Ok(value)
}

/// Splits `n` bytes off the front of `buf`, if it holds that many.
fn read_bytes<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if buf.len() < n {
        return None;
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Some(head)
}

/// Splits `N` bytes off the front of `buf`.
fn read_array<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N]> {
    read_bytes(buf, N)
        .map(|raw| raw.try_into().expect("N bytes"))
        .ok_or_else(|| Error::protocol("unexpected end of buffer"))
}

/// [`take_u8`] from the front of a borrowed slice.
pub(crate) fn read_u8(buf: &mut &[u8]) -> Result<u8> {
    read_array::<1>(buf).map(|[b]| b)
}

/// [`take_i32`] from the front of a borrowed slice.
pub(crate) fn read_i32(buf: &mut &[u8]) -> Result<i32> {
    read_array(buf).map(i32::from_be_bytes)
}

/// [`take_f64`] from the front of a borrowed slice.
pub(crate) fn read_f64(buf: &mut &[u8]) -> Result<f64> {
    read_array(buf).map(f64::from_be_bytes)
}

/// [`take_string`] from the front of a borrowed slice, borrowing the
/// string from it.
pub(crate) fn read_str<'a>(buf: &mut &'a [u8]) -> Result<&'a str> {
    let len = read_i32(buf)?;
    let raw = usize::try_from(len)
        .ok()
        .and_then(|len| read_bytes(buf, len))
        .ok_or_else(|| Error::protocol("truncated string"))?;
    std::str::from_utf8(raw).map_err(|_| Error::protocol("string is not valid utf-8"))
}

/// Reads one byte.
///
/// # Errors
///
/// Returns [`Error::Protocol`] if the buffer is empty.
pub fn take_u8(buf: &mut Bytes) -> Result<u8> {
    take(buf, read_u8)
}

/// Reads a big-endian i32.
///
/// # Errors
///
/// Returns [`Error::Protocol`] on truncation.
pub fn take_i32(buf: &mut Bytes) -> Result<i32> {
    take(buf, read_i32)
}

/// Reads a big-endian f64.
///
/// # Errors
///
/// Returns [`Error::Protocol`] on truncation.
pub fn take_f64(buf: &mut Bytes) -> Result<f64> {
    take(buf, read_f64)
}

/// Reads a TraCI length-prefixed string.
///
/// # Errors
///
/// Returns [`Error::Protocol`] on truncation or invalid UTF-8.
pub fn take_string(buf: &mut Bytes) -> Result<String> {
    take(buf, |buf| read_str(buf).map(str::to_owned))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: TraciValue) {
        let mut buf = BytesMut::new();
        v.encode(&mut buf);
        let mut bytes = buf.freeze();
        let back = TraciValue::decode(&mut bytes).unwrap();
        assert_eq!(back, v);
        assert!(!bytes.has_remaining(), "decoder must consume everything");
    }

    #[test]
    fn value_round_trips() {
        round_trip(TraciValue::UByte(255));
        round_trip(TraciValue::Byte(-7));
        round_trip(TraciValue::Integer(-123456));
        round_trip(TraciValue::Double(13.25));
        round_trip(TraciValue::String("hello TraCI".into()));
        round_trip(TraciValue::StringList(vec!["a".into(), "b".into()]));
        round_trip(TraciValue::Position2D(1800.0, 0.0));
        round_trip(TraciValue::Compound(vec![
            TraciValue::Integer(2),
            TraciValue::String("nested".into()),
            TraciValue::Compound(vec![TraciValue::Double(0.5)]),
        ]));
    }

    #[test]
    fn value_accessors() {
        assert_eq!(TraciValue::Double(2.0).as_double().unwrap(), 2.0);
        assert!(TraciValue::Double(2.0).as_string().is_err());
        assert_eq!(TraciValue::String("x".into()).as_string().unwrap(), "x");
        assert_eq!(TraciValue::Integer(5).as_integer().unwrap(), 5);
        assert!(TraciValue::Integer(5).as_double().is_err());
    }

    /// `levels` one-item compounds around a double.
    fn nested(levels: usize) -> BytesMut {
        let mut buf = BytesMut::new();
        for _ in 0..levels {
            buf.put_u8(type_codes::TYPE_COMPOUND);
            buf.put_i32(1);
        }
        TraciValue::Double(1.5).encode(&mut buf);
        buf
    }

    #[test]
    fn compound_nesting_is_capped() {
        let mut at_cap = nested(MAX_COMPOUND_DEPTH).freeze();
        let mut value = TraciValue::decode(&mut at_cap).unwrap();
        for _ in 0..MAX_COMPOUND_DEPTH {
            let TraciValue::Compound(mut items) = value else {
                panic!("expected a compound");
            };
            value = items.pop().unwrap();
        }
        assert_eq!(value, TraciValue::Double(1.5));
        // One level deeper is refused, and so is a nesting deep enough
        // (~500 KB) to overflow a 2 MiB stack if decoding recursed per level.
        for levels in [MAX_COMPOUND_DEPTH + 1, 100_000] {
            let err = TraciValue::decode(&mut nested(levels).freeze()).unwrap_err();
            assert!(
                matches!(&err, Error::Protocol(m) if m.contains("nest deeper")),
                "{err}"
            );
        }
    }

    #[test]
    fn unknown_type_code_rejected() {
        let mut bytes = Bytes::from_static(&[0x55, 0, 0]);
        assert!(TraciValue::decode(&mut bytes).is_err());
    }

    #[test]
    fn command_round_trip_short() {
        let cmd = Command::new(ids::CMD_SIMSTEP, vec![1, 2, 3]);
        let mut buf = Vec::new();
        cmd.encode(&mut buf);
        let mut bytes = Bytes::from(buf);
        let back = Command::decode(&mut bytes).unwrap();
        assert_eq!(back, cmd);
    }

    #[test]
    fn command_round_trip_extended_length() {
        // Payload longer than 253 bytes forces the extended length form.
        let cmd = Command::new(0xA4, vec![0xAB; 1000]);
        let mut buf = Vec::new();
        cmd.encode(&mut buf);
        assert_eq!(buf[0], 0, "extended length marker");
        let mut bytes = Bytes::from(buf);
        let back = Command::decode(&mut bytes).unwrap();
        assert_eq!(back, cmd);
    }

    #[test]
    fn truncated_command_rejected() {
        let cmd = Command::new(0x02, vec![9; 10]);
        let mut buf = Vec::new();
        cmd.encode(&mut buf);
        let mut truncated = Bytes::from(buf).slice(0..5);
        assert!(Command::decode(&mut truncated).is_err());
    }

    #[test]
    fn message_round_trip_multiple_commands() {
        let cmds = vec![
            Command::new(ids::CMD_GETVERSION, Vec::<u8>::new()),
            Command::new(ids::CMD_SIMSTEP, vec![0; 9]),
        ];
        let msg = encode_message(&cmds);
        let total = i32::from_be_bytes(msg[0..4].try_into().unwrap());
        assert_eq!(total as usize, msg.len());
        let back = decode_message_body(msg.slice(4..)).unwrap();
        assert_eq!(back, cmds);
    }

    #[test]
    fn status_round_trip() {
        for status in [Status::ok(0x02), Status::err(0xA4, "no such vehicle")] {
            let mut buf = Vec::new();
            status.encode(&mut buf);
            let cmd = Command::decode(&mut Bytes::from(buf)).unwrap();
            assert_eq!(Status::from_command(&cmd).unwrap(), status);
        }
    }

    #[test]
    fn read_write_message_over_pipe() {
        let cmds = vec![Command::new(ids::CMD_CLOSE, Vec::<u8>::new())];
        let msg = encode_message(&cmds);
        let mut body = Vec::new();
        read_message(&mut std::io::Cursor::new(msg), &mut body).unwrap();
        assert_eq!(decode_message_body(Bytes::from(body)).unwrap(), cmds);
    }

    #[test]
    fn bad_message_header_rejected() {
        let mut cursor = std::io::Cursor::new(vec![0, 0, 0, 2]);
        assert!(read_message(&mut cursor, &mut Vec::new()).is_err());
    }

    /// A peer's length header is checked against the cap before the body
    /// is allocated: an early reader reserved `total - 4` bytes (~2 GiB
    /// for `i32::MAX`) and only then failed to read them.
    #[test]
    fn oversized_message_header_rejected_before_allocating() {
        let over = i32::try_from(MAX_MESSAGE_LEN + 1).unwrap();
        for total in [i32::MAX, over, -1, i32::MIN] {
            let mut body = Vec::new();
            let header = total.to_be_bytes();
            assert!(
                matches!(
                    read_message(&mut &header[..], &mut body),
                    Err(Error::Protocol(_))
                ),
                "length {total}"
            );
            assert_eq!(body.capacity(), 0, "length {total}");
        }
    }

    /// A reader over `data` that hands out at most `chunk` bytes per
    /// `read` call and counts the calls.
    struct Trickle<'a> {
        data: &'a [u8],
        chunk: usize,
        reads: usize,
    }

    impl std::io::Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let n = self.chunk.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// Over a read buffer, messages already buffered are taken with one
    /// `read`; a message that arrives a byte at a time, or outgrows the
    /// buffer, still comes back whole; a body buffer grows only with the
    /// bytes that arrive and keeps no more than the read buffer's capacity
    /// once a longer message is done with.
    #[test]
    fn read_message_takes_buffered_messages_whole_and_keeps_little() {
        let first = encode_message(&[Command::simulation_step(0.0)]);
        let second = encode_message(&[Command::new(0xA4, vec![7; 300])]);
        let both = [&first[..], &second[..]].concat();
        let mut body = Vec::new();
        let mut socket = std::io::BufReader::with_capacity(
            READ_BUFFER,
            Trickle {
                data: &both,
                chunk: usize::MAX,
                reads: 0,
            },
        );
        read_message(&mut socket, &mut body).unwrap();
        assert_eq!(body, &first[4..]);
        assert_eq!(socket.get_ref().reads, 1);
        read_message(&mut socket, &mut body).unwrap();
        assert_eq!(body, &second[4..]);
        assert_eq!(socket.get_ref().reads, 1, "both came in one read");
        assert!(
            read_message(&mut socket, &mut body).is_err(),
            "end of stream"
        );

        let big = encode_message(&[Command::new(0xA4, vec![9; 3 * READ_BUFFER])]);
        let stream = [&first[..], &big[..], &second[..]].concat();
        for chunk in [1, 1000, usize::MAX] {
            let mut socket = std::io::BufReader::with_capacity(
                READ_BUFFER,
                Trickle {
                    data: &stream,
                    chunk,
                    reads: 0,
                },
            );
            for msg in [&first, &big, &second] {
                read_message(&mut socket, &mut body).unwrap();
                assert_eq!(body, &msg[4..], "chunk {chunk}");
            }
            assert!(body.capacity() <= READ_BUFFER, "chunk {chunk}");
        }

        // A header announcing the largest message, then a few bytes.
        let mut cut = i32::try_from(MAX_MESSAGE_LEN)
            .unwrap()
            .to_be_bytes()
            .to_vec();
        cut.extend_from_slice(&[1; 10]);
        let mut body = Vec::new();
        assert!(read_message(&mut &cut[..], &mut body).is_err());
        assert!(body.capacity() <= READ_BUFFER, "{}", body.capacity());
        for cut in 0..first.len() {
            assert!(
                read_message(&mut &first[..cut], &mut body).is_err(),
                "cut {cut}"
            );
        }
    }

    fn speed_result(speed: f64) -> Command {
        let mut buf = BytesMut::new();
        buf.put_u8(ids::VAR_SPEED);
        put_string(&mut buf, "veh0");
        TraciValue::Double(speed).encode(&mut buf);
        Command::new(
            ids::CMD_GET_VEHICLE_VARIABLE + ids::RESPONSE_OFFSET,
            buf.freeze(),
        )
    }

    #[test]
    fn split_replies_answers_each_command_in_order() {
        let get = Command::get(ids::CMD_GET_VEHICLE_VARIABLE, ids::VAR_SPEED, "veh0");
        let set = Command::set_vehicle_speed("veh9", 1.0);
        let step = Command::simulation_step(0.0);
        let mut sub = BytesMut::new();
        put_string(&mut sub, "veh0");
        sub.put_u8(1);
        sub.put_u8(ids::VAR_SPEED);
        sub.put_u8(ids::RTYPE_OK);
        TraciValue::Double(4.0).encode(&mut sub);
        let mut body = Vec::new();
        Status::ok(ids::CMD_GET_VEHICLE_VARIABLE).encode(&mut body);
        speed_result(2.5).encode(&mut body);
        Status::err(ids::CMD_SET_VEHICLE_VARIABLE, "no vehicle 'veh9'").encode(&mut body);
        Status::ok(ids::CMD_SIMSTEP).encode(&mut body);
        Command::new(ids::CMD_SIMSTEP, 1i32.to_be_bytes().to_vec()).encode(&mut body);
        Command::new(ids::RESPONSE_SUBSCRIBE_VEHICLE_VARIABLE, sub.freeze()).encode(&mut body);
        Status::ok(ids::CMD_GET_VEHICLE_VARIABLE).encode(&mut body);
        speed_result(3.5).encode(&mut body);
        let responses = decode_message_body(Bytes::from(body)).unwrap();
        let requests = [get.clone(), set.clone(), step, get.clone()];
        let replies = split_replies(&requests, responses.clone()).unwrap();
        assert_eq!(replies.len(), 4);
        assert_eq!(replies[0].value().unwrap(), TraciValue::Double(2.5));
        let rejected = replies[1].check().unwrap_err().to_string();
        assert!(rejected.contains("no vehicle 'veh9'"), "{rejected}");
        assert!(replies[1].results.is_empty());
        let subs = replies[2].subscriptions().unwrap();
        assert_eq!(subs.len(), 1);
        assert_eq!(
            subs[0].value_of(ids::VAR_SPEED),
            Some(&TraciValue::Double(4.0))
        );
        assert_eq!(replies[3].value().unwrap(), TraciValue::Double(3.5));

        // A reply that does not answer exactly these commands is an error.
        let position = Command::get(ids::CMD_GET_VEHICLE_VARIABLE, ids::VAR_POSITION, "veh0");
        assert!(split_replies(&[get.clone(), set.clone()], responses.clone()).is_err());
        let mut more = requests.to_vec();
        more.push(get.clone());
        assert!(split_replies(&more, responses.clone()).is_err());
        let mut swapped = requests.to_vec();
        swapped.swap(0, 1);
        assert!(split_replies(&swapped, responses.clone()).is_err());
        let mut wrong_variable = requests.to_vec();
        wrong_variable[0] = position;
        assert!(split_replies(&wrong_variable, responses).is_err());
    }

    #[test]
    fn string_with_invalid_utf8_rejected() {
        let mut buf = BytesMut::new();
        buf.put_i32(2);
        buf.put_slice(&[0xFF, 0xFE]);
        assert!(take_string(&mut buf.freeze()).is_err());
    }
}
