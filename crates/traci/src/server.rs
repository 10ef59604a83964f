//! The TraCI server fronting a [`TraciBackend`] simulation.

use crate::backend::{TraciBackend, VehicleView};
use crate::protocol::{
    begin_command, end_command, ids, patch_message_len, put_string, put_string_value, read_command,
    read_f64, read_message, read_str, read_u8, Status, TraciValue, READ_BUFFER,
};
use bytes::BufMut;
use parking_lot::Mutex;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use velopt_common::units::{MetersPerSecond, Seconds};
use velopt_common::{Error, Result};
use velopt_microsim::Simulation;
use velopt_road::Phase;

/// TraCI API level this server implements (matches recent SUMO releases).
pub const API_LEVEL: i32 = 20;

/// A TCP server exposing a simulation backend through the TraCI protocol.
///
/// Object naming: vehicles are `veh<N>` (the [`VehicleId`] display form).
/// Fronting a single [`Simulation`], traffic lights are `tl<N>` by corridor
/// order and induction loops `loop<N>` by insertion order; fronting a
/// [`Network`](velopt_microsim::Network), they are corridor-scoped as
/// `tl<corridor>:<N>` and `loop<corridor>:<N>`. See the crate-level example.
///
/// The server owns a listener thread. It stops serving when a client sends
/// `CMD_CLOSE`, when [`shutdown`](Self::shutdown) is called, or when the
/// handle is dropped — dropping joins the thread and releases the socket, so
/// a dropped server never leaks its port.
///
/// [`VehicleId`]: velopt_microsim::VehicleId
#[derive(Debug)]
pub struct TraciServer<S: TraciBackend = Simulation> {
    addr: SocketAddr,
    sim: Arc<Mutex<S>>,
    handle: Option<JoinHandle<()>>,
    /// Set to request the listener thread to exit at its next check.
    stop: Arc<AtomicBool>,
    /// The currently served client connection (a `try_clone` of the stream),
    /// so shutdown can unblock a thread parked in a read.
    active: Arc<Mutex<Option<TcpStream>>>,
}

impl<S: TraciBackend> TraciServer<S> {
    /// Binds to an ephemeral localhost port and serves clients on a
    /// background thread, one at a time, until a client sends `CMD_CLOSE`
    /// or the server is shut down.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the listener cannot bind.
    pub fn spawn(sim: S) -> Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let sim = Arc::new(Mutex::new(sim));
        let stop = Arc::new(AtomicBool::new(false));
        let active: Arc<Mutex<Option<TcpStream>>> = Arc::new(Mutex::new(None));
        let sim_for_thread = Arc::clone(&sim);
        let stop_for_thread = Arc::clone(&stop);
        let active_for_thread = Arc::clone(&active);
        let handle = std::thread::spawn(move || {
            while !stop_for_thread.load(Ordering::Acquire) {
                let Ok((stream, _)) = listener.accept() else {
                    break;
                };
                // A shutdown may have connected just to unblock accept.
                if stop_for_thread.load(Ordering::Acquire) {
                    break;
                }
                *active_for_thread.lock() = stream.try_clone().ok();
                let keep_going = serve_connection(stream, &sim_for_thread);
                *active_for_thread.lock() = None;
                if !keep_going {
                    break;
                }
            }
        });
        Ok(Self {
            addr,
            sim,
            handle: Some(handle),
            stop,
            active,
        })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared access to the simulation (for out-of-band inspection in tests
    /// and harnesses — e.g. reading the ego trace after a run).
    pub fn simulation(&self) -> Arc<Mutex<S>> {
        Arc::clone(&self.sim)
    }

    /// Stops accepting, unblocks any in-flight read, joins the listener
    /// thread, and releases the socket. Idempotent; also called on drop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock a thread parked reading from the active client…
        if let Some(stream) = self.active.lock().take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // …or parked in accept(): a throwaway connection wakes it so it can
        // observe the stop flag and drop the listener.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }

    /// Waits for the serving thread to finish on its own (after a client
    /// sent `CMD_CLOSE`).
    pub fn join(mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl<S: TraciBackend> Drop for TraciServer<S> {
    fn drop(&mut self) {
        // Regression guard: the old drop leaked the listener thread and its
        // socket until process exit. Joining here is bounded — shutdown
        // unblocks both accept() and any in-flight client read.
        self.shutdown();
    }
}

/// A registered variable subscription (connection-local state).
#[derive(Debug, Clone)]
struct Subscription {
    object: String,
    variables: Vec<u8>,
    begin: f64,
    end: f64,
    /// Whether a step has delivered it: once it has, its vehicle going
    /// missing means the vehicle left for good (ids are never reused).
    delivered: bool,
}

/// Serves one client; returns `false` when the server should stop accepting
/// (client requested close).
///
/// Each message is read into one body buffer, and every command's answer
/// is written straight into one reply buffer, object ids read as slices of
/// the request; the reply goes out in one write.
fn serve_connection<S: TraciBackend>(stream: TcpStream, sim: &Mutex<S>) -> bool {
    stream.set_nodelay(true).ok();
    let mut stream = BufReader::with_capacity(READ_BUFFER, stream);
    let mut subscriptions: Vec<Subscription> = Vec::new();
    let (mut body, mut out) = (Vec::new(), Vec::new());
    loop {
        // A long reply's capacity is given back before the next wait, as
        // `read_message` gives back a long message's.
        out.clear();
        out.shrink_to(READ_BUFFER);
        if read_message(&mut stream, &mut body).is_err() {
            return true; // client vanished; accept the next one
        }
        // A message that does not split into whole commands drops the
        // client before any of its commands runs.
        let mut frames = &body[..];
        while !frames.is_empty() {
            if read_command(&mut frames).is_err() {
                return true;
            }
        }
        out.put_i32(0); // the message length, patched below
        let mut close_requested = false;
        let mut commands = &body[..];
        while !commands.is_empty() {
            let (id, payload) = read_command(&mut commands).expect("framing checked above");
            let at = out.len();
            if let Err(e) = answer(id, payload, sim, &mut subscriptions, &mut out) {
                out.truncate(at);
                Status::err(id, e.to_string()).encode(&mut out);
            }
            close_requested |= id == ids::CMD_CLOSE;
        }
        patch_message_len(&mut out, 0);
        if stream.get_mut().write_all(&out).is_err() {
            return true;
        }
        if close_requested {
            return false;
        }
    }
}

/// Executes one command against the simulation and appends its answer to
/// `out`: the status, then any result commands. On error, what it wrote is
/// discarded and the caller answers with an error status.
fn answer<S: TraciBackend>(
    id: u8,
    mut payload: &[u8],
    sim: &Mutex<S>,
    subscriptions: &mut Vec<Subscription>,
    out: &mut Vec<u8>,
) -> Result<()> {
    match id {
        ids::CMD_GETVERSION => {
            Status::ok(id).encode(out);
            let at = begin_command(out, id);
            out.put_i32(API_LEVEL);
            put_string(out, "velopt-microsim (TraCI-compatible)");
            end_command(out, at);
        }
        ids::CMD_SIMSTEP => {
            let target = read_f64(&mut payload)?;
            let mut sim = sim.lock();
            if target <= 0.0 {
                sim.step_once();
            } else {
                sim.advance_to(Seconds::new(target))?;
            }
            // The simstep result carries the subscription-result count, then
            // one RESPONSE_SUBSCRIBE command per live subscription.
            Status::ok(id).encode(out);
            let at = begin_command(out, id);
            out.put_i32(0);
            end_command(out, at);
            let count = put_subscription_results(&*sim, subscriptions, out);
            out[at + 2..at + 6].copy_from_slice(&count.to_be_bytes());
        }
        ids::CMD_SUBSCRIBE_VEHICLE_VARIABLE => {
            let begin = read_f64(&mut payload)?;
            let end = read_f64(&mut payload)?;
            let object = read_str(&mut payload)?;
            let count = read_u8(&mut payload)? as usize;
            let mut variables = Vec::with_capacity(count);
            for _ in 0..count {
                let var = read_u8(&mut payload)?;
                if var != ids::VAR_SPEED && var != ids::VAR_POSITION {
                    return Err(Error::protocol(format!(
                        "unsupported subscription variable 0x{var:02x}"
                    )));
                }
                variables.push(var);
            }
            // SUMO semantics: a subscription replaces the object's earlier
            // one, and an empty list cancels it.
            subscriptions.retain(|s| s.object != object);
            if !variables.is_empty() {
                subscriptions.push(Subscription {
                    object: object.to_owned(),
                    variables,
                    begin,
                    end,
                    delivered: false,
                });
            }
            Status::ok(id).encode(out);
        }
        ids::CMD_CLOSE => Status::ok(id).encode(out),
        ids::CMD_GET_SIM_VARIABLE => {
            let (var, _object) = read_get(&mut payload)?;
            if var != ids::VAR_TIME {
                return Err(Error::protocol(format!(
                    "unsupported simulation variable 0x{var:02x}"
                )));
            }
            let time = TraciValue::Double(sim.lock().time().value());
            put_get_answer(out, id, var, "", |out| time.encode(out));
        }
        ids::CMD_GET_VEHICLE_VARIABLE => {
            let (var, object) = read_get(&mut payload)?;
            let sim = sim.lock();
            let value = match var {
                ids::ID_LIST => TraciValue::StringList(sim.vehicle_ids()),
                ids::VAR_SPEED => {
                    let v = find_vehicle(&*sim, object)?;
                    TraciValue::Double(v.speed.value())
                }
                ids::VAR_POSITION => {
                    let v = find_vehicle(&*sim, object)?;
                    TraciValue::Position2D(v.position.value(), v.corridor as f64)
                }
                other => {
                    return Err(Error::protocol(format!(
                        "unsupported vehicle variable 0x{other:02x}"
                    )))
                }
            };
            put_get_answer(out, id, var, object, |out| value.encode(out));
        }
        ids::CMD_GET_TL_VARIABLE => {
            let (var, object) = read_get(&mut payload)?;
            if var != ids::TL_RED_YELLOW_GREEN_STATE {
                return Err(Error::protocol(format!(
                    "unsupported traffic-light variable 0x{var:02x}"
                )));
            }
            let state = match sim.lock().light_phase(object)? {
                Phase::Green => "G",
                Phase::Red => "r",
            };
            put_get_answer(out, id, var, object, |out| put_string_value(out, state));
        }
        ids::CMD_GET_INDUCTIONLOOP_VARIABLE => {
            let (var, object) = read_get(&mut payload)?;
            if var != ids::LAST_STEP_VEHICLE_NUMBER {
                return Err(Error::protocol(format!(
                    "unsupported induction-loop variable 0x{var:02x}"
                )));
            }
            // SUMO semantics: the count for the last *completed* step.
            // Reading is non-destructive — the old implementation drained
            // the detector's flow window here, so a second poller (or the
            // SAE volume feed) read zeros after any TraCI read.
            let count = TraciValue::Integer(sim.lock().loop_last_step_count(object)? as i32);
            put_get_answer(out, id, var, object, |out| count.encode(out));
        }
        ids::CMD_SET_VEHICLE_VARIABLE => {
            let var = read_u8(&mut payload)?;
            let object = read_str(&mut payload)?;
            if var != ids::VAR_SPEED {
                return Err(Error::protocol(format!(
                    "unsupported vehicle set-variable 0x{var:02x}"
                )));
            }
            let value = TraciValue::read(&mut payload)?.as_double()?;
            let command = if value < 0.0 {
                None // negative setSpeed returns control to car-following
            } else {
                Some(MetersPerSecond::new(value))
            };
            sim.lock().command_vehicle_speed(object, command)?;
            Status::ok(id).encode(out);
        }
        other => Status {
            command: other,
            result: ids::RTYPE_NOTIMPLEMENTED,
            description: "command not implemented".into(),
        }
        .encode(out),
    }
    Ok(())
}

/// Writes each live subscription's values as one RESPONSE_SUBSCRIBE
/// command and returns how many it wrote. A subscription whose window has
/// ended, or whose vehicle was delivered before and is gone, can never
/// deliver again (time only moves forward, vehicle ids are never reused),
/// so it is dropped here, as SUMO drops it; one whose window has not begun,
/// or whose vehicle has not appeared yet, is kept and produces nothing.
fn put_subscription_results<S: TraciBackend>(
    sim: &S,
    subscriptions: &mut Vec<Subscription>,
    out: &mut Vec<u8>,
) -> i32 {
    let now = sim.time().value();
    let mut count = 0;
    subscriptions.retain_mut(|sub| {
        if now >= sub.end {
            return false;
        }
        if now < sub.begin {
            return true;
        }
        let Some(vehicle) = sim.vehicle_state(&sub.object) else {
            return !sub.delivered;
        };
        sub.delivered = true;
        let at = begin_command(out, ids::RESPONSE_SUBSCRIBE_VEHICLE_VARIABLE);
        put_string(out, &sub.object);
        out.put_u8(sub.variables.len() as u8);
        for &var in &sub.variables {
            out.put_u8(var);
            out.put_u8(ids::RTYPE_OK);
            let value = match var {
                ids::VAR_SPEED => TraciValue::Double(vehicle.speed.value()),
                ids::VAR_POSITION => {
                    TraciValue::Position2D(vehicle.position.value(), vehicle.corridor as f64)
                }
                _ => unreachable!("variables validated at subscription time"),
            };
            value.encode(out);
        }
        end_command(out, at);
        count += 1;
        true
    });
    count
}

/// A "get variable" request's variable and object id.
fn read_get<'a>(payload: &mut &'a [u8]) -> Result<(u8, &'a str)> {
    Ok((read_u8(payload)?, read_str(payload)?))
}

/// Answers an accepted get: its status, then the result command echoing
/// the variable and `object` before the value `put_value` writes.
fn put_get_answer(
    out: &mut Vec<u8>,
    command: u8,
    var: u8,
    object: &str,
    put_value: impl FnOnce(&mut Vec<u8>),
) {
    Status::ok(command).encode(out);
    let at = begin_command(out, command.wrapping_add(ids::RESPONSE_OFFSET));
    out.put_u8(var);
    put_string(out, object);
    put_value(out);
    end_command(out, at);
}

fn find_vehicle<S: TraciBackend>(sim: &S, object: &str) -> Result<VehicleView> {
    sim.vehicle_state(object)
        .ok_or_else(|| Error::protocol(format!("no vehicle '{object}'")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::TraciClient;
    use crate::protocol::{decode_message_body, encode_message, Command};
    use bytes::{Bytes, BytesMut};
    use std::time::Duration;
    use velopt_common::units::{Meters, VehiclesPerHour};
    use velopt_microsim::{CorridorSpec, Network, SimConfig};
    use velopt_road::Road;

    fn server() -> TraciServer {
        let sim = Simulation::new(Road::us25(), SimConfig::default()).unwrap();
        TraciServer::spawn(sim).unwrap()
    }

    #[test]
    fn version_handshake() {
        let server = server();
        let mut client = TraciClient::connect(server.addr()).unwrap();
        let v = client.get_version().unwrap();
        assert_eq!(v.api, API_LEVEL);
        assert!(v.software.contains("velopt"));
        client.close().unwrap();
        server.join();
    }

    #[test]
    fn drop_shuts_down_listener_and_thread() {
        // Regression: the old drop let the listener thread (and its socket)
        // live until process exit, so every spawned-then-dropped server
        // leaked a port and a thread.
        let server = server();
        let addr = server.addr();
        let mut client = TraciClient::connect(addr).unwrap();
        client.get_version().unwrap();
        // Drop without CMD_CLOSE while the serving thread is blocked
        // reading from us — the hardest case for shutdown.
        drop(server);
        let refused = TcpStream::connect_timeout(&addr, Duration::from_secs(2));
        assert!(
            refused.is_err(),
            "listener must be gone after drop, but a reconnect succeeded"
        );
        // The original client's connection was torn down too.
        assert!(client.get_version().is_err());
    }

    /// A length header over the cap makes the server hang up on that
    /// client at once, instead of reserving the body and waiting for it,
    /// and the next client is served.
    #[test]
    fn oversized_message_drops_the_client_and_serving_continues() {
        use std::io::{ErrorKind, Read, Write};

        let server = server();
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(&i32::MAX.to_be_bytes()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let hung_up = match raw.read(&mut [0u8; 1]) {
            Ok(n) => n == 0,
            Err(e) => !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
        };
        assert!(hung_up, "server kept the oversized client's connection");
        let mut client = TraciClient::connect(server.addr()).unwrap();
        assert_eq!(client.get_version().unwrap().api, API_LEVEL);
        client.close().unwrap();
        server.join();
    }

    /// A `setSpeed` whose value nests compounds past the cap — one level
    /// past it, and deep enough to overflow the serving thread's 2 MiB
    /// stack if decoding recursed per level — is refused with an error
    /// status, and the same connection's next command is answered.
    #[test]
    fn over_deep_set_speed_is_refused_and_the_connection_survives() {
        use crate::protocol::{ids, MAX_COMPOUND_DEPTH};

        let server = server();
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        let mut exchange = |commands: &[Command]| {
            raw.write_all(&encode_message(commands)).unwrap();
            let mut body = Vec::new();
            read_message(&mut raw, &mut body).unwrap();
            decode_message_body(Bytes::from(body)).unwrap()
        };
        for levels in [MAX_COMPOUND_DEPTH + 1, 100_000] {
            let mut payload = BytesMut::new();
            payload.put_u8(ids::VAR_SPEED);
            put_string(&mut payload, "veh0");
            for _ in 0..levels {
                payload.put_u8(0x0F); // TYPE_COMPOUND
                payload.put_i32(1);
            }
            TraciValue::Double(3.0).encode(&mut payload);
            let set = Command::new(ids::CMD_SET_VEHICLE_VARIABLE, payload.freeze());
            let reply = exchange(&[set]);
            assert_eq!(reply.len(), 1);
            let status = Status::from_command(&reply[0]).unwrap();
            assert_eq!(status.result, ids::RTYPE_ERR);
            assert!(status.description.contains("nest deeper"), "{status:?}");

            let time = Command::get(ids::CMD_GET_SIM_VARIABLE, ids::VAR_TIME, "");
            let reply = exchange(&[time]);
            assert_eq!(
                Status::from_command(&reply[0]).unwrap().result,
                ids::RTYPE_OK
            );
        }
        exchange(&[Command::new(ids::CMD_CLOSE, Vec::<u8>::new())]);
        server.join();
    }

    #[test]
    fn explicit_shutdown_is_idempotent() {
        let mut server = server();
        let addr = server.addr();
        server.shutdown();
        server.shutdown();
        assert!(TcpStream::connect_timeout(&addr, Duration::from_secs(2)).is_err());
    }

    #[test]
    fn step_advances_time_and_targets_work() {
        let server = server();
        let mut client = TraciClient::connect(server.addr()).unwrap();
        assert_eq!(client.simulation_time().unwrap(), 0.0);
        client.simulation_step(0.0).unwrap();
        let t1 = client.simulation_time().unwrap();
        assert!((t1 - 0.1).abs() < 1e-9);
        client.simulation_step(5.0).unwrap();
        assert!(client.simulation_time().unwrap() >= 5.0);
        client.close().unwrap();
        server.join();
    }

    #[test]
    fn vehicle_queries_and_ego_control() {
        let sim = {
            let mut sim = Simulation::new(Road::us25(), SimConfig::default()).unwrap();
            sim.set_arrival_rate(VehiclesPerHour::new(300.0));
            sim.spawn_ego(MetersPerSecond::new(5.0)).unwrap();
            sim
        };
        let server = TraciServer::spawn(sim).unwrap();
        let mut client = TraciClient::connect(server.addr()).unwrap();

        let ids = client.vehicle_ids().unwrap();
        assert!(ids.contains(&"veh0".to_string()));
        let speed = client.vehicle_speed("veh0").unwrap();
        assert!((speed - 5.0).abs() < 1e-9);
        let (x, y) = client.vehicle_position("veh0").unwrap();
        assert_eq!((x, y), (0.0, 0.0));

        // Command the ego and verify after stepping.
        client.set_vehicle_speed("veh0", 3.0).unwrap();
        for _ in 0..100 {
            client.simulation_step(0.0).unwrap();
        }
        let speed = client.vehicle_speed("veh0").unwrap();
        assert!((speed - 3.0).abs() < 0.05, "speed {speed}");

        // Releasing control lets it accelerate again.
        client.set_vehicle_speed("veh0", -1.0).unwrap();
        for _ in 0..100 {
            client.simulation_step(0.0).unwrap();
        }
        assert!(client.vehicle_speed("veh0").unwrap() > 3.5);

        // Unknown vehicle errors cleanly.
        assert!(client.vehicle_speed("veh99").is_err());
        client.close().unwrap();
        server.join();
    }

    #[test]
    fn traffic_light_state_follows_phases() {
        let server = server();
        let lights = Road::us25().traffic_lights().to_vec();
        let mut client = TraciClient::connect(server.addr()).unwrap();
        // Drive the clock through one full cycle and check both heads
        // against the ground-truth phase function.
        let mut t = 0.0;
        for _ in 0..12 {
            t += 5.0;
            client.simulation_step(t).unwrap();
            let now = Seconds::new(client.simulation_time().unwrap());
            for (i, light) in lights.iter().enumerate() {
                let expected = match light.phase_at(now) {
                    velopt_road::Phase::Green => "G",
                    velopt_road::Phase::Red => "r",
                };
                let got = client.traffic_light_state(&format!("tl{i}")).unwrap();
                assert_eq!(got, expected, "tl{i} at {now}");
            }
        }
        assert!(client.traffic_light_state("tl9").is_err());
        assert!(client.traffic_light_state("bogus").is_err());
        client.close().unwrap();
        server.join();
    }

    #[test]
    fn induction_loop_counts_over_traci() {
        let sim = {
            let mut sim = Simulation::new(Road::us25(), SimConfig::default()).unwrap();
            sim.add_detector(Meters::new(100.0)).unwrap();
            sim.set_arrival_rate(VehiclesPerHour::new(900.0));
            sim
        };
        let server = TraciServer::spawn(sim).unwrap();
        let mut client = TraciClient::connect(server.addr()).unwrap();
        client.simulation_step(120.0).unwrap();
        // SUMO LAST_STEP_VEHICLE_NUMBER semantics: per-completed-step
        // counts, and reads never consume anything. Regression: the old
        // handler drained the detector window on every read, so the second
        // of two consecutive reads (another TraCI poller, or the SAE volume
        // feed) always saw zero.
        let mut total = 0;
        for _ in 0..600 {
            client.simulation_step(0.0).unwrap();
            let count = client.induction_loop_count("loop0").unwrap();
            let again = client.induction_loop_count("loop0").unwrap();
            assert_eq!(count, again, "loop reads must be non-destructive");
            total += count;
        }
        assert!(total > 5, "saw {total} crossings in 60 s");
        assert!(client.induction_loop_count("loop7").is_err());
        client.close().unwrap();
        server.join();
    }

    #[test]
    fn network_backend_scopes_object_ids_by_corridor() {
        let net = {
            let mut feeder = CorridorSpec::through(Road::us25(), 1);
            feeder.arrival_rate = VehiclesPerHour::new(700.0);
            feeder.detectors.push(Meters::new(100.0));
            let mut sink = CorridorSpec::terminal(Road::us25());
            sink.detectors.push(Meters::new(100.0));
            let mut net = Network::new(vec![feeder, sink], 2, SimConfig::default()).unwrap();
            net.spawn_ego(0, MetersPerSecond::new(5.0)).unwrap();
            net
        };
        let ego_name = net.ego_vehicle_id().unwrap().to_string();
        let server = TraciServer::spawn(net).unwrap();
        let mut client = TraciClient::connect(server.addr()).unwrap();

        client.simulation_step(60.0).unwrap();
        let ids = client.vehicle_ids().unwrap();
        assert!(ids.contains(&ego_name));
        // Corridor-scoped signal and detector names resolve per corridor…
        for object in ["tl0:0", "tl0:1", "tl1:0", "tl1:1"] {
            client.traffic_light_state(object).unwrap();
        }
        let c0 = client.induction_loop_count("loop0:0").unwrap();
        assert_eq!(c0, client.induction_loop_count("loop0:0").unwrap());
        client.induction_loop_count("loop1:0").unwrap();
        // …and single-corridor names or out-of-range scopes are rejected.
        assert!(client.traffic_light_state("tl0").is_err());
        assert!(client.traffic_light_state("tl2:0").is_err());
        assert!(client.induction_loop_count("loop0").is_err());
        assert!(client.induction_loop_count("loop1:3").is_err());

        // Ego control works through the network backend, and the 2D
        // position's y channel reports the corridor index.
        client.set_vehicle_speed(&ego_name, 3.0).unwrap();
        for _ in 0..50 {
            client.simulation_step(0.0).unwrap();
        }
        let speed = client.vehicle_speed(&ego_name).unwrap();
        assert!((speed - 3.0).abs() < 0.05, "speed {speed}");
        let (_, y) = client.vehicle_position(&ego_name).unwrap();
        assert_eq!(y, 0.0, "ego still on corridor 0");
        // Background vehicles are controllable too (the fleet co-simulation
        // drives every EV), wherever in the network they are; unknown ids
        // stay rejected.
        let ids = client.vehicle_ids().unwrap();
        let background = ids.iter().find(|i| **i != ego_name).unwrap();
        client.set_vehicle_speed(background, 5.0).unwrap();
        assert!(client.set_vehicle_speed("veh999999", 5.0).is_err());
        client.close().unwrap();
        server.join();
    }

    #[test]
    fn subscriptions_deliver_values_each_step() {
        let sim = {
            let mut sim = Simulation::new(Road::us25(), SimConfig::default()).unwrap();
            sim.spawn_ego(MetersPerSecond::new(5.0)).unwrap();
            sim
        };
        let server = TraciServer::spawn(sim).unwrap();
        let mut client = TraciClient::connect(server.addr()).unwrap();

        client
            .subscribe_vehicle("veh0", &[ids::VAR_SPEED, ids::VAR_POSITION], 0.0, 1e9)
            .unwrap();
        let results = client.simulation_step_collect(0.0).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].object, "veh0");
        let speed = results[0]
            .value_of(ids::VAR_SPEED)
            .unwrap()
            .as_double()
            .unwrap();
        assert!(speed > 0.0);
        assert!(matches!(
            results[0].value_of(ids::VAR_POSITION),
            Some(crate::TraciValue::Position2D(_, _))
        ));

        // Unsupported variables are rejected at subscription time.
        assert!(client.subscribe_vehicle("veh0", &[0x7E], 0.0, 1e9).is_err());

        // An empty variable list cancels the subscription.
        client.subscribe_vehicle("veh0", &[], 0.0, 1e9).unwrap();
        let results = client.simulation_step_collect(0.0).unwrap();
        assert!(results.is_empty());
        client.close().unwrap();
        server.join();
    }

    #[test]
    fn expired_or_vanished_subscriptions_produce_no_results() {
        let sim = {
            let mut sim = Simulation::new(Road::us25(), SimConfig::default()).unwrap();
            sim.spawn_ego(MetersPerSecond::new(5.0)).unwrap();
            sim
        };
        let server = TraciServer::spawn(sim).unwrap();
        let mut client = TraciClient::connect(server.addr()).unwrap();
        // Window already over at subscription time.
        client
            .subscribe_vehicle("veh0", &[ids::VAR_SPEED], 0.0, 0.05)
            .unwrap();
        client.simulation_step(1.0).unwrap();
        let results = client.simulation_step_collect(0.0).unwrap();
        assert!(results.is_empty(), "window [0, 0.05) is long over");
        // Subscribing to a vehicle that never exists yields no results
        // either (it may enter later in SUMO semantics).
        client
            .subscribe_vehicle("veh99", &[ids::VAR_SPEED], 0.0, 1e9)
            .unwrap();
        let results = client.simulation_step_collect(0.0).unwrap();
        assert!(results.is_empty());
        client.close().unwrap();
        server.join();
    }

    /// A backend that counts `vehicle_state` lookups.
    struct Counting {
        sim: Simulation,
        lookups: Arc<std::sync::atomic::AtomicU64>,
    }

    impl TraciBackend for Counting {
        fn time(&self) -> Seconds {
            self.sim.time()
        }
        fn step_once(&mut self) {
            self.sim.step_once();
        }
        fn advance_to(&mut self, t: Seconds) -> Result<()> {
            TraciBackend::advance_to(&mut self.sim, t)
        }
        fn vehicle_ids(&self) -> Vec<String> {
            TraciBackend::vehicle_ids(&self.sim)
        }
        fn vehicle_state(&self, object: &str) -> Option<VehicleView> {
            self.lookups.fetch_add(1, Ordering::SeqCst);
            self.sim.vehicle_state(object)
        }
        fn light_phase(&self, object: &str) -> Result<Phase> {
            self.sim.light_phase(object)
        }
        fn loop_last_step_count(&self, object: &str) -> Result<u64> {
            self.sim.loop_last_step_count(object)
        }
        fn command_vehicle_speed(
            &mut self,
            object: &str,
            speed: Option<MetersPerSecond>,
        ) -> Result<()> {
            self.sim.command_vehicle_speed(object, speed)
        }
    }

    /// A subscription that can never deliver again — its window has ended,
    /// or its vehicle was delivered and has left — is dropped, so later
    /// steps look nothing up for it; one whose vehicle has not appeared yet
    /// is kept and looked up every step.
    #[test]
    fn dead_subscriptions_are_dropped() {
        let lookups = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let counted = || lookups.load(Ordering::SeqCst);
        let mut sim = Simulation::new(Road::us25(), SimConfig::default()).unwrap();
        sim.spawn_ego(MetersPerSecond::new(15.0)).unwrap();
        let server = TraciServer::spawn(Counting {
            sim,
            lookups: Arc::clone(&lookups),
        })
        .unwrap();
        let mut client = TraciClient::connect(server.addr()).unwrap();

        // The window [0, 0.25) delivers twice, then ends.
        client
            .subscribe_vehicle("veh0", &[ids::VAR_SPEED], 0.0, 0.25)
            .unwrap();
        for delivered in [1, 1, 0] {
            let before = counted();
            assert_eq!(
                client.simulation_step_collect(0.0).unwrap().len(),
                delivered
            );
            assert_eq!(counted() - before, delivered as u64);
        }
        let before = counted();
        client.simulation_step(0.0).unwrap();
        assert_eq!(counted(), before, "an ended subscription is looked up");

        // The ego is delivered, then leaves the corridor.
        client
            .subscribe_vehicle("veh0", &[ids::VAR_POSITION], 0.0, 1e9)
            .unwrap();
        assert_eq!(client.simulation_step_collect(0.0).unwrap().len(), 1);
        client.simulation_step(600.0).unwrap();
        assert!(client.vehicle_ids().unwrap().is_empty(), "the ego left");
        let before = counted();
        for _ in 0..3 {
            assert!(client.simulation_step_collect(0.0).unwrap().is_empty());
        }
        assert_eq!(counted(), before, "a vanished vehicle is looked up");

        // A vehicle that has not appeared yet is looked up every step.
        client
            .subscribe_vehicle("veh99", &[ids::VAR_SPEED], 0.0, 1e9)
            .unwrap();
        let before = counted();
        for _ in 0..3 {
            assert!(client.simulation_step_collect(0.0).unwrap().is_empty());
        }
        assert_eq!(counted() - before, 3);
        client.close().unwrap();
        server.join();
    }

    #[test]
    fn background_vehicles_accept_speed_commands() {
        let sim = {
            let mut sim = Simulation::new(Road::us25(), SimConfig::default()).unwrap();
            sim.set_arrival_rate(VehiclesPerHour::new(1200.0));
            sim.run_until(Seconds::new(30.0)).unwrap();
            sim
        };
        assert!(sim.vehicle_count() > 0);
        let background_id = sim.vehicles()[0].id().to_string();
        let server = TraciServer::spawn(sim).unwrap();
        let mut client = TraciClient::connect(server.addr()).unwrap();
        // Every live vehicle is controllable — the fleet co-simulation
        // drives background EVs through this path, not just the ego…
        client.set_vehicle_speed(&background_id, 5.0).unwrap();
        // …while unknown and malformed ids stay rejected.
        assert!(client.set_vehicle_speed("veh999999", 5.0).is_err());
        assert!(client.set_vehicle_speed("car1", 5.0).is_err());
        client.close().unwrap();
        server.join();
    }
}
