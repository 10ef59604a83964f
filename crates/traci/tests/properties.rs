//! Property-based tests: the wire format round-trips arbitrary values, the
//! decoders reject truncated and mutated bytes without panicking, and a
//! pipelined message is answered exactly as its commands one by one.

use bytes::{BufMut, Bytes, BytesMut};
use proptest::prelude::*;
use velopt_common::units::{Meters, Seconds, VehiclesPerHour};
use velopt_microsim::{CorridorSpec, Network, SimConfig};
use velopt_road::Road;
use velopt_traci::protocol::{
    decode_message_body, encode_message, ids, put_string, read_message, Command, Reply, Status,
    TraciValue, MAX_COMPOUND_DEPTH,
};
use velopt_traci::{TraciBackend, TraciClient, TraciServer};

/// Strategy for arbitrary (bounded-depth) TraCI values; doubles take any
/// bit pattern, NaNs and infinities included.
fn arb_value() -> impl Strategy<Value = TraciValue> {
    let leaf = prop_oneof![
        any::<u8>().prop_map(TraciValue::UByte),
        any::<i8>().prop_map(TraciValue::Byte),
        any::<i32>().prop_map(TraciValue::Integer),
        any::<u64>().prop_map(|b| TraciValue::Double(f64::from_bits(b))),
        "[a-zA-Z0-9_ ]{0,32}".prop_map(TraciValue::String),
        prop::collection::vec("[a-z0-9]{0,8}", 0..5).prop_map(TraciValue::StringList),
        (any::<u64>(), any::<u64>())
            .prop_map(|(x, y)| TraciValue::Position2D(f64::from_bits(x), f64::from_bits(y))),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop::collection::vec(inner, 0..4).prop_map(TraciValue::Compound)
    })
}

fn encoded(value: &TraciValue) -> Bytes {
    let mut buf = BytesMut::new();
    value.encode(&mut buf);
    buf.freeze()
}

fn arb_commands() -> impl Strategy<Value = Vec<Command>> {
    prop::collection::vec(
        (any::<u8>(), prop::collection::vec(any::<u8>(), 0..300)),
        0..6,
    )
    .prop_map(|cmds| {
        cmds.into_iter()
            .map(|(id, p)| Command::new(id, p))
            .collect()
    })
}

/// `levels` one-item compound headers in front of `inner`.
fn nest(levels: usize, inner: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(levels * 5 + inner.len());
    for _ in 0..levels {
        buf.put_u8(0x0F); // TYPE_COMPOUND
        buf.put_i32(1);
    }
    buf.put_slice(inner);
    buf.freeze()
}

/// Runs every decoder over `bytes`; each may fail, none may panic.
fn decode_everything(bytes: &Bytes) {
    let _ = TraciValue::decode(&mut bytes.clone());
    let _ = Command::decode(&mut bytes.clone());
    let _ = decode_message_body(bytes.clone());
}

/// Every single-bit flip of `bytes`, each run through every decoder.
fn flip_every_bit(bytes: &Bytes) {
    let mut copy = bytes.to_vec();
    for bit in 0..copy.len() * 8 {
        copy[bit / 8] ^= 1 << (bit % 8);
        decode_everything(&Bytes::from(copy.clone()));
        copy[bit / 8] ^= 1 << (bit % 8);
    }
}

proptest! {
    /// Values round-trip, every double compared by `to_bits`.
    #[test]
    fn value_round_trip(v in arb_value()) {
        let mut bytes = encoded(&v);
        let back = TraciValue::decode(&mut bytes).unwrap();
        prop_assert_eq!(bits(&back), bits(&v));
        prop_assert!(bytes.is_empty());
    }

    /// Every strict prefix of a value or command encoding is an error.
    #[test]
    fn truncated_values_and_commands_are_rejected(
        v in arb_value(),
        id in any::<u8>(),
        payload in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let value = encoded(&v);
        for cut in 0..value.len() {
            prop_assert!(TraciValue::decode(&mut value.slice(..cut)).is_err(), "cut {}", cut);
        }
        let mut buf = Vec::new();
        Command::new(id, payload).encode(&mut buf);
        let command = Bytes::from(buf);
        for cut in 0..command.len() {
            prop_assert!(Command::decode(&mut command.slice(..cut)).is_err(), "cut {}", cut);
        }
    }

    /// A strict prefix of a message body decodes only where it ends on a
    /// command boundary, and then to exactly the commands before it; a
    /// strict prefix of the whole message, length header included, is an
    /// error.
    #[test]
    fn truncated_messages_are_rejected(cmds in arb_commands()) {
        let msg = encode_message(&cmds);
        let body = msg.slice(4..);
        let mut boundaries = vec![0];
        for cmd in &cmds {
            let mut buf = Vec::new();
            cmd.encode(&mut buf);
            boundaries.push(boundaries.last().unwrap() + buf.len());
        }
        for cut in 0..body.len() {
            let decoded = decode_message_body(body.slice(..cut));
            match boundaries.iter().position(|&b| b == cut) {
                Some(k) => prop_assert_eq!(decoded.unwrap(), cmds[..k].to_vec()),
                None => prop_assert!(decoded.is_err(), "cut {}", cut),
            }
        }
        for cut in 0..msg.len() {
            prop_assert!(read_message(&mut &msg[..cut], &mut Vec::new()).is_err(), "cut {}", cut);
        }
    }

    /// No single-bit flip of a valid value, command or message encoding
    /// panics any decoder.
    #[test]
    fn bit_flips_never_panic(v in arb_value(), cmds in arb_commands()) {
        flip_every_bit(&encoded(&v));
        let msg = encode_message(&cmds);
        flip_every_bit(&msg.slice(4..));
        if let Some(first) = cmds.first() {
            let mut buf = Vec::new();
            first.encode(&mut buf);
            flip_every_bit(&Bytes::from(buf));
        }
    }

    #[test]
    fn command_round_trip(id in any::<u8>(), payload in prop::collection::vec(any::<u8>(), 0..600)) {
        let cmd = Command::new(id, payload);
        let mut buf = Vec::new();
        cmd.encode(&mut buf);
        let mut bytes = Bytes::from(buf);
        let back = Command::decode(&mut bytes).unwrap();
        prop_assert_eq!(back, cmd);
        prop_assert!(bytes.is_empty());
    }

    #[test]
    fn message_round_trip(cmds in arb_commands()) {
        let msg = encode_message(&cmds);
        let back = decode_message_body(msg.slice(4..)).unwrap();
        prop_assert_eq!(back, cmds);
    }

    #[test]
    fn status_round_trip(id in any::<u8>(), result in any::<u8>(), desc in "[ -~]{0,300}") {
        let status = Status { command: id, result, description: desc };
        let mut buf = Vec::new();
        status.encode(&mut buf);
        let mut bytes = Bytes::from(buf);
        let back = Status::from_command(&Command::decode(&mut bytes).unwrap()).unwrap();
        prop_assert_eq!(back, status);
        prop_assert!(bytes.is_empty());
    }

    /// Arbitrary byte soup never panics the decoders (they may error),
    /// bare or behind any number of nested compound headers; nesting past
    /// [`MAX_COMPOUND_DEPTH`] is an error.
    #[test]
    fn decoder_never_panics(
        garbage in prop::collection::vec(any::<u8>(), 0..256),
        levels in 0usize..40_000,
    ) {
        decode_everything(&Bytes::from(garbage.clone()));
        for levels in [levels % (MAX_COMPOUND_DEPTH + 2), levels] {
            let nested = nest(levels, &garbage);
            decode_everything(&nested);
            if levels > MAX_COMPOUND_DEPTH {
                prop_assert!(TraciValue::decode(&mut nested.clone()).is_err());
            }
        }
    }
}

/// A vehicle a generated command names.
#[derive(Debug, Clone)]
enum Vehicle {
    /// The `i`-th (mod count) vehicle live when the sequence starts.
    Live(usize),
    /// A name no live vehicle has.
    Unknown(&'static str),
}

/// One generated command.
#[derive(Debug, Clone)]
enum Op {
    /// `CMD_SIMSTEP` to this target (0 = one step; a past time is refused).
    Step(f64),
    Time,
    IdList,
    Position(Vehicle),
    Speed(Vehicle),
    /// `tl<corridor>:<index>`; out-of-range ids are refused.
    Light(usize, usize),
    /// `loop<corridor>:<index>`; out-of-range ids are refused.
    Loop(usize, usize),
    /// A malformed light or loop name.
    BadObject(u8, &'static str),
    SetSpeed(Vehicle, f64),
    Subscribe(Vehicle, Vec<u8>),
    UnsupportedVariable(Vehicle),
    Unimplemented(u8),
}

fn arb_vehicle() -> impl Strategy<Value = Vehicle> {
    prop_oneof![
        (0usize..64).prop_map(Vehicle::Live),
        (0usize..64).prop_map(Vehicle::Live),
        prop_oneof![
            Just("veh999999"),
            Just("veh00"),
            Just("veh+1"),
            Just("car1")
        ]
        .prop_map(Vehicle::Unknown),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        prop_oneof![Just(0.0), Just(0.0), Just(1.0)].prop_map(Op::Step),
        Just(Op::Time),
        Just(Op::IdList),
        arb_vehicle().prop_map(Op::Position),
        arb_vehicle().prop_map(Op::Speed),
        (0usize..3, 0usize..3).prop_map(|(c, i)| Op::Light(c, i)),
        (0usize..3, 0usize..2).prop_map(|(c, i)| Op::Loop(c, i)),
        prop_oneof![
            Just((ids::CMD_GET_TL_VARIABLE, "tl00:0")),
            Just((ids::CMD_GET_TL_VARIABLE, "tl0")),
            Just((ids::CMD_GET_INDUCTIONLOOP_VARIABLE, "loop+0:0")),
            Just((ids::CMD_GET_INDUCTIONLOOP_VARIABLE, "bogus")),
        ]
        .prop_map(|(cmd, object)| Op::BadObject(cmd, object)),
        (arb_vehicle(), -5.0f64..25.0).prop_map(|(v, speed)| Op::SetSpeed(v, speed)),
        (
            arb_vehicle(),
            prop_oneof![
                Just(vec![ids::VAR_SPEED, ids::VAR_POSITION]),
                Just(vec![ids::VAR_SPEED]),
                Just(vec![0x7E]),
                Just(vec![]),
            ],
        )
            .prop_map(|(v, vars)| Op::Subscribe(v, vars)),
        arb_vehicle().prop_map(Op::UnsupportedVariable),
        prop_oneof![Just(0x55u8), Just(0xA1), Just(0xCC)].prop_map(Op::Unimplemented),
    ]
}

impl Op {
    fn command(&self, live: &[String]) -> Command {
        let name = |v: &Vehicle| match v {
            Vehicle::Live(i) => live[i % live.len()].clone(),
            Vehicle::Unknown(name) => (*name).to_owned(),
        };
        let vehicle_get =
            |var, v: &Vehicle| Command::get(ids::CMD_GET_VEHICLE_VARIABLE, var, &name(v));
        match self {
            Op::Step(target) => Command::simulation_step(*target),
            Op::Time => Command::get(ids::CMD_GET_SIM_VARIABLE, ids::VAR_TIME, ""),
            Op::IdList => Command::get(ids::CMD_GET_VEHICLE_VARIABLE, ids::ID_LIST, ""),
            Op::Position(v) => vehicle_get(ids::VAR_POSITION, v),
            Op::Speed(v) => vehicle_get(ids::VAR_SPEED, v),
            Op::Light(c, i) => Command::get(
                ids::CMD_GET_TL_VARIABLE,
                ids::TL_RED_YELLOW_GREEN_STATE,
                &format!("tl{c}:{i}"),
            ),
            Op::Loop(c, i) => Command::get(
                ids::CMD_GET_INDUCTIONLOOP_VARIABLE,
                ids::LAST_STEP_VEHICLE_NUMBER,
                &format!("loop{c}:{i}"),
            ),
            Op::BadObject(cmd, object) => {
                let var = if *cmd == ids::CMD_GET_TL_VARIABLE {
                    ids::TL_RED_YELLOW_GREEN_STATE
                } else {
                    ids::LAST_STEP_VEHICLE_NUMBER
                };
                Command::get(*cmd, var, object)
            }
            Op::SetSpeed(v, speed) => Command::set_vehicle_speed(&name(v), *speed),
            Op::Subscribe(v, vars) => {
                let mut buf = BytesMut::new();
                buf.put_f64(0.0);
                buf.put_f64(1e9);
                put_string(&mut buf, &name(v));
                buf.put_u8(vars.len() as u8);
                buf.put_slice(vars);
                Command::new(ids::CMD_SUBSCRIBE_VEHICLE_VARIABLE, buf.freeze())
            }
            Op::UnsupportedVariable(v) => vehicle_get(0x7E, v),
            Op::Unimplemented(id) => Command::new(*id, vec![1, 2, 3]),
        }
    }
}

/// Two corridors of US-25 in a chain, each with an entrance loop, warmed
/// to a minute of traffic. Every call builds the same network.
fn seeded_network() -> Network {
    let mut feeder = CorridorSpec::through(Road::us25(), 1);
    feeder.arrival_rate = VehiclesPerHour::new(1200.0);
    feeder.detectors.push(Meters::new(25.0));
    let mut sink = CorridorSpec::terminal(Road::us25());
    sink.arrival_rate = VehiclesPerHour::new(600.0);
    sink.detectors.push(Meters::new(25.0));
    let config = SimConfig {
        seed: 19,
        ..SimConfig::default()
    };
    let mut net = Network::new(vec![feeder, sink], 1, config).unwrap();
    net.run_until(Seconds::new(60.0)).unwrap();
    net
}

/// A doubles-by-bits rendering of a value.
fn bits(value: &TraciValue) -> String {
    match value {
        TraciValue::Double(x) => format!("double {:#018x}", x.to_bits()),
        TraciValue::Position2D(x, y) => {
            format!("position {:#018x} {:#018x}", x.to_bits(), y.to_bits())
        }
        TraciValue::Compound(items) => {
            let items: Vec<String> = items.iter().map(bits).collect();
            format!("compound [{}]", items.join(", "))
        }
        other => format!("{other:?}"),
    }
}

/// A reply in comparable form: status code and description, then the
/// decoded result values, every double compared by `f64::to_bits`.
fn outcome(reply: &Reply) -> (u8, String, Vec<String>) {
    let status = &reply.status;
    let values = if reply.check().is_err() {
        assert!(reply.results.is_empty(), "a rejected command has no result");
        Vec::new()
    } else if status.command == ids::CMD_SIMSTEP {
        let subscriptions = reply.subscriptions().unwrap();
        subscriptions
            .iter()
            .flat_map(|s| {
                s.values
                    .iter()
                    .map(move |(var, v)| format!("{} {var:#04x} {}", s.object, bits(v)))
            })
            .collect()
    } else if (0xA0..=0xAF).contains(&status.command) {
        vec![bits(&reply.value().unwrap())]
    } else {
        assert!(
            reply.results.is_empty(),
            "0x{:02x} has no result",
            status.command
        );
        Vec::new()
    };
    (status.result, status.description.clone(), values)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A message of many commands — steps, reads of live and unknown
    /// vehicles, bad light and loop ids, `setSpeed` with negative speeds
    /// and unknown vehicles, unsupported variables, unimplemented command
    /// ids, subscriptions — is answered, command by command, exactly as the
    /// same commands sent one message each to a twin server, and leaves the
    /// simulation in the same state. A rejected command fails only itself.
    #[test]
    fn pipelined_message_answers_as_one_message_per_command(
        ops in prop::collection::vec(arb_op(), 1..40),
    ) {
        let (together_net, apart_net) = (seeded_network(), seeded_network());
        let live = together_net.vehicle_ids();
        prop_assert!(!live.is_empty());
        let commands: Vec<Command> = ops.iter().map(|op| op.command(&live)).collect();
        let together_server = TraciServer::spawn(together_net).unwrap();
        let apart_server = TraciServer::spawn(apart_net).unwrap();
        let mut together = TraciClient::connect(together_server.addr()).unwrap();
        let mut apart = TraciClient::connect(apart_server.addr()).unwrap();

        let replies = together.exchange(&commands).unwrap();
        prop_assert_eq!(replies.len(), commands.len());
        for (i, (reply, command)) in replies.iter().zip(&commands).enumerate() {
            let alone = apart.exchange(std::slice::from_ref(command)).unwrap();
            prop_assert_eq!(alone.len(), 1);
            prop_assert_eq!(
                outcome(reply),
                outcome(&alone[0]),
                "command {} of {}: {:?}",
                i,
                ops.len(),
                ops[i]
            );
        }
        let hash = |server: &TraciServer<Network>| server.simulation().lock().state_hash();
        prop_assert_eq!(hash(&together_server), hash(&apart_server));
        together.close().unwrap();
        apart.close().unwrap();
        together_server.join();
        apart_server.join();
    }
}

/// SplitMix64: the seeded source of the wire script below.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> usize {
        (self.next() % n) as usize
    }
}

/// A fixed script of messages over every [`arb_op`] kind, drawn from
/// `seed`. Its first command steps to 150 s, so the fleet's id list
/// outgrows a one-byte command length.
fn wire_script(seed: u64) -> Vec<Vec<Op>> {
    let mut rng = SplitMix(seed);
    let vehicle = |rng: &mut SplitMix| match rng.below(5) {
        0 => Vehicle::Unknown(["veh999999", "veh00", "veh+1", "car1"][rng.below(4)]),
        _ => Vehicle::Live(rng.below(64)),
    };
    let mut messages = vec![vec![Op::Step(150.0), Op::IdList]];
    for _ in 0..48 {
        let ops = (0..1 + rng.below(8))
            .map(|_| match rng.below(13) {
                0 => Op::Step(0.0),
                1 => Op::Step(1.0),
                2 => Op::Time,
                3 => Op::IdList,
                4 => Op::Position(vehicle(&mut rng)),
                5 => Op::Speed(vehicle(&mut rng)),
                6 => Op::Light(rng.below(3), rng.below(3)),
                7 => Op::Loop(rng.below(3), rng.below(2)),
                8 => {
                    let (cmd, object) = [
                        (ids::CMD_GET_TL_VARIABLE, "tl00:0"),
                        (ids::CMD_GET_TL_VARIABLE, "tl0"),
                        (ids::CMD_GET_INDUCTIONLOOP_VARIABLE, "loop+0:0"),
                        (ids::CMD_GET_INDUCTIONLOOP_VARIABLE, "bogus"),
                    ][rng.below(4)];
                    Op::BadObject(cmd, object)
                }
                9 => Op::SetSpeed(vehicle(&mut rng), rng.below(300) as f64 / 10.0 - 5.0),
                10 => {
                    let vars = [
                        vec![ids::VAR_SPEED, ids::VAR_POSITION],
                        vec![ids::VAR_SPEED],
                        vec![0x7E],
                        vec![],
                    ][rng.below(4)]
                    .clone();
                    Op::Subscribe(vehicle(&mut rng), vars)
                }
                11 => Op::UnsupportedVariable(vehicle(&mut rng)),
                _ => Op::Unimplemented([0x55u8, 0xA1, 0xCC][rng.below(3)]),
            })
            .collect();
        messages.push(ops);
    }
    messages
}

/// FNV-1a over a byte stream.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The server's wire bytes are pinned: a fixed seeded script over every
/// command kind goes to [`seeded_network`] over a raw socket, and the hash
/// of every request and reply byte, error descriptions included, must not
/// move. The script's replies must cover an extended (>255 B) command
/// length, rejected and unimplemented commands, delivered subscriptions
/// and accepted `setSpeed`s, so an encoder change on any of those paths
/// shows here.
#[test]
fn wire_bytes_are_pinned() {
    use std::io::{Read, Write};

    let net = seeded_network();
    let live = net.vehicle_ids();
    let server = TraciServer::spawn(net).unwrap();
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut hash = 0xCBF2_9CE4_8422_2325;
    let (mut extended, mut rejected, mut unimplemented, mut delivered, mut set) = (0, 0, 0, 0, 0);
    for ops in wire_script(0x7EA5_E20B) {
        let commands: Vec<Command> = ops.iter().map(|op| op.command(&live)).collect();
        let request = encode_message(&commands);
        raw.write_all(&request).unwrap();
        let mut reply = vec![0u8; 4];
        raw.read_exact(&mut reply).unwrap();
        let total = u32::from_be_bytes(reply[..4].try_into().unwrap()) as usize;
        reply.resize(total, 0);
        raw.read_exact(&mut reply[4..]).unwrap();
        hash = fnv1a(fnv1a(hash, &request), &reply);

        let mut body = Bytes::from(reply).slice(4..);
        while !body.is_empty() {
            extended += usize::from(body[0] == 0);
            let answer = Command::decode(&mut body).unwrap();
            match answer.id {
                ids::RESPONSE_SUBSCRIBE_VEHICLE_VARIABLE => delivered += 1,
                ids::CMD_SET_VEHICLE_VARIABLE if answer.payload[0] == ids::RTYPE_OK => set += 1,
                _ => {}
            }
            match answer.payload.first() {
                Some(&ids::RTYPE_ERR) => rejected += 1,
                Some(&ids::RTYPE_NOTIMPLEMENTED) => unimplemented += 1,
                _ => {}
            }
        }
    }
    let coverage = [extended, rejected, unimplemented, delivered, set];
    assert!(coverage.iter().all(|&n| n > 0), "coverage {coverage:?}");
    drop(raw);
    TraciClient::connect(server.addr())
        .unwrap()
        .close()
        .unwrap();
    server.join();
    assert_eq!(
        hash, 0xa9f9_ccf8_de70_8377,
        "wire hash {hash:#018x}, coverage {coverage:?}"
    );
}
