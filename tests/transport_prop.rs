//! Property tests for the framed wire protocol and remote deployment
//! (DESIGN.md §14).
//!
//! Four layers, four properties:
//!
//! * **Framing** — `Frame` encode/decode round-trips arbitrary payloads,
//!   and stream decode consumes exactly one frame.
//! * **Codecs** — a fault-free wire round trip is lossless for every
//!   reading shape the mechanisms produce: all optional rails, stale
//!   flags, unicode device names, and every `f64` bit pattern short of
//!   NaN (f64s travel as bit patterns, so even `-0.0` and subnormals
//!   survive byte-exact).
//! * **Totality** — every decoder of bytes off the wire (`Frame`
//!   framing, the server's `REQ_READ` handler, the client's reply
//!   decoder) answers arbitrary bytes, and every truncation or single-byte
//!   flip of a valid `READ` request or response, with a typed error and
//!   never a panic.
//! * **Deployment** — a parallel `ClusterRun` of *remote* sessions is
//!   byte-identical to a serial one: the wire layer must not introduce
//!   any worker-pool-order dependence the local path doesn't have.

use envmon::prelude::*;
use moneq::remote::{
    decode_poll, decode_read_error, decode_read_reply, encode_poll, encode_read_error, serve_read,
    REQ_READ, RESP_FLAG,
};
use moneq::{ClusterResult, ClusterRun, DataPoint, EnvBackend, Poll};
use proptest::prelude::*;
use simkit::wire::{Frame, WireError, WireReader, WireWriter};
use std::sync::Arc;

/// Any `f64` bit pattern except NaN (NaN breaks `==` comparison, not the
/// codec), plus the edge values worth hitting every run.
fn wire_f64() -> impl Strategy<Value = f64> {
    (any::<u64>(), 0u8..8)
        .prop_map(|(bits, pick)| match pick {
            0 => 0.0,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => f64::MIN_POSITIVE,
            5 => f64::MAX,
            _ => f64::from_bits(bits),
        })
        .prop_filter("NaN has no ==", |v| !v.is_nan())
}

fn point() -> impl Strategy<Value = DataPoint> {
    (
        any::<u64>(),
        ".{0,16}",
        ".{0,16}",
        wire_f64(),
        prop::option::of(wire_f64()),
        prop::option::of(wire_f64()),
        prop::option::of(wire_f64()),
        any::<bool>(),
    )
        .prop_map(
            |(ts, device, domain, watts, volts, amps, temp_c, stale)| DataPoint {
                timestamp: SimTime::from_nanos(ts),
                device,
                domain,
                watts,
                volts,
                amps,
                temp_c,
                stale,
            },
        )
}

fn read_error() -> impl Strategy<Value = ReadError> {
    (0u8..4, ".{0,24}", any::<u64>()).prop_map(|(pick, msg, n)| match pick {
        0 => ReadError::Transient(msg),
        1 => ReadError::Timeout {
            stalled: SimDuration::from_nanos(n),
        },
        2 => ReadError::NoData,
        _ => ReadError::Unavailable(msg),
    })
}

/// A mechanism that answers every poll with one fixed result: the server
/// end of the totality properties.
struct Fixed(Result<Poll, ReadError>);

impl EnvBackend for Fixed {
    fn name(&self) -> &'static str {
        "fixed"
    }
    fn platform(&self) -> powermodel::Platform {
        powermodel::Platform::Rapl
    }
    fn min_interval(&self) -> SimDuration {
        SimDuration::from_millis(1)
    }
    fn poll_cost(&self) -> SimDuration {
        SimDuration::from_micros(3)
    }
    fn capabilities(&self) -> Vec<(powermodel::Metric, powermodel::Support)> {
        Vec::new()
    }
    fn read(&mut self, _t: SimTime) -> Result<Poll, ReadError> {
        self.0.clone()
    }
    fn records_per_poll(&self) -> usize {
        self.0.as_ref().map_or(0, |p| p.points.len())
    }
}

fn read_result() -> impl Strategy<Value = Result<Poll, ReadError>> {
    (
        any::<bool>(),
        prop::collection::vec(point(), 0..6),
        any::<u32>(),
        read_error(),
    )
        .prop_map(|(ok, points, missing, e)| {
            if ok {
                Ok(Poll { points, missing })
            } else {
                Err(e)
            }
        })
}

/// A valid `REQ_READ` request frame and the server's valid response to it.
fn read_exchange(seq: u64, result: Result<Poll, ReadError>) -> (Vec<u8>, Vec<u8>) {
    let request = Frame::new(REQ_READ, seq, Vec::new()).encode();
    let (_, response) =
        serve_read(&mut Fixed(result), SimTime::ZERO, &request).expect("a valid request is served");
    (request, response)
}

/// A BG/Q cluster with every session's backend deployed behind the given
/// link. Mirrors `cluster_parallel_prop.rs`; `with_host_cpus` lifts the
/// CPU cap so the real worker pool runs even on a single-CPU host.
fn run_remote_cluster(
    seed: u64,
    agents: usize,
    secs: u64,
    par_agents: usize,
    link: LinkSpec,
) -> ClusterResult {
    let profile = {
        let mut p = WorkloadProfile::new("prop", SimDuration::from_secs(secs));
        p.set_demand(
            Channel::Cpu,
            powermodel::PhaseBuilder::new()
                .phase(SimDuration::from_secs(secs), 0.6)
                .build(),
        );
        p
    };
    let mut machine = BgqMachine::new(BgqConfig::default(), seed);
    let boards: Vec<usize> = (0..agents.min(32)).collect();
    machine.assign_job(&boards, &profile);
    let machine = Arc::new(machine);
    let mut run = ClusterRun::launch(
        agents,
        None,
        |rank| Box::new(BgqBackend::new(machine.clone(), rank % 32)),
        |rank| format!("agent{rank:04}"),
        SimTime::ZERO,
    )
    .with_collection_plan(CollectionPlan::per_agent().deployed(Deployment::Remote(link)))
    .with_par_agents(par_agents)
    .with_host_cpus(par_agents.max(1));
    let end = SimTime::from_secs(secs);
    run.run_until(end);
    run.finalize(end)
}

proptest! {
    #![proptest_config(ProptestConfig::scaled(10))]

    #[test]
    fn frame_roundtrips_arbitrary_payloads(
        kind in any::<u8>(),
        seq in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        let frame = Frame::new(kind, seq, payload);
        let wire = frame.encode();
        prop_assert_eq!(Frame::decode(&wire).unwrap(), frame.clone());
        // Stream decode consumes exactly one frame, whatever follows.
        let mut stream = wire.clone();
        stream.extend_from_slice(&[0xA5; 13]);
        let (again, used) = Frame::decode_prefix(&stream).unwrap();
        prop_assert_eq!(again, frame);
        prop_assert_eq!(used, wire.len());
    }

    #[test]
    fn poll_codec_is_lossless_for_every_reading_shape(
        points in prop::collection::vec(point(), 0..24),
        missing in any::<u32>(),
    ) {
        let poll = Poll { points, missing };
        let mut w = WireWriter::new();
        encode_poll(&mut w, &poll);
        let payload = w.finish();
        let mut r = WireReader::new(&payload);
        let back = decode_poll(&mut r).unwrap();
        r.expect_end().unwrap();
        prop_assert_eq!(back, poll);
    }

    #[test]
    fn read_error_codec_is_lossless(e in read_error()) {
        let mut w = WireWriter::new();
        encode_read_error(&mut w, &e);
        let payload = w.finish();
        let mut r = WireReader::new(&payload);
        let back = decode_read_error(&mut r).unwrap();
        r.expect_end().unwrap();
        prop_assert_eq!(back, e);
    }

    /// Remote sessions stay order-independent: the worker pool must be a
    /// pure wall-clock optimization with the wire in the path, exactly as
    /// it is for local backends. The link carries real latency (but no
    /// faults) so the wire actually shifts timestamps — and shifts them
    /// identically at every pool width.
    #[test]
    fn remote_parallel_equals_remote_serial(
        seed in 0u64..1_000,
        agents in 4usize..12,
        workers in 2usize..6,
    ) {
        let link = LinkSpec::lan();
        let serial = run_remote_cluster(seed, agents, 3, 1, link);
        let parallel = run_remote_cluster(seed, agents, 3, workers, link);
        prop_assert_eq!(&serial.files, &parallel.files);
        prop_assert_eq!(&serial.overheads, &parallel.overheads);
        prop_assert_eq!(serial.dropped_records, parallel.dropped_records);
        for (s, p) in serial.files.iter().zip(&parallel.files) {
            prop_assert_eq!(s.render(), p.render());
        }
    }
}

proptest! {
    /// Bytes off the wire, whatever they are, decode to a value or a typed
    /// error. Both envelopes are tried: raw bytes (almost always stopped
    /// by the framing) and arbitrary payloads inside a valid frame, which
    /// reach the payload decoders past the checksum.
    #[test]
    fn arbitrary_bytes_decode_to_typed_errors(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        seq in any::<u64>(),
    ) {
        let _ = Frame::decode_prefix(&bytes);
        let mut server = Fixed(Ok(Poll { points: Vec::new(), missing: 0 }));
        let _ = serve_read(&mut server, SimTime::ZERO, &bytes);
        let _ = decode_read_reply(&bytes, seq);

        let request = Frame::new(REQ_READ, seq, bytes.clone()).encode();
        let served = serve_read(&mut server, SimTime::ZERO, &request);
        if bytes.is_empty() {
            prop_assert!(served.is_ok());
        } else {
            prop_assert_eq!(served, Err(WireError::Malformed("trailing bytes")));
        }
        let reply = Frame::new(REQ_READ | RESP_FLAG, seq, bytes).encode();
        let _ = decode_read_reply(&reply, seq);
    }

    /// A valid `READ` exchange carries the mechanism's result exactly, and
    /// every strict prefix and every single-byte flip of its request or
    /// response is rejected with a typed error by the framing, the server
    /// and the client alike. The FNV-1a checksum changes under any
    /// one-byte change of the bytes it covers, and a flip in the length
    /// field leaves the frame short or long.
    #[test]
    fn truncated_and_flipped_read_frames_are_typed_errors(
        seq in any::<u64>(),
        result in read_result(),
        cut in any::<prop::sample::Index>(),
        at in any::<prop::sample::Index>(),
        mask in 1u8..=255,
    ) {
        let (request, response) = read_exchange(seq, result.clone());
        prop_assert_eq!(decode_read_reply(&response, seq), result);
        for frame in [&request, &response] {
            let short = &frame[..cut.index(frame.len())];
            prop_assert_eq!(Frame::decode_prefix(short), Err(WireError::Truncated));
            let mut server = Fixed(Err(ReadError::NoData));
            prop_assert_eq!(
                serve_read(&mut server, SimTime::ZERO, short),
                Err(WireError::Truncated)
            );
            prop_assert!(matches!(
                decode_read_reply(short, seq),
                Err(ReadError::Transient(_))
            ));

            let mut flipped = frame.clone();
            flipped[at.index(frame.len())] ^= mask;
            prop_assert!(Frame::decode(&flipped).is_err());
            let original = Frame::decode(frame).unwrap();
            prop_assert!(Frame::decode_prefix(&flipped).map_or(true, |(f, _)| f != original));
            prop_assert!(serve_read(&mut server, SimTime::ZERO, &flipped).is_err());
            prop_assert!(matches!(
                decode_read_reply(&flipped, seq),
                Err(ReadError::Transient(_))
            ));
        }
    }
}
