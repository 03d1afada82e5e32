//! Remote mechanisms: the full [`EnvBackend`] surface served over the
//! [`simkit::wire`] framed protocol.
//!
//! The paper's in-band/out-of-band axis made first-class: a
//! [`RemoteBackend`] wraps any local backend behind a [`SimTransport`], so
//! every poll becomes a request/response exchange that pays
//! serialize/flight/deserialize time on the virtual clock and is subject
//! to the link's drop/corrupt/reorder weather. The defining invariant
//! (asserted by the golden and property suites): over a zero-fault,
//! zero-cost link ([`LinkSpec::ideal`]) a remote session is byte-identical
//! to the local one — same records, same overhead ledger — and any nonzero
//! link latency shows up *exactly* in the overhead and staleness ledgers,
//! nowhere else.
//!
//! One request kind crosses the wire (the response echoes it with
//! [`RESP_FLAG`] set and the same sequence number):
//!
//! | kind | request payload | response payload |
//! |------|-----------------|------------------|
//! | [`REQ_READ`] | empty (poll instant = arrival time) | result tag + [`Poll`] or [`ReadError`] |
//!
//! Everything else a session asks of a mechanism — cadence, costs,
//! capabilities, limitations, gate counters — is a static fact or an
//! in-process ledger that a deployment knows out of band, so
//! [`RemoteBackend`] answers it from the wrapped backend and only polls pay
//! the wire.
//!
//! Error mapping ([`WireError`] → [`ReadError`], DESIGN.md §14): a wire
//! timeout becomes [`ReadError::Timeout`] carrying the exact accumulated
//! stall (so the session's fault-recovery ledger charges it like any
//! mechanism stall); every other wire failure is a retryable
//! [`ReadError::Transient`].

use crate::backend::{EnvBackend, GateStats, Poll, ReadError, StatedLimitation};
use crate::reading::DataPoint;
use powermodel::{Metric, Platform, Support};
use simkit::rng::mix64;
use simkit::wire::{Frame, LinkSpec, LinkStats, SimTransport, WireError, WireReader, WireWriter};
use simkit::{SimDuration, SimTime};

/// Request opcode: one poll.
pub const REQ_READ: u8 = 0x02;
/// OR-ed into a request opcode to form its response opcode.
pub const RESP_FLAG: u8 = 0x80;

/// Fewest payload bytes one encoded [`DataPoint`] takes: timestamp (8),
/// two empty string prefixes (4 + 4), watts (8), three absent-option tags
/// and the stale flag (1 each).
const MIN_POINT_BYTES: usize = 28;

fn encode_point(w: &mut WireWriter, p: &DataPoint) {
    w.u64(p.timestamp.as_nanos());
    w.str(&p.device);
    w.str(&p.domain);
    w.f64(p.watts);
    w.opt_f64(p.volts);
    w.opt_f64(p.amps);
    w.opt_f64(p.temp_c);
    w.bool(p.stale);
}

fn decode_point(r: &mut WireReader<'_>) -> Result<DataPoint, WireError> {
    Ok(DataPoint {
        timestamp: SimTime::from_nanos(r.u64()?),
        device: r.str()?.to_owned(),
        domain: r.str()?.to_owned(),
        watts: r.f64()?,
        volts: r.opt_f64()?,
        amps: r.opt_f64()?,
        temp_c: r.opt_f64()?,
        stale: r.bool()?,
    })
}

/// Encode one [`Poll`] (missing count + records; f64s as exact bit
/// patterns).
pub fn encode_poll(w: &mut WireWriter, poll: &Poll) {
    w.u32(poll.missing);
    w.u32(u32::try_from(poll.points.len()).expect("record count fits u32"));
    for p in &poll.points {
        encode_point(w, p);
    }
}

/// Decode one [`Poll`] written by [`encode_poll`].
pub fn decode_poll(r: &mut WireReader<'_>) -> Result<Poll, WireError> {
    let missing = r.u32()?;
    let count = r.u32()? as usize;
    // Preallocate only what the bytes left could hold: a corrupted count
    // cannot make the decoder allocate more than its input justifies.
    let mut points = Vec::with_capacity(count.min(r.remaining() / MIN_POINT_BYTES));
    for _ in 0..count {
        points.push(decode_point(r)?);
    }
    Ok(Poll { points, missing })
}

/// Encode a [`ReadError`] (tag + variant payload).
pub fn encode_read_error(w: &mut WireWriter, e: &ReadError) {
    match e {
        ReadError::Transient(m) => {
            w.u8(0);
            w.str(m);
        }
        ReadError::Timeout { stalled } => {
            w.u8(1);
            w.u64(stalled.as_nanos());
        }
        ReadError::NoData => w.u8(2),
        ReadError::Unavailable(m) => {
            w.u8(3);
            w.str(m);
        }
    }
}

/// Decode a [`ReadError`] written by [`encode_read_error`].
pub fn decode_read_error(r: &mut WireReader<'_>) -> Result<ReadError, WireError> {
    match r.u8()? {
        0 => Ok(ReadError::Transient(r.str()?.to_owned())),
        1 => Ok(ReadError::Timeout {
            stalled: SimDuration::from_nanos(r.u64()?),
        }),
        2 => Ok(ReadError::NoData),
        3 => Ok(ReadError::Unavailable(r.str()?.to_owned())),
        _ => Err(WireError::Malformed("read-error tag")),
    }
}

/// The server side: serve one `REQ_READ` frame arriving at virtual time
/// `at` from `backend`.
///
/// Returns the server's processing time (the mechanism's access-path
/// cost) and the encoded response frame. A frame that fails to decode
/// (truncated, corrupted in flight, unknown opcode, non-empty payload) is
/// a [`WireError`]; the server drops it on the floor, so the client sees
/// a timeout and retransmits, exactly like a real collection daemon
/// dropping a bad datagram.
pub fn serve_read(
    backend: &mut dyn EnvBackend,
    at: SimTime,
    request: &[u8],
) -> Result<(SimDuration, Vec<u8>), WireError> {
    let frame = Frame::decode(request)?;
    if frame.kind != REQ_READ {
        return Err(WireError::Malformed("request kind"));
    }
    WireReader::new(&frame.payload).expect_end()?;
    let mut w = WireWriter::new();
    // The poll instant is the frame's arrival time on the server clock: an
    // ideal link reads at the client's own instant; a latent link reads
    // later — that shift *is* the out-of-band staleness the ledgers must
    // show.
    match backend.read(at) {
        Ok(poll) => {
            w.u8(0);
            encode_poll(&mut w, &poll);
        }
        Err(e) => {
            w.u8(1);
            encode_read_error(&mut w, &e);
        }
    }
    let reply = Frame::new(REQ_READ | RESP_FLAG, frame.seq, w.finish());
    Ok((backend.poll_cost(), reply.encode()))
}

/// The client side: decode the response frame to `REQ_READ` number `seq`.
///
/// The server's own [`ReadError`] passes through unchanged; a frame that
/// fails to decode, answers another request, or carries a malformed
/// payload is a retryable [`ReadError::Transient`].
pub fn decode_read_reply(response: &[u8], seq: u64) -> Result<Poll, ReadError> {
    let wire = |e: WireError| ReadError::Transient(format!("wire: read reply {e}"));
    let frame = Frame::decode(response).map_err(wire)?;
    if frame.kind != REQ_READ | RESP_FLAG || frame.seq != seq {
        return Err(ReadError::Transient("wire: response mismatch".into()));
    }
    let mut r = WireReader::new(&frame.payload);
    let result = match r.u8().map_err(wire)? {
        0 => Ok(decode_poll(&mut r).map_err(wire)?),
        1 => Err(decode_read_error(&mut r).map_err(wire)?),
        _ => return Err(wire(WireError::Malformed("result tag"))),
    };
    r.expect_end().map_err(wire)?;
    result
}

/// A mechanism served over a [`SimTransport`].
///
/// Implements [`EnvBackend`] itself, so sessions, collection plans, the
/// cadence cache, and telemetry all compose unchanged: a poll turns into
/// a `REQ_READ` exchange whose round-trip time is charged through
/// [`EnvBackend::last_poll_cost`], and whose wire failures map onto the
/// [`ReadError`] taxonomy the session already degrades on.
///
/// Cost accounting mirrors the local charging discipline exactly: the
/// session charges one access-path crossing per poll, so only the first
/// *completed* exchange at each poll instant sets the charged cost
/// (session-level retries redraw values but never double-charge, locally
/// or remotely). Wire timeouts charge nothing here — their stall flows
/// through [`ReadError::Timeout`] into the fault-recovery ledger instead.
pub struct RemoteBackend {
    inner: Box<dyn EnvBackend>,
    transport: SimTransport,
    seq: u64,
    /// Last exchange instant and its exchange count, keying fault draws
    /// the same way [`crate::backend::FaultGate`] keys attempts: per
    /// `(instant, index)`, order-independent across devices.
    rpc_at: Option<(SimTime, u32)>,
    /// When the previous exchange concluded. A client cannot transmit a
    /// new request before the previous exchange finished, so sends are
    /// serialized on `max(poll instant, ready_at)` — which also keeps
    /// server-side arrival times monotonic (stateful mechanisms like
    /// RAPL's snapshot delta require time to move forward).
    ready_at: SimTime,
    /// The poll instant the charged cost below belongs to.
    cost_at: SimTime,
    /// Round-trip time of the first completed exchange at `cost_at`.
    cost: SimDuration,
}

impl RemoteBackend {
    /// Serve `inner` over a fresh [`SimTransport`] on `link`.
    pub fn connect(inner: Box<dyn EnvBackend>, link: LinkSpec) -> Self {
        Self::connect_salted(inner, link, 0)
    }

    /// [`RemoteBackend::connect`] with the link's noise streams salted —
    /// the cluster salts by rank so every rank's link has independent
    /// weather from one shared [`LinkSpec`].
    pub fn connect_salted(inner: Box<dyn EnvBackend>, link: LinkSpec, salt: u64) -> Self {
        RemoteBackend {
            inner,
            transport: SimTransport::with_salt(link, salt),
            seq: 0,
            rpc_at: None,
            ready_at: SimTime::ZERO,
            cost_at: SimTime::ZERO,
            cost: SimDuration::ZERO,
        }
    }
}

impl EnvBackend for RemoteBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn platform(&self) -> Platform {
        self.inner.platform()
    }

    fn min_interval(&self) -> SimDuration {
        self.inner.min_interval()
    }

    fn poll_cost(&self) -> SimDuration {
        self.inner.poll_cost()
    }

    fn capabilities(&self) -> Vec<(Metric, Support)> {
        self.inner.capabilities()
    }

    /// One `REQ_READ` exchange at instant `t`.
    fn read(&mut self, t: SimTime) -> Result<Poll, ReadError> {
        let index = match self.rpc_at {
            Some((at, n)) if at == t => n + 1,
            _ => 0,
        };
        self.rpc_at = Some((t, index));
        if self.cost_at != t {
            self.cost_at = t;
            self.cost = SimDuration::ZERO;
        }
        self.seq += 1;
        let seq = self.seq;
        let request = Frame::new(REQ_READ, seq, Vec::new()).encode();
        let key = mix64(t.as_nanos(), u64::from(index));
        // Serialize exchanges: a retry (or a poll whose predecessor
        // overran its slot) transmits when the line is free, not in the
        // past. On a clean link that never retries, send == t exactly.
        let send = if t > self.ready_at { t } else { self.ready_at };
        let RemoteBackend {
            inner, transport, ..
        } = self;
        let outcome = transport.round_trip(key, send, &request, &mut |at, bytes| {
            serve_read(inner.as_mut(), at, bytes).ok()
        });
        let (done, response) = match outcome {
            Ok(ok) => ok,
            Err(WireError::Timeout { stalled }) => {
                self.ready_at = send.saturating_add(stalled);
                return Err(ReadError::Timeout { stalled });
            }
            Err(other) => return Err(ReadError::Transient(format!("wire: {other}"))),
        };
        self.ready_at = done;
        // One access-path charge per poll instant: the first completed
        // exchange sets it, session-level retries don't double-charge.
        if self.cost.is_zero() {
            self.cost = done.saturating_since(send);
        }
        decode_read_reply(&response, seq)
    }

    fn read_cadence(&self) -> SimDuration {
        self.inner.read_cadence()
    }

    fn replayable(&self) -> bool {
        // A stored poll replays bit-exactly only when the wire can neither
        // delay nor damage it: any link cost shifts served timestamps, any
        // fault process is per-attempt state.
        self.inner.replayable() && self.transport.spec().is_free()
    }

    fn records_per_poll(&self) -> usize {
        self.inner.records_per_poll()
    }

    fn limitations(&self) -> Vec<StatedLimitation> {
        let mut out = self.inner.limitations();
        let spec = self.transport.spec();
        out.push(StatedLimitation::new(
            "deployment",
            format!(
                "served out-of-band over a link with {} flight latency; every poll is a framed round-trip",
                spec.latency
            ),
        ));
        out
    }

    fn gate_stats(&self) -> Option<GateStats> {
        self.inner.gate_stats()
    }

    fn last_poll_cost(&self) -> SimDuration {
        self.cost
    }

    fn wire_stats(&self) -> Option<LinkStats> {
        Some(self.transport.stats().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::wire::LinkSpec;

    /// A deterministic two-record backend with optional scripted failures.
    struct Bench {
        cost: SimDuration,
        fail_at: Option<u64>,
        reads: u64,
    }

    impl Bench {
        fn boxed(cost_us: u64) -> Box<dyn EnvBackend> {
            Box::new(Bench {
                cost: SimDuration::from_micros(cost_us),
                fail_at: None,
                reads: 0,
            })
        }
    }

    impl EnvBackend for Bench {
        fn name(&self) -> &'static str {
            "bench"
        }
        fn platform(&self) -> Platform {
            Platform::Rapl
        }
        fn min_interval(&self) -> SimDuration {
            SimDuration::from_millis(60)
        }
        fn poll_cost(&self) -> SimDuration {
            self.cost
        }
        fn capabilities(&self) -> Vec<(Metric, Support)> {
            vec![]
        }
        fn read(&mut self, t: SimTime) -> Result<Poll, ReadError> {
            self.reads += 1;
            if self.fail_at == Some(self.reads) {
                return Err(ReadError::NoData);
            }
            let mut a = DataPoint::power(t, "dev0", "pkg", 42.5);
            a.volts = Some(1.05);
            a.temp_c = Some(61.0);
            let b = DataPoint::power(t, "dev1", "dram", 7.25);
            Ok(Poll::with_missing(vec![a, b], 1))
        }
        fn records_per_poll(&self) -> usize {
            2
        }
    }

    #[test]
    fn point_and_poll_codecs_roundtrip_exactly() {
        let mut p = DataPoint::power(SimTime::from_nanos(123_456_789), "gpu0", "board", -0.0);
        p.volts = Some(f64::MIN_POSITIVE);
        p.amps = Some(1.0 / 3.0);
        p.stale = true;
        let poll = Poll::with_missing(vec![p, DataPoint::power(SimTime::ZERO, "", "", 5.5)], 3);
        let mut w = WireWriter::new();
        encode_poll(&mut w, &poll);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        let back = decode_poll(&mut r).unwrap();
        r.expect_end().unwrap();
        // PartialEq is not enough for the -0.0 payload: compare bits.
        assert_eq!(back.missing, poll.missing);
        assert_eq!(back.points.len(), poll.points.len());
        assert_eq!(
            back.points[0].watts.to_bits(),
            poll.points[0].watts.to_bits()
        );
        assert_eq!(back, poll);
    }

    #[test]
    fn every_read_error_variant_roundtrips() {
        let cases = [
            ReadError::Transient("EIO on msr 0x611".into()),
            ReadError::Timeout {
                stalled: SimDuration::from_millis(50),
            },
            ReadError::NoData,
            ReadError::Unavailable("sampling blackout".into()),
        ];
        for e in cases {
            let mut w = WireWriter::new();
            encode_read_error(&mut w, &e);
            let buf = w.finish();
            let mut r = WireReader::new(&buf);
            assert_eq!(decode_read_error(&mut r).unwrap(), e);
            r.expect_end().unwrap();
        }
    }

    #[test]
    fn ideal_link_read_matches_local_and_charges_poll_cost() {
        let t = SimTime::from_millis(560);
        let mut local = Bench::boxed(30);
        let want = local.read(t).unwrap();
        let mut remote = RemoteBackend::connect(Bench::boxed(30), LinkSpec::ideal());
        let got = remote.read(t).unwrap();
        assert_eq!(got, want, "ideal link must be value-transparent");
        // The charged cost over an ideal link is exactly the mechanism's
        // own poll cost (server processing time is the only time charged).
        assert_eq!(remote.last_poll_cost(), SimDuration::from_micros(30));
        assert_eq!(remote.poll_cost(), SimDuration::from_micros(30));
        let ws = remote.wire_stats().unwrap();
        assert_eq!((ws.tx, ws.rx, ws.timeouts), (1, 1, 0));
    }

    #[test]
    fn static_facts_mirror_the_inner_backend() {
        let remote = RemoteBackend::connect(Bench::boxed(30), LinkSpec::ideal());
        assert_eq!(remote.name(), "bench");
        assert_eq!(remote.poll_cost(), SimDuration::from_micros(30));
        assert_eq!(remote.gate_stats(), None);
        assert_eq!(remote.min_interval(), SimDuration::from_millis(60));
        assert_eq!(remote.read_cadence(), SimDuration::from_millis(60));
        assert_eq!(remote.records_per_poll(), 2);
        assert!(!remote.replayable());
        assert!(remote
            .limitations()
            .iter()
            .any(|l| l.aspect == "deployment"));
    }

    #[test]
    fn latent_link_shifts_read_instants_and_charges_the_wire() {
        let spec = LinkSpec {
            latency: SimDuration::from_millis(1),
            ..LinkSpec::ideal()
        };
        let t = SimTime::from_millis(560);
        let mut remote = RemoteBackend::connect(Bench::boxed(30), spec);
        let got = remote.read(t).unwrap();
        // The server read one flight later: timestamps shift by exactly
        // the request leg.
        assert_eq!(got.points[0].timestamp, t + SimDuration::from_millis(1));
        // Charged cost = 2 legs + processing, exactly.
        let req = Frame::new(REQ_READ, 1, Vec::new()).encode();
        let mut w = WireWriter::new();
        w.u8(0);
        encode_poll(&mut w, &got);
        let resp = Frame::new(REQ_READ | RESP_FLAG, 1, w.finish()).encode();
        assert_eq!(
            remote.last_poll_cost(),
            spec.leg_time(req.len()) + SimDuration::from_micros(30) + spec.leg_time(resp.len())
        );
    }

    #[test]
    fn server_error_passes_through_and_cost_charges_once() {
        let t = SimTime::from_millis(60);
        let mut inner = Bench {
            cost: SimDuration::from_micros(30),
            fail_at: Some(1),
            reads: 0,
        };
        let local_err = inner.read(t).unwrap_err();
        let mut remote = RemoteBackend::connect(
            Box::new(Bench {
                cost: SimDuration::from_micros(30),
                fail_at: Some(1),
                reads: 0,
            }),
            LinkSpec::ideal(),
        );
        assert_eq!(remote.read(t).unwrap_err(), local_err);
        // A session-level retry at the same instant completes but must
        // not double-charge the access path.
        assert!(remote.read(t).is_ok());
        assert_eq!(remote.last_poll_cost(), SimDuration::from_micros(30));
        // A new poll instant resets the charge.
        assert!(remote.read(SimTime::from_millis(120)).is_ok());
        assert_eq!(remote.last_poll_cost(), SimDuration::from_micros(30));
    }

    #[test]
    fn dead_link_maps_to_read_timeout_with_exact_stall() {
        let spec = LinkSpec::ideal().with_faults(1.0, 0.0, 0.0);
        let mut remote = RemoteBackend::connect(Bench::boxed(30), spec);
        let err = remote.read(SimTime::from_millis(60)).unwrap_err();
        let attempts = u64::from(spec.max_retrans) + 1;
        assert_eq!(
            err,
            ReadError::Timeout {
                stalled: SimDuration::from_nanos(spec.timeout.as_nanos() * attempts)
            }
        );
        assert!(err.is_retryable(), "wire timeouts retry like stalls");
        // Nothing completed, nothing charged.
        assert_eq!(remote.last_poll_cost(), SimDuration::ZERO);
    }

    #[test]
    fn read_many_is_one_read_exchange() {
        let t = SimTime::from_millis(60);
        let mut local = Bench::boxed(30);
        let want = local.read_many(t, 4).unwrap();
        let mut remote = RemoteBackend::connect(Bench::boxed(30), LinkSpec::ideal());
        let got = remote.read_many(t, 4).unwrap();
        assert_eq!(got, want);
        assert_eq!(got.len(), 4);
        // Batched charge: one access-path crossing for the whole batch.
        assert_eq!(remote.last_poll_cost(), SimDuration::from_micros(30));
        assert_eq!(remote.batched_cost(4), SimDuration::from_micros(30));
        assert_eq!(remote.wire_stats().unwrap().tx, 1);
    }

    #[test]
    fn server_rejects_malformed_and_unknown_frames() {
        let mut inner = Bench::boxed(30);
        let mut serve = |bytes: &[u8]| serve_read(inner.as_mut(), SimTime::ZERO, bytes);
        assert_eq!(serve(b"not a frame"), Err(WireError::Truncated));
        let unknown = Frame::new(0x7F, 1, Vec::new()).encode();
        assert_eq!(serve(&unknown), Err(WireError::Malformed("request kind")));
        let mut bad = Frame::new(REQ_READ, 1, Vec::new()).encode();
        let n = bad.len();
        bad[n - 1] ^= 0xFF;
        assert_eq!(serve(&bad), Err(WireError::BadChecksum));
        // Trailing payload on a bodyless request is rejected too.
        let junk = Frame::new(REQ_READ, 1, vec![9]).encode();
        assert_eq!(serve(&junk), Err(WireError::Malformed("trailing bytes")));
        let (_, reply) = serve(&Frame::new(REQ_READ, 7, Vec::new()).encode()).unwrap();
        assert!(decode_read_reply(&reply, 7).is_ok());
        assert!(decode_read_reply(&reply, 8).is_err(), "seq must match");
    }
}
